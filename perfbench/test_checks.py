"""Tests of the benchmark's own checks: each accepts the program's real
report and rejects a doctored one.

    PYTHONPATH=src python3 -m pytest perfbench -q

The real reports come from ``wavesym.cli.main`` run in this process
(derive takes about 17 s)."""

import copy
import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
import run  # noqa: E402


@pytest.fixture(scope="module")
def reports(tmp_path_factory):
    from wavesym import cli

    cache = {}

    def get(*argv):
        if argv not in cache:
            out = tmp_path_factory.mktemp("rep") / "report.json"
            code = cli.main([*argv, "--format", "json", "--out", str(out)])
            cache[argv] = (json.loads(out.read_text()), code)
        rep, code = cache[argv]
        return copy.deepcopy(rep), code

    return get


# -- derive ---------------------------------------------------------------


def test_derive_real_report_passes(reports):
    assert checks.check_derive(*reports("derive")) == []


@pytest.mark.parametrize("name", ["xi_no_y", "phi_scale_x"])
def test_derive_rejects_flipped_verdict(reports, name):
    rep, code = reports("derive")
    cond = rep["stages"]["derive"]["reference_conditions"][name]
    cond["implied"] = not cond["implied"]
    assert any("not implied" in p for p in checks.check_derive(rep, code))


def test_derive_rejects_split_u_xy_equation(reports):
    rep, code = reports("derive")
    for e in rep["stages"]["derive"]["determining_system"]:
        if e["origin_monomial"] == "u_xy":
            e["expression_text"] = "2*f(u)*xi[0,1,0,0](x, y, t, u)"
    problems = checks.check_derive(rep, code)
    assert any("rotation violates" in p for p in problems)
    assert any("u_xy equation" in p for p in problems)


def test_derive_rejects_equation_that_x_dx_satisfies(reports):
    rep, code = reports("derive")
    rep["stages"]["derive"]["determining_system"] = [
        e for e in rep["stages"]["derive"]["determining_system"]
        if e["origin_monomial"] not in ("u_xx", "u_yy")
    ]
    rep["stages"]["derive"]["n_equations"] -= 2
    assert any("x*d/dx alone" in p for p in checks.check_derive(rep, code))


# -- classify -------------------------------------------------------------


@pytest.mark.parametrize("case", ["i", "ii"])
def test_classify_real_reports_pass(reports, case):
    for degree in (2, 3):
        rep, code = reports("classify", "--case", case, "--degree", str(degree))
        assert checks.check_classify(rep, code, case, degree) == []


@pytest.mark.parametrize("case", ["i", "ii"])
def test_classify_rejects_dimension_off_by_one(reports, case):
    rep, code = reports("classify", "--case", case, "--degree", "2")
    rep["stages"]["classify"]["dimension"] += 1
    problems = checks.check_classify(rep, code, case, 2)
    assert any(p.startswith("dimension") for p in problems)


@pytest.mark.parametrize("case", ["i", "ii"])
def test_classify_rejects_basis_missing_a_field(reports, case):
    rep, code = reports("classify", "--case", case, "--degree", "3")
    st = rep["stages"]["classify"]
    rotation = "(-y)*d/dx + (x)*d/dy"
    # same dimension, but the rotation replaced by a field that is no symmetry
    st["basis"] = ["(x)*d/dx" if b == rotation else b for b in st["basis"]]
    assert any("outside the solved span" in p
               for p in checks.check_classify(rep, code, case, 3))
    st["basis"] = [b for b in st["basis"] if b != "(x)*d/dx"]
    st["dimension"] -= 1
    problems = checks.check_classify(rep, code, case, 3)
    assert any(p.startswith("dimension") for p in problems)
    assert any("outside the solved span" in p for p in problems)


def test_classify_rejects_false_flag(reports):
    rep, code = reports("classify", "--case", "i", "--degree", "2")
    rep["stages"]["classify"]["jacobi_all_zero"] = False
    assert checks.check_classify(rep, code, "i", 2) == ["jacobi_all_zero is not true"]


# -- reduce ---------------------------------------------------------------


@pytest.mark.parametrize("case,gen", [("i", "v1"), ("i", "v4"), ("ii", "v1"), ("ii", "v4")])
def test_reduce_real_reports_pass(reports, case, gen):
    rep, code = reports("reduce", "--case", case, "--generator", gen)
    assert checks.check_reduce(rep, code, case, gen) == []


def test_reduce_rejects_reference_sign_of_planar_constraint(reports):
    rep, code = reports("reduce", "--case", "i", "--generator", "v4")
    rep["stages"]["reduce"]["explicit_constraint"] = "m^2 + p^2 - K^(-1)"
    assert checks.check_reduce(rep, code, "i", "v4") != []


def test_reduce_rejects_failed_elimination(reports):
    rep, code = reports("reduce", "--case", "ii", "--generator", "v1")
    rep["stages"]["reduce"]["elimination_verified"] = False
    assert checks.check_reduce(rep, code, "ii", "v1") == ["elimination not verified"]


# -- verify ---------------------------------------------------------------


def test_verify_real_report_passes(reports):
    assert checks.check_verify(*reports("verify"), (21, 21, 21)) == []


def test_verify_rejects_residual_above_tol(reports):
    rep, code = reports("verify")
    rep["stages"]["verify"]["reductions"]["ii_v4"]["max_residual"] = 2 * checks.TOL
    assert any("FD residual" in p for p in checks.check_verify(rep, code, (21, 21, 21)))


def test_verify_rejects_convergence_factor_outside_band(reports):
    rep, code = reports("verify")
    r = rep["stages"]["verify"]["reductions"]["i_v1"]
    r["convergence"][0][1] = 2.0 * r["convergence"][1][1]  # first order
    r["convergence_factor"] = 2.0
    problems = checks.check_verify(rep, code, (21, 21, 21))
    assert any("convergence factor" in p for p in problems)


def test_verify_rejects_rk4_order_and_transport(reports):
    rep, code = reports("verify")
    st = rep["stages"]["verify"]
    drift = st["first_integral"]["drift"]
    drift["0.025"] = drift["0.05"] / 4.0  # second order
    st["flow_transport"]["v2"]["transported_max"] = 1.0
    st["flow_transport"]["u_du_control"]["transported_max"] = 1e-8
    problems = checks.check_verify(rep, code, (21, 21, 21))
    assert any("RK4" in p for p in problems)
    assert any(p.startswith("v2:") for p in problems)
    assert any("control" in p for p in problems)


def test_verify_rejects_wrong_grid(reports):
    rep, code = reports("verify")
    assert any("grid" in p for p in checks.check_verify(rep, code, (61, 61, 61)))


# -- the contract file ------------------------------------------------------


def test_benchmark_json_matches_the_runner():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (name, unit, better) for name, (unit, better, _) in run.PER_LAYER.items()
    ]
