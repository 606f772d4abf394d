"""Command-line driver: derive | classify | reduce | verify | report-all.

Every command assembles a deterministic report (text or JSON; identical
config and version give byte-identical output) and exits 0 when all checks
pass, 1 when a mathematical check fails, 2 on a usage or configuration
error.  Known disagreements with the bundled reference results are always
attached under ``discrepancy_flags``.

Note: the classify command follows the reference's expectation that the
polynomial ansatz yields a five-dimensional algebra.  The engine actually
finds more generators (rotation, and for the exponential family the
quadratic conformal fields), so classify at the default degree reports the
larger space, flags the discrepancy, and exits 1 on the dimension check by
design; the engine-level checks (exact residuals, containment of the
reference basis, its commutator table) are reported separately."""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from collections import namedtuple
from fractions import Fraction

from . import __version__, reference
from .detsys import (
    AnsatzSpec, DetSysError, ExponentialCase, Generic, PowerCase,
    ansatz_solve, extract_determining,
    opaque_vectorfield, reference_implication_report,
)
from .expr import RAT0, format_expr, jet, param, rat
from .liealg import VectorField, commutator_table, decompose_fields, jacobi_check
from .reduction import (
    GENERATORS, REDUCTION_NAMES, ReductionError, TrivialInvariants, builtin_reduction,
    explicit_solution, explicit_solution_residual, invariance_check, reduce,
    separation_check,
)

SCHEMA_VERSION = 2


class ConfigError(Exception):
    pass


class RunConfig(namedtuple("RunConfig", "command case generator degree params grid_n box "
                                        "tol eps ode_step fmt out",
                           defaults=("i", "v1", 2, {}, (21, 21, 21), None, 1e-6, 0.3, 1e-5,
                                     "text", None))):
    """One command's settings; ``params`` maps --param names to Fractions
    and is never mutated, so the default dict can be shared."""

    __slots__ = ()

    def echo(self) -> dict:
        return {
            "command": self.command,
            "case": self.case,
            "generator": self.generator,
            "degree": self.degree,
            "params": {k: str(v) for k, v in sorted(self.params.items())},
            "grid_n": list(self.grid_n),
            "box": [list(b) for b in self.box] if self.box else None,
            "tol": self.tol,
            "eps": self.eps,
            "ode_step": self.ode_step,
        }


def _parse_rational(name: str, text: str) -> Fraction:
    """An exact --param value; every stage also evaluates it as a float, so a
    nonzero one must be a normal float in magnitude.  An exponent of 10^4 or
    more is out of range for any mantissa Fraction takes (4300 digits at most)."""
    exponent = re.search(r"e[-+]?([\d_]+)\s*$", text, re.IGNORECASE)
    if exponent and len(exponent[1].replace("_", "").lstrip("0")) > 4:
        raise ConfigError(f"bad --param: {name}={text} is out of the float range")
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError) as err:
        raise ConfigError(f"bad rational {text!r}: {err}") from None
    if value and not sys.float_info.min <= abs(value) <= sys.float_info.max:
        raise ConfigError(f"bad --param: {name}={text} is out of the float range")
    return value


def _family(config: RunConfig):
    p = config.params

    def sym(name):
        return rat(p[name]) if name in p else param(name)

    e1 = p.get("e1")
    if config.case == "ii" and e1 and abs((1 / e1).numerator) > MAX_EXPONENT_NUMERATOR:
        raise ConfigError(f"bad --param: e1={e1} gives f the exponent 1/e1 = {1 / e1}, "
                          f"whose numerator is larger than {MAX_EXPONENT_NUMERATOR} in magnitude")
    try:
        if config.case == "i":
            return ExponentialCase(sym("K"), sym("c"))
        if config.case == "ii":
            return PowerCase(sym("L"), sym("e1"), sym("e2"))
    except DetSysError as err:
        raise ConfigError(str(err)) from None
    raise ConfigError(f"unknown case {config.case!r}")


# --param names: the family parameters, then the reconstructions' (see
# ode.DEFAULTS; each reads only its own)
PARAM_NAMES = ("K", "c", "L", "e1", "e2", "c1", "c_sep", "m", "p", "q",
               "sig2_a", "sig2_b", "sig1_0", "harmonic_xy")


def _numeric_params(config: RunConfig, key) -> dict:
    from .ode import DEFAULTS

    return {**DEFAULTS[key].params,
            **{name: float(value) for name, value in config.params.items()}}


def _grid(config: RunConfig, key):
    from .ode import DEFAULTS

    g = DEFAULTS[key].grid
    return g._replace(box=config.box or g.box, n=config.grid_n)


# ---------------------------------------------------------------------------
# stages


def stage_derive(config: RunConfig) -> dict:
    ds = extract_determining(opaque_vectorfield(), Generic())
    implication, check = reference_implication_report(ds)
    return {
        "determining_system": ds.serializable(),
        "n_equations": len(ds),
        "reference_conditions": {
            name: verdict for name, verdict in sorted(implication.items())
        },
        "conditions_not_implied": sorted(
            n for n, v in implication.items() if not v["implied"]
        ),
        "implication_check": check,
        "passed": True,  # reporting stage; disagreements live in the flags
    }


def stage_classify(config: RunConfig) -> dict:
    if config.case not in ("i", "ii"):
        raise ConfigError("classify needs --case i or ii")
    fam = _family(config)
    space = ansatz_solve(fam, AnsatzSpec(config.degree))
    refbasis = fam.reference_basis()
    containment = []
    for rb, coeffs in zip(refbasis, decompose_fields(space.basis, refbasis)):
        containment.append(
            {
                "field": str(rb),
                "in_span": coeffs is not None,
                "coordinates": [format_expr(x) for x in coeffs] if coeffs else None,
            }
        )
    table = commutator_table(refbasis)
    triples = [
        (i, j, k, format_expr(c)) for i, j, k, c in table.structure_triples()
    ]
    expected = [
        (i, j, k, str(v)) for i, j, k, v in reference.STRUCTURE_TRIPLES
    ]
    table_match = triples == expected
    jac = jacobi_check(table)
    dimension_match = space.dimension == 5
    passed = (
        space.certificate
        and all(c["in_span"] for c in containment)
        and table_match
        and all(jac.values())
        and dimension_match
    )
    note = None
    if not dimension_match:
        if space.dimension < 5:
            note = (
                f"dimension {space.dimension} < 5: ansatz degree "
                f"{config.degree} too small to hold the reference basis"
            )
        else:
            note = (
                f"dimension {space.dimension} > 5: the reference "
                "classification omits admitted generators "
                "(see discrepancy_flags: missing_rotation, "
                "exponential_conformal_symmetries, power_case_dimension)"
            )
    return {
        "degree": config.degree,
        "dimension": space.dimension,
        "dimension_matches_reference": dimension_match,
        "dimension_note": note,
        "basis": [str(b) for b in space.basis],
        "residual_certificate": space.certificate,
        "reference_basis_containment": containment,
        "reference_table_grid": table.grid_strings(),
        "reference_table_triples": triples,
        "reference_table_matches": table_match,
        "jacobi_all_zero": all(jac.values()),
        "passed": passed,
    }


def stage_reduce(config: RunConfig) -> dict:
    if config.case not in ("i", "ii"):
        raise ConfigError("reduce needs --case i or ii")
    fam = _family(config)
    spec_or_trivial = builtin_reduction(config.case, config.generator, fam)
    if isinstance(spec_or_trivial, TrivialInvariants):
        return {
            "generator": config.generator,
            "trivial_invariants": list(spec_or_trivial.coordinates),
            "note": "invariants: arbitrary function of the listed coordinates",
            "passed": True,
        }
    spec = spec_or_trivial
    inv = invariance_check(spec)
    eq = reduce(spec)
    out = {
        "generator": config.generator,
        "invariant_coordinates": {
            name: format_expr(e) for name, e in spec.invariant_coords
        },
        "dependent_invariant": format_expr(spec.dependent_invariant),
        "ansatz": format_expr(spec.ansatz),
        "invariance_check": {k: bool(v) for k, v in inv.items()},
        "reduced_equation": format_expr(eq.expr),
        "elimination_verified": eq.elimination_verified,
        "reference_match": eq.reference_verdict,
        "reference_match_e1_1": eq.reference_verdict_e1_1,
        "flags": list(eq.flags),
    }
    checks = [all(inv.values()), eq.elimination_verified]
    checks.append(bool(eq.reference_verdict or eq.reference_verdict_e1_1))
    if config.generator == "v1":
        sep = separation_check(config.case, eq)
        out["separation_identity"] = sep["identity"]
        out["separation_negative_control_fails"] = not sep["flipped_identity"]
        checks += [sep["identity"], not sep["flipped_identity"]]
    if config.case == "i" and config.generator == "v4":
        m, p, q = param("m"), param("p"), param("q")
        con = explicit_solution_residual(m, p, q, fam, eq)
        sol = explicit_solution(m, p, q, fam)
        out["explicit_constraint"] = format_expr(con["constraint"])
        out["explicit_constraint_reference"] = format_expr(con["reference_constraint"])
        out["explicit_constraint_matches_reference"] = con["matches_reference"]
        out["explicit_solution_residual_zero"] = sol["residual_zero"]
        checks.append(sol["residual_zero"])
    out["passed"] = all(checks)
    return out


def stage_verify(config: RunConfig, csv_dir: str) -> dict:
    """The numeric checks: each reconstruction's residual with its
    refinement study ((i, v1) from the closed forms of zeta1 and zeta2,
    (ii, v1) from sig1's RK4 states at --ode-step), the explicit planar
    solution and its violated-constraint control, the RK4 first-integral
    order, and the flow transports."""
    # numpy comes with numverify, which only verify and report-all load
    from .numverify import (
        RECONSTRUCTIONS, fd_residual, first_integral_drift, flow_transport_check,
        reconstruct_case_i_v4, verify_reduction_numeric,
    )

    out: dict = {"reductions": {}, "csv_files": []}
    ok = True
    reports = {}
    for case_id, gen in RECONSTRUCTIONS:
        r = reports[case_id, gen] = verify_reduction_numeric(
            case_id, gen,
            params=_numeric_params(config, (case_id, gen)),
            grid=_grid(config, (case_id, gen)),
            tol=config.tol,
            ode_step=config.ode_step,
        )
        out["reductions"][f"{case_id}_{gen}"] = r.to_dict()
        ok = ok and r.passed
        if r.convergence:
            path = os.path.join(csv_dir, f"convergence_{case_id}_{gen}.csv")
            with open(path, "w") as fh:
                fh.write("h,max_residual,rms_residual\n")
                for h, mx, rms in r.convergence:
                    fh.write(f"{h!r},{mx!r},{rms!r}\n")
            out["csv_files"].append(path)
        if r.convergence_factor is not None:
            # second-order truncation: order 2.0 +/- 0.5 per halving
            ok = ok and 2.0**1.5 <= r.convergence_factor <= 2.0**2.5

    # explicit planar solution and its violated-constraint control; the
    # (i, v4) check above measured this solution on this grid already
    grid = _grid(config, ("i", "v4"))
    p = _numeric_params(config, ("i", "v4"))
    u, f = reconstruct_case_i_v4(p, grid)
    base_rep = reports["i", "v4"]._replace(convergence=[], convergence_factor=None,
                                           warnings=())
    out["explicit_solution"] = base_rep.to_dict()
    ok = ok and base_rep.passed
    m, pp = p["m"], p["p"]
    bad = dict(p)
    bad["K"] = -1.0 / (1.1 * (m * m + pp * pp))
    u_bad, f_bad = reconstruct_case_i_v4(bad, grid)
    bad_rep = fd_residual(u_bad, grid, f_bad, tol=config.tol)
    out["violated_constraint_residual"] = bad_rep.max_residual
    out["violated_constraint_detected"] = bad_rep.max_residual >= 1e-3
    ok = ok and out["violated_constraint_detected"]

    # flow transport for the five case (i) generators plus the non-symmetry
    c_val = rat(Fraction(p.get("c", 1.0)))  # exact value so flows compile numerically
    basis = reference.case_i_basis(c_val)
    transports = {}
    for k, v in enumerate(basis):
        t = flow_transport_check(u, f, v, config.eps, grid, base_report=base_rep,
                                 tol=config.tol)
        transports[f"v{k+1}"] = {
            "transported_max": t["transported"].max_residual,
            "ratio": t["ratio"],
            "within_factor": t["within_factor"],
        }
        ok = ok and t["within_factor"]
    control = flow_transport_check(
        u, f, VectorField(RAT0, RAT0, RAT0, jet("")), config.eps, grid,
        base_report=base_rep, tol=config.tol,
    )
    transports["u_du_control"] = {
        "transported_max": control["transported"].max_residual,
        "ratio": control["ratio"],
        "fails_by_1000x": control["ratio"] >= 1e3,
    }
    ok = ok and transports["u_du_control"]["fails_by_1000x"]
    out["flow_transport"] = transports

    drift = first_integral_drift(
        K=p.get("K", 1.0) if p.get("K", 1.0) > 0 else 1.0,
        c=p.get("c", 1.0), c1=p.get("c1", 1.0),
    )
    out["first_integral"] = {
        "drift": {f"{h!r}": d for h, d in sorted(drift["drift"].items(), reverse=True)},
        "order_estimate": drift["order_estimate"],
        "order_in_band": 3.5 <= drift["order_estimate"] <= 4.5,
    }
    ok = ok and out["first_integral"]["order_in_band"]
    out["passed"] = ok
    return out


# ---------------------------------------------------------------------------
# report assembly and rendering


def _assemble(config: RunConfig, stages: dict) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "tool": {"name": "wavesym", "version": __version__},
        "config": config.echo(),
        "stages": stages,
        "discrepancy_flags": dict(sorted(reference.KNOWN_DISCREPANCIES.items())),
        "overall_pass": all(s.get("passed", True) for s in stages.values()),
    }


def _render_text(report: dict) -> str:
    lines = []
    w = lines.append
    tool = report["tool"]
    w(f"{tool['name']} {tool['version']} -- schema {report['schema_version']}")
    w(f"command: {report['config']['command']}")
    w("")

    def emit(obj, indent=0):
        pad = "  " * indent
        if isinstance(obj, dict):
            for k, v in obj.items():
                if isinstance(v, (dict, list)) and v:
                    w(f"{pad}{k}:")
                    emit(v, indent + 1)
                else:
                    w(f"{pad}{k}: {v}")
        elif isinstance(obj, list):
            for item in obj:
                if isinstance(item, (dict, list)):
                    w(f"{pad}-")
                    emit(item, indent + 1)
                else:
                    w(f"{pad}- {item}")

    for name, stage in report["stages"].items():
        w(f"[{name}]")
        emit(stage, 1)
        w("")
    w("[discrepancy_flags]")
    for k, v in report["discrepancy_flags"].items():
        w(f"  {k}: {v}")
    w("")
    w(f"overall_pass: {report['overall_pass']}")
    return "\n".join(lines) + "\n"


def _emit(report: dict, config: RunConfig) -> None:
    if config.fmt == "json":
        text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    else:
        text = _render_text(report)
    if config.out:
        with open(config.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# argument parsing


CASES = ("i", "ii", "generic")
FORMATS = ("text", "json")


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="wavesym",
        description=(
            "Symmetry engine for u_tt = f(u)*(u_xx + u_yy): determining "
            "system, exact classification, similarity reductions, numeric "
            "verification."
        ),
    )
    # no defaults here: an unset flag falls back to the config file, then
    # to RunConfig
    ap.add_argument("command", choices=["derive", "classify", "reduce", "verify", "report-all"])
    ap.add_argument("--case", choices=CASES)
    ap.add_argument("--generator", choices=GENERATORS)
    ap.add_argument("--degree", type=int)
    ap.add_argument("--param", action="append", default=[],
                    metavar="NAME=RATIONAL", help="family/solution parameter")
    ap.add_argument("--grid", metavar="NX,NY,NT")
    ap.add_argument("--box", metavar="X0,X1,Y0,Y1,T0,T1")
    ap.add_argument("--tol", type=float)
    ap.add_argument("--eps", type=float)
    ap.add_argument("--ode-step", type=float)
    ap.add_argument("--format", dest="fmt", choices=FORMATS)
    ap.add_argument("--out")
    ap.add_argument("--config", help="JSON config file (flags win)")
    return ap


def _one_of(choices):
    def parse(value):
        if value not in choices:
            raise ValueError(f"{value!r} is not one of {', '.join(choices)}")
        return value
    return parse


# the finite-difference check holds one dense float64 residual of NX*NY*NT
# points and one slab of stencil terms (numverify.SLAB_POINTS), and squares
# the residual in place for the rms: verify at 125^3 = 1,953,125 points
# peaks at 47 MB RSS (x86-64 Xeon, numpy 2.4); the benchmark's largest grid
# is 61^3 = 226,981 points
MAX_GRID_POINTS = 2 * 10**6

# the power family's f = L*(e1*u + e2)^(1/e1) is expanded exactly, at a cost
# that grows with the numerator of 1/e1: classify --case ii --degree 5 takes
# 1.0 s at e1 = 1/64 and about n^2.2 at 1/n, and reduce at e1 = 1/2147483647
# did not finish in 120 s (x86-64 Xeon)
MAX_EXPONENT_NUMERATOR = 64


def _parse_grid(value) -> tuple:
    """NX,NY,NT, or the report's config echo: a list of three ints."""
    text = ",".join(map(str, value)) if isinstance(value, list) else str(value)
    items = text.split(",")
    if len(items) != 3 or not all(x.strip().isdigit() and int(x) >= 3 for x in items):
        raise ValueError(f"expected NX,NY,NT or a list of three integers >= 3, got {value!r}")
    grid = tuple(map(int, items))
    if math.prod(grid) > MAX_GRID_POINTS:
        raise ValueError(f"{math.prod(grid)} grid points, more than {MAX_GRID_POINTS}")
    return grid


def _parse_box(value) -> tuple:
    """X0,X1,Y0,Y1,T0,T1, or the report's config echo: three [lo, hi] pairs."""
    try:
        text = value if isinstance(value, str) else ",".join(f"{lo},{hi}" for lo, hi in value)
        vals = [float(x) for x in text.split(",")]
    except (TypeError, ValueError):
        vals = []
    box = tuple(zip(vals[0::2], vals[1::2]))
    if len(vals) != 6 or not all(lo < hi for lo, hi in box):
        raise ValueError("expected X0,X1,Y0,Y1,T0,T1 or three [lo, hi] pairs "
                         f"with lo < hi, got {value!r}")
    return box


# config-file key -> (flag attribute, RunConfig field, parser)
SETTINGS = {
    "case": ("case", "case", _one_of(CASES)),
    "generator": ("generator", "generator", _one_of(GENERATORS)),
    "degree": ("degree", "degree", int),
    "grid": ("grid", "grid_n", _parse_grid),
    "box": ("box", "box", _parse_box),
    "tol": ("tol", "tol", float),
    "eps": ("eps", "eps", float),
    "ode_step": ("ode_step", "ode_step", float),
    "format": ("fmt", "fmt", _one_of(FORMATS)),
}


def _config_from_args(args) -> RunConfig:
    """One merge: a flag wins over the config file's value, which wins over
    the RunConfig default."""
    file_cfg = {}
    if args.config:
        with open(args.config) as fh:
            file_cfg = json.load(fh)
        if not isinstance(file_cfg, dict) or not isinstance(file_cfg.get("params", []), list):
            raise ConfigError("bad --config: expected a JSON object whose params are a list")
    params = {}
    for kv in [*file_cfg.get("params", []), *args.param]:
        name, sep, value = str(kv).partition("=")
        if not sep:
            raise ConfigError(f"--param needs NAME=VALUE, got {kv!r}")
        if name not in PARAM_NAMES:
            raise ConfigError(f"bad --param: unknown name {name!r}, expected one of "
                              f"{', '.join(PARAM_NAMES)}")
        params[name] = _parse_rational(name, value)
    fields = {}
    for key, (attr, name, parse) in SETTINGS.items():
        value = getattr(args, attr)
        if value is None:
            value = file_cfg.get(key)
        if value is not None:
            try:
                fields[name] = parse(value)
            except (AttributeError, TypeError, ValueError) as err:
                raise ConfigError(f"bad --{key.replace('_', '-')}: {err}") from None
    if args.command == "derive":
        fields.setdefault("case", "generic")
    if args.out and os.path.isdir(args.out):
        raise ConfigError(f"bad --out: {args.out!r} is a directory")
    if args.out and not os.path.isdir(os.path.dirname(args.out) or "."):
        raise ConfigError(f"bad --out: no directory {os.path.dirname(args.out)!r}")
    config = RunConfig(command=args.command, params=params, out=args.out, **fields)
    if config.degree < 0:
        raise ConfigError(f"bad --degree: {config.degree} < 0")
    if not (math.isfinite(config.ode_step) and config.ode_step > 0):
        raise ConfigError(f"bad --ode-step: {config.ode_step} must be finite and positive")
    if not (math.isfinite(config.tol) and config.tol > 0):
        raise ConfigError(f"bad --tol: {config.tol} must be finite and positive")
    if not (math.isfinite(config.eps) and config.eps != 0):
        raise ConfigError(f"bad --eps: {config.eps} must be finite and nonzero")
    if config.command in ("verify", "report-all"):
        _check_verify_config(config)
    return config


def _check_verify_config(config: RunConfig) -> None:
    """Refuse what ``stage_verify`` cannot run, before any stage does (and
    before numpy is loaded: ``ode`` holds all this needs)."""
    from .ode import DEFAULTS, MAX_ODE_STEPS, NumVerifyError, check_params, ode_margins

    try:  # each reconstruction's defaults under the exact --param values
        for defaults in DEFAULTS.values():
            check_params({**defaults.params, **config.params}, config.command)
    except NumVerifyError as err:
        raise ConfigError(f"--param {err}") from None
    for case in ("i", "ii"):  # K, c, L, e1 = 0 leave a family undefined
        _family(config._replace(case=case))
    pad = 8 * max(DEFAULTS[case, "v1"].grid.h for case in ("i", "ii"))
    if config.box and config.box[0][0] <= pad:  # v1 solutions live in y/x
        raise ConfigError(f"bad --box: x0 must exceed 8*h = {pad!r}, got {config.box[0][0]!r}")
    for case in ("i", "ii"):
        spans = [hi - lo for lo, hi in ode_margins(_grid(config, (case, "v1")))]
        if not config.ode_step < min(spans):
            raise ConfigError(
                f"bad --ode-step: {config.ode_step!r} is not shorter than the "
                f"({case}, v1) reconstruction's interval of length {min(spans):.3g}")
        span = max(spans)
        if not span / config.ode_step <= MAX_ODE_STEPS:
            raise ConfigError(
                f"bad --box or --ode-step: the ({case}, v1) reconstruction needs "
                f"{span / config.ode_step:.3g} RK4 steps, more than {MAX_ODE_STEPS}; "
                "raise x0 in --box or raise --ode-step")


def _check_failures() -> tuple:
    """The errors main reports as a failed check.  NumVerifyError counts once
    ode is loaded, and only ode and numverify raise it, so main need not
    import ode to catch it."""
    ode = sys.modules.get(f"{__package__}.ode")
    numeric = (ode.NumVerifyError,) if ode else ()
    return (DetSysError, ReductionError) + numeric


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = _config_from_args(args)
    except (ConfigError, OSError, json.JSONDecodeError) as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2

    csv_dir = os.path.dirname(config.out) or "." if config.out else "."
    stages: dict = {}
    try:
        if config.command == "derive":
            stages["derive"] = stage_derive(config)
        elif config.command == "classify":
            stages["classify"] = stage_classify(config)
        elif config.command == "reduce":
            stages["reduce"] = stage_reduce(config)
        elif config.command == "verify":
            stages["verify"] = stage_verify(config, csv_dir)
        else:  # report-all
            stages["derive"] = stage_derive(config)
            for case in ("i", "ii"):
                stages[f"classify_{case}"] = stage_classify(config._replace(case=case))
            for case, gen in REDUCTION_NAMES:
                stages[f"reduce_{case}_{gen}"] = stage_reduce(
                    config._replace(case=case, generator=gen))
            stages["verify"] = stage_verify(config, csv_dir)
    except (ConfigError,) as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except _check_failures() as err:
        print(f"check failed: {err}", file=sys.stderr)
        return 1

    report = _assemble(config, stages)
    _emit(report, config)
    return 0 if report["overall_pass"] else 1


if __name__ == "__main__":
    sys.exit(main())
