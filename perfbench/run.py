"""Benchmark of the wavesym CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Each operation is one CLI
command, run through ``wavesym.cli.main`` in a fresh interpreter (users
pay the cold interning caches on every run), one child at a time, with
BLAS pinned to one thread and PYTHONHASHSEED set from ``--seed``.  A run
repeats whole rounds of its workload's operations until ``--seconds``
have passed (at least one round, and the last one is finished), checks every report
against hand-derived mathematics (``checks.py``), and prints one JSON
object as its last line of output.  ``--trace 1`` installs the layer
wrappers of ``tracer.py`` in the children and reports per-layer metrics
instead of end-to-end ones.  See README.md.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
CHILD = os.path.join(HERE, "child.py")
CHILD_TIMEOUT_S = 170.0
SETUP_PROBES = 4

sys.path.insert(0, HERE)
import checks  # noqa: E402


def _classify(case, degree):
    return (["classify", "--case", case, "--degree", str(degree)],
            lambda rep, code: checks.check_classify(rep, code, case, degree))


def _reduce(case, gen):
    return (["reduce", "--case", case, "--generator", gen],
            lambda rep, code: checks.check_reduce(rep, code, case, gen))


def _verify(n):
    grid = [] if n == 21 else ["--grid", f"{n},{n},{n}"]
    return (["verify", *grid],
            lambda rep, code: checks.check_verify(rep, code, (n, n, n)))


# Each workload exercises layers the others do not touch, so a change to
# one layer should move one workload and leave the others unchanged:
# derive is the implication test (lstsq and the all-pairs scan), classify
# the exact elimination, reduce-verify substitution, eval_numeric and the
# RK4/FD kernels.
WORKLOADS = {
    "derive": [(["derive"], checks.check_derive)],
    "classify": [_classify(c, d) for d in (2, 3, 4, 5) for c in ("i", "ii")],
    "reduce-verify": [_reduce(c, g) for c in ("i", "ii") for g in ("v1", "v4")]
    + [_verify(21), _verify(61)],
}

END_TO_END = {
    "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s",
}


def _c(name):
    return lambda a: a["calls"].get(name, 0)


def _s(name):
    return lambda a: a["seconds"].get(name, 0.0)


def _z(name):
    return lambda a: a["sizes"].get(name, 0)


def _scan_s(a):
    s = a["seconds"]
    return (s.get("detsys.reference_implication_report", 0.0)
            - s.get("detsys.implication.lstsq@report", 0.0)
            - s.get("expr.eval_numeric@report", 0.0))


def _report_s(a):
    s = a["seconds"]
    return s.get("cli.main", 0.0) - sum(
        s.get("cli.stage_" + st, 0.0) for st in ("derive", "classify", "reduce", "verify"))


def _share(num, den):
    return lambda a: num(a) / den(a) if den(a) else 0.0


# name -> (unit, better, value from one round's merged trace)
PER_LAYER = {
    "expr.expand.calls": ("count", "lower", _c("expr.expand")),
    "expr.expand.unchanged": ("count", "lower", _z("expr.expand.unchanged")),
    "expr.expand.unchanged_share": (
        "ratio", "lower", _share(_z("expr.expand.unchanged"), _c("expr.expand"))),
    "expr.expand.s": ("s", "lower", _s("expr.expand")),
    "expr.mul.calls": ("count", "lower", _c("expr.mul")),
    "expr.add.calls": ("count", "lower", _c("expr.add")),
    "expr.rat.calls": ("count", "lower", _c("expr.rat")),
    "expr.substitute.s": ("s", "lower", _s("expr.substitute")),
    "expr.collect_atoms.s": ("s", "lower", _s("expr.collect_atoms")),
    "expr.eval_numeric.calls": ("count", "lower", _c("expr.eval_numeric")),
    "expr.eval_numeric.s": ("s", "lower", _s("expr.eval_numeric")),
    "jet.prolong_coeff_second.s": ("s", "lower", _s("jet.prolong_coeff_second")),
    "detsys.extract_determining.s": ("s", "lower", _s("detsys.extract_determining")),
    "detsys.on_shell.s": ("s", "lower", _s("detsys.on_shell")),
    "detsys.split_u_dependence.s": ("s", "lower", _s("detsys.split_u_dependence")),
    "detsys.ansatz_solve.s": ("s", "lower", _s("detsys.ansatz_solve")),
    **{
        f"detsys.ansatz_solve.{c}.d{d}.s": ("s", "lower", _s(f"detsys.ansatz_solve.{c}.d{d}"))
        for c in ("i", "ii") for d in (2, 3, 4, 5)
    },
    **{
        f"detsys.ansatz_solve.{c}.d5.equations": (
            "count", "lower", _z(f"detsys.ansatz_solve.{c}.d5.equations"))
        for c in ("i", "ii")
    },
    "detsys.reference_implication_report.s": (
        "s", "lower", _s("detsys.reference_implication_report")),
    "detsys.implication.lstsq.calls": ("count", "lower", _c("detsys.implication.lstsq")),
    "detsys.implication.lstsq.s": ("s", "lower", _s("detsys.implication.lstsq")),
    "detsys.implication.scan_s": ("s", "lower", _scan_s),
    "linalg.row_reduce.calls": ("count", "lower", _c("linalg.row_reduce")),
    "linalg.row_reduce.s": ("s", "lower", _s("linalg.row_reduce")),
    "linalg.row_reduce.rows_in": ("count", "lower", _z("linalg.row_reduce.rows_in")),
    "linalg.row_reduce.pivots": ("count", "higher", _z("linalg.row_reduce.pivots")),
    "linalg.row_reduce.pivot_share": (
        "ratio", "higher",
        _share(_z("linalg.row_reduce.pivots"), _z("linalg.row_reduce.rows_in"))),
    "linalg.row_reduce.max_cols": ("count", "lower", _z("linalg.row_reduce.max_cols")),
    "linalg.nullspace.s": ("s", "lower", _s("linalg.nullspace")),
    "linalg.solve_span.calls": ("count", "lower", _c("linalg.solve_span")),
    "liealg.decompose_field.s": ("s", "lower", _s("liealg.decompose_field")),
    "liealg.commutator_table.s": ("s", "lower", _s("liealg.commutator_table")),
    "liealg.jacobi_check.s": ("s", "lower", _s("liealg.jacobi_check")),
    "liealg.flow.s": ("s", "lower", _s("liealg.flow")),
    "reduction.reduce.s": ("s", "lower", _s("reduction.reduce")),
    "reduction.proportional_mod_heads.calls": (
        "count", "lower", _c("reduction.proportional_mod_heads")),
    "reduction.proportional_mod_heads.s": (
        "s", "lower", _s("reduction.proportional_mod_heads")),
    "reduction.separation_check.s": ("s", "lower", _s("reduction.separation_check")),
    "numverify.rk4_solve.calls": ("count", "lower", _c("numverify.rk4_solve")),
    "numverify.rk4_solve.steps": ("count", "lower", _z("numverify.rk4_solve.steps")),
    "numverify.rk4_solve.s": ("s", "lower", _s("numverify.rk4_solve")),
    "numverify.fd_residual.calls": ("count", "lower", _c("numverify.fd_residual")),
    "numverify.fd_residual.points": ("count", "lower", _z("numverify.fd_residual.points")),
    "numverify.fd_residual.s": ("s", "lower", _s("numverify.fd_residual")),
    "numverify.flow_transport_check.s": (
        "s", "lower", _s("numverify.flow_transport_check")),
    "cli.report.s": ("s", "lower", _report_s),
    "cli.report.bytes": ("bytes", "lower", lambda a: a["report_bytes"]),
    "trace.wall_s": ("s", "lower", lambda a: a["wall_s"]),
}


# ---------------------------------------------------------------------------
# children


def _env(seed: int) -> dict:
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.update(
        PYTHONPATH=SRC,
        PYTHONHASHSEED=str(seed % 2**32),
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


def run_child(cli_argv: list, seed: int, trace: bool) -> dict:
    """Run one CLI command (or, with an empty argv, only the import) in a
    fresh interpreter inside a temporary directory of OUT.

    Returns setup_s, main_s, exit, cpu_s, rss_mb, report, report_bytes,
    trace and error (None on success)."""
    work = tempfile.mkdtemp(prefix="op-", dir=OUT)
    try:
        result_path = os.path.join(work, "child.json")
        report_path = os.path.join(work, "report.json")
        argv = list(cli_argv)
        if argv:
            argv += ["--format", "json", "--out", report_path]
        with open(os.path.join(work, "stderr.txt"), "w+") as err:
            launch = time.monotonic()
            proc = subprocess.Popen(
                [sys.executable, CHILD, result_path, repr(launch),
                 "1" if trace else "0", "--", *argv],
                cwd=work, env=_env(seed), stdout=subprocess.DEVNULL, stderr=err,
            )
            status, usage = _wait(proc, launch + CHILD_TIMEOUT_S)
            err.seek(0)
            stderr = err.read()
        out = {
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "rss_mb": usage.ru_maxrss / 1024.0,
            "error": None,
        }
        if not os.WIFEXITED(status) or os.WEXITSTATUS(status) != 0 \
                or not os.path.exists(result_path):
            out["error"] = f"child died (status {status}): {stderr.strip()[-400:]}"
            return out
        with open(result_path) as fh:
            out.update(json.load(fh))
        if argv:
            if out["exit"] == 2 or not os.path.exists(report_path):
                out["error"] = f"exit {out['exit']} without a report: {stderr.strip()[-400:]}"
            else:
                with open(report_path, "rb") as fh:
                    raw = fh.read()
                out["report_bytes"] = len(raw)
                try:
                    out["report"] = json.loads(raw)
                except ValueError as exc:
                    out["error"] = f"report is not JSON: {exc}"
        return out
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _wait(proc, deadline: float):
    """Reap the child with its own resource usage; kill it past the deadline."""
    try:
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid == proc.pid:
                proc.returncode = status
                return status, usage
            if time.monotonic() > deadline:
                proc.kill()
            time.sleep(0.01)
    except BaseException:
        proc.kill()
        try:
            os.wait4(proc.pid, 0)
        except ChildProcessError:  # already reaped
            pass
        proc.returncode = -1
        raise


# ---------------------------------------------------------------------------
# runs


def _merge(into: dict, trace: dict) -> None:
    for kind in ("calls", "seconds", "sizes"):
        acc = into[kind]
        for k, v in trace[kind].items():
            if k == "linalg.row_reduce.max_cols":
                acc[k] = max(acc.get(k, 0), v)
            else:
                acc[k] = acc.get(k, 0) + v


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    ops = WORKLOADS[workload]
    setups = []
    if not trace:
        for _ in range(SETUP_PROBES):
            probe = run_child([], seed, False)
            if probe["error"]:
                raise SystemExit(f"set-up probe failed: {probe['error']}")
            setups.append(probe["setup_s"])
    rounds, spans = [], []
    per_op = {i: {"main_s": [], "cpu_s": []} for i in range(len(ops))}
    attempted = failed = 0
    correct = True
    start = time.monotonic()
    while True:
        rnd = {"wall_s": 0.0, "rss_mb": 0.0, "report_bytes": 0,
               "calls": {}, "seconds": {}, "sizes": {}}
        for i, (argv, check) in enumerate(ops):
            attempted += 1
            res = run_child(argv, seed, trace)
            per_op[i]["cpu_s"].append(res["cpu_s"])
            rnd["rss_mb"] = max(rnd["rss_mb"], res["rss_mb"])
            problems = []
            if res["error"] is None:
                rnd["wall_s"] += res["main_s"]
                per_op[i]["main_s"].append(res["main_s"])
                rnd["report_bytes"] += res["report_bytes"]
                setups.append(res["setup_s"])
                try:
                    problems = check(res["report"], res["exit"])
                except (AttributeError, IndexError, KeyError, TypeError, ValueError,
                        ZeroDivisionError) as exc:
                    problems = [f"report unreadable by the checker: {exc!r}"]
                if problems:
                    correct = False
                if trace:
                    _merge(rnd, res["trace"])
                    spans.append({"argv": argv, "spans": res["trace"]["spans"]})
            if res["error"] or problems:
                failed += 1
                print(f"FAILED {' '.join(argv)}: {res['error'] or problems}",
                      file=sys.stderr)
        rounds.append(rnd)
        if time.monotonic() - start >= seconds:
            break
    return {"rounds": rounds, "per_op": per_op, "setups": setups, "spans": spans,
            "n_ops": len(ops),
            "attempted": attempted, "failed": failed, "correct": correct}


def metrics(result: dict, trace: bool) -> dict:
    rounds = result["rounds"]
    if trace:
        return {
            # median_low keeps counts whole: every round repeats them exactly
            name: {"value": statistics.median_low(fn(r) for r in rounds), "unit": unit}
            for name, (unit, _, fn) in PER_LAYER.items()
        }
    per_op = result["per_op"].values()
    # each operation's median over the rounds, summed over a round's
    # operations: one operation slowed by a busy neighbour moves it little
    values = {
        "wall_s": sum(statistics.median(o["main_s"]) for o in per_op if o["main_s"]),
        "cpu_s": sum(statistics.median(o["cpu_s"]) for o in per_op),
        "peak_rss_mb": max(r["rss_mb"] for r in rounds),
        # set-up summed over one round's operations, from the run's median
        # per-child set-up (probes included) so that one slow start does
        # not decide the figure
        "setup_s": result["n_ops"] * statistics.median(result["setups"]),
    }
    return {name: {"value": v, "unit": END_TO_END[name]} for name, v in values.items()}


def build() -> None:
    """Check that the source tree is there and compile its bytecode before
    anything is timed."""
    if not os.path.isfile(os.path.join(SRC, "wavesym", "cli.py")):
        raise SystemExit(f"no wavesym sources under {SRC}: run from a source checkout")
    os.makedirs(OUT, exist_ok=True)
    for d in (SRC, HERE):
        if not compileall.compile_dir(d, quiet=1):
            raise SystemExit(f"bytecode compilation failed in {d}")


def _terminate(signum, frame):
    # unwinds through run_child, which kills and reaps its child
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    build()
    trace = bool(args.trace)
    result = run(args.workload, args.seed, args.seconds, trace)
    out = {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics(result, trace),
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(OUT, f"result-{stem}.json"), "w") as fh:
        json.dump(out, fh, indent=1)
    if trace:
        with open(os.path.join(OUT, f"trace-{stem}.json"), "w") as fh:
            json.dump({"rounds": result["rounds"], "spans": result["spans"]}, fh)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
