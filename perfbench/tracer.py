"""Layer wrappers for the traced benchmark run.

The wrappers time each layer from outside: every public function named in
``TIMED`` and ``COUNTED`` is replaced, in every ``wavesym`` module namespace
that binds it, by a wrapper that counts calls and, for timed functions,
adds the inclusive time of outermost calls only (a recursive or nested
call of the same function is counted but not timed again).  Timed calls
of the layers above ``expr`` also leave a span (name, start, end, parent)
in memory; ``summary`` hands spans and counters to the parent, which writes
them out when the run ends.  Nothing in ``wavesym`` itself is changed.
"""

import importlib
import math
import time
from collections import defaultdict

MODULES = ("expr", "parser", "linalg", "jet", "liealg", "detsys", "reference",
           "reduction", "numverify", "cli")

# (module, function): called often, timed
TIMED = (
    ("expr", "expand"), ("expr", "substitute"), ("expr", "collect_atoms"),
    ("expr", "eval_numeric"),
    ("jet", "prolong_coeff_second"),
    ("detsys", "extract_determining"), ("detsys", "on_shell"),
    ("detsys", "split_u_dependence"), ("detsys", "ansatz_solve"),
    ("detsys", "reference_implication_report"),
    ("linalg", "row_reduce"), ("linalg", "nullspace"), ("linalg", "solve_span"),
    ("liealg", "decompose_field"), ("liealg", "commutator_table"),
    ("liealg", "jacobi_check"), ("liealg", "flow"),
    ("reduction", "reduce"), ("reduction", "proportional_mod_heads"),
    ("reduction", "separation_check"),
    ("numverify", "rk4_solve"), ("numverify", "fd_residual"),
    ("numverify", "flow_transport_check"),
    ("cli", "main"), ("cli", "stage_derive"), ("cli", "stage_classify"),
    ("cli", "stage_reduce"), ("cli", "stage_verify"),
)
# constructors called millions of times: counted only, to keep overhead low
COUNTED = (("expr", "mul"), ("expr", "add"), ("expr", "rat"))

IMPLICATION = "detsys.reference_implication_report"
LSTSQ = "detsys.implication.lstsq"
# a span per outermost call would be one per expression operation here
NO_SPANS = ("expr.",)


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)
        self.seconds = defaultdict(float)
        self.sizes = defaultdict(int)
        self.active = defaultdict(int)
        self.spans = []
        self.open = []
        self.t0 = time.perf_counter()

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        """Import every wavesym module, then rebind each target function
        wherever a module namespace holds it (``from .expr import expand``
        makes a binding of its own in the importing module)."""
        import numpy.linalg

        mods = [importlib.import_module("wavesym")]
        mods += [importlib.import_module("wavesym." + m) for m in MODULES]
        by_name = {m.__name__.rsplit(".", 1)[-1]: m for m in mods}
        for targets, wrap in ((TIMED, self._timed), (COUNTED, self._counted)):
            for mod, fname in targets:
                orig = getattr(by_name[mod], fname)
                wrapper = wrap(f"{mod}.{fname}", orig)
                for m in mods:
                    for attr, val in list(vars(m).items()):
                        if val is orig:
                            setattr(m, attr, wrapper)
        # detsys looks lstsq up on numpy.linalg at call time
        numpy.linalg.lstsq = self._timed(LSTSQ, numpy.linalg.lstsq)

    def _counted(self, name, fn):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _timed(self, name, fn):
        calls, seconds, active = self.calls, self.seconds, self.active
        perf = time.perf_counter
        spans = not name.startswith(NO_SPANS)
        after = getattr(self, "_after_" + name.replace(".", "_"), None)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            if active[name]:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(args, kwargs, result, 0.0)
                return result
            active[name] = 1
            if spans:
                self.open.append(len(self.spans))
                self.spans.append([name, perf() - self.t0, None,
                                   self.open[-2] if len(self.open) > 1 else None])
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf() - start
                active[name] = 0
                seconds[name] += dt
                if spans:
                    self.spans[self.open.pop()][2] = perf() - self.t0
            if name in (LSTSQ, "expr.eval_numeric") and active[IMPLICATION]:
                seconds[name + "@report"] += dt
            if after is not None:
                after(args, kwargs, result, dt)
            return result

        return wrapper

    # -- sizes recorded from arguments and results --------------------------

    def _after_expr_expand(self, args, kwargs, result, dt):
        if result is args[0] or result == args[0]:
            self.sizes["expr.expand.unchanged"] += 1

    def _after_detsys_ansatz_solve(self, args, kwargs, result, dt):
        case = {"ExponentialCase": "i", "PowerCase": "ii"}[type(args[0]).__name__]
        key = f"detsys.ansatz_solve.{case}.d{result.spec.degree}"
        self.seconds[key] += dt
        self.sizes[key + ".equations"] += result.n_equations

    def _after_linalg_row_reduce(self, args, kwargs, result, dt):
        self.sizes["linalg.row_reduce.rows_in"] += len(args[0])
        self.sizes["linalg.row_reduce.pivots"] += len(result[1])
        ncols = args[1] if len(args) > 1 else kwargs["ncols"]
        key = "linalg.row_reduce.max_cols"
        self.sizes[key] = max(self.sizes[key], ncols)

    def _after_numverify_rk4_solve(self, args, kwargs, result, dt):
        self.sizes["numverify.rk4_solve.steps"] += len(result.xs) - 1

    def _after_numverify_fd_residual(self, args, kwargs, result, dt):
        grid = args[1] if len(args) > 1 else kwargs["grid"]
        self.sizes["numverify.fd_residual.points"] += math.prod(grid.n)

    # -- output -------------------------------------------------------------

    def summary(self) -> dict:
        return {
            "calls": dict(self.calls),
            "seconds": dict(self.seconds),
            "sizes": dict(self.sizes),
            "spans": self.spans,
        }
