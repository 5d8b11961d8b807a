"""
Layer spans for the traced benchmark run.

The benchmark does not instrument poromix itself.  It replaces the public
functions and methods of each poromix module with timing wrappers, at every
place the name is looked up: module globals that imported the function under
any name, and methods on their (frozen dataclass) classes.  Each wrapper
records one span per call; a layer's self time is its span minus the spans of
the wrapped calls made inside it.  Spans are aggregated per layer as they
close, so memory does not grow with the run length.

`Tracer.restore()` puts every original back, so correctness gates run on
unwrapped code.
"""

from __future__ import annotations

import inspect
import sys
import time


def _scalar_gemm(dom) -> int:
    """Flops of one separable scalar transform or projection on `dom`."""
    M, ns = dom.grid.M, dom.spec.Ns
    return 2 * M * ns * (M + ns)


def _velocity_gemm(dom) -> int:
    """Flops of one separable streamfunction product (half a pairing) on `dom`."""
    M, nv = dom.grid.M, dom.spec.Nv
    return 2 * M * nv * (M + nv)


# Wrapped Domain methods: layer name and matmul flops per call, as multiples
# of the two separable products above (e.g. a velocity pairing contracts two
# nodal fields, each through an (Nv, M) x (M, M) x (M, Nv) chain).
_DOMAIN_METHODS = (
    ("scalar_values", "domain.transform", _scalar_gemm),
    ("scalar_gradient_values", "domain.transform", lambda d: 2 * _scalar_gemm(d)),
    ("velocity_values", "domain.transform", lambda d: 2 * _velocity_gemm(d)),
    ("scalar_project", "domain.scalar_project", _scalar_gemm),
    ("velocity_pairing", "domain.velocity_pairing", lambda d: 2 * _velocity_gemm(d)),
)


class Tracer:
    """Per-layer call counts, inclusive and self times, plus run counters."""

    def __init__(self):
        self.stats: dict[str, list] = {}  # layer -> [calls, total_s, self_s]
        self.gemm_flops = 0  # computed from matmul shapes, not measured
        self.grid_M = 0
        self.steps_accepted = 0
        self.steps_rejected = 0
        self.missing: list[str] = []
        self._stack: list[float] = []
        self._undo: list = []

    def wrap(self, layer: str, fn, after=None):
        stat = self.stats.setdefault(layer, [0, 0.0, 0.0])
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                span = clock() - t0
                child = stack.pop()
                stat[0] += 1
                stat[1] += span
                stat[2] += span - child
                if stack:
                    stack[-1] += span
            if after is not None:
                after(args, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def patch_function(self, modules, owner, attr: str, layer: str, after=None):
        """Wrap `owner.attr` in every module that binds the same object."""
        orig = getattr(owner, attr, None)
        if orig is None:
            self.missing.append(f"{owner.__name__}.{attr}")
            return
        wrapped = self.wrap(layer, orig, after)
        for mod in modules:
            for name, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, name, wrapped)
                    self._undo.append((setattr, mod, name, orig))

    def patch_method(self, cls, attr: str, layer: str, after=None):
        raw = cls.__dict__.get(attr)
        if raw is None:
            self.missing.append(f"{cls.__name__}.{attr}")
            return
        if isinstance(raw, staticmethod):
            new = staticmethod(self.wrap(layer, raw.__func__, after))
        else:
            new = self.wrap(layer, raw, after)
        setattr(cls, attr, new)
        self._undo.append((setattr, cls, attr, raw))

    def patch_item(self, table: dict, key: str, layer: str):
        orig = table[key]
        table[key] = self.wrap(layer, orig)
        self._undo.append((dict.__setitem__, table, key, orig))

    def restore(self):
        while self._undo:
            op, obj, name, value = self._undo.pop()
            op(obj, name, value)

    # -- counters fed by `after` hooks -----------------------------------------

    def _note_domain(self, args, domain):
        self.grid_M = max(self.grid_M, domain.grid.M)

    def _note_result(self, args, result):
        self.steps_accepted += result.steps_accepted
        self.steps_rejected += result.steps_rejected

    def _flops(self, per_call):
        def after(args, out):
            self.gemm_flops += per_call(args[0])
        return after

    def _gram_flops(self, args, out):
        n = args[0].Nv ** 2
        self.gemm_flops += 2 * n * n  # two triangular solves

    # -- the layer map ---------------------------------------------------------

    def install(self):
        """Wrap every layer the benchmark reports; imports all of poromix first."""
        import poromix.cli  # noqa: F401  (loads every module whose names get patched)
        from poromix import config, diagnostics, domain, forcing, ledger, runio, solver, verify
        from poromix import mobility

        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "poromix" or n.startswith("poromix.")]
        fn, meth = self.patch_function, self.patch_method

        fn(modules, domain, "build_domain", "domain.build_domain", self._note_domain)
        for attr, layer, per_call in _DOMAIN_METHODS:
            meth(domain.Domain, attr, layer, self._flops(per_call))
        meth(domain.VelocityBasis, "solve_gram", "domain.solve_gram", self._gram_flops)
        fn(modules, mobility, "evaluate", "mobility.evaluate")
        meth(forcing.ForcingSpec, "evaluate", "forcing.evaluate")
        meth(solver.GalerkinSystem, "rhs", "solver.rhs")
        meth(solver.GalerkinSystem, "evaluate_with_diagnostics",
             "solver.evaluate_with_diagnostics")
        meth(solver.GalerkinSystem, "ledger_row", "solver.ledger_row")
        fn(modules, solver, "_attempt_step", "solver.attempt_step")
        fn(modules, solver, "run", "solver.run", self._note_result)
        meth(ledger.EnergyLedger, "write_csv", "ledger.write_csv")
        fn(modules, runio, "write_snapshot", "runio.write_snapshot")
        fn(modules, runio, "write_metadata", "runio.write_metadata")
        meth(config.RunConfig, "from_file", "config.from_file")
        meth(config.RunConfig, "build_initial", "config.build_initial")
        for name in diagnostics.__all__:
            if inspect.isfunction(getattr(diagnostics, name)):
                fn(modules, diagnostics, name, "diagnostics")
        suites = getattr(verify, "SUITES", None)
        if suites is None:
            self.missing.append("verify.SUITES")
        for name in suites or ():
            self.patch_item(suites, name, f"verify.{name}")

    def report(self) -> dict:
        return {
            "layers": self.stats,
            "gemm_flops": self.gemm_flops,
            "grid_M": self.grid_M,
            "steps_accepted": self.steps_accepted,
            "steps_rejected": self.steps_rejected,
            "missing": self.missing,
        }
