"""The benchmark's traced layers must all exist in poromix.

perfbench/tracing.py wraps poromix functions and methods by name.  A rename
(of `_attempt_step`, `rhs`, `ledger_row`, ...) would leave that layer
unwrapped, so it is caught here as well as in the benchmark.
"""

from pathlib import Path


def test_every_traced_layer_exists(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    import tracing

    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert tracer.missing == []
    finally:
        tracer.restore()


def test_traced_calls_of_one_evaluation(monkeypatch):
    # The per-layer counts of one evaluation of an 8/2 system with Korteweg
    # on and pulsed forcing.  Every product of the solution is on the
    # midpoint rule, whose `Domain.midpoint_*` methods the benchmark does not
    # wrap, and the preset forcing pairs in coefficient space without a
    # nodal `ForcingSpec.evaluate`.  What is left on the wrapped
    # Gauss-Legendre methods is the diagnostics' nodal C for min C: one
    # transform.  max F(C) comes from the midpoint F(C) of the drag, so the
    # evaluation makes one mobility call either way.
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    import tracing

    import numpy as np
    from poromix import (DomainSpec, ForcingSpec, GalerkinSystem, KortewegParams, MobilitySpec,
                         PhysicalParams, ScalarField, VelocityField, build_domain)

    domain = build_domain(DomainSpec(Lx=np.pi, Ly=np.pi, Ns=8, Nv=2))
    params = PhysicalParams(mu_e=0.1, d=0.1, kappa=1.0, korteweg=KortewegParams(delta_hat=0.1),
                            mobility=MobilitySpec.exponential(0.5))
    system = GalerkinSystem(domain, params, ForcingSpec.preset("pulsed_stream"))
    B = np.zeros((8, 8))
    B[0, 0], B[1, 1] = 1.0, 0.1
    y = system.pack(ScalarField(domain, B), VelocityField(domain, np.full((2, 2), 0.1)))
    layers = ("domain.transform", "domain.scalar_project", "domain.velocity_pairing",
              "domain.solve_gram", "mobility.evaluate", "forcing.evaluate")
    expected = {
        "rhs": (0, 0, 0, 1, 1, 0),
        "evaluate_with_diagnostics": (1, 0, 0, 1, 1, 0),
    }
    for method, counts in expected.items():
        tracer = tracing.Tracer()
        try:
            tracer.install()
            getattr(system, method)(0.3, y)
        finally:
            tracer.restore()
        got = tuple(tracer.stats.get(layer, [0])[0] for layer in layers)
        assert dict(zip(layers, got)) == dict(zip(layers, counts)), method
