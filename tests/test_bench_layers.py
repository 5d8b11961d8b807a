"""The benchmark's traced layers must all exist in poromix, and what its
untraced workloads read of the API must keep working.

perfbench/tracing.py wraps poromix functions and methods by name.  A rename
(of `_attempt_step`, `rhs`, `ledger_row`, ...) would leave that layer
unwrapped, so it is caught here as well as in the benchmark.
"""

from pathlib import Path

import numpy as np


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
    # nodal `ForcingSpec.evaluate`.  The diagnostics' min C is on the
    # midpoint nodes and the walls too, so no wrapped Gauss-Legendre method
    # is called.  max F(C) comes from the midpoint F(C) of the drag, so the
    # evaluation makes one mobility call either way.
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    import tracing

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
        "evaluate_with_diagnostics": (0, 0, 0, 1, 1, 0),
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


def test_cli_run_calls_the_solver_through_its_module_global(tmp_path, monkeypatch):
    # mild-ns32 replaces `cli.run` to time the end of set-up.  A call that
    # bypassed the module global would leave setup_s the whole run.
    import poromix.cli as cli

    calls = []
    solver_run = cli.run

    def stamped(*args, **kwargs):
        calls.append(args)
        return solver_run(*args, **kwargs)

    monkeypatch.setattr(cli, "run", stamped)
    cfg = tmp_path / "run.yaml"
    cfg.write_text("""
domain: {Lx: 3.141592653589793, Ly: 3.141592653589793, Ns: 4, Nv: 1}
params: {mu_e: 0.1, d: 0.1, kappa: 1.0}
mobility: {kind: constant, coefficients: [1.0]}
forcing: {preset: zero}
initial: {C: {preset: uniform, value: 0.5}, u: {preset: zero}}
solver: {T_run: 0.05}
outputs: {ledger_path: ledger.csv}
""")
    assert cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    assert len(calls) == 1


def test_stiff_drag_input_reads_the_nodes_and_projects_nodal_values():
    # stiff-drag forms its initial C from domain.grid.x and .y, 1-D node
    # arrays, as values of shape (x.size, y.size) that grid_to_scalar projects.
    from poromix import DomainSpec, build_domain, grid_to_scalar

    domain = build_domain(DomainSpec(Lx=np.pi, Ly=np.pi, Ns=16, Nv=4))
    x, y = domain.grid.x, domain.grid.y
    assert x.ndim == y.ndim == 1 and x.size == y.size > domain.spec.Ns
    values = 0.8 + 0.3 * np.cos(x)[:, None] * np.cos(2 * y)[None, :]
    C = grid_to_scalar(domain, values)
    assert np.abs(domain.scalar_values(C.coeffs) - values).max() <= 1e-12
