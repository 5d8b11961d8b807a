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
