"""
One benchmark repetition, in a fresh process.

    python3 perfbench/worker.py WORKLOAD INPUT OUT_DIR TRACE

WORKLOAD is mild-ns32, stiff-drag or verify-all; INPUT is the generated
config (YAML for mild-ns32, JSON for stiff-drag, unused by verify-all);
OUT_DIR receives the run's files; TRACE is 0 or 1.  The last stdout line is
one JSON object: set-up and wall times, the speed gauge readings taken
over the timed run, peak RSS, the operations with their correctness
gates, the counts the parent compares across repetitions, and (traced) the
per-layer table.

Set-up time starts before `import poromix`, so nothing here imports numpy or
poromix at module level.
"""

from __future__ import annotations

import csv
import hashlib
import json
import resource
import signal
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

clock = time.perf_counter


def _op(name, passed, detail=""):
    return {"name": name, "passed": bool(passed), "detail": detail}


class Gauge:
    """Reads how fast the host runs while a timed run goes on.

    One reading times a fixed piece of work that uses no poromix code: small
    matrix products and elementwise NumPy on arrays of the benchmark's
    sizes, plus plain Python dictionary and loop work, the solver's mix.
    Other tenants of the host slow this machine by up to half, in spells
    from milliseconds to minutes, so `start` arms a timer that takes a
    reading every PERIOD_S while the run goes on; the time spent reading is
    taken out of the run's time.  The work is fixed, so a change to poromix
    moves the run's time but not the readings.  Traced runs take no timed
    readings, which would land inside the layers' spans.
    """

    ROUNDS = 300  # about 0.009 s on an undisturbed 2-vCPU Xeon
    PERIOD_S = 0.25

    def __init__(self):
        self.readings: list[float] = []
        self.spent = 0.0  # seconds of timed readings since `start`
        self._arrays = None

    def read(self):
        import numpy as np
        if self._arrays is None:
            rng = np.random.default_rng(0)
            self._arrays = rng.random((16, 76)), rng.random((76, 76))
        basis, field = self._arrays
        total = 0.0
        t0 = clock()
        for i in range(self.ROUNDS):
            coeffs = basis @ (field * 0.01) @ basis.T
            nodal = np.exp(field * 0.5) * field + field
            total += float(coeffs[0, 0]) + float(nodal[0, 0])
            row = {"step": i, "pair": (i, i + 1)}
            for j in range(20):
                total += row["pair"][j & 1] * 1e-9
        self.readings.append(clock() - t0)
        return total

    def _tick(self, _signum, _frame):
        t0 = clock()
        self.read()
        self.spent += clock() - t0

    def start(self, periodic: bool):
        """Read once, then every PERIOD_S until `stop` if `periodic`."""
        self.read()
        self.spent = 0.0
        if periodic:
            signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)

    def stop(self) -> float:
        """Disarm, read once more; returns the seconds spent reading since `start`."""
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        spent = self.spent
        self.read()
        return spent


# ---------------------------------------------------------------------------
# workloads: each runs the gauge over its timed run and returns
# (setup_s, wall_s, ops, counts)
# ---------------------------------------------------------------------------


def mild_ns32(cfg_path: Path, out_dir: Path, tracer, gauge):
    t0 = clock()
    import poromix  # noqa: F401
    import poromix.cli as cli
    import_s = clock() - t0
    if tracer is not None:
        tracer.install()

    # Set-up ends when the CLI hands the parsed, built initial state to the
    # solver; this one timestamp is the only hook in an untraced run.
    solver_entry = []
    to_solver = cli.run

    def stamped_run(*args, **kwargs):
        solver_entry.append(clock() - gauge.spent)
        return to_solver(*args, **kwargs)

    cli.run = stamped_run
    gauge.start(periodic=tracer is None)
    t1 = clock()
    code = cli.main(["run", "--config", str(cfg_path), "--out", str(out_dir)])
    wall = clock() - t1
    wall -= gauge.stop()
    cli.run = to_solver
    if tracer is not None:
        tracer.restore()
    setup = import_s + (solver_entry[0] - t1 if solver_entry else wall)

    import yaml
    cfg = yaml.safe_load(cfg_path.read_text())
    op, counts = _gate_mild(code, cfg, out_dir)
    return setup, wall, [op], counts


def _gate_mild(code, cfg, out_dir: Path):
    """Exit 0, completed at T_run, one ledger row per accepted step plus the
    initial row, and every energy residual within 10 (rtol max(E) + atol)."""
    counts = {}
    if code != 0:
        return _op("mild-ns32", False, f"exit code {code}"), counts
    meta = json.loads((out_dir / "metadata.json").read_text())
    counts = {"steps_accepted": meta["steps_accepted"], "steps_rejected": meta["steps_rejected"]}
    solver = cfg["solver"]
    ledger_path = out_dir / cfg["outputs"]["ledger_path"]
    raw = ledger_path.read_bytes()
    counts["ledger_sha256"] = hashlib.sha256(raw).hexdigest()
    rows = list(csv.DictReader(raw.decode().splitlines()))
    problems = []
    if meta["outcome"] != "completed":
        problems.append(f"outcome {meta['outcome']}")
    if meta["t_final"] != solver["T_run"]:
        problems.append(f"t_final {meta['t_final']!r} != T_run {solver['T_run']!r}")
    if len(rows) != meta["steps_accepted"] + 1:
        problems.append(f"{len(rows)} ledger rows for {meta['steps_accepted']} steps")
    worst = 0.0
    for prev, cur in zip(rows, rows[1:]):
        for res, energy in (("res_C", "l2_C"), ("res_u", "l2_u")):
            scale = max(abs(float(prev[energy])), abs(float(cur[energy])))
            bound = 10.0 * (solver["rtol"] * scale + solver["atol"])
            worst = max(worst, abs(float(cur[res])) / bound)
    if not worst <= 1.0:
        problems.append(f"energy residual at {worst:.3g} of its bound")
    snaps = out_dir / cfg["outputs"]["snapshot_dir"]
    n_snap = {f: len(list(snaps.glob(f"{f}_*.snap"))) for f in ("C", "ux", "uy")}
    if len(set(n_snap.values())) != 1 or n_snap["C"] < 1:
        problems.append(f"snapshot files {n_snap}")
    detail = "; ".join(problems) or f"worst residual {worst:.3g} of bound"
    return _op("mild-ns32", not problems, detail), counts


def stiff_drag(spec_path: Path, out_dir: Path, tracer, gauge):
    t0 = clock()
    import poromix as pm
    if tracer is not None:
        tracer.install()
    import numpy as np

    spec = json.loads(spec_path.read_text())
    dom = spec["domain"]
    domain = pm.build_domain(pm.DomainSpec(Lx=dom["Lx"], Ly=dom["Ly"], Ns=dom["Ns"], Nv=dom["Nv"]))
    p = spec["params"]
    params = pm.PhysicalParams(
        mu_e=p["mu_e"], d=p["d"], kappa=p["kappa"],
        korteweg=pm.KortewegParams(delta_hat=p["delta_hat"]),
        mobility=pm.MobilitySpec.exponential(p["R"]),
    )
    x, y = domain.grid.x, domain.grid.y
    ini = spec["initial"]
    grid = np.full((x.size, y.size), ini["mean"])
    for j, k, amp in [[1, 1, ini["amplitude"]]] + ini["modes"]:
        grid += amp * np.cos(j * x)[:, None] * np.cos(k * y)[None, :]
    C0 = pm.grid_to_scalar(domain, grid)
    u0 = pm.VelocityField(domain, np.zeros((dom["Nv"], dom["Nv"])))
    config = pm.SolverConfig(**spec["solver"])
    setup = clock() - t0

    gauge.start(periodic=tracer is None)
    t1 = clock()
    try:
        result = pm.run(pm.SimulationState(0.0, C0, u0), params, config)
    except Exception as exc:  # a raising run is one failed operation
        result = exc
    wall = clock() - t1
    wall -= gauge.stop()
    if tracer is not None:
        tracer.restore()
    if isinstance(result, Exception):
        return setup, wall, [_op("stiff-drag", False, f"raised {result!r}")], {}

    from poromix.diagnostics import segment_residual_bounds
    problems = []
    if result.outcome != "completed" or result.final_state.t != config.T_run:
        problems.append(f"outcome {result.outcome} at t={result.final_state.t!r}")
    worst = 0.0
    for which, col in (("C", "res_C"), ("u", "res_u")):
        bounds = segment_residual_bounds(result.ledger, config, which)
        for row, bound in zip(result.ledger.rows[1:], bounds):
            worst = max(worst, abs(getattr(row, col)) / bound)
    if not worst <= 1.0:
        problems.append(f"energy residual at {worst:.3g} of its bound")
    detail = "; ".join(problems) or f"worst residual {worst:.3g} of bound"
    counts = {"steps_accepted": result.steps_accepted, "steps_rejected": result.steps_rejected}
    return setup, wall, [_op("stiff-drag", not problems, detail)], counts


def verify_all(_input: Path, out_dir: Path, tracer, gauge):
    t0 = clock()
    import poromix  # noqa: F401
    from poromix import verify
    setup = clock() - t0
    if tracer is not None:
        tracer.install()

    gauge.start(periodic=tracer is None)
    t1 = clock()
    results = {}
    for name in verify.SUITE_NAMES:
        try:
            results[name] = verify.run_suite(name)
        except Exception as exc:  # a raising suite is one failed operation
            results[name] = exc
    wall = clock() - t1
    wall -= gauge.stop()
    if tracer is not None:
        tracer.restore()

    ops, measured = [], []
    for name, checks in results.items():
        if isinstance(checks, Exception):
            ops.append(_op(name, False, f"raised {type(checks).__name__}: {checks}"))
            continue
        for c in checks:
            ops.append(_op(f"{c.suite}/{c.name}", c.passed, c.line()))
            measured.append(f"{c.suite}/{c.name}={c.measured!r}")
    digest = hashlib.sha256("\n".join(measured).encode()).hexdigest()
    return setup, wall, ops, {"checks_sha256": digest}


WORKLOADS = {"mild-ns32": mild_ns32, "stiff-drag": stiff_drag, "verify-all": verify_all}


def _blas_threads() -> dict:
    """OpenBLAS thread counts in effect for each loaded OpenBLAS library."""
    import ctypes
    out = {}
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln and ".so" in ln})
    except OSError:
        return out
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, sym):
                getattr(lib, sym).restype = ctypes.c_int
                out[Path(path).name] = getattr(lib, sym)()
                break
    return out


def main(argv) -> int:
    workload, input_path, out_dir, trace = argv
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    tracer = None
    if trace == "1":
        from tracing import Tracer
        tracer = Tracer()
    gauge = Gauge()
    setup, wall, ops, counts = WORKLOADS[workload](Path(input_path), out_dir, tracer, gauge)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    import numpy
    import scipy
    record = {
        "setup_s": setup,
        "wall_s": wall,
        "gauge_s": gauge.readings,
        "peak_rss_mb": peak_kb / 1024.0,
        "ops": ops,
        "counts": counts,
        "env": {
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": {mod.__name__: "{name} {version}".format(
                **mod.show_config(mode="dicts")["Build Dependencies"]["blas"])
                for mod in (numpy, scipy)},
            "blas_threads": _blas_threads(),
        },
    }
    if tracer is not None:
        record["trace"] = tracer.report()
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
