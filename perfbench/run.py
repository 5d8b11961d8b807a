"""
poromix benchmark: three seeded workloads, each repetition in a fresh process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a poromix checkout (the program is imported from
`src/`).  Workloads:

  mild-ns32   `poromix run` in-process on a generated YAML config: Ns/Nv 32/8,
              exponential R=0.5, Korteweg on, kappa=1, pulsed forcing,
              rtol 1e-8, T_run 2, ledger plus snapshots every 0.1.
  stiff-drag  library `poromix.run` with default keywords: Ns/Nv 16/4,
              exponential R=8 around mean C 0.8, kappa=0, zero forcing,
              T_run 1; the drag, not accuracy, sets the step count.
  verify-all  every `poromix verify` suite in-process; each CheckResult is
              one operation.  It takes the seed but does not use it.

Repetitions run one after another (one process at a time, OpenBLAS pinned
to one thread) while the next is expected to end within S seconds, with at
least three.  With
`--trace 0` the last stdout line reports the medians of wall_s and setup_s,
each stated at a fixed host speed by a gauge read all through every timed
run, and of peak_rss_mb; with `--trace 1` repetitions alternate untraced and
traced and it reports the per-layer table (see README.md).  Every repetition's
operations pass a correctness gate; counts must repeat exactly across the
repetitions of one seed, and the mild-ns32 ledger must be byte-identical
with and without tracing.  Exit code is 0 when a result is printed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"

MIN_REPS = 3
MIN_TRACED = 2
RUN_LIMIT_S = 170.0  # a run must exit within 180 s
# Times are stated at the host speed at which the worker's Gauge reads this
# many seconds, about its reading on an undisturbed 2-vCPU Xeon.
GAUGE_REF_S = 0.01

# The parent never imports poromix; these match poromix.verify.SUITE_NAMES and
# the per_layer names in BENCHMARK.json.
SUITE_NAMES = ("diffusion", "logistic", "energy", "mass", "positivity", "decay",
               "velocity-decay", "perturbation", "mms", "lipschitz", "korteweg-reduction")

# Layers whose call count and self time are reported, and the ones reported
# by self time alone.
COUNTED_LAYERS = ("domain.build_domain", "domain.transform", "domain.scalar_project",
                  "domain.velocity_pairing", "domain.solve_gram", "mobility.evaluate",
                  "forcing.evaluate", "solver.rhs", "solver.evaluate_with_diagnostics",
                  "solver.run", "runio.write_snapshot")
TIMED_LAYERS = ("solver.attempt_step", "solver.ledger_row", "ledger.write_csv",
                "runio.write_metadata", "config.from_file", "config.build_initial",
                "diagnostics")


# ---------------------------------------------------------------------------
# seeded inputs
# ---------------------------------------------------------------------------


def make_input(workload: str, seed: int, work: Path) -> Path:
    """Write the workload's generated config; amplitudes come from the seed."""
    import random
    rng = random.Random(seed)
    if workload == "mild-ns32":
        import yaml
        c_modes = [[j, k, rng.uniform(0.05, 0.2)] for j, k in ((1, 0), (0, 1), (1, 1), (2, 1), (1, 2))]
        u_modes = [[j, k, rng.uniform(0.1, 0.4)] for j, k in ((1, 1), (2, 1), (1, 2))]
        cfg = {
            "domain": {"Lx": math.pi, "Ly": math.pi, "Ns": 32, "Nv": 8},
            "params": {"mu_e": 0.1, "d": 0.1, "kappa": 1.0, "delta_hat": 0.1, "gamma": 0.05},
            "mobility": {"kind": "exponential", "coefficients": [0.5]},
            "forcing": {"preset": "pulsed_stream"},
            "initial": {"C": {"preset": "cosine_mix", "offset": 0.5, "modes": c_modes},
                        "u": {"preset": "stream_mix", "modes": u_modes}},
            "solver": {"T_run": 2.0, "rtol": 1e-8, "atol": 1e-11},
            "outputs": {"ledger_path": "ledger.csv", "snapshot_cadence": 0.1,
                        "snapshot_dir": "snapshots"},
        }
        path = work / "run.yaml"
        path.write_text(yaml.safe_dump(cfg, sort_keys=False))
        return path
    if workload == "stiff-drag":
        modes = [[j, k, rng.uniform(-0.005, 0.005)] for j, k in ((1, 0), (0, 1), (2, 1), (1, 2))]
        spec = {
            "domain": {"Lx": math.pi, "Ly": math.pi, "Ns": 16, "Nv": 4},
            "params": {"mu_e": 0.1, "d": 0.1, "kappa": 0.0, "delta_hat": 0.1, "R": 8.0},
            "initial": {"mean": 0.8, "amplitude": 0.3, "modes": modes},
            "solver": {"T_run": 1.0, "rtol": 1e-8, "atol": 1e-11},
        }
        path = work / "spec.json"
        path.write_text(json.dumps(spec, indent=1))
        return path
    return work / "unused"


# ---------------------------------------------------------------------------
# repetitions
# ---------------------------------------------------------------------------


def worker_env() -> dict:
    """One BLAS thread, and byte code cached inside the checkout only."""
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.update({
        "OPENBLAS_NUM_THREADS": "1",
        "OMP_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
        "PYTHONHASHSEED": "0",
        "PYTHONPYCACHEPREFIX": str(WORK / "pycache"),
    })
    return env


def warm_up():
    """Fill the byte-code cache, which users do not pay for on every run."""
    code = (f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r}); "
            "import csv, ctypes, hashlib, resource, yaml, poromix.cli, poromix.verify, tracing")
    subprocess.run([sys.executable, "-c", code], cwd=HERE, env=worker_env(),
                   capture_output=True, timeout=RUN_LIMIT_S / 2, check=True)


def run_rep(workload: str, input_path: Path, out_dir: Path, trace: bool, timeout: float):
    """One repetition in a fresh worker process; returns its record or an error."""
    cmd = [sys.executable, str(HERE / "worker.py"), workload, str(input_path), str(out_dir),
           "1" if trace else "0"]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=worker_env(), capture_output=True, text=True,
                              timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        return None, f"timed out after {timeout:.0f} s"
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, f"worker exit {proc.returncode}: {proc.stderr.strip()[-2000:]}"
    try:
        return json.loads(lines[-1]), None
    except json.JSONDecodeError:
        return None, f"unparsable worker output: {lines[-1][:200]}"


def environment(seed: int, first: dict) -> dict:
    head = ROOT / ".git" / "HEAD"
    sha = None
    if head.is_file():
        ref = head.read_text().strip()
        sha = ref
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            sha = ref_file.read_text().strip() if ref_file.is_file() else ref
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    env = {"seed": seed, "git_sha": sha, "python": platform.python_version(),
           "nproc": os.cpu_count(), "cpu": cpu}
    env.update(first.get("env", {}))
    return env


def _median(records, key):
    return statistics.median(r[key] for r in records)


def at_ref_speed(record, key) -> float:
    """`record[key]` scaled from the host speed the gauge read over that
    repetition to the speed at which it reads GAUGE_REF_S."""
    return record[key] * GAUGE_REF_S / statistics.fmean(record["gauge_s"])


def _median_at_ref(records, key):
    return statistics.median(at_ref_speed(r, key) for r in records)


def _same(values) -> bool:
    return all(v == values[0] for v in values)


def layer_metrics(traced: list, untraced: list) -> dict:
    """Per-layer table from the traced repetitions (medians of times)."""
    def stat(layer, idx):
        return statistics.median(t["trace"]["layers"].get(layer, [0, 0.0, 0.0])[idx]
                                 for t in traced)

    first = traced[0]["trace"]
    out = {}
    for layer in COUNTED_LAYERS:
        out[f"{layer}.calls"] = (first["layers"].get(layer, [0])[0], "count")
        out[f"{layer}.self_s"] = (stat(layer, 2), "s")
    for layer in TIMED_LAYERS:
        out[f"{layer}.self_s"] = (stat(layer, 2), "s")
    for suite in SUITE_NAMES:
        out[f"verify.{suite}.wall_s"] = (stat(f"verify.{suite}", 1), "s")
    rhs = out["solver.rhs.calls"][0] + out["solver.evaluate_with_diagnostics.calls"][0]
    acc, rej = first["steps_accepted"], first["steps_rejected"]
    out["domain.grid_M"] = (first["grid_M"], "points")
    out["domain.gemm_flops_per_rhs"] = (first["gemm_flops"] / rhs if rhs else 0.0, "flop")
    out["solver.steps_accepted"] = (acc, "count")
    out["solver.steps_rejected"] = (rej, "count")
    out["solver.reject_ratio"] = (rej / (acc + rej) if acc + rej else 0.0, "ratio")
    out["solver.rhs_per_accepted_step"] = (rhs / acc if acc else 0.0, "count")
    # Raw times: the repetitions alternate, so both medians see the same host
    # spells, and traced ones read the gauge only twice, too few to scale by.
    out["trace.overhead_ratio"] = (_median(traced, "wall_s") / _median(untraced, "wall_s"),
                                   "ratio")
    return out


def determinism_problems(workload: str, untraced: list, traced: list) -> list:
    """Counts repeat exactly on one seed, traced or not."""
    problems = []
    every = untraced + traced
    counts = [r["counts"] for r in every]
    if not _same(counts):
        problems.append(f"{workload} counts differ between repetitions: {counts}")
    if traced:
        keyed = [(t["trace"]["grid_M"], t["trace"]["steps_accepted"],
                  t["trace"]["steps_rejected"],
                  sorted((k, v[0]) for k, v in t["trace"]["layers"].items())) for t in traced]
        if not _same(keyed):
            problems.append("traced call counts differ between repetitions")
        steps = counts[0].get("steps_accepted")
        if steps is not None and traced[0]["trace"]["steps_accepted"] != steps:
            problems.append("traced and untraced step counts differ")
    return problems


def _terminate(signum, _frame):
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    ap.add_argument("--workload", required=True, choices=("mild-ns32", "stiff-drag", "verify-all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # A terminated run raises here, so subprocess.run kills and reaps the
    # running worker and the work directory is removed.
    signal.signal(signal.SIGTERM, _terminate)

    if not (ROOT / "src" / "poromix" / "__init__.py").is_file():
        print(f"error: no poromix sources under {ROOT / 'src'}; run from a poromix checkout",
              file=sys.stderr)
        return 2

    work = WORK / f"{args.workload}-s{args.seed}-t{args.trace}-p{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        return measure(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args, work: Path) -> int:
    input_path = make_input(args.workload, args.seed, work)
    warm_up()
    untraced, traced, errors = [], [], []
    start = time.perf_counter()
    durations = []
    n = 0
    while True:
        # Start another repetition only if it is expected to end within
        # --seconds, so a run lasts about --seconds whatever the workload.
        elapsed = time.perf_counter() - start
        enough = len(untraced) >= (1 if args.trace else MIN_REPS) and (
            not args.trace or len(traced) >= MIN_TRACED)
        if enough and elapsed + statistics.median(durations) > args.seconds:
            break
        if durations and elapsed + max(durations) > RUN_LIMIT_S:
            break
        trace = bool(args.trace) and n % 2 == 1
        rep_dir = work / f"rep{n:03d}"
        t0 = time.perf_counter()
        record, err = run_rep(args.workload, input_path, rep_dir, trace,
                              RUN_LIMIT_S - elapsed)
        durations.append(time.perf_counter() - t0)
        shutil.rmtree(rep_dir, ignore_errors=True)
        n += 1
        if err is not None:
            errors.append(err)
            print(f"rep {n}: {err}", file=sys.stderr)
            break
        (traced if trace else untraced).append(record)
        failed = [o for o in record["ops"] if not o["passed"]]
        print(f"rep {n} {'traced' if trace else 'untraced'}: wall {record['wall_s']:.4f} s, "
              f"setup {record['setup_s']:.4f} s, gauge "
              f"{statistics.fmean(record['gauge_s']):.4f} s x{len(record['gauge_s'])}, "
              f"rss {record['peak_rss_mb']:.1f} MB, "
              f"ops {len(record['ops'])}, failed {len(failed)}")
        for o in failed:
            print(f"  FAILED {o['name']}: {o['detail']}")

    every = untraced + traced
    attempted = sum(len(r["ops"]) for r in every) + len(errors)
    failed = sum(1 for r in every for o in r["ops"] if not o["passed"]) + len(errors)
    problems = determinism_problems(args.workload, untraced, traced) if every else []
    for p in problems:
        print(f"determinism: {p}")
    correct = failed == 0 and not problems and bool(untraced) and (
        not args.trace or len(traced) >= MIN_TRACED)

    metrics = {}
    if args.trace and traced and untraced:
        metrics = layer_metrics(traced, untraced)
        missing = traced[0]["trace"]["missing"]
        if missing:
            print(f"trace: not wrapped (absent): {', '.join(missing)}")
    elif untraced:
        metrics = {"wall_s": (_median_at_ref(untraced, "wall_s"), "s"),
                   "setup_s": (_median_at_ref(untraced, "setup_s"), "s"),
                   "peak_rss_mb": (_median(untraced, "peak_rss_mb"), "MB")}
    fail_frac = failed / attempted
    if args.trace:
        metrics["fail_frac"] = (fail_frac, "ratio")

    record = {
        "workload": args.workload,
        "seed_used": args.workload != "verify-all",
        "environment": environment(args.seed, every[0]) if every else {"seed": args.seed},
        "samples": {"untraced": len(untraced), "traced": len(traced)},
        "fail_frac": fail_frac,
        "untraced_wall_s": [r["wall_s"] for r in untraced],
        "untraced_setup_s": [r["setup_s"] for r in untraced],
        "untraced_gauge_s": [r["gauge_s"] for r in untraced],
        "untraced_median_s": ({"wall_s": _median(untraced, "wall_s"),
                               "setup_s": _median(untraced, "setup_s")} if untraced else {}),
        "counts": every[0]["counts"] if every else {},
    }
    print("record: " + json.dumps(record))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
