"""
Command-line entry points.

    poromix run    --config cfg.yaml [--out DIR]
    poromix verify --suite NAME
    poromix sweep  --config cfg.yaml --vary param:lo:hi:n --report out.csv

`run` exits 0 on completion, 2 on detected blow-up, 1 on a failed run or
any error; configuration problems are listed exhaustively before exiting.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from .config import ConfigError, RunConfig
from .diagnostics import apriori_flags, fit_decay_rate
from .runio import METADATA_FILE, write_metadata, write_snapshot
from .solver import SimulationState, existence_time_bound, run

__all__ = ["main"]

_SWEEP_PARAMS = ("kappa", "d", "mu_e", "delta_hat", "R")
# Each sweep value is one full run; a count above this is a typo, not a sweep.
_MAX_SWEEP_RUNS = 10_000


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="poromix",
                                     description="Spectral porous-media flow simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="integrate one configured run")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--out", default=None, help="output directory (default: cwd)")

    p_verify = sub.add_parser("verify", help="run a named verification suite")
    p_verify.add_argument("--suite", required=True,
                          help="a suite name, or 'all'; an unknown name lists the suites")

    p_sweep = sub.add_parser("sweep", help="vary one parameter across runs")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--vary", required=True, action="append",
                         help="param:lo:hi:n (exactly one per invocation)")
    p_sweep.add_argument("--report", required=True)

    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "verify":
            return _cmd_verify(args)
        return _cmd_sweep(args)
    except ConfigError as exc:
        for line in exc.errors:
            print(f"config error: {line}", file=sys.stderr)
        return 1
    except (ValueError, OSError, RuntimeError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _build_inputs(cfg: RunConfig):
    """The domain, initial (C0, u0) and forcing of a config.

    Building reads and checks every file entry against the grid, which a
    forcing table sets.  Callers build these before they create any output,
    so a bad input leaves none behind.
    """
    domain = cfg.build_domain()
    C0, u0 = cfg.build_initial(domain)
    return domain, C0, u0, cfg.build_forcing(domain)


def _execute(cfg: RunConfig, out_dir: Path):
    domain, C0, u0, forcing = _build_inputs(cfg)
    out_dir.mkdir(parents=True, exist_ok=True)

    ledger_path = out_dir / cfg.outputs.ledger_path
    ledger_path.parent.mkdir(parents=True, exist_ok=True)

    snapshot_dir = out_dir / cfg.outputs.snapshot_dir
    cadence = cfg.outputs.snapshot_cadence
    snap_state = {"next": 0.0, "index": 0}

    def snapshot_sink(state: SimulationState):
        if state.t + 1e-12 < snap_state["next"]:
            return
        snapshot_dir.mkdir(parents=True, exist_ok=True)
        idx = snap_state["index"]
        cg = domain.scalar_values(state.C.coeffs)
        ux, uy = domain.velocity_values(state.u.coeffs)
        for name, grid in (("C", cg), ("ux", ux), ("uy", uy)):
            write_snapshot(snapshot_dir / f"{name}_{idx:06d}.snap", name, state.t, domain, grid)
        snap_state["index"] = idx + 1
        # Skip any ticks a long accepted step jumped across.
        ticks_done = math.floor(state.t / cadence + 1e-9) + 1
        snap_state["next"] = ticks_done * cadence

    result = run(
        SimulationState(0.0, C0, u0),
        cfg.params,
        cfg.solver,
        forcing=forcing,
        # With no cadence there is no sink, so run builds no per-step state.
        snapshot_sink=snapshot_sink if cadence > 0 else None,
    )

    result.ledger.write_csv(ledger_path)
    bound = existence_time_bound(C0, cfg.params)
    apriori = apriori_flags(result.ledger, cfg.params)
    write_metadata(out_dir / METADATA_FILE, {
        "outcome": result.outcome,
        "blowup_time": result.blowup_time,
        "failure": result.failure,
        "t_final": result.final_state.t,
        "steps_accepted": result.steps_accepted,
        "steps_rejected": result.steps_rejected,
        "steps_implicit": result.steps_implicit,
        "wall_time_seconds": result.wall_time,
        "existence_time_bound": bound,
        # The paper's energy verdict; dissipation_holds is null where the
        # inequality does not apply (the drag work went negative).
        "apriori": {"all_finite": apriori.all_finite,
                    "dissipation_holds": apriori.dissipation_holds},
        "config": cfg.to_dict(),
    })
    return result


def _cmd_run(args) -> int:
    cfg = RunConfig.from_file(args.config)
    out_dir = Path(args.out) if args.out else Path.cwd()
    result = _execute(cfg, out_dir)
    detail = f"t = {result.blowup_time:.6g}" if result.outcome == "blowup" else result.failure
    print(f"outcome: {result.outcome}" + (f" ({detail})" if detail else ""))
    print(f"ledger: {out_dir / cfg.outputs.ledger_path}")
    return {"completed": 0, "blowup": 2, "failed": 1}[result.outcome]


def _cmd_verify(args) -> int:
    # Imported here, so that `run` and `sweep` do not load the verification code.
    from .verify import SUITE_NAMES, run_suite

    names = SUITE_NAMES if args.suite == "all" else (args.suite,)
    all_passed = True
    for name in names:
        for check in run_suite(name):
            print(check.line())
            all_passed &= check.passed
    return 0 if all_passed else 1


def _parse_vary(text: str):
    parts = text.split(":")
    if len(parts) != 4:
        raise ValueError(f"malformed vary spec {text!r}; expected param:lo:hi:n")
    param, lo_s, hi_s, n_s = parts
    if param not in _SWEEP_PARAMS:
        raise ValueError(f"unknown sweep parameter {param!r}; choose from {_SWEEP_PARAMS}")
    try:
        lo, hi, n = float(lo_s), float(hi_s), int(n_s)
    except ValueError:
        raise ValueError(f"malformed vary spec {text!r}; lo/hi must be numbers, n an integer")
    if n < 1:
        raise ValueError("vary spec needs n >= 1")
    if n > _MAX_SWEEP_RUNS:
        raise ValueError(f"vary spec {text!r}: n={n} exceeds the limit of "
                         f"{_MAX_SWEEP_RUNS} runs per sweep")
    values = [lo] if n == 1 else list(np.linspace(lo, hi, n))
    return param, values


def _apply_param(raw: dict, param: str, value: float) -> dict:
    out = {k: (dict(v) if isinstance(v, dict) else v) for k, v in raw.items()}
    if param == "R":
        if out["mobility"].get("kind") != "exponential":
            raise ValueError("sweeping R requires exponential mobility")
        out["mobility"]["coefficients"] = [float(value)]
    else:
        out["params"][param] = float(value)
    return out


def _cmd_sweep(args) -> int:
    if len(args.vary) != 1:
        raise ValueError("sweep varies exactly one parameter per invocation; "
                         "compose sweeps by nesting calls")
    cfg = RunConfig.from_file(args.config)
    param, values = _parse_vary(args.vary[0])
    base_raw = cfg.to_dict()
    # Every run's config is checked, and the inputs that no sweep parameter
    # touches are built, before the report is opened, so a bad sweep leaves
    # no report behind.
    run_params = [RunConfig.from_dict(_apply_param(base_raw, param, value),
                                      base_dir=cfg.base_dir).params for value in values]
    _, C0, u0, forcing = _build_inputs(cfg)
    report_path = Path(args.report)
    report_path.parent.mkdir(parents=True, exist_ok=True)
    with open(report_path, "w") as fh:
        fh.write("param,value,outcome,blowup_time,decay_rate\n")
        for value, params in zip(values, run_params):
            result = run(SimulationState(0.0, C0, u0), params, cfg.solver, forcing=forcing)
            blow = result.blowup_time if result.blowup_time is not None else math.nan
            rate = fit_decay_rate(result.ledger, cfg.domain.Lx * cfg.domain.Ly)
            fh.write(f"{param},{value:.17g},{result.outcome},{blow:.17g},{rate:.17g}\n")
    print(f"sweep report: {report_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
