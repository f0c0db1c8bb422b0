"""Command-line front end.

Verbs:
    map    build a radio map from a scenario config and save it
    fit    fit the SNR model to a saved radio map
    plan   end-to-end: map (or reuse), fit, initialize, descend, emit artifacts
    sweep  grid of (n_irs_elements, min_rate) plans with shared seeds
    audit  re-check a saved trajectory against the original constraints

Exit codes: 0 success, 2 infeasible problem (or failed audit), 3 bad
configuration or file format, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import sys
import traceback
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from . import artifacts, audit as audit_mod, radiomap, snrmodel
from .errors import (ConfigError, FileFormatError, FitFailureError, IrsPlanError,
                     SubproblemError)
from .scenario import Scenario, load_scenario, scenario_overrides
from .sco import PlanResult, ScoConfig, run

EXIT_OK = 0
EXIT_INFEASIBLE = 2
EXIT_CONFIG = 3
EXIT_NUMERICAL = 4


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="irsplan", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="verb", required=True)

    def add_common(p):
        p.add_argument("--config", required=True, help="scenario configuration file")
        p.add_argument("--M", type=int, default=None,
                       help="override the IRS element count")
        p.add_argument("--rmin", type=float, default=None,
                       help="override the rate requirement (Gbps)")

    p_map = sub.add_parser("map", help="build and save a radio map")
    add_common(p_map)
    p_map.add_argument("--out", required=True)
    p_map.add_argument("--grid", type=int, nargs=2, default=[100, 60],
                       metavar=("NX", "NY"))
    p_map.add_argument("--draws", type=int, default=200)
    p_map.add_argument("--seed", type=int, default=0)
    p_map.add_argument("--workers", type=int, default=1)

    p_fit = sub.add_parser("fit", help="fit the SNR model to a radio map")
    add_common(p_fit)
    p_fit.add_argument("--map", required=True, dest="map_file")
    p_fit.add_argument("--out", required=True)
    p_fit.add_argument("--mode", choices=["per_class", "global"], default="per_class")

    p_plan = sub.add_parser("plan", help="plan one trajectory end to end")
    add_common(p_plan)
    p_plan.add_argument("--out", required=True, help="output directory")
    p_plan.add_argument("--map", dest="map_file", help="reuse a saved radio map")
    p_plan.add_argument("--model", dest="model_file", help="reuse a fitted model")
    p_plan.add_argument("--grid", type=int, nargs=2, default=[100, 60],
                        metavar=("NX", "NY"))
    p_plan.add_argument("--draws", type=int, default=200)
    p_plan.add_argument("--seed", type=int, default=0)
    p_plan.add_argument("--fit-mode", choices=["per_class", "global"],
                        default="per_class")
    p_plan.add_argument("--manifest", help="rerun a saved summary.json manifest")

    p_sweep = sub.add_parser("sweep", help="grid of plans over M and rate levels")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--out", required=True)
    p_sweep.add_argument("--M", required=True,
                         help="comma-separated IRS element counts, e.g. 0,16,64")
    p_sweep.add_argument("--rmin", required=True,
                         help="comma-separated rate requirements in Gbps")
    p_sweep.add_argument("--grid", type=int, nargs=2, default=[100, 60],
                         metavar=("NX", "NY"))
    p_sweep.add_argument("--draws", type=int, default=200)
    p_sweep.add_argument("--seed", type=int, default=0)
    p_sweep.add_argument("--jobs", type=int, default=1)

    p_audit = sub.add_parser("audit", help="re-check a trajectory artifact")
    add_common(p_audit)
    p_audit.add_argument("--trajectory", required=True)
    p_audit.add_argument("--model", dest="model_file", required=True)

    return parser


def _load_scenario(args) -> Scenario:
    scenario = load_scenario(args.config)
    overrides = {}
    if getattr(args, "M", None) is not None:
        overrides["n_irs_elements"] = args.M
    if getattr(args, "rmin", None) is not None:
        overrides["min_avg_rate"] = args.rmin * 1e9
    return scenario_overrides(scenario, **overrides) if overrides else scenario


def _cmd_map(args) -> int:
    scenario = _load_scenario(args)
    built = radiomap.build_map(scenario, nx=args.grid[0], ny=args.grid[1],
                               draws_per_cell=args.draws, seed=args.seed,
                               workers=args.workers)
    radiomap.save_map(built, args.out)
    counts = {}
    for ap in (True, False):
        for irs in (True, False):
            label = f"ap={'LOS' if ap else 'NLOS'} irs={'LOS' if irs else 'NLOS'}"
            counts[label] = int(np.sum((built.ap_los == ap) & (built.irs_los == irs)))
    print(f"radio map {built.nx}x{built.ny} ({args.draws} draws/cell) -> {args.out}")
    for label, count in counts.items():
        print(f"  {label}: {count} cells")
    return EXIT_OK


def _cmd_fit(args) -> int:
    scenario = _load_scenario(args)
    built = radiomap.load_map(args.map_file)
    if built.scenario_hash != scenario.channel_fingerprint():
        raise ConfigError(
            f"map was built for channel {built.scenario_hash}, current is "
            f"{scenario.channel_fingerprint()} (check --M / config)", key="map"
        )
    model = snrmodel.fit(built, scenario, mode=args.mode)
    snrmodel.save_model(model, args.out)
    print(f"model ({args.mode}) -> {args.out}")
    for link, cf in model.fits.items():
        print(f"  [{link.label()}] gain_irs={cf.gain_irs:.6g} gain_cross={cf.gain_cross:.6g} "
              f"gain_direct={cf.gain_direct:.6g} exp_irs={cf.exp_irs:.4f} "
              f"exp_ap={cf.exp_ap:.4f} rms={cf.residual_rms:.4f} cells={cf.n_cells}"
              + (f" (inherited from {cf.inherited_from})" if cf.inherited_from else ""))
    return EXIT_OK


def _plan_once(scenario: Scenario, out_dir: Path, map_file=None, model_file=None,
               grid=(100, 60), draws=200, seed=0, fit_mode="per_class",
               sco_config=ScoConfig()) -> tuple:
    """Shared by plan and sweep. Returns (exit_code, summary dict)."""
    out_dir.mkdir(parents=True, exist_ok=True)
    fingerprint = scenario.channel_fingerprint()

    if model_file:
        model = snrmodel.load_model(model_file)
        if model.scenario_hash and model.scenario_hash != fingerprint:
            raise ConfigError(
                f"model was fitted for channel {model.scenario_hash}, current is "
                f"{fingerprint}", key="model"
            )
        map_meta = {"source": str(model_file)}
    else:
        if map_file:
            built = radiomap.load_map(map_file)
            if built.scenario_hash != fingerprint:
                raise ConfigError(
                    f"map was built for channel {built.scenario_hash}, current is "
                    f"{fingerprint} (check --M / config)", key="map"
                )
        else:
            built = radiomap.build_map(scenario, nx=grid[0], ny=grid[1],
                                       draws_per_cell=draws, seed=seed)
            radiomap.save_map(built, out_dir / "map.csv")
        model = snrmodel.fit(built, scenario, mode=fit_mode)
        map_meta = {"nx": built.nx, "ny": built.ny,
                    "draws_per_cell": int(built.n_draws.max()), "seed": built.seed}
    snrmodel.save_model(model, out_dir / "model.txt")

    try:
        result: PlanResult = run(scenario, model, sco_config)
    except SubproblemError as exc:
        # keep the descent so far; main() reports the failure and exits 4
        if exc.trace is not None:
            artifacts.write_trace_csv(out_dir / "trace.csv", exc.trace)
        raise

    summary = {
        "scenario": artifacts.scenario_payload(scenario),
        "map": map_meta,
        "fit_mode": fit_mode,
        "sco": {
            "epsilon": sco_config.epsilon,
            "n_it_max": sco_config.n_it_max,
            "trust_radius": sco_config.trust_radius,
            "grid_spacing": sco_config.grid_spacing,
        },
        "result": {
            "status": result.status,
            "initial_solution": result.init_label,
            "final_energy_j": result.energy if result.feasible else None,
            "avg_rate_gbps": (result.final_audit.avg_rate / 1e9
                              if result.final_audit else None),
            "iterations": max(len(result.trace) - 1, 0),
        },
        "artifacts": {
            "model": "model.txt",
            "trajectory": "trajectory.csv" if result.feasible else None,
            "trace": "trace.csv" if result.feasible else None,
            "map": "map.csv" if not (model_file or map_file) else None,
        },
    }

    if not result.feasible:
        artifacts.write_summary(out_dir / "summary.json", summary)
        print(f"problem infeasible: neither ME nor MR initialization satisfies "
              f"the constraints (out: {out_dir})")
        return EXIT_INFEASIBLE, summary

    artifacts.write_trajectory_csv(out_dir / "trajectory.csv", result.trajectory,
                                   scenario, model)
    artifacts.write_trace_csv(out_dir / "trace.csv", result.trace)
    artifacts.write_summary(out_dir / "summary.json", summary)
    print(f"plan ok: init={result.init_label} energy={result.energy:.2f} J "
          f"avg_rate={result.final_audit.avg_rate / 1e9:.3f} Gbps "
          f"iterations={len(result.trace) - 1} (out: {out_dir})")
    return EXIT_OK, summary


def _cmd_plan(args) -> int:
    if args.manifest:
        manifest = artifacts.read_summary(args.manifest)
        scenario = artifacts.scenario_from_payload(manifest["scenario"])
        map_meta = manifest["map"]
        if "nx" not in map_meta:
            raise ConfigError(
                "manifest run used an external model file; replay it with "
                "--model instead", key="manifest"
            )
        code, _ = _plan_once(
            scenario, Path(args.out),
            grid=(map_meta["nx"], map_meta["ny"]),
            draws=map_meta["draws_per_cell"],
            seed=map_meta["seed"],
            fit_mode=manifest.get("fit_mode", "per_class"),
        )
        return code
    scenario = _load_scenario(args)
    code, _ = _plan_once(scenario, Path(args.out), map_file=args.map_file,
                         model_file=args.model_file, grid=tuple(args.grid),
                         draws=args.draws, seed=args.seed, fit_mode=args.fit_mode)
    return code


def _cmd_sweep(args) -> int:
    scenario = load_scenario(args.config)
    m_values = [int(v) for v in args.M.split(",")]
    r_values = [float(v) for v in args.rmin.split(",")]
    if not m_values or not r_values:
        raise ConfigError("sweep axes must be non-empty", key="--M/--rmin")
    out_root = Path(args.out)
    out_root.mkdir(parents=True, exist_ok=True)

    cells = []
    for m in m_values:
        sc_m = scenario_overrides(scenario, n_irs_elements=m)
        built = radiomap.build_map(sc_m, nx=args.grid[0], ny=args.grid[1],
                                   draws_per_cell=args.draws, seed=args.seed)
        model = snrmodel.fit(built, sc_m)
        map_path = out_root / f"map_M{m}.csv"
        radiomap.save_map(built, map_path)
        for r in r_values:
            cells.append((m, r, sc_m, built, model, map_path))

    def run_cell(cell):
        m, r, sc_m, built, model, map_path = cell
        cell_dir = out_root / f"M{m}_rmin{r:g}"
        sc_run = scenario_overrides(sc_m, min_avg_rate=r * 1e9)
        try:
            code, summary = _plan_once(sc_run, cell_dir, map_file=map_path,
                                       grid=(built.nx, built.ny),
                                       draws=int(built.n_draws.max()),
                                       seed=built.seed)
            res = summary["result"]
            return (m, r, res["status"], res["initial_solution"],
                    res["final_energy_j"], res["avg_rate_gbps"], res["iterations"],
                    cell_dir.name)
        except IrsPlanError as exc:       # partial failure: record and continue
            return (m, r, f"error: {type(exc).__name__}", None, None, None, None,
                    cell_dir.name)

    if args.jobs > 1:
        with ThreadPoolExecutor(max_workers=args.jobs) as pool:
            rows = list(pool.map(run_cell, cells))
    else:
        rows = [run_cell(cell) for cell in cells]

    table = ["n_irs_elements,rmin_gbps,status,initial_solution,final_energy_j,"
             "avg_rate_gbps,iterations,artifact_dir"]
    for row in rows:
        table.append(",".join("" if v is None else (repr(v) if isinstance(v, float) else str(v))
                              for v in row))
    (out_root / "results.csv").write_text("\n".join(table) + "\n", encoding="utf-8")
    print(f"sweep complete: {len(rows)} cells -> {out_root / 'results.csv'}")
    return EXIT_OK


def _cmd_audit(args) -> int:
    scenario = _load_scenario(args)
    traj = artifacts.read_trajectory_csv(args.trajectory)
    model = snrmodel.load_model(args.model_file)
    report = audit_mod.check_p3(traj, scenario, model)
    print(report.summary())
    return EXIT_OK if report.ok else EXIT_INFEASIBLE


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {"map": _cmd_map, "fit": _cmd_fit, "plan": _cmd_plan,
                "sweep": _cmd_sweep, "audit": _cmd_audit}
    try:
        return handlers[args.verb](args)
    except (ConfigError, FileFormatError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (FitFailureError, SubproblemError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except IrsPlanError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except Exception:
        traceback.print_exc()
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
