"""Command-line front end.

Verbs:
    map    build a radio map from a scenario config and save it
    fit    fit the SNR model to a saved radio map
    plan   end-to-end: map (or reuse), fit, initialize, descend, emit artifacts
    sweep  grid of (n_irs_elements, min_rate) plans with shared seeds
    audit  re-check a saved trajectory against the original constraints

Exit codes: 0 success, 2 infeasible problem (or failed audit), 3 bad
configuration, file format, command line or unreadable input file, 4
numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
import traceback
from pathlib import Path

import numpy as np

from . import artifacts, audit as audit_mod, radiomap, snrmodel
from .errors import (ConfigError, FileFormatError, FitFailureError, IrsPlanError,
                     SubproblemError)
from .scenario import (ALL_LINK_CLASSES, Scenario, load_scenario, scenario_from_payload,
                       scenario_overrides, scenario_payload)
from .sco import PlanResult, ScoConfig, run

EXIT_OK = 0
EXIT_INFEASIBLE = 2
EXIT_CONFIG = 3
EXIT_NUMERICAL = 4
MAP_FLAGS = ("--grid", "--draws", "--seed")     # the flags of the map settings, in order


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors are ConfigErrors (exit 3), not exit 2."""

    def error(self, message):
        raise ConfigError(message, key=self.prog)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="irsplan", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="verb", required=True)

    def add_common(p, config_required=True):
        p.add_argument("--config", required=config_required,
                       help="scenario configuration file")
        p.add_argument("--M", type=int, default=None,
                       help="override the IRS element count")

    p_map = sub.add_parser("map", help="build and save a radio map")
    add_common(p_map)
    p_map.add_argument("--out", required=True)

    p_fit = sub.add_parser("fit", help="fit the SNR model to a radio map")
    add_common(p_fit)
    p_fit.add_argument("--map", required=True, dest="map_file")
    p_fit.add_argument("--out", required=True)

    p_plan = sub.add_parser("plan", help="plan one trajectory end to end")
    add_common(p_plan, config_required=False)
    p_plan.add_argument("--out", required=True, help="output directory")
    p_plan.add_argument("--map", dest="map_file", help="reuse a saved radio map")
    p_plan.add_argument("--model", dest="model_file", help="reuse a fitted model")
    p_plan.add_argument("--manifest", help="rerun a saved summary.json manifest "
                        "(in place of --config, which a replay does not read)")

    p_sweep = sub.add_parser("sweep", help="grid of plans over M and rate levels")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--out", required=True)
    p_sweep.add_argument("--M", required=True,
                         help="comma-separated IRS element counts, e.g. 0,16,64")
    p_sweep.add_argument("--rmin", required=True,
                         help="comma-separated rate requirements in Gbps")

    p_audit = sub.add_parser("audit", help="re-check a trajectory artifact")
    add_common(p_audit)
    p_audit.add_argument("--trajectory", required=True)
    p_audit.add_argument("--model", dest="model_file", required=True)

    grid, draws, seed = MAP_FLAGS
    for p in (p_map, p_plan, p_sweep):      # the verbs that may build a radio map
        p.add_argument(grid, type=int, nargs=2, default=[100, 60], metavar=("NX", "NY"))
        p.add_argument(draws, type=int, default=200, help="channel draws per cell")
        p.add_argument(seed, type=int, default=0)
    for p in (p_plan, p_audit):    # the map and the fit do not depend on the rate
        p.add_argument("--rmin", type=float, default=None,
                       help="override the rate requirement (Gbps)")
    return parser


def _load_scenario(args) -> Scenario:
    scenario = load_scenario(args.config)
    overrides = {}
    if getattr(args, "M", None) is not None:
        overrides["n_irs_elements"] = args.M
    if getattr(args, "rmin", None) is not None:
        overrides["min_avg_rate"] = args.rmin * 1e9
    return scenario_overrides(scenario, **overrides) if overrides else scenario


def _check_channel(stamp: str, scenario: Scenario, key: str) -> None:
    """ConfigError unless the channel stamp of a map or model is the scenario's."""
    if stamp != scenario.channel_fingerprint():
        raise ConfigError(f"{key} was made for channel {stamp}, current is "
                          f"{scenario.channel_fingerprint()} (check --M / config)", key=key)


def _load_model(path, scenario: Scenario) -> snrmodel.SnrModel:
    """The model saved at ``path``; a ConfigError if it was fitted for another channel."""
    model = snrmodel.load_model(path)
    if model.scenario_hash:        # a model saved without a stamp fits any channel
        _check_channel(model.scenario_hash, scenario, "model")
    return model


def _cmd_map(args) -> int:
    scenario = _load_scenario(args)
    radiomap.check_map_settings(scenario.workspace, args.grid, args.draws, args.seed,
                                MAP_FLAGS)
    built = radiomap.build_map(scenario, nx=args.grid[0], ny=args.grid[1],
                               draws_per_cell=args.draws, seed=args.seed)
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    radiomap.save_map(built, args.out)
    print(f"radio map {built.nx}x{built.ny} ({args.draws} draws/cell) -> {args.out}")
    for link in ALL_LINK_CLASSES:
        count = int(np.sum((built.ap_los == link.ap_los) & (built.irs_los == link.irs_los)))
        print(f"  {link.label()}: {count} cells")
    return EXIT_OK


def _cmd_fit(args) -> int:
    scenario = _load_scenario(args)
    built = radiomap.load_map(args.map_file)
    _check_channel(built.scenario_hash, scenario, "map")
    model = snrmodel.fit(built, scenario)
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    snrmodel.save_model(model, args.out)
    print(f"model -> {args.out}")
    for link, cf in model.fits.items():
        print(f"  [{link.label()}] gain_irs={cf.gain_irs:.6g} gain_cross={cf.gain_cross:.6g} "
              f"gain_direct={cf.gain_direct:.6g} exp_irs={cf.exp_irs:.4f} "
              f"exp_ap={cf.exp_ap:.4f} rms={cf.residual_rms:.4f} cells={cf.n_cells}"
              + (f" (inherited from {cf.inherited_from})" if cf.inherited_from else ""))
    return EXIT_OK


def _plan_once(scenario: Scenario, out_dir: Path, *, grid, draws: int, seed: int,
               map_file=None, model_file=None) -> tuple:
    """Map (or reuse), fit and plan. Returns (exit_code, summary dict).

    The inputs are read before the output directory is made."""
    if model_file:
        model = _load_model(model_file, scenario)
        map_meta = {"source": str(model_file)}
    elif map_file:
        built = radiomap.load_map(map_file)
        _check_channel(built.scenario_hash, scenario, "map")
        model, map_meta = snrmodel.fit(built, scenario), _map_meta(built)
    else:
        model, map_meta = _build_and_fit(scenario, grid, draws, seed, out_dir / "map.csv")
    map_artifact = "map.csv" if not (model_file or map_file) else None
    return _plan_with_model(scenario, out_dir, model, map_meta, map_artifact)


def _build_and_fit(scenario: Scenario, grid, draws: int, seed: int, map_path: Path) -> tuple:
    """Build the radio map, save it at ``map_path`` (making its directory) and fit
    the SNR model to it. Returns (model, map metadata for the summary)."""
    built = radiomap.build_map(scenario, nx=grid[0], ny=grid[1], draws_per_cell=draws,
                               seed=seed)
    map_path.parent.mkdir(parents=True, exist_ok=True)
    radiomap.save_map(built, map_path)
    return snrmodel.fit(built, scenario), _map_meta(built)


def _map_meta(built: radiomap.RadioMap) -> dict:
    return {"nx": built.nx, "ny": built.ny,
            "draws_per_cell": int(built.n_draws.max()), "seed": built.seed}


def _plan_with_model(scenario: Scenario, out_dir: Path, model, map_meta: dict,
                     map_artifact) -> tuple:
    """Shared by plan and sweep: descend on a fitted model and write the artifacts."""
    out_dir.mkdir(parents=True, exist_ok=True)
    snrmodel.save_model(model, out_dir / "model.txt")
    sco_config = ScoConfig()

    try:
        result: PlanResult = run(scenario, model, sco_config)
    except SubproblemError as exc:
        # keep the descent so far; main() reports the failure and exits 4
        if exc.trace is not None:
            artifacts.write_trace_csv(out_dir / "trace.csv", exc.trace)
        raise

    summary = {
        "scenario": scenario_payload(scenario),
        "map": map_meta,
        "fit_mode": "per_class",
        "sco": dataclasses.asdict(sco_config),
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
            "map": map_artifact,
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


def _replay(manifest: dict) -> tuple:
    """The scenario and the _plan_once settings of a summary.json; ConfigError if malformed."""
    try:
        scenario = scenario_from_payload(manifest["scenario"])
        map_meta = manifest["map"]
        if not isinstance(map_meta, dict):
            raise ConfigError(f"expected a JSON object, got {map_meta!r}", key="map")
        if "nx" not in map_meta:
            raise ConfigError(
                "manifest run used an external model file; replay it with "
                "--model instead", key="manifest"
            )
        numbers = (map_meta["nx"], map_meta["ny"], map_meta["draws_per_cell"], map_meta["seed"])
    except KeyError as exc:
        raise ConfigError("missing from the manifest", key=exc.args[0]) from None
    fit_mode = manifest.get("fit_mode", "per_class")
    if not all(type(v) is int for v in numbers) or fit_mode != "per_class":
        raise ConfigError(f"expected integers nx, ny, draws_per_cell and seed and fit mode "
                          f"per_class, got {map_meta} and {fit_mode!r}", key="map")
    nx, ny, draws, seed = numbers
    radiomap.check_map_settings(scenario.workspace, (nx, ny), draws, seed)
    return scenario, {"grid": (nx, ny), "draws": draws, "seed": seed}


def _cmd_plan(args) -> int:
    if args.manifest:
        scenario, settings = _replay(artifacts.read_summary(args.manifest))
        code, _ = _plan_once(scenario, Path(args.out), **settings)
        return code
    scenario = _load_scenario(args)
    builds_map = not (args.map_file or args.model_file)
    radiomap.check_map_settings(scenario.workspace if builds_map else None, args.grid,
                                args.draws, args.seed, MAP_FLAGS)
    code, _ = _plan_once(scenario, Path(args.out), map_file=args.map_file,
                         model_file=args.model_file, grid=tuple(args.grid),
                         draws=args.draws, seed=args.seed)
    return code


def _sweep_axis(text: str, kind, flag: str, spec: str) -> list:
    """Parse one comma-separated sweep axis; an empty or bad entry is a ConfigError, and
    so are two that read alike in ``spec``, the axis's format in cell directory names."""
    try:
        values = [kind(v) for v in text.split(",")]
    except ValueError:
        raise ConfigError(f"expected comma-separated numbers, got {text!r}",
                          key=flag) from None
    names = [format(v, spec) for v in values]
    if len(set(names)) < len(names):
        raise ConfigError(f"two values of {text!r} name one cell directory", key=flag)
    return values


def _cmd_sweep(args) -> int:
    scenario = load_scenario(args.config)
    m_values = _sweep_axis(args.M, int, "--M", "d")
    r_values = _sweep_axis(args.rmin, float, "--rmin", "g")
    radiomap.check_map_settings(scenario.workspace, args.grid, args.draws, args.seed,
                                MAP_FLAGS)
    # every cell's scenario before any work, so that a bad value writes nothing
    scenarios = [[scenario_overrides(scenario, n_irs_elements=m, min_avg_rate=r * 1e9)
              for r in r_values] for m in m_values]
    out_root = Path(args.out)
    out_root.mkdir(parents=True, exist_ok=True)

    table = ["n_irs_elements,rmin_gbps,status,initial_solution,final_energy_j,"
             "avg_rate_gbps,iterations,artifact_dir"]
    for m, row in zip(m_values, scenarios):
        try:       # every rate level of this element count plans on this one fit
            # (row[0]: the map and the fit do not read the rate requirement)
            model, map_meta = _build_and_fit(row[0], args.grid, args.draws, args.seed,
                                             out_root / f"map_M{m}.csv")
        except FitFailureError as exc:
            model = exc
        for r, sc_r in zip(r_values, row):
            cell_dir = out_root / f"M{m:d}_rmin{r:g}"
            try:
                if isinstance(model, FitFailureError):
                    raise model
                _, summary = _plan_with_model(sc_r, cell_dir, model, map_meta, None)
                res = summary["result"]
                cols = (res["status"], res["initial_solution"], res["final_energy_j"],
                        res["avg_rate_gbps"], res["iterations"])
            except IrsPlanError as exc:       # partial failure: record and continue
                cols = (f"error: {type(exc).__name__}", None, None, None, None)
            table.append(",".join("" if v is None else (repr(v) if isinstance(v, float)
                                                        else str(v))
                                  for v in (m, r, *cols, cell_dir.name)))
    (out_root / "results.csv").write_text("\n".join(table) + "\n", encoding="utf-8")
    print(f"sweep complete: {len(table) - 1} cells -> {out_root / 'results.csv'}")
    return EXIT_OK


def _cmd_audit(args) -> int:
    scenario = _load_scenario(args)
    traj = artifacts.read_trajectory_csv(args.trajectory)
    model = _load_model(args.model_file, scenario)
    report = audit_mod.check_p3(traj, scenario, model)
    print(report.summary())
    return EXIT_OK if report.ok else EXIT_INFEASIBLE


def main(argv=None) -> int:
    parser = _build_parser()
    handlers = {"map": _cmd_map, "fit": _cmd_fit, "plan": _cmd_plan,
                "sweep": _cmd_sweep, "audit": _cmd_audit}
    try:
        args = parser.parse_args(argv)
        if args.verb == "plan" and not (args.config or args.manifest):
            parser.error("plan needs --config or --manifest")
        return handlers[args.verb](args)
    except (ConfigError, FileFormatError, OSError) as exc:
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
