"""Plan benchmark: times `irsplan plan` end to end, or layer by layer when traced.

Run from the repository root:

    python3 perfbench/run.py --workload desk-m64 --seed 11 --seconds 55 --trace 0

One op is one `irsplan plan` run at the published map scale (100x60 cells,
200 draws per cell, serial), made in this process through `irsplan.cli.main`
with the workload seed as the map seed. A workload is a cycle of plans, one
derived config each. After one untimed warm-up plan on a 10x6 map, the
run repeats whole cycles while the next one is expected to end nearer to
--seconds than the last one did, and runs at least one. Every op must pass
a correctness gate, and repeated ops of one plan must write byte-identical
artifacts; an op that fails either counts in `failed`.

--trace 0 reports the end-to-end metrics. --trace 1 traces every op and
reports the per-layer metrics, the median traced op time (trace.plan_s,
to set against plan_s of the untraced run) and the time the tracing adds
to an op. The lines before the last one repeat every metric with its unit
and record the machine and library versions; the last line is the JSON
result. Working files, including the spans of a traced run, go to
.perfbench-work/ under the repository root.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_DIR = ROOT / ".perfbench-work"
BASE_CONFIG = ROOT / "configs" / "desk_scenario.cfg"

GRID = (100, 60)
DRAWS = 200
WARMUP_GRID = (10, 6)
SETUP_PROBES = 3
# Artifacts that reruns of one plan with one seed must reproduce byte for byte.
DETERMINISTIC = ("map.csv", "model.txt", "trajectory.csv", "trace.csv")
# The descent accepts an energy up to this far above the incumbent (solver
# round-off), so the gate allows the same slack.
ENERGY_SLACK_J = 1e-9
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

# Overrides of the desk config, one dict per plan in the workload's cycle.
WORKLOADS = {
    # The map is ~95% of the op and the descent stops after one SCO
    # iteration from the ME seed: isolates channel and radiomap, and a
    # conic change should leave it unchanged.
    "desk-m64": [{"n_irs_elements": "64", "min_avg_rate_gbps": "2.0"}],
    # The paper's higher rate level: the same map, then about seven SCO
    # iterations, so the descent (conic/socp) is about a third of the op.
    "desk-m64-r25": [{"n_irs_elements": "64", "min_avg_rate_gbps": "2.5"}],
}
# No workload is dominated by the descent (M=0 at 2.0 and 2.5 Gbps, or 120
# slots): on a shared 2-core host the interpreter-bound conic loops made runs
# of the same code spread by 19-37%, past the 25% bound.

# A setup probe: a fresh interpreter that sets up the workload and exits.
_PROBE = "import sys, run; run.setup(sys.argv[1], sys.argv[2])"


@dataclass
class Op:
    plan: int
    seconds: float
    energy_j: float | None
    problem: str | None          # why the op failed; None when it passed


def cap_threads(environ, nproc: int) -> None:
    """Limit BLAS and OpenMP pools to nproc threads; must run before numpy loads."""
    for var in THREAD_VARS:
        value = environ.get(var, "")
        if not value.isdigit() or not 1 <= int(value) <= nproc:
            environ[var] = str(nproc)


def derive_config(text: str, overrides: dict) -> str:
    """The config text with each `key = value` line given its override value."""
    for key, value in overrides.items():
        text, n = re.subn(rf"^({re.escape(key)}\s*=\s*)\S+", lambda m: m.group(1) + value,
                          text, flags=re.MULTILINE)
        if n != 1:
            raise ValueError(f"base config has {n} lines for key {key!r}, expected 1")
    return text


def setup(workload: str, config_dir) -> list:
    """Import the planner and write and load the workload's derived configs."""
    sys.path.insert(0, str(ROOT / "src"))
    import irsplan.cli  # noqa: F401  (the op's entry point)
    from irsplan.scenario import load_scenario

    config_dir = Path(config_dir)
    config_dir.mkdir(parents=True, exist_ok=True)
    base = BASE_CONFIG.read_text(encoding="utf-8")
    paths = []
    for index, overrides in enumerate(WORKLOADS[workload]):
        path = config_dir / f"plan{index}.cfg"
        path.write_text(derive_config(base, overrides), encoding="utf-8")
        load_scenario(path)
        paths.append(path)
    return paths


def probe_setup(workload: str, config_dir) -> float:
    """Wall time of a fresh process that sets up the workload, start to exit."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", _PROBE, workload, str(config_dir)],
                   cwd=BENCH_DIR, check=True, timeout=120, stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


def check_op(code: int, out: Path, config, seed: int, grid, draws: int):
    """The correctness gate. Returns (problem or None, final energy or None)."""
    from irsplan import artifacts, audit, radiomap, snrmodel
    from irsplan.scenario import load_scenario

    if code != 0:
        return f"exit code {code}", None
    result = artifacts.read_summary(out / "summary.json")["result"]
    if result["status"] != "optimal":
        return f"status {result['status']}", None

    rows = (out / "trace.csv").read_text(encoding="utf-8").splitlines()[2:]
    energies = [float(row.split(",")[1]) for row in rows]
    if any(b > a + ENERGY_SLACK_J for a, b in zip(energies, energies[1:])):
        return "energy trace increases", None
    if not energies or energies[-1] != result["final_energy_j"]:
        return "summary energy differs from the trace", None

    scenario = load_scenario(config)
    model = snrmodel.load_model(out / "model.txt")
    report = audit.check_p3(artifacts.read_trajectory_csv(out / "trajectory.csv"),
                            scenario, model)
    if not report.ok:
        return f"audit of the saved trajectory failed: {report.violations}", None

    radio_map = radiomap.load_map(out / "map.csv")
    if ((radio_map.nx, radio_map.ny) != tuple(grid) or radio_map.seed != seed
            or radio_map.scenario_hash != scenario.channel_fingerprint()
            or not (radio_map.n_draws == draws).all()):
        return "map.csv does not describe the requested map", None
    radiomap.save_map(radio_map, out / "map.resaved")
    snrmodel.save_model(model, out / "model.resaved")
    for saved, resaved in (("map.csv", "map.resaved"), ("model.txt", "model.resaved")):
        if (out / saved).read_bytes() != (out / resaved).read_bytes():
            return f"{saved} does not survive load and save", None
    return None, result["final_energy_j"]


def plan_argv(config, out: Path, seed: int, grid, draws: int) -> list:
    return ["plan", "--config", str(config), "--out", str(out), "--seed", str(seed),
            "--grid", str(grid[0]), str(grid[1]), "--draws", str(draws)]


def run_op(cli, config, plan: int, seed: int, grid, draws: int, out: Path,
           tracer, op_id: int, references: dict) -> Op:
    """One `irsplan plan`, then its gate and the comparison with earlier reruns."""
    shutil.rmtree(out, ignore_errors=True)
    argv = plan_argv(config, out, seed, grid, draws)
    if tracer is not None:
        tracer.op = op_id
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
    finally:
        seconds = time.perf_counter() - start
        if tracer is not None:
            tracer.op = None
    problem, energy = check_op(code, out, config, seed, grid, draws)
    if problem is None:
        written = {name: (out / name).read_bytes() for name in DETERMINISTIC}
        first = references.setdefault(plan, written)
        differing = [name for name in DETERMINISTIC if written[name] != first[name]]
        if differing:
            problem = f"differs from the first op of this plan: {', '.join(differing)}"
    return Op(plan=plan, seconds=seconds, energy_j=energy, problem=problem)


def run_ops(configs, seed: int, seconds: float, out: Path, tracer=None,
            grid=GRID, draws=DRAWS):
    """Run whole cycles of plans, traced when a tracer is given.

    Returns (ops, op-loop wall seconds).
    """
    import irsplan.cli as cli
    import layers  # imports numpy, so only after cap_threads

    ops: list = []
    references: dict = {}
    cycle_times: list = []
    with layers.instrument(tracer) if tracer is not None else contextlib.nullcontext():
        # one untimed plan on a small map first, so that the timed ops do not
        # pay for first calls: lazy imports and the allocator growing its heap
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            cli.main(plan_argv(configs[0], out.parent / "warmup", seed, WARMUP_GRID, draws))
        start = time.perf_counter()
        while True:
            cycle_start = time.perf_counter()
            for plan, config in enumerate(configs):
                ops.append(run_op(cli, config, plan, seed, grid, draws, out, tracer,
                                  len(ops), references))
            cycle_times.append(time.perf_counter() - cycle_start)
            elapsed = time.perf_counter() - start
            # stop at the cycle count nearest to `seconds`, so that runs of one
            # workload make the same number of ops despite timing noise
            if elapsed + statistics.median(cycle_times) / 2 > seconds:
                break
    return ops, time.perf_counter() - start


def end_to_end_metrics(ops, loop_s: float, setup_s: float) -> dict:
    passed = [op for op in ops if op.problem is None]
    energies = [op.energy_j for op in passed]
    return {
        "setup_s": (setup_s, "s"),
        "plan_s": (statistics.median(op.seconds for op in ops), "s"),
        "plans_per_min": (60.0 * len(passed) / loop_s, "1/min"),
        "pass_frac": (len(passed) / len(ops), "ratio"),
        "energy_j": (statistics.fmean(energies) if energies else 0.0, "J"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def traced_metrics(ops, tracer) -> dict:
    import layers
    from tracing import span_cost

    plan_s = statistics.median(op.seconds for op in ops)
    # what the wrappers add to an op: their cost per span, measured against a
    # plain call, times the spans, plus the counting hooks they run
    added_s = (len(tracer.spans) * span_cost() + tracer.hook_s) / len(ops)
    values = layers.layer_metrics(tracer.spans, tracer.counts, len(ops))
    values["trace.plan_s"] = plan_s
    values["trace.overhead_frac"] = added_s / (plan_s - added_s)
    return {name: (values[name], unit) for name, unit in layers.UNITS.items()}


def machine_info(nproc: int) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    cpu = platform.processor()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    return {
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "blas": blas, "cpu": cpu, "nproc": nproc,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    missing = [str(path.relative_to(ROOT)) for path in (ROOT / "src" / "irsplan" / "cli.py",
                                                         BASE_CONFIG)
               if not path.is_file()]
    if missing:
        print(f"perfbench: not a full checkout, missing {', '.join(missing)}",
              file=sys.stderr)
        return 2

    nproc = len(os.sched_getaffinity(0))
    cap_threads(os.environ, nproc)
    work = WORK_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    configs = setup(args.workload, work / "config")
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
        ops, loop_s = run_ops(configs, args.seed, args.seconds, work / "op", tracer)
        metrics = traced_metrics(ops, tracer)
        tracer.write(work / "spans.csv")
    else:
        setup_s = statistics.median(probe_setup(args.workload, work / f"probe{i}")
                                    for i in range(SETUP_PROBES))
        ops, loop_s = run_ops(configs, args.seed, args.seconds, work / "op")
        metrics = end_to_end_metrics(ops, loop_s, setup_s)
    failed = [op for op in ops if op.problem is not None]

    info = machine_info(nproc)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": info, "ops": [asdict(op) for op in ops],
              "loop_s": loop_s, "metrics": metrics}
    (work / "result.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")

    print(f"machine: {json.dumps(info, sort_keys=True)}")
    for op in failed:
        print(f"failed op (plan {op.plan}): {op.problem}")
    print(f"ops: {len(ops)} ({len(configs)} plan(s) per cycle), failed_frac = "
          f"{len(failed) / len(ops)!r} ratio")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value!r} {unit}")
    print(json.dumps({
        "correct": not failed, "attempted": len(ops), "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
