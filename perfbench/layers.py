"""The planner functions the traced run wraps, and the per-layer metrics.

Each function is patched where its caller looks it up, so that the planner's
own calls go through the wrapper: ``irsplan.sco.solve_p4`` rather than
``irsplan.socp.solve_p4``. A target that does not exist, because a later
version of the planner renamed or removed it, is skipped and its metrics
read 0. Every metric is an average per traced op, except the per-subproblem
sizes and the ratios, which say so.
"""

from __future__ import annotations

import importlib
import os
from contextlib import ExitStack
from unittest import mock

import numpy as np

from tracing import group_seconds, summarize

# (name, unit, better), in the order BENCHMARK.json lists them.
PER_LAYER = [
    ("channel.optimal_snr_samples.calls", "count", "lower"),
    ("channel.optimal_snr_samples.s", "s", "lower"),
    ("channel.draws", "count", "lower"),
    ("radiomap.build_map.s", "s", "lower"),
    ("radiomap.build_map.self_s", "s", "lower"),
    ("radiomap.cells", "count", "lower"),
    ("radiomap.save_map.s", "s", "lower"),
    ("scenario.los_class.calls", "count", "lower"),
    ("scenario.los_class.s", "s", "lower"),
    ("scenario.los_class_batch.s", "s", "lower"),
    ("snrmodel.fit.s", "s", "lower"),
    ("snrmodel.linearize_rate.calls", "count", "lower"),
    ("snrmodel.linearize_rate.s", "s", "lower"),
    ("graphinit.select_initial.s", "s", "lower"),
    ("graphinit.build_graph.ME.s", "s", "lower"),
    ("graphinit.build_graph.MR.s", "s", "lower"),
    ("graphinit.shortest_path.ME.s", "s", "lower"),
    ("graphinit.shortest_path.MR.s", "s", "lower"),
    ("sco.run.s", "s", "lower"),
    ("sco.run.self_s", "s", "lower"),
    ("sco.iterations", "count", "lower"),
    ("sco.subproblems", "count", "lower"),
    ("sco.accepted_ratio", "ratio", "higher"),
    ("sco.stop.epsilon", "count", "higher"),
    ("sco.stop.cap", "count", "lower"),
    ("sco.stop.plateau", "count", "lower"),
    ("socp.assemble_p4.calls", "count", "lower"),
    ("socp.assemble_p4.s", "s", "lower"),
    ("socp.solve_p4.s", "s", "lower"),
    ("socp.rows", "count", "lower"),
    ("socp.cones", "count", "lower"),
    ("socp.G_nnz", "count", "lower"),
    ("socp.G_density", "ratio", "higher"),
    ("conic.solve.calls", "count", "lower"),
    ("conic.solve.s", "s", "lower"),
    ("conic.solve.self_s", "s", "lower"),
    ("conic.ipm_iters", "count", "lower"),
    ("conic.ipm_iter_ms", "ms", "lower"),
    ("conic.optimal_ratio", "ratio", "higher"),
    ("conic.factor.s", "s", "lower"),
    ("conic.scaling.s", "s", "lower"),
    ("conic.jordan.s", "s", "lower"),
    ("conic.step.s", "s", "lower"),
    ("audit.check_p3.calls", "count", "lower"),
    ("audit.check_p3.s", "s", "lower"),
    ("audit.check_p4.calls", "count", "lower"),
    ("audit.check_p4.s", "s", "lower"),
    ("artifacts.write.s", "s", "lower"),
    ("artifacts.bytes", "bytes", "lower"),
    ("trace.ops", "count", "higher"),
    ("trace.plan_s", "s", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
]
UNITS = {name: unit for name, unit, _ in PER_LAYER}

# Spans whose time makes up each group metric.
_GROUPS = {
    "conic.factor.s": ("conic.factor.",),
    "conic.scaling.s": ("conic.scaling.",),
    "conic.jordan.s": ("conic.jordan.",),
    "conic.step.s": ("conic.step.",),
    "artifacts.write.s": ("artifacts.write.", "radiomap.save_map", "snrmodel.save_model"),
}


def instrument(tracer) -> ExitStack:
    """Patch every target with a traced wrapper; closing the stack restores them."""
    counts = tracer.counts

    def count_draws(samples, *args, **kwargs):
        counts["channel.draws"] += len(samples)

    def count_cells(radio_map, *args, **kwargs):
        counts["radiomap.cells"] += radio_map.nx * radio_map.ny

    def count_bytes(path_index):
        def hook(result, *args, **kwargs):
            path = args[path_index] if len(args) > path_index else kwargs["path"]
            counts["artifacts.bytes"] += os.path.getsize(path)
        return hook

    def count_descent(result, *args, **kwargs):
        config = args[2] if len(args) > 2 else kwargs.get("config")
        if config is None:
            from irsplan.sco import ScoConfig
            config = ScoConfig()
        counts[f"sco.stop.{stop_reason(result.trace, config)}"] += 1
        counts["sco.iterations"] += max(len(result.trace) - 1, 0)

    def count_sizes(sub, *args, **kwargs):
        G = sub.problem.G
        counts["socp.rows"] += G.shape[0]
        counts["socp.cones"] += len(sub.problem.dims)
        counts["socp.G_nnz"] += int(np.count_nonzero(G))
        counts["socp.G_entries"] += G.size

    def count_ipm(solution, *args, **kwargs):
        counts["conic.ipm_iters"] += solution.iterations
        counts["conic.optimal"] += solution.status == "optimal"

    def by_mode(name):
        return lambda *args, **kwargs: f"{name}.{kwargs.get('mode', 'ME')}"

    targets = [
        ("channel.optimal_snr_samples", ["irsplan.radiomap:optimal_snr_samples"],
         count_draws),
        ("radiomap.build_map", ["irsplan.radiomap:build_map"], count_cells),
        ("radiomap.save_map", ["irsplan.radiomap:save_map"], count_bytes(1)),
        ("scenario.los_class", ["irsplan.sco:los_class", "irsplan.audit:los_class",
                                "irsplan.artifacts:los_class"], None),
        ("scenario.los_class_batch", ["irsplan.scenario:los_class_batch",
                                      "irsplan.radiomap:los_class_batch",
                                      "irsplan.graphinit:los_class_batch"], None),
        ("snrmodel.fit", ["irsplan.snrmodel:fit"], None),
        ("snrmodel.save_model", ["irsplan.snrmodel:save_model"], count_bytes(1)),
        ("snrmodel.linearize_rate", ["irsplan.sco:linearize_rate"], None),
        ("graphinit.select_initial", ["irsplan.sco:select_initial"], None),
        (by_mode("graphinit.build_graph"), ["irsplan.graphinit:build_graph"], None),
        (lambda graph: f"graphinit.shortest_path.{graph.mode}",
         ["irsplan.graphinit:shortest_path"], None),
        ("sco.run", ["irsplan.cli:run"], count_descent),
        ("socp.assemble_p4", ["irsplan.sco:assemble_p4"], count_sizes),
        ("socp.solve_p4", ["irsplan.sco:solve_p4"], None),
        ("conic.solve", ["irsplan.socp:solve"], count_ipm),
        ("conic.factor.bmat", ["scipy.sparse:bmat"], None),
        ("conic.factor.block_diag", ["scipy.sparse:block_diag"], None),
        ("conic.factor.splu", ["scipy.sparse.linalg:splu"], None),
        ("conic.scaling.init", ["irsplan.conic:_NTScaling.__init__"], None),
        ("conic.scaling.apply", ["irsplan.conic:_NTScaling.apply"], None),
        ("conic.scaling.w2_blocks", ["irsplan.conic:_NTScaling.w2_blocks"], None),
        ("conic.scaling.scaled_point", ["irsplan.conic:_NTScaling.scaled_point"], None),
        ("conic.jordan.product", ["irsplan.conic:jordan_product"], None),
        ("conic.jordan.divide", ["irsplan.conic:jordan_divide"], None),
        ("conic.step.max_step_to_boundary", ["irsplan.conic:max_step_to_boundary"], None),
        ("conic.step.cone_margin", ["irsplan.conic:cone_margin"], None),
        ("audit.check_p3", ["irsplan.audit:check_p3"], None),
        ("audit.check_p4", ["irsplan.audit:check_p4"], None),
        ("artifacts.write.trajectory", ["irsplan.artifacts:write_trajectory_csv"],
         count_bytes(0)),
        ("artifacts.write.trace", ["irsplan.artifacts:write_trace_csv"], count_bytes(0)),
        ("artifacts.write.summary", ["irsplan.artifacts:write_summary"], count_bytes(0)),
    ]

    stack = ExitStack()
    for name, places, hook in targets:
        for place in places:
            module_name, attribute = place.split(":")
            owner = importlib.import_module(module_name)
            *path, leaf = attribute.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = getattr(owner, leaf, None)
            if original is None:
                continue
            stack.enter_context(
                mock.patch.object(owner, leaf, tracer.wrap(name, original, hook)))
    return stack


def stop_reason(trace, config) -> str:
    """Why the descent ended, read from its iteration records.

    The loop stops on a relative energy change of at most epsilon, at the
    iteration cap, or when a subproblem finds no descent (plateau), which
    adds no record.
    """
    iterations = len(trace) - 1
    if iterations >= 1 and abs(trace[-1].improvement) <= config.epsilon:
        return "epsilon"
    if iterations >= config.n_it_max:
        return "cap"
    return "plateau"


def layer_metrics(spans, counts, n_ops: int) -> dict:
    """Every per-layer metric except trace.plan_s and trace.overhead_frac."""
    table = summarize(spans)

    def field(name, key):
        return table.get(name, {}).get(key, 0) / n_ops

    out = {}
    for name, _, _ in PER_LAYER:
        layer, _, key = name.rpartition(".")
        if key in ("calls", "s", "self_s") and name not in _GROUPS:
            out[name] = field(layer, key)
    for name, prefixes in _GROUPS.items():
        out[name] = group_seconds(spans, prefixes) / n_ops
    for name in ("channel.draws", "radiomap.cells", "sco.iterations", "sco.stop.epsilon",
                 "sco.stop.cap", "sco.stop.plateau", "conic.ipm_iters",
                 "artifacts.bytes"):
        out[name] = counts[name] / n_ops

    subproblems = table.get("socp.solve_p4", {}).get("calls", 0)
    assembled = table.get("socp.assemble_p4", {}).get("calls", 0)
    solves = table.get("conic.solve", {}).get("calls", 0)
    out["sco.subproblems"] = subproblems / n_ops
    out["sco.accepted_ratio"] = counts["sco.iterations"] / subproblems if subproblems else 0.0
    for name in ("socp.rows", "socp.cones", "socp.G_nnz"):
        out[name] = counts[name] / assembled if assembled else 0.0
    out["socp.G_density"] = (counts["socp.G_nnz"] / counts["socp.G_entries"]
                             if counts["socp.G_entries"] else 0.0)
    out["conic.ipm_iter_ms"] = (1e3 * table.get("conic.solve", {}).get("s", 0.0)
                                / counts["conic.ipm_iters"] if counts["conic.ipm_iters"] else 0.0)
    out["conic.optimal_ratio"] = counts["conic.optimal"] / solves if solves else 0.0
    out["trace.ops"] = n_ops
    return out
