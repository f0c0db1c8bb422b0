"""Initial trajectories by exact dynamic programming on a time-expanded graph.

Layer 0 holds exactly the start position and layer K the goal (both are
injected as explicit nodes so endpoint constraints hold exactly); layers
1..K-1 share one grid of obstacle-free positions at a configurable
spacing. Edges connect consecutive layers for moves up to D_max,
including the zero-length waiting move, since the deadline fixes the slot
count and shorter paths must idle.

Two cost modes seed the descent loop: ME charges each edge its one-slot
motion energy; MR charges ``max_rate - rate(destination)`` so that the
cheapest path maximizes the summed (hence average) fitted rate. Ties are
broken toward the predecessor with the smallest linear node index, making
the planner deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import audit
from .errors import GraphInfeasibleError, InfeasibleEndpointError
from .scenario import (LinkClass, Scenario, distances_batch, los_class_batch,
                       obstacle_margin)
from .snrmodel import SnrModel, snr_hat


@dataclass(frozen=True)
class TimeExpandedGraph:
    scenario: Scenario
    mode: str                    # "ME" | "MR"
    spacing: float
    xs: np.ndarray               # (nx,) grid x coordinates
    ys: np.ndarray               # (ny,) grid y coordinates
    free: np.ndarray             # (ny, nx) nodes satisfying the safety margin
    node_rate: np.ndarray | None  # (ny, nx) fitted rate, MR mode only
    rate_start: float
    rate_goal: float
    offsets: np.ndarray          # (n_off, 2) integer (oy, ox) moves, |o|*g <= D_max

    @property
    def n_layers(self) -> int:
        return self.scenario.n_slots + 1

    def node_positions(self) -> np.ndarray:
        return np.stack(np.meshgrid(self.xs, self.ys), axis=-1)


def _edge_energy(scenario: Scenario, length):
    dt = scenario.slot_duration
    return (scenario.motor_v2 * np.square(length) / dt
            + scenario.motor_v1 * np.asarray(length) + scenario.motor_v0 * dt)


def _node_rates(points, scenario: Scenario, model: SnrModel) -> np.ndarray:
    ap_los, irs_los = los_class_batch(points, scenario)
    d_ap, d_irs = distances_batch(points, scenario)
    rates = np.empty(len(points))
    for ap in (True, False):
        for irs in (True, False):
            mask = (ap_los == ap) & (irs_los == irs)
            if np.any(mask):
                s = snr_hat(model, LinkClass(ap, irs), d_ap[mask], d_irs[mask], scenario)
                rates[mask] = scenario.bandwidth_hz * np.log2(1.0 + s)
    return rates


def build_graph(scenario: Scenario, model: SnrModel = None, mode: str = "ME",
                grid_spacing: float = 1.0) -> TimeExpandedGraph:
    """Construct the layered grid graph for one cost mode."""
    if grid_spacing <= 0:
        raise ValueError("grid spacing must be positive")
    if mode not in ("ME", "MR"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "MR" and model is None:
        raise ValueError("MR mode needs a fitted SNR model")

    for name, q in (("start", scenario.q_start), ("goal", scenario.q_goal)):
        for obs in scenario.obstacles:
            if obstacle_margin(q, obs) < scenario.safety_level:
                raise InfeasibleEndpointError(f"{name} position violates an obstacle")

    xmin, xmax, ymin, ymax = scenario.workspace
    xs = xmin + np.arange(math.floor((xmax - xmin) / grid_spacing) + 1) * grid_spacing
    ys = ymin + np.arange(math.floor((ymax - ymin) / grid_spacing) + 1) * grid_spacing
    points = np.stack(np.meshgrid(xs, ys), axis=-1).reshape(-1, 2)

    free = np.ones(len(points), dtype=bool)
    for obs in scenario.obstacles:
        diff = points - obs.center
        margins = np.einsum("ni,ij,nj->n", diff, obs.shape_inv, diff)
        free &= margins >= scenario.safety_level
    free = free.reshape(len(ys), len(xs))

    reach = math.floor(scenario.max_step / grid_spacing + 1e-9)
    offs = [
        (oy, ox)
        for oy in range(-reach, reach + 1)
        for ox in range(-reach, reach + 1)
        if math.hypot(ox, oy) * grid_spacing <= scenario.max_step + 1e-9
    ]
    # ascending predecessor linear index for deterministic tie-breaking
    offs.sort(key=lambda o: (-o[0], -o[1]))

    node_rate = None
    rate_start = rate_goal = 0.0
    if mode == "MR":
        node_rate = _node_rates(points, scenario, model).reshape(len(ys), len(xs))
        rate_start = float(_node_rates(scenario.q_start[None, :], scenario, model)[0])
        rate_goal = float(_node_rates(scenario.q_goal[None, :], scenario, model)[0])

    return TimeExpandedGraph(
        scenario=scenario, mode=mode, spacing=grid_spacing, xs=xs, ys=ys,
        free=free, node_rate=node_rate, rate_start=rate_start,
        rate_goal=rate_goal, offsets=np.array(offs, dtype=int),
    )


def shortest_path(graph: TimeExpandedGraph) -> np.ndarray:
    """Exact minimum-cost K-step path from start to goal.

    Layer-by-layer dynamic programming; O(K * nodes * moves). Raises
    GraphInfeasibleError when no layer-respecting path exists.
    """
    scenario = graph.scenario
    k_slots = scenario.n_slots
    q_start, q_goal = scenario.q_start, scenario.q_goal
    me_mode = graph.mode == "ME"

    if k_slots == 1:
        if np.linalg.norm(q_goal - q_start) <= scenario.max_step + 1e-9:
            return np.stack([q_start, q_goal])
        raise GraphInfeasibleError("goal unreachable in a single slot")

    ny, nx = graph.free.shape
    grid = graph.node_positions()

    if me_mode:
        cap = 0.0
    else:
        rates = graph.node_rate[graph.free]
        cap = float(max(rates.max() if rates.size else 0.0,
                        graph.rate_start, graph.rate_goal))

    # layer 0 -> 1: explicit distances from the injected start node
    dist_start = np.linalg.norm(grid - q_start, axis=-1)
    reach0 = (dist_start <= scenario.max_step + 1e-9) & graph.free
    if me_mode:
        first = np.where(reach0, _edge_energy(scenario, dist_start), np.inf)
    else:
        first = np.where(reach0, cap - graph.node_rate, np.inf)

    dist = first
    preds = []        # per transition 2..K-1: (ny, nx) index of chosen offset
    offsets = graph.offsets
    if me_mode:
        lengths = np.linalg.norm(offsets.astype(float), axis=1) * graph.spacing
        offset_cost = _edge_energy(scenario, lengths)
    else:
        offset_cost = None

    for _layer in range(2, k_slots):
        best = np.full((ny, nx), np.inf)
        pred = np.full((ny, nx), -1, dtype=np.int32)
        for idx, (oy, ox) in enumerate(offsets):
            dst_y = slice(max(0, oy), ny + min(0, oy))
            dst_x = slice(max(0, ox), nx + min(0, ox))
            src_y = slice(max(0, -oy), ny + min(0, -oy))
            src_x = slice(max(0, -ox), nx + min(0, -ox))
            cand = dist[src_y, src_x] + (offset_cost[idx] if me_mode else 0.0)
            better = cand < best[dst_y, dst_x]
            best[dst_y, dst_x] = np.where(better, cand, best[dst_y, dst_x])
            sub = pred[dst_y, dst_x]
            sub[better] = idx
            pred[dst_y, dst_x] = sub
        if not me_mode:
            best = best + (cap - graph.node_rate)
        best[~graph.free] = np.inf
        preds.append(pred)
        dist = best

    # final transition into the injected goal node
    dist_goal = np.linalg.norm(grid - q_goal, axis=-1)
    reach_goal = dist_goal <= scenario.max_step + 1e-9
    if me_mode:
        final = dist + np.where(reach_goal, _edge_energy(scenario, dist_goal), np.inf)
    else:
        final = dist + np.where(reach_goal, cap - graph.rate_goal, np.inf)
    final[~graph.free] = np.inf

    best_idx = int(np.argmin(final))
    if not np.isfinite(final.flat[best_idx]):
        raise GraphInfeasibleError(
            f"no feasible {k_slots}-step path from start to goal on the grid"
        )

    # backtrack through the stored offset choices
    iy, ix = divmod(best_idx, nx)
    nodes = [(iy, ix)]
    for pred in reversed(preds):
        idx = pred[iy, ix]
        oy, ox = offsets[idx]
        iy, ix = iy - oy, ix - ox
        nodes.append((iy, ix))
    nodes.reverse()

    traj = np.empty((k_slots + 1, 2))
    traj[0] = q_start
    traj[-1] = q_goal
    for slot, (jy, jx) in enumerate(nodes, start=1):
        traj[slot] = (graph.xs[jx], graph.ys[jy])
    return traj


@dataclass(frozen=True)
class InitSelection:
    """Outcome of the initializer: a feasible seed trajectory or infeasibility."""

    status: str                   # "feasible" | "infeasible"
    trajectory: np.ndarray | None
    label: str | None             # "ME" | "MR"
    reports: dict

    @property
    def feasible(self) -> bool:
        return self.status == "feasible"


def select_initial(scenario: Scenario, model: SnrModel,
                   grid_spacing: float = 1.0) -> InitSelection:
    """Return the ME path if it satisfies every constraint, else MR, else neither.

    Feasibility is decided by the independent auditor on the full original
    constraint set (rate included), not by the graph construction.
    """
    reports = {}
    for mode in ("ME", "MR"):
        try:
            graph = build_graph(scenario, model=model, mode=mode,
                                grid_spacing=grid_spacing)
            traj = shortest_path(graph)
        except (GraphInfeasibleError, InfeasibleEndpointError) as exc:
            reports[mode] = str(exc)
            continue
        report = audit.check_p3(traj, scenario, model)
        reports[mode] = report
        if report.ok:
            return InitSelection(status="feasible", trajectory=traj, label=mode,
                                 reports=reports)
    return InitSelection(status="infeasible", trajectory=None, label=None,
                         reports=reports)
