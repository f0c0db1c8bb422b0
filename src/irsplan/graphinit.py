"""Initial trajectories by exact dynamic programming on a time-expanded graph.

Layer 0 holds exactly the start position and layer K the goal (both are
injected as explicit nodes so endpoint constraints hold exactly); layers
1..K-1 share one grid of positions that clear the safety level of every
obstacle in the (node, obstacle) grid of ``obstacle_margins``. Its spacing is
GRID_SPACING, or the one-slot reach D_max = v_max * slot_duration when
that is shorter, so every slot can move at least one grid step. The grid
is centred in the workspace, leaving at most half a spacing to each edge,
so every workspace point (an endpoint on the far edge too) lies within
spacing / sqrt(2) <= D_max / sqrt(2) of a node. Edges
connect consecutive layers for moves up to D_max, including the
zero-length waiting move, since the deadline fixes the slot count and
shorter paths must idle.

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
from numpy.lib.stride_tricks import sliding_window_view

from . import audit
from .errors import GraphInfeasibleError
from .scenario import Scenario, distances, los_class_batch, obstacle_margins, slot_energy
from .snrmodel import SnrModel, slot_rate

GRID_SPACING = 1.0    # meters; the node grid's spacing when a slot reaches that far


@dataclass(frozen=True)
class TimeExpandedGraph:
    scenario: Scenario
    mode: str                    # "ME" | "MR"
    spacing: float
    nodes: np.ndarray            # (ny, nx, 2) grid positions, row-major, centred in the workspace
    free: np.ndarray             # (ny, nx) nodes satisfying the safety margin
    node_rate: np.ndarray | None  # (ny, nx) fitted rate, MR mode only
    rate_start: float
    rate_goal: float
    offsets: np.ndarray          # (n_off, 2) integer (oy, ox) moves, |o|*g <= D_max


def build_graph(scenario: Scenario, model: SnrModel = None,
                mode: str = "ME") -> TimeExpandedGraph:
    """Construct the layered grid graph for one cost mode."""
    if mode not in ("ME", "MR"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "MR" and model is None:
        raise ValueError("MR mode needs a fitted SNR model")

    spacing = min(GRID_SPACING, scenario.max_step)
    xmin, xmax, ymin, ymax = scenario.workspace
    axes = []
    for lo, hi in ((xmin, xmax), (ymin, ymax)):
        n = math.floor((hi - lo) / spacing) + 1
        axes.append(lo + (hi - lo - (n - 1) * spacing) / 2 + np.arange(n) * spacing)
    xs, ys = axes
    nodes = np.stack(np.meshgrid(xs, ys), axis=-1)
    free = np.all(obstacle_margins(nodes, scenario) >= scenario.safety_level, axis=-1)

    reach = math.floor(scenario.max_step / spacing + 1e-9)
    offs = [
        (oy, ox)
        for oy in range(-reach, reach + 1)
        for ox in range(-reach, reach + 1)
        if math.hypot(ox, oy) * spacing <= scenario.max_step + 1e-9
    ]
    # ascending predecessor linear index for deterministic tie-breaking
    offs.sort(key=lambda o: (-o[0], -o[1]))

    node_rate = None
    rate_start = rate_goal = 0.0
    if mode == "MR":
        # the grid nodes, then the injected start and goal nodes
        queried = np.vstack([nodes.reshape(-1, 2), scenario.q_start, scenario.q_goal])
        rates = slot_rate(model, los_class_batch(queried, scenario),
                          *distances(queried, scenario), scenario)
        node_rate = rates[:-2].reshape(len(ys), len(xs))
        rate_start, rate_goal = rates[-2:].tolist()

    return TimeExpandedGraph(
        scenario=scenario, mode=mode, spacing=spacing, nodes=nodes, free=free,
        node_rate=node_rate, rate_start=rate_start, rate_goal=rate_goal,
        offsets=np.array(offs, dtype=int),
    )


def _relax(dist: np.ndarray, offsets: np.ndarray, offset_cost: np.ndarray) -> tuple:
    """One DP transition: the cheapest arrival cost at each node over every
    move, and the index of that move, the lowest among equal costs.

    Candidate (idx, y, x) is ``dist[(y, x) - offsets[idx]] + offset_cost[idx]``,
    read from a window of ``dist`` padded with inf, so a move from outside the
    grid costs inf. The first True of ``cand == best`` is argmin's first
    minimum, found faster across the offset axis.
    """
    ny, nx = dist.shape
    reach = int(np.abs(offsets).max())
    padded = np.full((ny + 2 * reach, nx + 2 * reach), np.inf)
    padded[reach:reach + ny, reach:reach + nx] = dist
    windows = sliding_window_view(padded, (ny, nx))
    cand = windows[reach - offsets[:, 0], reach - offsets[:, 1]] + offset_cost[:, None, None]
    best = cand.min(axis=0)
    return best, (cand == best).argmax(axis=0)


def shortest_path(graph: TimeExpandedGraph) -> np.ndarray:
    """Exact minimum-cost K-step path from start to goal.

    Layer-by-layer dynamic programming; O(K * nodes * moves). Raises
    GraphInfeasibleError when no layer-respecting path exists.
    """
    scenario = graph.scenario
    k_slots = scenario.n_slots
    q_start, q_goal = scenario.q_start, scenario.q_goal

    if k_slots == 1:
        if np.linalg.norm(q_goal - q_start) <= scenario.max_step + 1e-9:
            return np.stack([q_start, q_goal])
        raise GraphInfeasibleError("goal unreachable in a single slot")

    ny, nx = graph.free.shape
    grid = graph.nodes

    # an edge costs edge_cost(its length) + the node cost of its destination
    if graph.mode == "ME":
        def edge_cost(length):
            return slot_energy(length, scenario)
        node_cost, goal_cost = np.zeros((ny, nx)), 0.0
    else:
        rates = graph.node_rate[graph.free]
        cap = float(max(rates.max() if rates.size else 0.0,
                        graph.rate_start, graph.rate_goal))
        edge_cost = np.zeros_like
        node_cost, goal_cost = cap - graph.node_rate, cap - graph.rate_goal

    # layer 0 -> 1: explicit distances from the injected start node
    dist_start = np.linalg.norm(grid - q_start, axis=-1)
    reach0 = (dist_start <= scenario.max_step + 1e-9) & graph.free
    dist = np.where(reach0, edge_cost(dist_start) + node_cost, np.inf)
    preds = []        # per transition 2..K-1: (ny, nx) index of chosen offset
    offsets = graph.offsets
    offset_cost = edge_cost(np.linalg.norm(offsets.astype(float), axis=1) * graph.spacing)

    for _layer in range(2, k_slots):
        best, pred = _relax(dist, offsets, offset_cost)
        dist = best + node_cost
        dist[~graph.free] = np.inf
        preds.append(pred)

    # final transition into the injected goal node
    dist_goal = np.linalg.norm(grid - q_goal, axis=-1)
    reach_goal = dist_goal <= scenario.max_step + 1e-9
    final = dist + np.where(reach_goal, edge_cost(dist_goal) + goal_cost, np.inf)
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
        traj[slot] = grid[jy, jx]
    return traj


@dataclass(frozen=True)
class InitSelection:
    """Outcome of the initializer: a feasible seed trajectory or infeasibility."""

    trajectory: np.ndarray | None   # None when infeasible
    label: str | None             # "ME" | "MR"
    reports: dict

    @property
    def feasible(self) -> bool:
        return self.trajectory is not None


def select_initial(scenario: Scenario, model: SnrModel) -> InitSelection:
    """Return the ME path if it satisfies every constraint, else MR, else neither.

    Feasibility is decided by the independent auditor on the full original
    constraint set (rate included), not by the graph construction.
    """
    reports = {}
    for mode in ("ME", "MR"):
        try:
            graph = build_graph(scenario, model=model, mode=mode)
            traj = shortest_path(graph)
        except GraphInfeasibleError as exc:
            reports[mode] = str(exc)
            continue
        report = audit.check_p3(traj, scenario, model)
        reports[mode] = report
        if report.ok:
            return InitSelection(trajectory=traj, label=mode, reports=reports)
    return InitSelection(trajectory=None, label=None, reports=reports)
