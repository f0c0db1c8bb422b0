import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from irsplan import audit, graphinit
from irsplan.errors import GraphInfeasibleError
from irsplan.graphinit import build_graph, select_initial, shortest_path
from irsplan.scenario import Obstacle, motion_energy, obstacle_margins, scenario_overrides
from irsplan.snrmodel import rate

from conftest import straight_line


def tiny_scenario(base, *, workspace, q_start, q_goal, n_slots, v_max=1.5,
                  obstacles=()):
    return scenario_overrides(base, workspace=workspace, q_start=q_start,
                              q_goal=q_goal, n_slots=n_slots, v_max=v_max,
                              obstacles=obstacles, min_avg_rate=0.0)


def enumerate_paths_oracle(graph):
    """Brute-force minimum cost over every layer-respecting node sequence."""
    sc = graph.scenario
    grid = graph.nodes.reshape(-1, 2)
    free = graph.free.reshape(-1)
    nodes = [grid[i] for i in range(len(grid)) if free[i]]
    rates = graph.node_rate.reshape(-1)[free.nonzero()[0]] if graph.mode == "MR" else None
    if graph.mode == "MR":
        cap = float(max(rates.max(), graph.rate_start, graph.rate_goal))

    def edge_cost(a, b, rate_b):
        step = float(np.linalg.norm(np.asarray(b) - np.asarray(a)))
        if step > sc.max_step + 1e-9:
            return None
        if graph.mode == "ME":
            return (sc.motor_v2 * step**2 / sc.slot_duration
                    + sc.motor_v1 * step + sc.motor_v0 * sc.slot_duration)
        return cap - rate_b

    best = math.inf
    k_inner = sc.n_slots - 1
    for combo in itertools.product(range(len(nodes)), repeat=k_inner):
        total = 0.0
        prev = sc.q_start
        ok = True
        for idx in combo:
            cost = edge_cost(prev, nodes[idx],
                             rates[idx] if rates is not None else None)
            if cost is None:
                ok = False
                break
            total += cost
            prev = nodes[idx]
        if not ok:
            continue
        cost = edge_cost(prev, sc.q_goal,
                         graph.rate_goal if graph.mode == "MR" else None)
        if cost is None:
            continue
        best = min(best, total + cost)
    return best


def loop_relax(dist, offsets, offset_cost):
    """One DP transition as a loop over the offsets, each improving on the
    best so far only when strictly cheaper: the oracle of graphinit._relax.
    A node no move reaches keeps the offset index -1."""
    ny, nx = dist.shape
    best = np.full((ny, nx), np.inf)
    pred = np.full((ny, nx), -1, dtype=np.int32)
    for idx, (oy, ox) in enumerate(offsets):
        dst_y = slice(max(0, oy), ny + min(0, oy))
        dst_x = slice(max(0, ox), nx + min(0, ox))
        src_y = slice(max(0, -oy), ny + min(0, -oy))
        src_x = slice(max(0, -ox), nx + min(0, -ox))
        cand = dist[src_y, src_x] + offset_cost[idx]
        better = cand < best[dst_y, dst_x]
        best[dst_y, dst_x] = np.where(better, cand, best[dst_y, dst_x])
        sub = pred[dst_y, dst_x]
        sub[better] = idx
        pred[dst_y, dst_x] = sub
    return best, pred


def path_cost(graph, traj):
    sc = graph.scenario
    if graph.mode == "ME":
        return motion_energy(traj, sc)
    origin = graph.nodes[0, 0]
    cap = float(max(graph.node_rate[graph.free].max(), graph.rate_start,
                    graph.rate_goal))
    total = 0.0
    for k in range(1, len(traj)):
        if np.allclose(traj[k], sc.q_goal):
            total += cap - graph.rate_goal
        else:
            iy = int(round((traj[k][1] - origin[1]) / graph.spacing))
            ix = int(round((traj[k][0] - origin[0]) / graph.spacing))
            total += cap - graph.node_rate[iy, ix]
    return total


# ---------------------------------------------------------------------------


def test_obstacle_free_me_path_is_discretized_straight_line(empty_scenario, toy_model):
    sc = scenario_overrides(empty_scenario, min_avg_rate=0.0)
    graph = build_graph(sc, model=toy_model, mode="ME")
    traj = shortest_path(graph)
    # straight segment oracle: every waypoint within one grid diagonal
    direction = (sc.q_goal - sc.q_start) / np.linalg.norm(sc.q_goal - sc.q_start)
    for q in traj:
        offset = q - sc.q_start
        along = offset @ direction
        assert np.linalg.norm(offset - along * direction) <= math.sqrt(2.0)
    ideal_step = np.linalg.norm(sc.q_goal - sc.q_start) / sc.n_slots
    ideal = sc.n_slots * (sc.motor_v2 * ideal_step**2 + sc.motor_v1 * ideal_step
                          + sc.motor_v0)
    assert motion_energy(traj, sc) <= ideal * 1.02


@pytest.mark.parametrize("mode", ["ME", "MR"])
@pytest.mark.parametrize("case", range(4))
def test_dp_equals_exhaustive_enumeration_on_toy_graphs(empty_scenario, toy_model,
                                                        mode, case):
    rng = np.random.default_rng(case)
    k = int(rng.integers(2, 5))
    # 2x2 grid of nodes (spacing 1) inside a tiny workspace
    sc = tiny_scenario(
        empty_scenario, workspace=(0.0, 1.0, 0.0, 1.0),
        q_start=[0.2, 0.1], q_goal=[0.9, 0.8], n_slots=k,
        v_max=float(rng.uniform(1.2, 2.5)),
    )
    graph = build_graph(sc, model=toy_model, mode=mode)
    traj = shortest_path(graph)
    oracle = enumerate_paths_oracle(graph)
    assert path_cost(graph, traj) == pytest.approx(oracle, rel=1e-12)


def test_single_slot_path(empty_scenario, toy_model):
    sc = tiny_scenario(empty_scenario, workspace=(0, 4, 0, 4), q_start=[0.5, 0.5],
                       q_goal=[2.0, 0.5], n_slots=1, v_max=2.0)
    graph = build_graph(sc, model=toy_model, mode="ME")
    traj = shortest_path(graph)
    assert np.allclose(traj, [[0.5, 0.5], [2.0, 0.5]])


def test_unreachable_goal_raises(empty_scenario, toy_model):
    sc = tiny_scenario(empty_scenario, workspace=(0, 20, 0, 4), q_start=[0.5, 2.0],
                       q_goal=[19.5, 2.0], n_slots=3, v_max=1.0)  # 3 m reach < 19 m
    graph = build_graph(sc, model=toy_model, mode="ME")
    with pytest.raises(GraphInfeasibleError):
        shortest_path(graph)


def test_graph_nodes_respect_safety_margin(desk_scenario, fitted_model):
    graph = build_graph(desk_scenario, model=fitted_model, mode="ME")
    grid = graph.nodes.reshape(-1, 2)
    free = graph.free.reshape(-1)
    for obs in desk_scenario.obstacles:
        diff = grid[free] - obs.center
        margins = np.einsum("ni,ij,nj->n", diff, obs.shape_inv, diff)
        assert margins.min() >= desk_scenario.safety_level


def test_free_mask_is_the_one_point_margin_test(desk_scenario, monkeypatch):
    # a non-integer spacing puts nodes where a differently rounded form of the
    # quadratic could fall on the other side of the safety level
    monkeypatch.setattr(graphinit, "GRID_SPACING", 0.7)
    graph = build_graph(desk_scenario, mode="ME")
    assert graph.spacing == 0.7
    grid = graph.nodes.reshape(-1, 2)
    expected = [all(obstacle_margins(point, desk_scenario) >= desk_scenario.safety_level)
                for point in grid]
    assert graph.free.reshape(-1).tolist() == expected
    assert 0 < sum(expected) < len(expected)


def test_edges_respect_step_bound(desk_scenario, fitted_model):
    graph = build_graph(desk_scenario, model=fitted_model, mode="ME")
    lengths = np.linalg.norm(graph.offsets.astype(float), axis=1) * graph.spacing
    assert lengths.max() <= desk_scenario.max_step + 1e-9
    assert (graph.offsets == 0).all(axis=1).any()   # waiting move available


@settings(derandomize=True, max_examples=30, deadline=None)
@given(step=st.floats(0.25, 4.0))
def test_every_slot_moves_at_least_one_grid_step(desk_scenario, step):
    # a slot shorter than the 1 m grid must still leave a move other than waiting
    sc = scenario_overrides(desk_scenario, slot_duration=step / desk_scenario.v_max)
    graph = build_graph(sc, mode="ME")
    lengths = np.linalg.norm(graph.offsets.astype(float), axis=1) * graph.spacing
    assert graph.spacing <= 1.0
    assert (lengths > 0).any()
    assert lengths.max() <= sc.max_step + 1e-9


def test_goal_on_the_far_edge_of_a_sub_metre_grid_is_reachable(desk_scenario):
    # 50 m is not a whole number of 0.82 m steps: a grid laid from xmin ended
    # 0.88 m short of the far edge, out of one slot's reach of this goal
    sc = scenario_overrides(desk_scenario, slot_duration=(50 / 60.95) / 3, n_slots=110,
                            min_avg_rate=0.0, q_goal=[50.0, 8.61])
    assert sc.v_max == 3.0
    traj = shortest_path(build_graph(sc, mode="ME"))
    assert np.array_equal(traj[-1], sc.q_goal)
    assert np.linalg.norm(np.diff(traj, axis=0), axis=1).max() <= sc.max_step + 1e-9


@settings(derandomize=True, max_examples=40, deadline=None)
@given(step=st.floats(0.25, 4.0), steps=st.tuples(st.integers(1, 60), st.integers(1, 60)),
       rests=st.tuples(st.floats(0.01, 0.99), st.floats(0.01, 0.99)))
def test_every_workspace_edge_point_is_near_a_grid_node(empty_scenario, step, steps, rests):
    spacing = min(graphinit.GRID_SPACING, step)
    (xmin, ymin), (w, h) = (-3.0, 2.0), [(n + r) * spacing for n, r in zip(steps, rests)]
    sc = scenario_overrides(empty_scenario, workspace=(xmin, xmin + w, ymin, ymin + h),
                            q_start=[xmin, ymin], q_goal=[xmin + w, ymin + h],
                            slot_duration=step / empty_scenario.v_max)
    graph = build_graph(sc, mode="ME")
    assert graph.spacing == spacing
    nodes = graph.nodes.reshape(-1, 2)
    assert (nodes >= np.array([xmin, ymin]) - 1e-9).all()
    assert (nodes <= np.array([xmin + w, ymin + h]) + 1e-9).all()
    # every corner and edge midpoint (and the centre) is within one slot's
    # reach of a node, since spacing <= max_step
    for point in itertools.product((xmin, xmin + w / 2, xmin + w), (ymin, ymin + h / 2, ymin + h)):
        gap = np.linalg.norm(nodes - point, axis=1).min()
        assert gap <= spacing / math.sqrt(2) + 1e-9, point


def test_mr_path_rate_at_least_me_path_rate(desk_scenario, fitted_model):
    sc = scenario_overrides(desk_scenario, min_avg_rate=0.0)
    me = shortest_path(build_graph(sc, model=fitted_model, mode="ME"))
    mr = shortest_path(build_graph(sc, model=fitted_model, mode="MR"))
    assert rate(fitted_model, mr, sc) >= rate(fitted_model, me, sc)


def test_select_initial_prefers_me_when_rate_unconstrained(desk_scenario, fitted_model):
    sc = scenario_overrides(desk_scenario, min_avg_rate=0.0)
    selection = select_initial(sc, fitted_model)
    assert selection.feasible and selection.label == "ME"
    assert audit.check_p3(selection.trajectory, sc, fitted_model).ok


def test_select_initial_declares_infeasible_when_rate_unattainable(
        desk_scenario, fitted_model):
    sc = scenario_overrides(desk_scenario, min_avg_rate=9e9)
    selection = select_initial(sc, fitted_model)
    assert not selection.feasible
    assert selection.trajectory is None and selection.label is None


def test_desk_m0_at_2p5_gbps_selects_max_rate_initialization(desk_scenario):
    from irsplan.radiomap import build_map
    from irsplan.snrmodel import fit

    sc = scenario_overrides(desk_scenario, n_irs_elements=0, min_avg_rate=2.5e9)
    built = build_map(sc, nx=50, ny=30, draws_per_cell=100, seed=21)
    model = fit(built, sc)
    selection = select_initial(sc, model)
    assert selection.feasible and selection.label == "MR"
    assert audit.check_p3(selection.trajectory, sc, model).ok


def test_grid_refinement_never_raises_me_energy(desk_scenario, fitted_model, monkeypatch):
    sc = scenario_overrides(desk_scenario, min_avg_rate=0.0)
    coarse = shortest_path(build_graph(sc, model=fitted_model, mode="ME"))
    monkeypatch.setattr(graphinit, "GRID_SPACING", 0.5)
    fine = shortest_path(build_graph(sc, model=fitted_model, mode="ME"))
    assert motion_energy(fine, sc) <= motion_energy(coarse, sc) + 1e-9


# Obstacle layouts besides the desk's own: a wall across the hall with one
# gap, and small scattered ellipses, some of them rotated.
DP_LAYOUTS = {
    "desk": None,
    "wall-with-gap": (Obstacle.from_extents([25.0, 6.0], 12.0, 2.0, 90.0),
                      Obstacle.from_extents([25.0, 24.0], 12.0, 2.0, 90.0)),
    "scattered": tuple(Obstacle.from_extents(center, 3.0, 1.5, angle)
                       for center, angle in [([15.0, 15.0], 0.0), ([20.0, 10.0], 45.0),
                                             ([24.0, 17.0], 90.0), ([30.0, 13.0], 30.0),
                                             ([35.0, 16.0], 120.0), ([12.0, 20.0], 0.0)]),
}


@pytest.mark.parametrize("mode", ["ME", "MR"])
@pytest.mark.parametrize("layout", sorted(DP_LAYOUTS))
def test_dp_transition_matches_the_per_offset_loop(desk_scenario, fitted_model, monkeypatch,
                                                  layout, mode):
    obstacles = DP_LAYOUTS[layout]
    sc = scenario_overrides(desk_scenario, min_avg_rate=0.0,
                            **({} if obstacles is None else {"obstacles": obstacles}))
    graph = build_graph(sc, model=fitted_model, mode=mode)
    path = shortest_path(graph)
    relax = graphinit._relax
    transitions = []

    def checked(dist, offsets, offset_cost):
        best, pred = relax(dist, offsets, offset_cost)
        loop_best, loop_pred = loop_relax(dist, offsets, offset_cost)
        reached = loop_pred >= 0
        assert np.array_equal(best, loop_best)          # bitwise, inf where unreached
        assert np.array_equal(pred[reached], loop_pred[reached])
        transitions.append(1)
        return loop_best, loop_pred

    monkeypatch.setattr(graphinit, "_relax", checked)
    assert np.array_equal(shortest_path(graph), path)
    assert len(transitions) == sc.n_slots - 2
