import math

import numpy as np
import pytest

from irsplan import audit
from irsplan.conic import (ConicProblem, _NTScaling, cone_index, cone_margin,
                           dump_problem, jordan_divide, jordan_product, load_problem,
                           max_step_to_boundary, solve)
from irsplan.errors import AssemblyError
from irsplan.scenario import los_class, motion_energy, scenario_overrides
from irsplan.snrmodel import linearize_rate
from irsplan.sco import linearize_obstacles
from irsplan.socp import assemble_p4, solve_p4

from conftest import straight_line
from helpers import grid_search_k2, random_certified_socp, random_k2_subproblem


# ---------------------------------------------------------------------------
# cone algebra


def _random_interior(rng, dims, index):
    u = rng.standard_normal(sum(dims))
    for idx in index:
        block = u[idx]
        block[:, 0] = np.linalg.norm(block[:, 1:], axis=1) + 0.1 + np.abs(block[:, 0])
        u[idx] = block
    return u


def test_cone_index_groups_rows_by_dimension():
    index = cone_index([3, 1, 4, 1, 3])
    assert [idx.tolist() for idx in index] == [
        [[3], [8]],
        [[0, 1, 2], [9, 10, 11]],
        [[4, 5, 6, 7]],
    ]


def test_nt_scaling_identity_and_inverse():
    rng = np.random.default_rng(0)
    for _ in range(200):
        dims = [int(d) for d in rng.integers(1, 6, size=rng.integers(1, 4))]
        index = cone_index(dims)
        s = _random_interior(rng, dims, index)
        z = _random_interior(rng, dims, index)
        w = _NTScaling(s, z, index)
        lam_from_z = w.apply(z)
        lam_from_s = w.apply(s, inverse=True)
        assert np.allclose(lam_from_z, lam_from_s, rtol=1e-9, atol=1e-11)
        assert cone_margin(lam_from_z, index) > 0
        v = rng.standard_normal(sum(dims))
        assert np.allclose(w.apply(w.apply(v, inverse=True)), v, rtol=1e-9, atol=1e-11)
        # dense W^2 blocks agree with applying W twice
        stacked = np.empty_like(v)
        for idx, blocks in zip(index, w.w2_blocks()):
            stacked[idx] = np.einsum("kij,kj->ki", blocks, v[idx])
        assert np.allclose(stacked, w.apply(w.apply(v)), rtol=1e-9, atol=1e-11)


def test_jordan_product_divide_roundtrip():
    rng = np.random.default_rng(1)
    dims = [3, 1, 4]
    index = cone_index(dims)
    lam = _random_interior(rng, dims, index)
    d = rng.standard_normal(sum(dims))
    u = jordan_divide(lam, d, index)
    assert np.allclose(jordan_product(lam, u, index), d, rtol=1e-12, atol=1e-12)


def test_max_step_reaches_boundary_exactly():
    rng = np.random.default_rng(2)
    # [3, 1] plus interleaved mixes of the planner's cone sizes 1, 3 and 4
    dim_sets = [[3, 1]] + [[int(d) for d in rng.choice([1, 3, 4], size=6)]
                           for _ in range(5)]
    for dims in dim_sets:
        index = cone_index(dims)
        for _ in range(100):
            u = _random_interior(rng, dims, index)
            du = rng.standard_normal(sum(dims))
            alpha = max_step_to_boundary(u, du, index)
            if math.isinf(alpha):
                assert cone_margin(u + 100.0 * du, index) >= -1e-9
            else:
                assert cone_margin(u + alpha * du, index) >= -1e-8
                assert cone_margin(u + 1.01 * alpha * du + 0 * u, index) < 1e-8


# ---------------------------------------------------------------------------
# conic solver


def test_trivial_norm_epigraph():
    v0 = np.array([1.5, -2.0])
    problem = ConicProblem(c=[1.0, 0.0, 0.0], G=-np.eye(3),
                           h=[0.0, -v0[0], -v0[1]], dims=(3,))
    sol = solve(problem)
    assert sol.status == "optimal"
    assert abs(sol.x[0]) <= 1e-7
    assert np.allclose(sol.x[1:], v0, atol=1e-7)


def test_certified_random_problems_reach_reference_objective():
    for seed in range(50):
        problem, p_star = random_certified_socp(seed)
        sol = solve(problem)
        assert sol.status == "optimal", seed
        assert sol.primal_objective == pytest.approx(p_star, abs=1e-6 * max(1, abs(p_star)))


def test_primal_infeasibility_detected():
    problem = ConicProblem(c=[1.0], G=[[-1.0], [1.0]], h=[-1.0, 0.0], dims=(1, 1))
    assert solve(problem).status == "infeasible"


def test_equality_constraints_supported():
    problem = ConicProblem(c=[1.0, 1.0], G=-np.eye(2), h=[0.0, 0.0], dims=(1, 1),
                           A=[[1.0, -1.0]], b=[1.0])
    sol = solve(problem)
    assert sol.status == "optimal"
    assert np.allclose(sol.x, [1.0, 0.0], atol=1e-7)


def test_solver_determinism():
    problem, _ = random_certified_socp(7)
    a = solve(problem)
    b = solve(problem)
    assert np.array_equal(a.x, b.x) and a.iterations == b.iterations


def test_dimension_validation():
    with pytest.raises(AssemblyError):
        ConicProblem(c=[1.0], G=[[1.0], [1.0]], h=[0.0, 0.0], dims=(3,))
    with pytest.raises(AssemblyError):
        ConicProblem(c=[1.0], G=[[np.nan]], h=[0.0], dims=(1,))


def test_problem_dump_round_trip(tmp_path):
    problem, _ = random_certified_socp(3)
    path = tmp_path / "problem.txt"
    dump_problem(problem, path)
    again = load_problem(path)
    assert np.array_equal(problem.c, again.c)
    assert np.array_equal(problem.G, again.G)
    assert np.array_equal(problem.h, again.h)
    assert problem.dims == again.dims
    sol_a, sol_b = solve(problem), solve(again)
    assert sol_a.primal_objective == sol_b.primal_objective


# ---------------------------------------------------------------------------
# the trajectory subproblem


def _desk_subproblem(scenario, model, trust=1.0):
    sc = scenario_overrides(scenario, min_avg_rate=1.0e9)
    traj = straight_line(sc)
    links = [los_class(q, sc) for q in traj]
    lins = linearize_rate(model, links, traj, sc)
    rows = linearize_obstacles(traj, sc.obstacles)
    return assemble_p4(sc, lins, traj, rows, trust), sc, traj


def test_zero_trust_radius_returns_previous_trajectory(desk_scenario, fitted_model):
    sub, sc, prev = _desk_subproblem(desk_scenario, fitted_model, trust=0.0)
    sol = solve_p4(sub)
    assert np.array_equal(sol.trajectory, prev)
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(motion_energy(prev, sc), rel=1e-12)


def test_two_slot_symmetric_instance_puts_midpoint_in_the_middle(empty_scenario):
    sc = scenario_overrides(empty_scenario, n_slots=2, q_start=[20.0, 15.0],
                            q_goal=[24.0, 15.0], min_avg_rate=0.0)
    prev = np.array([[20.0, 15.0], [21.0, 14.0], [24.0, 15.0]])
    lins = [
        # harmless constant linearizations (zero slope)
        linearize_rate_stub(sc, q) for q in prev
    ]
    sub = assemble_p4(sc, lins, prev, [], trust_radius=3.0)
    sol = solve_p4(sub)
    assert sol.status == "optimal"
    assert np.allclose(sol.trajectory[1], [22.0, 15.0], atol=1e-5)


def linearize_rate_stub(sc, q):
    from irsplan.snrmodel import RateLinearization
    from irsplan.scenario import distances
    d_ap, d_irs = distances(q, sc)
    return RateLinearization(link=None, d_ap0=d_ap, d_irs0=d_irs, value=1.0e9,
                             grad=np.zeros(2))


def test_subproblem_objective_never_exceeds_previous_energy(desk_scenario, fitted_model):
    sc = scenario_overrides(desk_scenario, min_avg_rate=1.0e9)
    prev = straight_line(sc)
    prev = prev + np.stack([np.zeros(len(prev)),
                            0.8 * np.sin(np.linspace(0, math.pi, len(prev)))], axis=1)
    prev[0], prev[-1] = sc.q_start, sc.q_goal
    assert audit.check_p3(prev, sc, fitted_model).ok   # prev feasible for itself
    links = [los_class(q, sc) for q in prev]
    lins = linearize_rate(fitted_model, links, prev, sc)
    rows = linearize_obstacles(prev, sc.obstacles)
    sub = assemble_p4(sc, lins, prev, rows, 1.0)
    sol = solve_p4(sub)
    assert sol.status == "optimal"
    assert sol.objective < motion_energy(prev, sc)
    assert not audit.check_p4(sol.trajectory, sub)


def test_subproblem_determinism(desk_scenario, fitted_model):
    sub, _, _ = _desk_subproblem(desk_scenario, fitted_model)
    a, b = solve_p4(sub), solve_p4(sub)
    assert np.array_equal(a.trajectory, b.trajectory)


def test_assembly_validates_shapes(desk_scenario, fitted_model):
    sub, sc, traj = _desk_subproblem(desk_scenario, fitted_model)
    with pytest.raises(AssemblyError):
        assemble_p4(sc, sub.linearization[:-1], traj, [], 1.0)
    with pytest.raises(AssemblyError):
        assemble_p4(sc, sub.linearization, traj[:-1], [], 1.0)
    with pytest.raises(AssemblyError):
        assemble_p4(sc, sub.linearization, traj, [], -1.0)


def test_k2_instances_match_grid_search(empty_scenario):
    checked = 0
    for seed in range(6):
        sub = random_k2_subproblem(empty_scenario, seed)
        obj_grid, _ = grid_search_k2(sub, resolution=0.01)
        sol = solve_p4(sub)
        if not math.isfinite(obj_grid):
            continue
        assert sol.status == "optimal"
        # solver may slip past grid resolution; grid may never beat the solver
        # by more than the objective's per-cell variation
        sc = sub.scenario
        lipschitz = (2 * sc.motor_v2 * 2 * sc.max_step / sc.slot_duration
                     + 2 * sc.motor_v1)
        bound = max(0.01 * obj_grid, lipschitz * 0.01 * math.sqrt(2.0))
        assert sol.objective <= obj_grid + 1e-6 * max(1.0, obj_grid)
        assert obj_grid <= sol.objective + bound
        assert not audit.check_p4(sol.trajectory, sub)
        checked += 1
    assert checked >= 4
