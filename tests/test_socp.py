import math
import re

import numpy as np
import pytest
import scipy.sparse.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from irsplan import audit
from irsplan.conic import (ConicProblem, _NTScaling, cone_margin, cone_mask,
                           dump_problem, jordan_divide, jordan_product, load_problem,
                           max_step_to_boundary, solve)
from irsplan.errors import AssemblyError, FileFormatError
from irsplan.scenario import distances, motion_energy, scenario_overrides
from irsplan.snrmodel import RateLinearization, linearize_rate
from irsplan.sco import linearize_obstacles
from irsplan.socp import ObstacleLinearization, assemble_p4, solve_p4

from conftest import straight_line
from helpers import (grid_search_k2, random_certified_socp, random_infeasible_socp,
                     random_k2_subproblem, random_unbounded_socp)


# ---------------------------------------------------------------------------
# cone algebra


def _blocks_of(dims, stacked):
    """The (k, dmax) cone blocks of a stacked vector, zero in the pad."""
    mask = cone_mask(dims)
    blocks = np.zeros(mask.shape)
    blocks[mask] = stacked
    return blocks


def _random_interior(rng, dims):
    u = _blocks_of(dims, rng.standard_normal(sum(dims)))
    u[:, 0] = np.linalg.norm(u[:, 1:], axis=1) + 0.1 + np.abs(u[:, 0])
    return u


def test_cone_mask_pads_each_cone_to_the_largest_dimension():
    mask = cone_mask([3, 1, 4, 1, 3])
    # row by row the mask is in stacked order: entry j of cone i is stacked row
    # start_i + j, and the pad (here marked 12) holds no row
    index = np.full(mask.shape, 12)
    index[mask] = np.arange(12)
    assert index.tolist() == [
        [0, 1, 2, 12],
        [3, 12, 12, 12],
        [4, 5, 6, 7],
        [8, 12, 12, 12],
        [9, 10, 11, 12],
    ]


def test_nt_scaling_identity_and_inverse():
    rng = np.random.default_rng(0)
    for _ in range(200):
        dims = [int(d) for d in rng.integers(1, 6, size=rng.integers(1, 4))]
        mask = cone_mask(dims)
        s = _random_interior(rng, dims)
        z = _random_interior(rng, dims)
        w = _NTScaling(s, z)
        lam_from_z = w.apply(z)
        lam_from_s = w.apply(s, inverse=True)
        assert np.allclose(lam_from_z, lam_from_s, rtol=1e-9, atol=1e-11)
        assert cone_margin(lam_from_z) > 0
        v = _blocks_of(dims, rng.standard_normal(sum(dims)))
        assert np.allclose(w.apply(w.apply(v, inverse=True)), v, rtol=1e-9, atol=1e-11)
        # dense W^2 blocks agree with applying W twice, and map the pad to zero
        stacked = np.einsum("kij,kj->ki", w.w2_blocks(), v)
        assert np.all(stacked[~mask] == 0.0)
        assert np.allclose(stacked[mask], w.apply(w.apply(v))[mask], rtol=1e-9, atol=1e-11)


def test_jordan_product_divide_roundtrip():
    rng = np.random.default_rng(1)
    dims = [3, 1, 4]
    lam = _random_interior(rng, dims)
    d = _blocks_of(dims, rng.standard_normal(sum(dims)))
    u = jordan_divide(lam, d)
    assert np.allclose(jordan_product(lam, u), d, rtol=1e-12, atol=1e-12)


def _nt_reference(s, z):
    """W of one cone in the hyperbolic Householder form of the CVXOPT notes:
    eta [[w0, w1'], [w1, I + w1 w1' / (1 + w0)]] for the normalized NT point w."""
    s_norm, z_norm = (math.sqrt(u[0] ** 2 - u[1:] @ u[1:]) for u in (s, z))
    sbar, zbar = s / s_norm, z / z_norm
    gamma = math.sqrt((1.0 + sbar @ zbar) / 2.0)
    w = np.concatenate([[sbar[0] + zbar[0]], sbar[1:] - zbar[1:]]) / (2.0 * gamma)
    W = np.eye(s.size) + np.outer(w, w) / (1.0 + w[0])
    W[0], W[:, 0] = w, w
    return math.sqrt(s_norm / z_norm) * W


@settings(derandomize=True, max_examples=60, deadline=None)
@given(dims=st.lists(st.sampled_from([1, 3, 4]), min_size=1, max_size=8),
       seed=st.integers(0, 2**32 - 1))
def test_block_operations_keep_the_pad_zero_and_match_each_cone(dims, seed):
    rng = np.random.default_rng(seed)
    mask = cone_mask(dims)
    s, z = _random_interior(rng, dims), _random_interior(rng, dims)
    v = _blocks_of(dims, rng.standard_normal(sum(dims)))
    w = _NTScaling(s, z)
    w2 = w.w2_blocks()
    outputs = [jordan_product(s, v), jordan_divide(s, v), w.apply(v),
               w.apply(v, inverse=True), np.einsum("kij,kj->ki", w2, v)]
    for out in outputs:
        assert np.all(out[~mask] == 0.0)
    # a pad row or column of W^2 holds nothing but its diagonal
    pad_pairs = (~mask[:, :, None] | ~mask[:, None, :]) & ~np.eye(mask.shape[1], dtype=bool)
    assert np.all(w2[pad_pairs] == 0.0)
    for i, d in enumerate(dims):
        si, vi = s[i, :d], v[i, :d]
        arrow = np.block([[si[:1], si[1:]], [si[1:, None], si[0] * np.eye(d - 1)]])
        W = _nt_reference(si, z[i, :d])
        expected = [arrow @ vi, np.linalg.solve(arrow, vi), W @ vi, np.linalg.solve(W, vi),
                    W @ W @ vi]
        for out, ref in zip(outputs, expected):
            assert np.allclose(out[i, :d], ref, rtol=1e-9, atol=1e-11)
        assert np.allclose(w2[i, :d, :d], W @ W, rtol=1e-9, atol=1e-11)


def test_max_step_reaches_boundary_exactly():
    rng = np.random.default_rng(2)
    # [3, 1] plus interleaved mixes of the planner's cone sizes 1, 3 and 4
    dim_sets = [[3, 1]] + [[int(d) for d in rng.choice([1, 3, 4], size=6)]
                           for _ in range(5)]
    cases = [(_random_interior(rng, dims), _blocks_of(dims, rng.standard_normal(sum(dims))))
             for dims in dim_sets for _ in range(100)]
    # a direction along which jnorm2 has a tiny quadratic coefficient (8.9e-16):
    # the textbook root formula cancels and stepped past the boundary to 0.75
    cases.append((np.array([[1.0, 0.0, 0.0]]),
                  np.array([[-0.6814404966890053, -0.6124245902743652,
                             -0.2988264910529741]])))
    for u, du in cases:
        alpha = max_step_to_boundary(u, du)
        if math.isinf(alpha):
            assert cone_margin(u + 100.0 * du) >= -1e-9
        else:
            assert cone_margin(u + alpha * du) >= -1e-8
            assert cone_margin(u + 1.01 * alpha * du + 0 * u) < 1e-8


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


def _assert_infeasibility_certificate(problem, sol):
    """z in K, G'z + A'y = 0 and h'z + b'y = -1: no x satisfies the constraints."""
    assert sol.status == "infeasible"
    assert cone_margin(_blocks_of(problem.dims, sol.z)) >= -1e-8
    assert (np.linalg.norm(problem.G.T @ sol.z + problem.A.T @ sol.y)
            <= 1e-8 * (1 + np.linalg.norm(problem.c)))
    assert problem.h @ sol.z + problem.b @ sol.y == pytest.approx(-1.0, abs=1e-12)


def _assert_unboundedness_certificate(problem, sol):
    """s = -Gx in K, Ax = 0 and c'x = -1: x is a ray of unbounded descent."""
    assert sol.status == "unbounded"
    assert cone_margin(_blocks_of(problem.dims, sol.s)) >= -1e-8
    bound = 1e-8 * (1 + np.linalg.norm(problem.h))
    assert np.linalg.norm(problem.G @ sol.x + sol.s) <= bound
    assert np.linalg.norm(problem.A @ sol.x) <= bound
    assert problem.c @ sol.x == pytest.approx(-1.0, abs=1e-12)


def test_primal_infeasibility_detected():
    problem = ConicProblem(c=[1.0], G=[[-1.0], [1.0]], h=[-1.0, 0.0], dims=(1, 1))
    _assert_infeasibility_certificate(problem, solve(problem))


def test_unboundedness_detected():
    # minimize x1 - 2 x2 subject to x2 <= x1 and x1 >= 1: the ray (1, 1) descends
    problem = ConicProblem(c=[1.0, -2.0], G=[[-1.0, 1.0], [-1.0, 0.0]], h=[0.0, -1.0],
                           dims=(1, 1))
    _assert_unboundedness_certificate(problem, solve(problem))


@pytest.mark.parametrize("generator, assert_certificate", [
    (random_infeasible_socp, _assert_infeasibility_certificate),
    (random_unbounded_socp, _assert_unboundedness_certificate),
])
def test_random_problems_without_an_optimum_return_certificates(generator,
                                                                 assert_certificate):
    for seed in range(50):
        problem = generator(seed)
        assert_certificate(problem, solve(problem))


@pytest.mark.parametrize("sign, bound", [(1.0, 1e8), (-1.0, 1e9)])
def test_large_data_are_not_mistaken_for_a_certificate(sign, bound):
    # minimize t subject to t >= 1e8, and minimize -t subject to t <= 1e9:
    # at the start h'z and c'x already dwarf the residuals of a certificate
    problem = ConicProblem(c=[sign], G=[[-sign]], h=[-sign * bound], dims=(1,))
    sol = solve(problem)
    assert sol.status == "optimal"
    assert sol.primal_objective == pytest.approx(sign * bound, rel=1e-6)


def test_equality_constraints_supported():
    problem = ConicProblem(c=[1.0, 1.0], G=-np.eye(2), h=[0.0, 0.0], dims=(1, 1),
                           A=[[1.0, -1.0]], b=[1.0])
    sol = solve(problem)
    assert sol.status == "optimal"
    assert np.allclose(sol.x, [1.0, 0.0], atol=1e-7)


def test_solver_determinism():
    for problem in (random_certified_socp(7)[0], random_infeasible_socp(7),
                    random_unbounded_socp(7)):
        a = solve(problem)
        b = solve(problem)
        assert a.status == b.status and a.iterations == b.iterations
        for field in ("x", "y", "s", "z"):
            assert np.array_equal(getattr(a, field), getattr(b, field), equal_nan=True)


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


@pytest.mark.parametrize("edit", ["cones", "nan", "short"])
def test_a_dump_that_is_no_cone_program_is_a_format_error(tmp_path, edit):
    # each edited record still parses, but the records no longer make a problem
    problem, _ = random_certified_socp(3)
    path = tmp_path / "problem.txt"
    dump_problem(problem, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    dims_at = next(i for i, line in enumerate(lines) if line.startswith("dims "))
    c_at = next(i for i, line in enumerate(lines) if line.startswith("c "))
    c_values = lines[c_at].split()[1:]
    if edit == "cones":
        assert problem.dims == (1, 1)
        lines[dims_at] = "dims 1 2"
    elif edit == "nan":
        lines[c_at] = " ".join(["c", "nan", *c_values[1:]])
    else:
        lines[c_at] = " ".join(["c", *c_values[:-1]])
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(FileFormatError, match=re.escape(str(path))):
        load_problem(path)


# ---------------------------------------------------------------------------
# the trajectory subproblem


def _desk_subproblem(scenario, model, trust=1.0):
    sc = scenario_overrides(scenario, min_avg_rate=1.0e9)
    traj = straight_line(sc)
    lins = linearize_rate(model, traj, sc)
    rows = linearize_obstacles(traj, sc)
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
    # harmless constant linearizations (zero slope)
    lins = linearize_rate_stub(sc, prev)
    sub = assemble_p4(sc, lins, prev, linearize_obstacles(prev, sc), trust_radius=3.0)
    sol = solve_p4(sub)
    assert sol.status == "optimal"
    assert np.allclose(sol.trajectory[1], [22.0, 15.0], atol=1e-5)


def linearize_rate_stub(sc, traj):
    d_ap, d_irs = distances(traj, sc)
    return RateLinearization(d_ap0=d_ap, d_irs0=d_irs, value=np.full(len(traj), 1.0e9),
                             grad=np.zeros((len(traj), 2)))


def test_subproblem_objective_never_exceeds_previous_energy(desk_scenario, fitted_model):
    sc = scenario_overrides(desk_scenario, min_avg_rate=1.0e9)
    prev = straight_line(sc)
    prev = prev + np.stack([np.zeros(len(prev)),
                            0.8 * np.sin(np.linspace(0, math.pi, len(prev)))], axis=1)
    prev[0], prev[-1] = sc.q_start, sc.q_goal
    assert audit.check_p3(prev, sc, fitted_model).ok   # prev feasible for itself
    lins = linearize_rate(fitted_model, prev, sc)
    rows = linearize_obstacles(prev, sc)
    sub = assemble_p4(sc, lins, prev, rows, 1.0)
    sol = solve_p4(sub)
    assert sol.status == "optimal"
    assert sol.objective < motion_energy(prev, sc)
    assert not audit.check_p4(sol.trajectory, sub)


def test_every_factorization_of_a_solve_shares_one_kkt_pattern(desk_scenario, fitted_model,
                                                              monkeypatch):
    patterns = []
    splu = scipy.sparse.linalg.splu

    def recording_splu(kkt, *args, **kwargs):
        patterns.append((kkt.indptr.copy(), kkt.indices.copy()))
        return splu(kkt, *args, **kwargs)

    monkeypatch.setattr(scipy.sparse.linalg, "splu", recording_splu)
    sub, _, _ = _desk_subproblem(desk_scenario, fitted_model)
    sol = solve(sub.problem)
    assert sol.status == "optimal"
    # one factorization per iteration but the last
    assert len(patterns) == sol.iterations - 1 >= 2
    for indptr, indices in patterns[1:]:
        assert np.array_equal(indptr, patterns[0][0])
        assert np.array_equal(indices, patterns[0][1])


def test_subproblem_determinism(desk_scenario, fitted_model):
    sub, _, _ = _desk_subproblem(desk_scenario, fitted_model)
    a, b = solve_p4(sub), solve_p4(sub)
    assert np.array_equal(a.trajectory, b.trajectory)


def test_assembly_validates_shapes(desk_scenario, fitted_model):
    sub, sc, traj = _desk_subproblem(desk_scenario, fitted_model)
    lin = sub.linearization
    no_rows = linearize_obstacles(traj, scenario_overrides(sc, obstacles=()))
    short = RateLinearization(lin.d_ap0[:-1], lin.d_irs0[:-1], lin.value[:-1], lin.grad[:-1])
    with pytest.raises(AssemblyError):
        assemble_p4(sc, short, traj, no_rows, 1.0)
    with pytest.raises(AssemblyError):
        assemble_p4(sc, lin, traj[:-1], no_rows, 1.0)
    with pytest.raises(AssemblyError):
        assemble_p4(sc, lin, traj, no_rows, -1.0)
    # obstacle rows whose first axis is not one per free slot
    rows = sub.obstacle_rows
    for coeff, offset in ((rows.coeff[1:], rows.offset[1:]),
                          (rows.coeff[:, :, :1], rows.offset),
                          (rows.coeff.reshape(-1, 2), rows.offset.reshape(-1))):
        with pytest.raises(AssemblyError):
            assemble_p4(sc, lin, traj, ObstacleLinearization(coeff, offset), 1.0)


@pytest.mark.parametrize("n_slots, obstacle_free", [(1, False), (2, False), (30, False), (30, True)],
                         ids=["1", "2", "30", "30-obstacle-free"])
def test_assembled_rows_are_the_constraint_families(desk_scenario, empty_scenario, fitted_model,
                                                   n_slots, obstacle_free):
    sc = scenario_overrides(empty_scenario if obstacle_free else desk_scenario, n_slots=n_slots)
    prev = straight_line(sc)
    lins = linearize_rate(fitted_model, prev, sc)
    rows = linearize_obstacles(prev, sc)
    sub = assemble_p4(sc, lins, prev, rows, 0.8)
    n_free, dt, gbps = n_slots - 1, sc.slot_duration, 1e-9
    assert rows.offset.shape == (n_free, 0 if obstacle_free else 5)

    # the variable blocks tile the columns
    n_vars = sub.problem.n_vars
    assert np.array_equal(np.sort(np.concatenate([b.ravel() for b in sub.cols.values()])),
                          np.arange(n_vars))
    # the families' cones tile the rows, in the interleaved order, with dims' sizes
    cones = sorted((unit, name) for name, block in sub.rows.items() for unit in block.tolist())
    assert [name for _, name in cones] == (["speed", "energy", "step"] * n_slots
                                           + ["trust", "dist_ap", "dist_irs"] * n_free
                                           + ["obstacle"] * rows.offset.size + ["rate"])
    assert [len(unit) for unit, _ in cones] == list(sub.problem.dims)
    assert [row for unit, _ in cones for row in unit] == list(range(len(sub.problem.h)))

    # a perturbed trajectory with its own epigraph values
    q = prev.copy()
    q[1:-1] += np.random.default_rng(n_slots).uniform(-0.7, 0.7, size=(n_free, 2))
    dq = np.diff(q, axis=0)
    u = np.linalg.norm(dq, axis=1)
    w = u**2 / dt
    s_ap, s_irs = distances(q[1:-1], sc)
    x = np.zeros(n_vars)
    for name, value in (("q", q[1:-1]), ("u", u), ("w", w), ("s_ap", s_ap), ("s_irs", s_irs)):
        x[sub.cols[name]] = value.reshape(sub.cols[name].shape)
    assert sub.problem.c @ x + n_slots * sc.motor_v0 * dt == pytest.approx(
        motion_energy(q, sc), rel=1e-12)

    expected = {name: [] for name in sub.rows}
    for k in range(n_slots):
        expected["speed"].append([u[k], *dq[k]])
        expected["energy"].append([w[k] + dt, *(2 * dq[k]), w[k] - dt])
        expected["step"].append([sc.max_step - u[k]])
    for k in range(1, n_slots):
        expected["trust"].append([0.8, *(q[k] - prev[k])])
        expected["dist_ap"].append([s_ap[k - 1], *(q[k] - sc.ap_pos), sc.z_robot - sc.z_ap])
        expected["dist_irs"].append([s_irs[k - 1], *(q[k] - sc.irs_pos), sc.z_robot - sc.z_irs])
    for k in range(1, n_slots):
        for coeff, offset in zip(rows.coeff[k - 1], rows.offset[k - 1]):
            expected["obstacle"].append([coeff @ q[k] + offset - sc.safety_level])
    rate = lins.value.tolist()
    for k in range(1, n_slots):
        g_ap, g_irs = lins.grad[k]
        rate[k] += g_ap * (s_ap[k - 1] - lins.d_ap0[k]) + g_irs * (s_irs[k - 1] - lins.d_irs0[k])
    expected["rate"].append([(sum(rate) - (n_slots + 1) * sc.min_avg_rate) * gbps])

    slack = sub.problem.h - sub.problem.G @ x
    for name, want in expected.items():
        got = slack[sub.rows[name]]
        assert len(got) == len(want), name
        assert np.allclose(got, np.reshape(want, got.shape), rtol=1e-12, atol=1e-9), (name, got)


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


@pytest.mark.parametrize("key", ["G", "A"])
def test_problem_dump_with_a_short_row_names_the_line(tmp_path, key):
    problem, _ = random_certified_socp(3)
    problem = ConicProblem(c=problem.c, G=problem.G, h=problem.h, dims=problem.dims,
                           A=np.ones((1, problem.n_vars)), b=np.ones(1))
    path = tmp_path / "problem.txt"
    dump_problem(problem, path)
    lines = path.read_text().splitlines()
    lineno = next(i for i, line in enumerate(lines, start=1) if line.startswith(f"{key} "))
    lines[lineno - 1] = lines[lineno - 1].rsplit(" ", 1)[0]
    (tmp_path / "short.txt").write_text("\n".join(lines) + "\n")
    with pytest.raises(FileFormatError) as err:
        load_problem(tmp_path / "short.txt")
    assert (err.value.line, err.value.field) == (lineno, key)
