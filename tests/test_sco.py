import math
from types import SimpleNamespace

import numpy as np
import pytest

from irsplan import audit, sco, socp
from irsplan.errors import SubproblemError
from irsplan.graphinit import build_graph, shortest_path
from irsplan.radiomap import build_map
from irsplan.scenario import (LinkClass, Obstacle, los_class_batch, motion_energy,
                              obstacle_margin, scenario_overrides)
from irsplan.sco import ScoConfig, linearize_obstacles, run
from irsplan.snrmodel import fit
from irsplan.socp import SubproblemSolution

from conftest import point_class, straight_line


def test_obstacle_linearization_exact_at_anchor(desk_scenario):
    prev = straight_line(desk_scenario)
    rows = linearize_obstacles(prev, desk_scenario.obstacles)
    assert len(rows.slot) == (desk_scenario.n_slots - 1) * len(desk_scenario.obstacles)
    # at the anchor the affine minorant equals the true quadratic
    for slot in set(rows.slot.tolist()):
        anchor = prev[slot]
        here = rows.slot == slot
        values = sorted((rows.coeff[here] @ anchor + rows.offset[here]).tolist())
        true_vals = sorted(obstacle_margin(anchor, o) for o in desk_scenario.obstacles)
        assert values == pytest.approx(true_vals, rel=1e-12)


def test_obstacle_linearization_is_tangent_minorant(desk_scenario):
    rng = np.random.default_rng(0)
    prev = straight_line(desk_scenario)
    rows = linearize_obstacles(prev, desk_scenario.obstacles)
    obstacles = list(desk_scenario.obstacles)
    for _ in range(100):
        q = rng.uniform([0, 0], [50, 30])
        for slot, coeff, offset in zip(rows.slot, rows.coeff, rows.offset):
            # identify the obstacle by re-deriving the row at its anchor
            anchor = prev[slot]
            for obs in obstacles:
                grad = 2.0 * obs.shape_inv @ (anchor - obs.center)
                if np.allclose(grad, coeff):
                    assert coeff @ q + offset <= obstacle_margin(q, obs) + 1e-9


def test_obstacle_half_plane_hand_case():
    obs = Obstacle(np.array([0.0, 0.0]), np.eye(2), 2.0)
    prev = np.array([[5.0, 0.0], [2.0, 0.0], [5.0, 0.0]])
    rows = linearize_obstacles(prev, (obs,))
    # hand expansion at q0 = (2, 0): f(q0) = 4, grad f = (4, 0), offset -4,
    # so the admitted half-plane against level d_s is x >= (d_s + 4) / 4
    assert np.allclose(rows.coeff[0], [4.0, 0.0])
    assert rows.offset[0] == pytest.approx(-4.0, rel=1e-12)
    d_s = 1.35
    x_threshold = (d_s - rows.offset[0]) / rows.coeff[0, 0]
    assert x_threshold == pytest.approx((d_s + 4.0) / 4.0, rel=1e-12)


def _scalar_obstacle_rows(prev, obstacles):
    """The per-(slot, obstacle) formula, one row at a time, as lists."""
    slots, coeffs, offsets = [], [], []
    for k in range(1, len(prev) - 1):
        for obs in obstacles:
            diff = prev[k] - obs.center
            value = float(diff @ obs.shape_inv @ diff)
            grad = 2.0 * obs.shape_inv @ diff
            slots.append(k)
            coeffs.append(grad)
            offsets.append(value - float(grad @ prev[k]))
    return slots, coeffs, offsets


@pytest.mark.parametrize("n_slots", [1, 2, 30])
def test_batched_obstacle_rows_keep_the_bits_of_the_scalar_formula(desk_scenario, n_slots):
    rng = np.random.default_rng(n_slots)
    for _ in range(20):
        prev = rng.uniform([0.0, 0.0], [50.0, 30.0], size=(n_slots + 1, 2))
        rows = linearize_obstacles(prev, desk_scenario.obstacles)
        slots, coeffs, offsets = _scalar_obstacle_rows(prev, desk_scenario.obstacles)
        assert rows.slot.tolist() == slots
        assert np.array_equal(rows.coeff.view(np.int64),
                              np.reshape(coeffs, (-1, 2)).view(np.int64))
        assert np.array_equal(rows.offset.view(np.int64), np.array(offsets).view(np.int64))


def test_no_obstacles_give_empty_rows(desk_scenario):
    rows = linearize_obstacles(straight_line(desk_scenario), ())
    assert rows.slot.shape == (0,) and rows.coeff.shape == (0, 2)
    assert rows.offset.shape == (0,)


@pytest.mark.parametrize("field,value", [
    ("trust_radius", math.inf), ("trust_radius", math.nan), ("trust_radius", 0.0),
    ("epsilon", math.nan), ("epsilon", math.inf), ("epsilon", -0.01),
    ("grid_spacing", 0.0), ("grid_spacing", -1.0), ("grid_spacing", math.nan),
    ("grid_spacing", math.inf), ("n_it_max", 2.5), ("n_it_max", 0)])
def test_config_rejects_values_the_descent_cannot_use(field, value):
    # only constructed: an infinite trust radius would never end the retry schedule
    with pytest.raises(ValueError, match=field):
        ScoConfig(**{field: value})


def test_unconstrained_run_reaches_uniform_straight_line(empty_scenario, toy_model):
    sc = scenario_overrides(empty_scenario, min_avg_rate=0.0)
    result = run(sc, toy_model, ScoConfig())
    assert result.status == "optimal" and result.init_label == "ME"
    length = float(np.linalg.norm(sc.q_goal - sc.q_start))
    step = length / sc.n_slots
    analytic = sc.n_slots * (sc.motor_v2 * step**2 / sc.slot_duration
                             + sc.motor_v1 * step + sc.motor_v0 * sc.slot_duration)
    assert result.energy == pytest.approx(analytic, rel=1e-3)
    steps = np.linalg.norm(np.diff(result.trajectory, axis=0), axis=1)
    assert steps.std() <= 1e-3 * steps.mean()


def test_energy_trace_is_monotone_and_audited(desk_scenario, fitted_model):
    sc = scenario_overrides(desk_scenario, min_avg_rate=2.0e9)
    result = run(sc, fitted_model, ScoConfig())
    assert result.status == "optimal"
    energies = [rec.solution.objective for rec in result.trace]
    assert all(b <= a + 1e-9 for a, b in zip(energies, energies[1:]))
    assert len(result.trace) - 1 <= ScoConfig().n_it_max
    assert result.final_audit.ok
    # every recorded iterate passed both audits when accepted; re-check final
    report = audit.check_p3(result.trajectory, sc, fitted_model)
    assert report.ok
    assert report.avg_rate >= sc.min_avg_rate * (1 - 1e-6)


def test_infeasible_requirement_returns_typed_outcome(desk_scenario, fitted_model):
    sc = scenario_overrides(desk_scenario, min_avg_rate=9e9)
    result = run(sc, fitted_model, ScoConfig())
    assert result.status == "infeasible"
    assert result.trajectory is None and result.stop_reason is None
    assert math.isinf(result.energy)
    assert "ME" in result.init_reports and "MR" in result.init_reports


def test_vanishing_trust_region_freezes_first_iterate(desk_scenario, fitted_model):
    sc = scenario_overrides(desk_scenario, min_avg_rate=2.0e9)
    result = run(sc, fitted_model, ScoConfig(trust_radius=1e-9))
    init = run(sc, fitted_model, ScoConfig(trust_radius=1e-9, n_it_max=1))
    assert np.array_equal(result.trajectory, init.trajectory)
    assert len(result.trace) <= 2   # initial + at most one frozen step
    assert all(rec.solution.conic is None for rec in result.trace[1:])
    first_energy = result.trace[0].solution.objective
    assert result.energy == pytest.approx(first_energy, abs=1e-12)


@pytest.mark.parametrize("radius,radii", [(1.0, [1, .5, .25, .125, .0625, .05]),
                                          (0.01, [0.01])])
def test_failing_subproblem_retries_down_the_trust_schedule(desk_scenario, fitted_model,
                                                            monkeypatch, radius, radii):
    tried = []
    monkeypatch.setattr(sco, "assemble_p4", lambda *args: tried.append(args[-1]))
    monkeypatch.setattr(sco, "solve_p4", lambda sub: SimpleNamespace(status="max-iter"))
    sc = scenario_overrides(desk_scenario, min_avg_rate=2.0e9)
    with pytest.raises(SubproblemError, match=f"trust radius {radii[-1]}\\)") as err:
        run(sc, fitted_model, ScoConfig(trust_radius=radius))
    assert tried == radii
    assert [rec.solution.status for rec in err.value.trace] == ["initial"]


def test_audit_rejection_names_the_first_violation(desk_scenario, fitted_model, monkeypatch):
    monkeypatch.setattr(audit, "check_p4", lambda traj, sub: ["slot 3: injected violation"])
    sc = scenario_overrides(desk_scenario, min_avg_rate=2.0e9)
    with pytest.raises(SubproblemError, match="trust radius 0.05\\)") as err:
        run(sc, fitted_model, ScoConfig())
    assert "P4 slot 3: injected violation (status optimal," in str(err.value)
    assert [rec.solution.status for rec in err.value.trace] == ["initial"]


def test_descent_accepts_steps_below_the_published_trust_radius(desk_scenario):
    # at M=16 and 2.5 Gbps the full-radius step of the last iterations misses the
    # rate requirement in the P3 audit, so the descent retries at 0.5 and 0.25 m
    sc = scenario_overrides(desk_scenario, n_irs_elements=16, min_avg_rate=2.5e9)
    model = fit(build_map(sc, nx=20, ny=12, draws_per_cell=20, seed=11), sc)
    result = run(sc, model, ScoConfig())
    assert result.status == "optimal"
    assert audit.check_p3(result.trajectory, sc, model).ok
    assert min(rec.trust_radius for rec in result.trace[1:]) < 1.0


def test_runs_are_bit_for_bit_deterministic(desk_scenario, fitted_model):
    sc = scenario_overrides(desk_scenario, min_avg_rate=2.0e9)
    a = run(sc, fitted_model, ScoConfig())
    b = run(sc, fitted_model, ScoConfig())
    assert np.array_equal(a.trajectory, b.trajectory)
    assert [r.solution.objective for r in a.trace] == [r.solution.objective for r in b.trace]
    assert a.init_label == b.init_label


def test_stationarity_at_convergence(desk_scenario, fitted_model):
    sc = scenario_overrides(desk_scenario, min_avg_rate=2.0e9)
    result = run(sc, fitted_model, ScoConfig())
    assert result.stop_reason == "epsilon" and len(result.trace) > 1
    # relative improvement at the last accepted step obeys the stopping rule
    assert abs(result.trace[-1].improvement) <= ScoConfig().epsilon + 1e-12
    # subproblem KKT residuals at the incumbent are small
    conic = result.trace[-1].solution.conic
    assert max(conic.primal_residual, conic.dual_residual, conic.gap_residual) <= 1e-6


def test_step_records_keep_the_whole_subproblem_solution(desk_scenario, fitted_model,
                                                         monkeypatch):
    solves, socp_solve = [], socp.solve

    def counting_solve(problem):
        conic = socp_solve(problem)
        solves.append((problem.G.shape[0], conic.iterations))
        return conic

    monkeypatch.setattr(socp, "solve", counting_solve)
    sc = scenario_overrides(desk_scenario, min_avg_rate=2.0e9)
    result = run(sc, fitted_model, ScoConfig())
    # record 0 is the seed path, in the shape of every other record
    seed = result.trace[0]
    assert (seed.solution.status, seed.solution.conic) == ("initial", None)
    assert seed.solution.objective == motion_energy(seed.solution.trajectory, sc)
    assert seed.audit_report is result.init_reports[result.init_label]
    # with no retry, record k holds the one solve of iteration k
    assert all(rec.trust_radius == ScoConfig().trust_radius for rec in result.trace)
    steps = [rec.solution.conic for rec in result.trace[1:]]
    assert steps and len(steps) == len(solves)
    for conic, (rows, _) in zip(steps, solves):
        assert conic.status == "optimal"
        assert conic.z.shape == (rows,) and np.all(np.isfinite(conic.z))
    assert sum(conic.iterations for conic in steps) == sum(n for _, n in solves)


def test_cap_stops_after_n_it_max_accepted_steps(desk_scenario, fitted_model):
    sc = scenario_overrides(desk_scenario, min_avg_rate=2.0e9)
    result = run(sc, fitted_model, ScoConfig(n_it_max=1, epsilon=1e-12))
    assert result.stop_reason == "cap"
    assert len(result.trace) == 2


def test_plateau_stops_without_adding_a_record(desk_scenario, fitted_model, monkeypatch):
    def no_descent(sub):
        traj = sub.prev_traj.copy()
        return SubproblemSolution(trajectory=traj, conic=None, status="optimal",
                                  objective=motion_energy(traj, sub.scenario) + 1.0)

    monkeypatch.setattr(sco, "solve_p4", no_descent)
    sc = scenario_overrides(desk_scenario, min_avg_rate=2.0e9)
    result = run(sc, fitted_model, ScoConfig())
    assert result.stop_reason == "plateau" and len(result.trace) == 1
    assert np.array_equal(result.trajectory, result.trace[0].solution.trajectory)
    assert result.final_audit is result.trace[0].audit_report


@pytest.mark.parametrize("mode", ["ME", "MR"])
def test_batched_link_classes_match_per_waypoint_classes(desk_scenario, fitted_model,
                                                         mode):
    path = shortest_path(build_graph(desk_scenario, model=fitted_model, mode=mode))
    batch = los_class_batch(path, desk_scenario)
    links = [LinkClass(*pair) for pair in zip(batch.ap_los.tolist(), batch.irs_los.tolist())]
    assert links == [point_class(q, desk_scenario) for q in path]
    assert batch.ap_los.dtype == bool and batch.irs_los.dtype == bool
    assert len(set(links)) > 1      # the desk seed paths cross a shadow edge
