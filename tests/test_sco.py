import math

import numpy as np
import pytest

from irsplan import audit
from irsplan.graphinit import build_graph, shortest_path
from irsplan.scenario import (Obstacle, los_classes, motion_energy,
                              obstacle_margin, scenario_overrides)
from irsplan.sco import ScoConfig, linearize_obstacles, run

from conftest import straight_line


def test_obstacle_linearization_exact_at_anchor(desk_scenario):
    prev = straight_line(desk_scenario)
    rows = linearize_obstacles(prev, desk_scenario.obstacles)
    assert len(rows) == (desk_scenario.n_slots - 1) * len(desk_scenario.obstacles)
    # at the anchor the affine minorant equals the true quadratic
    by_slot = {}
    for row in rows:
        by_slot.setdefault(row.slot, []).append(row)
    for slot, slot_rows in by_slot.items():
        anchor = prev[slot]
        values = sorted(r.minorant(anchor) for r in slot_rows)
        true_vals = sorted(obstacle_margin(anchor, o) for o in desk_scenario.obstacles)
        assert values == pytest.approx(true_vals, rel=1e-12)


def test_obstacle_linearization_is_tangent_minorant(desk_scenario):
    rng = np.random.default_rng(0)
    prev = straight_line(desk_scenario)
    rows = linearize_obstacles(prev, desk_scenario.obstacles)
    obstacles = list(desk_scenario.obstacles)
    for _ in range(100):
        q = rng.uniform([0, 0], [50, 30])
        for row in rows:
            # identify the obstacle by re-deriving the row at its anchor
            anchor = prev[row.slot]
            for obs in obstacles:
                grad = 2.0 * obs.shape_inv @ (anchor - obs.center)
                if np.allclose(grad, row.coeff):
                    assert row.minorant(q) <= obstacle_margin(q, obs) + 1e-9


def test_obstacle_half_plane_hand_case():
    obs = Obstacle(np.array([0.0, 0.0]), np.eye(2), 2.0)
    prev = np.array([[5.0, 0.0], [2.0, 0.0], [5.0, 0.0]])
    row = linearize_obstacles(prev, (obs,))[0]
    # hand expansion at q0 = (2, 0): f(q0) = 4, grad f = (4, 0), offset -4,
    # so the admitted half-plane against level d_s is x >= (d_s + 4) / 4
    assert np.allclose(row.coeff, [4.0, 0.0])
    assert row.offset == pytest.approx(-4.0, rel=1e-12)
    d_s = 1.35
    x_threshold = (d_s - row.offset) / row.coeff[0]
    assert x_threshold == pytest.approx((d_s + 4.0) / 4.0, rel=1e-12)


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
    energies = [rec.energy for rec in result.trace]
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
    assert result.trajectory is None
    assert math.isinf(result.energy)
    assert "ME" in result.init_reports and "MR" in result.init_reports


def test_vanishing_trust_region_freezes_first_iterate(desk_scenario, fitted_model):
    sc = scenario_overrides(desk_scenario, min_avg_rate=2.0e9)
    result = run(sc, fitted_model, ScoConfig(trust_radius=1e-9))
    init = run(sc, fitted_model, ScoConfig(trust_radius=1e-9, n_it_max=1))
    assert np.array_equal(result.trajectory, init.trajectory)
    assert len(result.trace) <= 2   # initial + at most one frozen step
    first_energy = result.trace[0].energy
    assert result.energy == pytest.approx(first_energy, abs=1e-12)


def test_runs_are_bit_for_bit_deterministic(desk_scenario, fitted_model):
    sc = scenario_overrides(desk_scenario, min_avg_rate=2.0e9)
    a = run(sc, fitted_model, ScoConfig())
    b = run(sc, fitted_model, ScoConfig())
    assert np.array_equal(a.trajectory, b.trajectory)
    assert [r.energy for r in a.trace] == [r.energy for r in b.trace]
    assert a.init_label == b.init_label


def test_stationarity_at_convergence(desk_scenario, fitted_model):
    sc = scenario_overrides(desk_scenario, min_avg_rate=2.0e9)
    result = run(sc, fitted_model, ScoConfig())
    # relative improvement at the last accepted step obeys the stopping rule
    if len(result.trace) > 1:
        assert abs(result.trace[-1].improvement) <= ScoConfig().epsilon + 1e-12
    # subproblem KKT residuals at the incumbent are small
    assert max(result.final_residuals) <= 1e-6


@pytest.mark.parametrize("mode", ["ME", "MR"])
def test_batched_link_classes_match_per_waypoint_classes(desk_scenario, fitted_model,
                                                         mode):
    path = shortest_path(build_graph(desk_scenario, model=fitted_model, mode=mode))
    links = los_classes(path, desk_scenario)
    assert links == [los_classes(np.array([q]), desk_scenario)[0] for q in path]
    assert all(type(flag) is bool for link in links for flag in link)
    assert len(set(links)) > 1      # the desk seed paths cross a shadow edge
