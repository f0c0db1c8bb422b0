"""Shared test oracles: certified random SOCPs and a grid-search solver."""

import math

import numpy as np

from irsplan.conic import ConicProblem
from irsplan.scenario import scenario_overrides
from irsplan.snrmodel import RateLinearization
from irsplan.socp import LinearObstacle, assemble_p4


def _cone_slices(dims):
    starts = np.cumsum(dims) - dims
    return [slice(int(a), int(a + d)) for a, d in zip(starts, dims)]


def random_certified_socp(seed):
    """Feasible SOCP with a known optimum built from a zero-gap KKT pair.

    Per cone, either the slack is interior and the dual is zero, or both sit
    on the boundary as a complementary pair; then h and c are chosen so the
    pair is optimal and the optimal value is c'x*.
    """
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 8))
    dims = [int(d) for d in rng.integers(1, 4, size=rng.integers(2, 5))]
    m = sum(dims)
    slices = _cone_slices(dims)
    g_mat = rng.standard_normal((m, n))
    x_star = rng.standard_normal(n)
    s = np.zeros(m)
    z = np.zeros(m)
    for sl in slices:
        d = sl.stop - sl.start
        if d == 1:
            if rng.random() < 0.5:
                s[sl], z[sl] = rng.uniform(0.5, 2.0), 0.0
            else:
                s[sl], z[sl] = 0.0, rng.uniform(0.5, 2.0)
        else:
            v = rng.standard_normal(d - 1)
            t = np.linalg.norm(v)
            if rng.random() < 0.5:
                s[sl] = np.concatenate([[t + rng.uniform(0.5, 1.0)], v])
            else:
                s[sl] = np.concatenate([[t], v])
                z[sl] = rng.uniform(0.5, 2.0) * np.concatenate([[t], -v])
    problem = ConicProblem(c=-g_mat.T @ z, G=g_mat, h=g_mat @ x_star + s, dims=dims)
    return problem, float(problem.c @ x_star)


def random_k2_subproblem(base_scenario, seed, trust=1.0):
    """K=2 instance (one free waypoint) with random obstacles and a random
    rate linearization, feasible at its previous trajectory by construction."""
    rng = np.random.default_rng(seed)
    start = rng.uniform([10, 8], [40, 22])
    goal = start + rng.uniform(-2.5, 2.5, size=2)
    sc = scenario_overrides(base_scenario, obstacles=(), n_slots=2,
                            q_start=start, q_goal=goal,
                            min_avg_rate=0.0, v_max=float(rng.uniform(1.5, 3.0)))
    mid = (start + goal) / 2

    obstacle_rows = []
    for _ in range(int(rng.integers(0, 3))):
        direction = rng.standard_normal(2)
        direction /= np.linalg.norm(direction)
        slack = rng.uniform(0.1, 1.0)
        # admitted half-plane direction . q >= direction . mid - slack,
        # expressed through the minorant form minorant(q) >= safety_level
        obstacle_rows.append(LinearObstacle(
            slot=1, coeff=direction,
            offset=sc.safety_level - float(direction @ mid) + slack,
        ))

    lins = []
    for q in (start, mid, goal):
        grad = -rng.uniform(0.0, 0.12e9, size=2)     # bits/s per meter, nonpositive
        d_ap = math.hypot(np.linalg.norm(q - sc.ap_pos), sc.z_robot - sc.z_ap)
        d_irs = math.hypot(np.linalg.norm(q - sc.irs_pos), sc.z_robot - sc.z_irs)
        lins.append(RateLinearization(
            link=None, d_ap0=d_ap, d_irs0=d_irs,
            value=float(rng.uniform(1.8e9, 2.6e9)), grad=grad,
        ))
    # rate requirement sits below the previous trajectory's linearized rate
    prev = np.stack([start, mid, goal])
    r_prev = sum(lin.value for lin in lins) / 3.0
    sc = scenario_overrides(sc, min_avg_rate=r_prev * float(rng.uniform(0.9, 0.999)))
    return assemble_p4(sc, lins, prev, obstacle_rows, trust)


def grid_search_k2(sub, resolution=0.01):
    """Exhaustive search over the single free waypoint at fixed resolution.

    Returns (best objective, best point); positions violating any constraint
    are excluded exactly as written in the subproblem.
    """
    sc = sub.scenario
    prev_mid = sub.prev_traj[1]
    start, goal = sc.q_start, sc.q_goal
    r = sub.trust_radius
    axis = np.arange(-r, r + resolution / 2, resolution)
    gx, gy = np.meshgrid(prev_mid[0] + axis, prev_mid[1] + axis)
    pts = np.stack([gx.reshape(-1), gy.reshape(-1)], axis=1)

    ok = np.linalg.norm(pts - prev_mid, axis=1) <= r + 1e-12
    step1 = np.linalg.norm(pts - start, axis=1)
    step2 = np.linalg.norm(goal - pts, axis=1)
    ok &= (step1 <= sc.max_step) & (step2 <= sc.max_step)
    for row in sub.obstacle_rows:
        ok &= pts @ row.coeff + row.offset >= sc.safety_level
    dz_ap = sc.z_robot - sc.z_ap
    dz_irs = sc.z_robot - sc.z_irs
    d_ap = np.sqrt(((pts - sc.ap_pos) ** 2).sum(1) + dz_ap**2)
    d_irs = np.sqrt(((pts - sc.irs_pos) ** 2).sum(1) + dz_irs**2)
    total_rate = np.zeros(len(pts))
    for k, lin in enumerate(sub.linearization):
        if k == 1:
            total_rate += (lin.value + lin.grad[0] * (d_ap - lin.d_ap0)
                           + lin.grad[1] * (d_irs - lin.d_irs0))
        else:
            total_rate += lin.value
    ok &= total_rate >= 3 * sc.min_avg_rate

    if not np.any(ok):
        return math.inf, None
    dt = sc.slot_duration
    energy = (sc.motor_v2 * (step1**2 + step2**2) / dt
              + sc.motor_v1 * (step1 + step2) + 2 * sc.motor_v0 * dt)
    energy = np.where(ok, energy, np.inf)
    best = int(np.argmin(energy))
    return float(energy[best]), pts[best]
