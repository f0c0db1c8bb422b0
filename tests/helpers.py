"""Shared test oracles: certified random SOCPs (optimal, infeasible and
unbounded), a grid-search solver, the cone margin, the explicit-matrix
effective channel, radio-map equality, and the rate forms only the convexity
checks need (the Hessian in the two distances; the tangent minorant's value,
gradient and Hessian in position), written out here, not shared with the package."""

import math

import numpy as np

from irsplan.conic import ConicProblem
from irsplan.scenario import distances, scenario_overrides
from irsplan.snrmodel import RateLinearization
from irsplan.socp import ObstacleLinearization, assemble_p4


def cone_margin(u):
    """Smallest interior margin t - ||v|| over the rows of a (k, dmax) cone
    block (the value itself for a dimension-1 cone)."""
    return float(np.min(u[:, 0] - np.linalg.norm(u[:, 1:], axis=1), initial=math.inf))


def explicit_effective_channel(draw, phases, global_phase):
    """h_irs^H Phi G + h_direct^H with every matrix written out: the rank-one
    IRS-AP channel G = sqrt(MN) gamma a b^T, shape (M, N), and the IRS matrix
    Phi = exp(j global_phase) diag(exp(j phases))."""
    m, n = draw.n_irs_elements, draw.n_antennas
    h_irs = draw.path_gain_irs * draw.fading_irs
    g_mat = math.sqrt(m * n) * draw.gamma * np.outer(draw.irs_response, draw.ap_response)
    phi = np.exp(1j * global_phase) * np.diag(np.exp(1j * phases))
    return np.conj(h_irs) @ phi @ g_mat + np.conj(draw.h_direct)


def maps_equal(a, b):
    """Two radio maps hold the same grid, metadata and cell arrays, bit for bit."""
    return ((a.nx, a.ny, a.cell_size, a.origin, a.scenario_hash, a.seed)
            == (b.nx, b.ny, b.cell_size, b.origin, b.scenario_hash, b.seed)
            and all(np.array_equal(getattr(a, name), getattr(b, name))
                    for name in ("avg_snr", "n_draws", "ap_los", "irs_los")))


def rate_hessian_distances(model, link, d_ap, d_irs, scenario):
    """Symmetric 2x2 Hessian of the fitted slot rate w.r.t. (d_ap, d_irs).

    With the SNR s = (A x + B y + C z) * scale, where x = d_irs^-nu,
    y = d_irs^(-nu/2) d_ap^(-mu/2) and z = d_ap^-mu, the rate is
    bw log2(1 + s), so its Hessian is bw (s'' (1 + s) - s' s'^T) / (ln2 (1 + s)^2).
    """
    a, b, c, nu, mu = model.fit_for(link).as_tuple()
    scale = scenario.snr_scale
    x, z = d_irs ** -nu, d_ap ** -mu
    y = math.sqrt(x * z)
    s = (a * x + b * y + c * z) * scale
    s_a = -(mu * c * z + mu / 2 * b * y) / d_ap * scale
    s_i = -(nu * a * x + nu / 2 * b * y) / d_irs * scale
    s_aa = (mu * (mu + 1) * c * z + mu / 2 * (mu / 2 + 1) * b * y) / d_ap**2 * scale
    s_ii = (nu * (nu + 1) * a * x + nu / 2 * (nu / 2 + 1) * b * y) / d_irs**2 * scale
    s_ai = mu / 2 * nu / 2 * b * y / (d_ap * d_irs) * scale
    grad = np.array([s_a, s_i])
    second = np.array([[s_aa, s_ai], [s_ai, s_ii]])
    return (scenario.bandwidth_hz * (second * (1 + s) - np.outer(grad, grad))
            / (math.log(2.0) * (1 + s) ** 2))


def rate_app_value(lin, points, scenario):
    """Linearized rate of each slot k at points[k] (global under-estimators)."""
    d_ap, d_irs = distances(points, scenario)
    return (lin.value + lin.grad[:, 0] * (d_ap - lin.d_ap0)
            + lin.grad[:, 1] * (d_irs - lin.d_irs0))


def rate_app_position_gradient(lin, points, scenario):
    """(n, 2) gradients of the linearized slot rates w.r.t. the planar positions."""
    points = np.asarray(points, dtype=float)
    d_ap, d_irs = distances(points, scenario)
    return (lin.grad[:, :1] * (points - scenario.ap_pos) / d_ap[:, None]
            + lin.grad[:, 1:] * (points - scenario.irs_pos) / d_irs[:, None])


def rate_app_position_hessian(lin, points, scenario):
    """(n, 2, 2) position Hessians of the linearized slot rates; negative semidefinite.
    A distance d has Hessian (d^2 I - u u^T) / d^3, u the planar offset."""
    points = np.asarray(points, dtype=float)
    d_ap, d_irs = (d[:, None, None] for d in distances(points, scenario))
    u_ap = points - scenario.ap_pos
    u_irs = points - scenario.irs_pos
    hess_ap = (d_ap**2 * np.eye(2) - u_ap[:, :, None] * u_ap[:, None, :]) / d_ap**3
    hess_irs = (d_irs**2 * np.eye(2) - u_irs[:, :, None] * u_irs[:, None, :]) / d_irs**3
    return lin.grad[:, 0, None, None] * hess_ap + lin.grad[:, 1, None, None] * hess_irs


def _cone_slices(dims):
    starts = np.cumsum(dims) - dims
    return [slice(int(a), int(a + d)) for a, d in zip(starts, dims)]


def _random_dims(rng):
    return [int(d) for d in rng.integers(1, 4, size=rng.integers(2, 5))]


def random_certified_socp(seed):
    """Feasible SOCP with a known optimum built from a zero-gap KKT pair.

    Per cone, either the slack is interior and the dual is zero, or both sit
    on the boundary as a complementary pair; then h and c are chosen so the
    pair is optimal and the optimal value is c'x*.
    """
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 8))
    dims = _random_dims(rng)
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


def _interior_point(rng, dims):
    """A random point strictly inside the product of cones."""
    u = np.zeros(sum(dims))
    for sl in _cone_slices(dims):
        v = rng.standard_normal(sl.stop - sl.start - 1)
        u[sl] = np.concatenate([[np.linalg.norm(v) + rng.uniform(0.5, 1.0)], v])
    return u


def random_infeasible_socp(seed):
    """Primal-infeasible, dual-feasible SOCP: G and h are bent so that a
    random cone point z0 and a random y0 satisfy G'z0 + A'y0 = 0 and
    h'z0 + b'y0 < 0, and c = -G'z1 - A'y1 for an interior z1."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 8))
    p = int(rng.integers(0, 3))
    dims = _random_dims(rng)
    a_mat, y0, y1 = rng.standard_normal((p, n)), rng.standard_normal(p), rng.standard_normal(p)
    b = rng.standard_normal(p)
    z0, z1 = _interior_point(rng, dims), _interior_point(rng, dims)
    g_mat = rng.standard_normal((sum(dims), n))
    g_mat -= np.outer(z0, z0 @ g_mat + y0 @ a_mat) / (z0 @ z0)
    h = rng.standard_normal(sum(dims))
    h -= z0 * (h @ z0 + b @ y0 + rng.uniform(0.1, 1.0)) / (z0 @ z0)
    return ConicProblem(c=-g_mat.T @ z1 - a_mat.T @ y1, G=g_mat, h=h, dims=dims,
                        A=a_mat, b=b)


def random_unbounded_socp(seed):
    """Primal-feasible SOCP with a descent ray: a random d with A d = 0,
    G d = -s0 for a cone point s0 and c'd < 0, and h = G x1 + s1 with an
    interior s1, so x1 is feasible."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 8))
    p = int(rng.integers(0, 3))
    dims = _random_dims(rng)
    a_mat = rng.standard_normal((p, n))
    d = rng.standard_normal(n)
    if p:
        d -= np.linalg.pinv(a_mat) @ (a_mat @ d)
    s0, s1 = _interior_point(rng, dims), _interior_point(rng, dims)
    g_mat = rng.standard_normal((sum(dims), n))
    g_mat -= np.outer(g_mat @ d + s0, d) / (d @ d)
    c = rng.standard_normal(n)
    c -= d * (c @ d + rng.uniform(0.1, 1.0)) / (d @ d)
    x1 = rng.standard_normal(n)
    return ConicProblem(c=c, G=g_mat, h=g_mat @ x1 + s1, dims=dims, A=a_mat, b=a_mat @ x1)


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

    coeffs, offsets = [], []
    for _ in range(int(rng.integers(0, 3))):
        direction = rng.standard_normal(2)
        direction /= np.linalg.norm(direction)
        slack = rng.uniform(0.1, 1.0)
        # admitted half-plane direction . q >= direction . mid - slack,
        # expressed through the minorant form coeff . q + offset >= safety_level
        coeffs.append(direction)
        offsets.append(sc.safety_level - float(direction @ mid) + slack)
    # one free slot: a (1, r) grid of half-planes
    obstacle_rows = ObstacleLinearization(coeff=np.reshape(coeffs, (1, -1, 2)),
                                          offset=np.reshape(offsets, (1, -1)))

    d_ap0, d_irs0, values, grads = [], [], [], []
    for q in (start, mid, goal):
        grads.append(-rng.uniform(0.0, 0.12e9, size=2))   # bits/s per meter, nonpositive
        d_ap0.append(math.hypot(np.linalg.norm(q - sc.ap_pos), sc.z_robot - sc.z_ap))
        d_irs0.append(math.hypot(np.linalg.norm(q - sc.irs_pos), sc.z_robot - sc.z_irs))
        values.append(float(rng.uniform(1.8e9, 2.6e9)))
    lins = RateLinearization(d_ap0=d_ap0, d_irs0=d_irs0, value=values, grad=grads)
    # rate requirement sits below the previous trajectory's linearized rate
    prev = np.stack([start, mid, goal])
    r_prev = sum(values) / 3.0
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
    for coeff, offset in zip(sub.obstacle_rows.coeff[0], sub.obstacle_rows.offset[0]):
        ok &= pts @ coeff + offset >= sc.safety_level
    dz_ap = sc.z_robot - sc.z_ap
    dz_irs = sc.z_robot - sc.z_irs
    d_ap = np.sqrt(((pts - sc.ap_pos) ** 2).sum(1) + dz_ap**2)
    d_irs = np.sqrt(((pts - sc.irs_pos) ** 2).sum(1) + dz_irs**2)
    total_rate = np.zeros(len(pts))
    lin = sub.linearization
    for k in range(3):
        if k == 1:
            total_rate += (lin.value[k] + lin.grad[k, 0] * (d_ap - lin.d_ap0[k])
                           + lin.grad[k, 1] * (d_irs - lin.d_irs0[k]))
        else:
            total_rate += lin.value[k]
    ok &= total_rate >= 3 * sc.min_avg_rate

    if not np.any(ok):
        return math.inf, None
    dt = sc.slot_duration
    energy = (sc.motor_v2 * (step1**2 + step2**2) / dt
              + sc.motor_v1 * (step1 + step2) + 2 * sc.motor_v0 * dt)
    energy = np.where(ok, energy, np.inf)
    best = int(np.argmin(energy))
    return float(energy[best]), pts[best]
