"""Assembly of the per-iteration convex trajectory subproblem as an SOCP.

The subproblem minimizes the motion energy over the free waypoints
q_1..q_{K-1} subject to: per-slot step bounds, a trust region around the
previous trajectory, linearized obstacle half-planes, and the linearized
average-rate constraint. Endpoints are substituted out as constants.

The layout is written once, in ``_layout``. Variables, in order: the free
waypoints q (2 each), then u and w (one per slot), then s_ap and s_irs (one
per free waypoint). Constraint families, with cone sizes, in row order:

    per slot k, interleaved:
      speed    [3]  u_k >= ||q_k - q_{k-1}||         carries the linear energy term
      energy   [4]  w_k >= ||q_k - q_{k-1}||^2 / dt  via ||(2 dq, w - dt)|| <= w + dt
      step     [1]  u_k <= D_max
    per free slot k, interleaved:
      trust    [3]  ||q_k - prev_k|| <= T
      dist_ap  [4]  s_ap,k  >= 3D robot-AP distance, with the height offset constant
      dist_irs [4]  s_irs,k >= 3D robot-IRS distance
    per free slot k, then per obstacle j:
      obstacle [1]  the linearized half-plane of obstacle j at q_k
    rate     [1]  sum of slot rate minorants >= (K+1) r_min

Because the rate gradients are nonpositive, replacing distances by their
cone over-estimators only tightens the rate constraint, so the epigraph
substitution is safe; the q-space rate audit re-checks the true minorant
after every solve. Rates are carried in Gbps inside the conic problem to
keep the matrix well scaled.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .conic import ConicProblem, ConicSolution, solve
from .errors import AssemblyError
from .scenario import Scenario, motion_energy
from .snrmodel import RateLinearization

GBPS = 1e-9


@dataclass(frozen=True)
class ObstacleLinearization:
    """Tangent minorants of the obstacle quadratics, one per (free slot, obstacle).

    Entry [k - 1, j] reads coeff[k - 1, j] . q + offset[k - 1, j] <=
    (q - center_j)' P_j^-1 (q - center_j) for waypoint q_k and obstacle j of
    the scenario; the subproblem enforces coeff . q_k + offset >= safety_level.
    """

    coeff: np.ndarray              # (K-1, n_obs, 2)
    offset: np.ndarray             # (K-1, n_obs)


@dataclass(frozen=True)
class P4Subproblem:
    problem: ConicProblem
    scenario: Scenario
    prev_traj: np.ndarray
    linearization: RateLinearization   # slots 0..K
    obstacle_rows: ObstacleLinearization
    trust_radius: float
    cols: dict                     # variable block -> (units, width) column indices
    rows: dict                     # constraint family -> (units, cone size) row indices


@dataclass(frozen=True)
class SubproblemSolution:
    trajectory: np.ndarray
    objective: float               # true motion energy of the trajectory, joules
    status: str                    # optimal | max-iter | infeasible | unbounded
    conic: ConicSolution | None    # the cone solve; None when no waypoint is free to move


def _layout(k_slots: int, n_free: int, n_obs: int) -> tuple:
    """The subproblem's layout: (cols, rows, dims).

    A group repeats its blocks ``units`` times, interleaved unit by unit, and
    the groups follow one another; columns and rows are laid out alike, and
    dims lists the row groups' cone sizes in row order. Each block's indices
    are a (units, width) array, one row per unit.
    """
    col_groups = ((n_free, (("q", 2),)), (k_slots, (("u", 1),)), (k_slots, (("w", 1),)),
                  (n_free, (("s_ap", 1),)), (n_free, (("s_irs", 1),)))
    row_groups = ((k_slots, (("speed", 3), ("energy", 4), ("step", 1))),
                  (n_free, (("trust", 3), ("dist_ap", 4), ("dist_irs", 4))),
                  (n_free * n_obs, (("obstacle", 1),)),
                  (1, (("rate", 1),)))
    cols, rows = {}, {}
    for blocks, groups in ((cols, col_groups), (rows, row_groups)):
        start = 0
        for units, group in groups:
            stride = sum(width for _, width in group)
            first = start + stride * np.arange(units)[:, None]
            for name, width in group:
                blocks[name] = first + np.arange(width)
                first += width
            start += stride * units
    dims = [size for units, group in row_groups for _ in range(units) for _, size in group]
    return cols, rows, dims


def assemble_p4(scenario: Scenario, linearization, prev_traj,
                obstacle_rows, trust_radius: float) -> P4Subproblem:
    """Build the conic subproblem around the previous trajectory.

    ``linearization`` holds the rate minorants of slots 0..K (anchored at
    prev_traj); ``obstacle_rows`` the affine obstacle constraints, one per
    free slot and obstacle. The previous trajectory must be feasible for the
    subproblem at itself, which makes its energy an upper bound on the optimum.
    """
    prev_traj = np.asarray(prev_traj, dtype=float)
    k_slots = scenario.n_slots
    if prev_traj.shape != (k_slots + 1, 2):
        raise AssemblyError(f"previous trajectory must be ({k_slots + 1}, 2)")
    if len(linearization.value) != k_slots + 1:
        raise AssemblyError("need one rate linearization per slot")
    if trust_radius < 0:
        raise AssemblyError("trust radius must be nonnegative")
    n_free, n_obs = k_slots - 1, obstacle_rows.offset.shape[-1]
    if (obstacle_rows.offset.shape, obstacle_rows.coeff.shape) != ((n_free, n_obs),
                                                                   (n_free, n_obs, 2)):
        raise AssemblyError(f"obstacle rows must be ({n_free}, n_obs), one per free slot "
                            "and obstacle")

    dt = scenario.slot_duration
    cols, rows, dims = _layout(k_slots, n_free, n_obs)
    q, u, w, s_ap, s_irs = (cols[name] for name in ("q", "u", "w", "s_ap", "s_irs"))

    c = np.zeros(sum(block.size for block in cols.values()))
    c[u] = scenario.motor_v1
    c[w] = scenario.motor_v2
    G = np.zeros((sum(dims), len(c)))
    h = np.zeros(sum(dims))

    # per slot k: (u_k, dq_k), (w_k + dt, 2 dq_k, w_k - dt), D_max - u_k
    speed, energy, step = rows["speed"], rows["energy"], rows["step"]
    G[speed[:, :1], u] = -1.0
    G[energy[:, ::3], w] = -1.0
    G[step, u] = 1.0
    h[energy[:, :1]], h[energy[:, 3:]], h[step] = dt, -dt, scenario.max_step
    # scale * (q_k - q_{k-1}) with the fixed endpoints moved into h
    ends = np.zeros((k_slots + 1, 2))
    ends[0], ends[-1] = scenario.q_start, scenario.q_goal
    for scale, dq in ((1.0, speed[:, 1:]), (2.0, energy[:, 1:3])):
        G[dq[:-1], q] = -scale                 # q_k of slots k < K
        G[dq[1:], q] = scale                   # q_{k-1} of slots k > 1
        h[dq] = scale * ends[1:] - scale * ends[:-1]

    # per free slot k: the trust region around the previous iterate, then
    # the 3D distance epigraphs feeding the rate constraint
    trust = rows["trust"]
    h[trust[:, :1]] = trust_radius
    G[trust[:, 1:], q] = -1.0
    h[trust[:, 1:]] = -prev_traj[1:-1]
    for name, s, anchor, z_anchor in (("dist_ap", s_ap, scenario.ap_pos, scenario.z_ap),
                                      ("dist_irs", s_irs, scenario.irs_pos, scenario.z_irs)):
        dist = rows[name]
        G[dist[:, :1], s] = -1.0
        G[dist[:, 1:3], q] = -1.0
        h[dist[:, 1:3]] = -anchor
        h[dist[:, 3:]] = scenario.z_robot - z_anchor

    # obstacles: coeff . q + offset >= safety_level
    obstacle = rows["obstacle"].reshape(n_free, n_obs, 1)
    G[obstacle, q[:, None]] = -obstacle_rows.coeff
    h[obstacle[..., 0]] = obstacle_rows.offset - scenario.safety_level

    # rate constraint: sum of per-slot minorants >= (K+1) * r_min, in Gbps.
    # Fixed endpoints contribute their exact anchored rates; free slots
    # contribute beta_k + grad . (s_ap, s_irs) with nonpositive gradients.
    # The constant is a running sum in slot order (np.sum would pair terms
    # and round differently).
    value = linearization.value
    grad = linearization.grad[1:-1]
    beta = value.copy()
    beta[1:-1] = (value[1:-1] - grad[:, 0] * linearization.d_ap0[1:-1]
                  - grad[:, 1] * linearization.d_irs0[1:-1])
    h[rows["rate"]] = (np.add.accumulate(beta * GBPS)[-1]
                       - (k_slots + 1) * scenario.min_avg_rate * GBPS)
    G[rows["rate"], np.hstack([s_ap, s_irs])] = -(grad * GBPS)

    problem = ConicProblem(c=c, G=G, h=h, dims=dims)
    return P4Subproblem(
        problem=problem, scenario=scenario, prev_traj=prev_traj,
        linearization=linearization, obstacle_rows=obstacle_rows,
        trust_radius=trust_radius, cols=cols, rows=rows,
    )


def solve_p4(sub: P4Subproblem) -> SubproblemSolution:
    """Solve the subproblem; returns the trajectory and its true motion energy.

    A vanishing trust radius pins every free waypoint to the previous
    trajectory, so that case short-circuits to the (unique) feasible point.
    """
    scenario = sub.scenario
    q = sub.cols["q"]
    if sub.trust_radius <= 1e-8 or q.size == 0:
        traj = sub.prev_traj.copy()
        return SubproblemSolution(trajectory=traj, objective=motion_energy(traj, scenario),
                                  status="optimal", conic=None)
    sol: ConicSolution = solve(sub.problem)
    traj = np.vstack([scenario.q_start, sol.x[q], scenario.q_goal])
    return SubproblemSolution(
        trajectory=traj,
        objective=motion_energy(traj, scenario) if np.all(np.isfinite(traj)) else np.inf,
        status=sol.status, conic=sol,
    )
