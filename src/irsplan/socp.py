"""Assembly of the per-iteration convex trajectory subproblem as an SOCP.

The subproblem minimizes the motion energy over the free waypoints
q_1..q_{K-1} subject to: per-slot step bounds, a trust region around the
previous trajectory, linearized obstacle half-planes, and the linearized
average-rate constraint. Endpoints are substituted out as constants.

Encodings (per slot k):
    u_k >= ||q_k - q_{k-1}||            3-cone, carries the linear energy term
    w_k >= ||q_k - q_{k-1}||^2 / dt     4-cone via ||(2 dq, w - dt)|| <= w + dt
    u_k <= D_max                        scalar cone (step bound)
    ||q_k - prev_k|| <= T               3-cone trust region (free slots)
    s_ap,k  >= 3D robot-AP distance     4-cone with the height offset constant
    s_irs,k >= 3D robot-IRS distance    4-cone
    linearized obstacles                scalar cones
    sum of slot rate minorants >= (K+1) r_min   one scalar cone

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
    """Tangent minorants of the obstacle quadratics, one row per (slot, obstacle).

    Row i reads coeff[i] . q + offset[i] <= (q - center)' P^-1 (q - center)
    for waypoint q of slot[i] and the row's obstacle; the subproblem
    enforces coeff[i] . q + offset[i] >= safety_level.
    """

    slot: np.ndarray               # (r,) int, the free slot of each row
    coeff: np.ndarray              # (r, 2)
    offset: np.ndarray             # (r,)


@dataclass(frozen=True)
class P4Subproblem:
    problem: ConicProblem
    scenario: Scenario
    prev_traj: np.ndarray
    linearization: RateLinearization   # slots 0..K
    obstacle_rows: ObstacleLinearization
    trust_radius: float

    @property
    def n_free(self) -> int:
        return self.scenario.n_slots - 1


@dataclass(frozen=True)
class SubproblemSolution:
    trajectory: np.ndarray
    objective: float               # true motion energy of the trajectory, joules
    status: str                    # optimal | max-iter | infeasible | unbounded
    conic: ConicSolution | None    # the cone solve; None when no waypoint is free to move


def assemble_p4(scenario: Scenario, linearization, prev_traj,
                obstacle_rows, trust_radius: float) -> P4Subproblem:
    """Build the conic subproblem around the previous trajectory.

    ``linearization`` holds the rate minorants of slots 0..K (anchored at
    prev_traj); ``obstacle_rows`` the affine obstacle constraints for free
    slots. The previous trajectory must be feasible for the subproblem at
    itself, which makes its energy an upper bound on the optimum.
    """
    prev_traj = np.asarray(prev_traj, dtype=float)
    k_slots = scenario.n_slots
    if prev_traj.shape != (k_slots + 1, 2):
        raise AssemblyError(f"previous trajectory must be ({k_slots + 1}, 2)")
    if len(linearization.value) != k_slots + 1:
        raise AssemblyError("need one rate linearization per slot")
    if trust_radius < 0:
        raise AssemblyError("trust radius must be nonnegative")
    obs_slot = obstacle_rows.slot
    if np.any((obs_slot < 1) | (obs_slot > k_slots - 1)):
        raise AssemblyError("obstacle rows apply to free slots only")

    n_free = k_slots - 1
    dt = scenario.slot_duration

    # variable layout: [q (2 each) | u (K) | w (K) | s_ap (n_free) | s_irs (n_free)]
    off_u = 2 * n_free
    off_w = off_u + k_slots
    off_sa = off_w + k_slots
    off_si = off_sa + n_free
    n_vars = off_si + n_free

    c = np.zeros(n_vars)
    c[off_u:off_u + k_slots] = scenario.motor_v1
    c[off_w:off_w + k_slots] = scenario.motor_v2

    dims = [3, 4, 1] * k_slots + [3, 4, 4] * n_free + [1] * (len(obs_slot) + 1)
    G = np.zeros((sum(dims), n_vars))
    h = np.zeros(sum(dims))
    axes = np.arange(2)
    free = np.arange(n_free)                   # k - 1 for each free slot k
    q_cols = 2 * free[:, None] + axes          # columns of waypoint k

    # per slot k (8 rows): (u_k, dq_k), (w_k + dt, 2 dq_k, w_k - dt), D_max - u_k
    slots = np.arange(k_slots)                 # k - 1
    r = 8 * slots
    G[r, off_u + slots] = -1.0
    G[r + 3, off_w + slots] = -1.0
    G[r + 6, off_w + slots] = -1.0
    G[r + 7, off_u + slots] = 1.0
    h[r + 3], h[r + 6], h[r + 7] = dt, -dt, scenario.max_step
    # scale * (q_k - q_{k-1}) with the fixed endpoints moved into h
    ends = np.zeros((k_slots + 1, 2))
    ends[0], ends[-1] = scenario.q_start, scenario.q_goal
    for scale, first in ((1.0, 1), (2.0, 4)):
        rows = r[:, None] + first + axes
        G[rows[:-1], q_cols] = -scale          # q_k of slots k < K
        G[rows[1:], q_cols] = scale            # q_{k-1} of slots k > 1
        h[rows] = scale * ends[1:] - scale * ends[:-1]

    # per free slot k (11 rows): the trust region around the previous
    # iterate, then the 3D distance epigraphs feeding the rate constraint
    r = 8 * k_slots + 11 * free
    h[r] = trust_radius
    G[r[:, None] + 1 + axes, q_cols] = -1.0
    h[r[:, None] + 1 + axes] = -prev_traj[1:-1]
    for first, offset, anchor, z_anchor in ((3, off_sa, scenario.ap_pos, scenario.z_ap),
                                            (7, off_si, scenario.irs_pos, scenario.z_irs)):
        G[r + first, offset + free] = -1.0
        G[r[:, None] + first + 1 + axes, q_cols] = -1.0
        h[r[:, None] + first + 1 + axes] = -anchor
        h[r + first + 3] = scenario.z_robot - z_anchor

    # obstacles: coeff . q + offset >= safety_level
    r = 8 * k_slots + 11 * n_free + np.arange(len(obs_slot))
    G[r[:, None], 2 * (obs_slot[:, None] - 1) + axes] = -obstacle_rows.coeff
    h[r] = obstacle_rows.offset - scenario.safety_level

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
    h[-1] = (np.add.accumulate(beta * GBPS)[-1]
             - (k_slots + 1) * scenario.min_avg_rate * GBPS)
    G[-1, off_sa + free] = -(grad[:, 0] * GBPS)
    G[-1, off_si + free] = -(grad[:, 1] * GBPS)

    problem = ConicProblem(c=c, G=G, h=h, dims=dims)
    return P4Subproblem(
        problem=problem, scenario=scenario, prev_traj=prev_traj,
        linearization=linearization, obstacle_rows=obstacle_rows,
        trust_radius=trust_radius,
    )


def solve_p4(sub: P4Subproblem) -> SubproblemSolution:
    """Solve the subproblem; returns the trajectory and its true motion energy.

    A vanishing trust radius pins every free waypoint to the previous
    trajectory, so that case short-circuits to the (unique) feasible point.
    """
    scenario = sub.scenario
    if sub.trust_radius <= 1e-8 or sub.n_free == 0:
        traj = sub.prev_traj.copy()
        return SubproblemSolution(trajectory=traj, objective=motion_energy(traj, scenario),
                                  status="optimal", conic=None)
    sol: ConicSolution = solve(sub.problem)
    # the free waypoints lead the variable layout
    traj = np.vstack([scenario.q_start, sol.x[:2 * sub.n_free].reshape(-1, 2), scenario.q_goal])
    return SubproblemSolution(
        trajectory=traj,
        objective=motion_energy(traj, scenario) if np.all(np.isfinite(traj)) else np.inf,
        status=sol.status, conic=sol,
    )
