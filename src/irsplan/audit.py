"""Independent re-checking of trajectory constraints.

This module is intentionally written as plain scalar arithmetic, separate
from the vectorized code paths that produce trajectories, so that every
artifact can be re-audited by logic that shares only the constraint
definitions with the planner. The one thing it takes from them is each
waypoint's visibility class, from ``scenario.los_class_batch``. Used by the
initializer, the descent loop, the CLI ``audit`` verb, and the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .scenario import LinkClass, Scenario, los_class_batch

ENDPOINT_TOL = 1e-9
STEP_TOL = 1e-6
MARGIN_TOL = 1e-6
P4_TOL = 1e-6          # subproblem constraints; relative for the rate sum
RATE_REL_TOL = 1e-6


@dataclass
class AuditReport:
    ok: bool
    endpoint_error: float
    max_step: float
    worst_margin: float            # min over slots/obstacles of the quadratic form
    avg_rate: float                # bits/s under the fitted model
    worst_violation: float         # largest violation across families (0 when feasible)
    violations: list = field(default_factory=list)

    def summary(self) -> str:
        verdict = "PASS" if self.ok else "FAIL"
        lines = [
            f"audit {verdict}: endpoint_err={self.endpoint_error:.3e} "
            f"max_step={self.max_step:.6f} worst_margin={self.worst_margin:.6f} "
            f"avg_rate_gbps={self.avg_rate / 1e9:.6f}"
        ]
        lines.extend(f"  violated: {v}" for v in self.violations)
        return "\n".join(lines)


def _gap(p, q) -> float:
    # planar distance between two positions
    return math.hypot(p[0] - q[0], p[1] - q[1])


def _distances(q, scenario: Scenario) -> tuple:
    # deliberate re-statement of scenario.distances for one waypoint
    return tuple(
        math.sqrt((q[0] - pos[0]) ** 2 + (q[1] - pos[1]) ** 2 + (scenario.z_robot - z) ** 2)
        for pos, z in ((scenario.ap_pos, scenario.z_ap), (scenario.irs_pos, scenario.z_irs))
    )


def _slot_snr(fitted, d_ap: float, d_irs: float, snr_scale: float) -> float:
    # deliberate re-statement of the model form, kept independent of snrmodel
    return (
        fitted.gain_irs * d_irs ** (-fitted.exp_irs)
        + fitted.gain_cross * d_irs ** (-fitted.exp_irs / 2) * d_ap ** (-fitted.exp_ap / 2)
        + fitted.gain_direct * d_ap ** (-fitted.exp_ap)
    ) * snr_scale


def check_p3(traj, scenario: Scenario, model) -> AuditReport:
    """Audit the original problem's constraints at a trajectory.

    Checks endpoints (exact), per-slot step bounds, the true obstacle
    quadratics at the safety level, and the fitted-model average rate with
    visibility classes re-derived at each waypoint. A non-finite coordinate,
    which every comparison below would let through, is a violation of its own.
    """
    violations = []
    n = len(traj)
    if n != scenario.n_slots + 1:
        violations.append(f"waypoint count {n} != {scenario.n_slots + 1}")
    non_finite = [k for k in range(n) if not all(map(math.isfinite, traj[k]))]
    violations += [f"slot {k}: non-finite waypoint" for k in non_finite]

    endpoint_error = max(_gap(traj[0], scenario.q_start), _gap(traj[-1], scenario.q_goal))
    if endpoint_error > ENDPOINT_TOL:
        violations.append(f"endpoints off by {endpoint_error:.3e}")

    max_step = max([0.0, *(_gap(traj[k], traj[k - 1]) for k in range(1, n))])
    if max_step > scenario.max_step + STEP_TOL:
        violations.append(f"step {max_step:.6f} exceeds {scenario.max_step}")

    worst_margin = math.inf
    for k in range(n):
        for obs in scenario.obstacles:
            dx = traj[k][0] - obs.center[0]
            dy = traj[k][1] - obs.center[1]
            pinv = obs.shape_inv
            margin = (dx * (pinv[0][0] * dx + pinv[0][1] * dy)
                      + dy * (pinv[1][0] * dx + pinv[1][1] * dy))
            worst_margin = min(worst_margin, margin)
            if margin < scenario.safety_level - MARGIN_TOL:
                violations.append(
                    f"slot {k}: obstacle margin {margin:.6f} < {scenario.safety_level}"
                )

    total_rate = 0.0
    ap_los, irs_los = los_class_batch(traj, scenario)
    for k in range(n):
        fitted = model.fit_for(LinkClass(ap_los[k], irs_los[k]))
        snr = _slot_snr(fitted, *_distances(traj[k], scenario), scenario.snr_scale)
        total_rate += scenario.bandwidth_hz * math.log2(1.0 + snr)
    avg_rate = total_rate / n if n else 0.0
    if avg_rate < scenario.min_avg_rate * (1.0 - RATE_REL_TOL):
        violations.append(
            f"avg rate {avg_rate / 1e9:.6f} Gbps < required "
            f"{scenario.min_avg_rate / 1e9:.6f} Gbps"
        )

    return AuditReport(
        ok=not violations,
        endpoint_error=endpoint_error,
        max_step=max_step,
        worst_margin=worst_margin,
        avg_rate=avg_rate,
        worst_violation=max(
            math.inf if non_finite else 0.0,
            endpoint_error,
            max_step - scenario.max_step,
            scenario.safety_level - worst_margin,
            (scenario.min_avg_rate - avg_rate) / scenario.min_avg_rate
            if scenario.min_avg_rate > 0 else 0.0,
        ),
        violations=violations,
    )


def check_p4(traj, sub) -> list:
    """Audit a subproblem solution against the subproblem's own constraints.

    Returns a list of violation strings (empty means the solution satisfies
    every constraint of the convex subproblem to ``P4_TOL``).
    """
    scenario = sub.scenario
    violations = []
    n = scenario.n_slots + 1

    for k in range(1, n):
        step = _gap(traj[k], traj[k - 1])
        if step > scenario.max_step + P4_TOL:
            violations.append(f"slot {k}: step {step:.8f} > D_max")
    for k in range(1, n - 1):
        move = _gap(traj[k], sub.prev_traj[k])
        if move > sub.trust_radius + P4_TOL:
            violations.append(f"slot {k}: trust move {move:.8f} > {sub.trust_radius}")
    rows = sub.obstacle_rows
    for slot in range(1, n - 1):
        for coeff, offset in zip(rows.coeff[slot - 1], rows.offset[slot - 1]):
            value = coeff[0] * traj[slot][0] + coeff[1] * traj[slot][1] + offset
            if value < scenario.safety_level - P4_TOL:
                violations.append(
                    f"slot {slot}: linearized obstacle {value:.8f} < "
                    f"{scenario.safety_level}"
                )

    # true linearized rate evaluated from positions (not the epigraph vars)
    total = 0.0
    lin = sub.linearization
    for k in range(n):
        d_ap, d_irs = _distances(traj[k], scenario)
        total += (lin.value[k] + lin.grad[k, 0] * (d_ap - lin.d_ap0[k])
                  + lin.grad[k, 1] * (d_irs - lin.d_irs0[k]))
    required = (scenario.n_slots + 1) * scenario.min_avg_rate
    if total < required - P4_TOL * max(1.0, abs(required)):
        violations.append(
            f"linearized rate sum {total / 1e9:.6f} < required {required / 1e9:.6f} Gbps"
        )
    return violations
