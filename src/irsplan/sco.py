"""The trajectory descent loop: linearize, solve the convex subproblem, repeat.

Each iteration builds tangent minorants of the rate (``linearize_rate``,
which freezes each slot's visibility class) and of the obstacle quadratics
at the previous trajectory, each as one set of arrays over the slots, and
solves the resulting second-order cone subproblem inside a trust region. The previous trajectory is always feasible for its
own subproblem, so accepted energies are non-increasing; every accepted
iterate must additionally pass the independent original-constraint audit.

``descent_step`` takes one step from the incumbent. When a subproblem fails
or its solution fails an audit, it retries down one schedule of trust radii:
the configured radius, then its halvings clipped at TRUST_FLOOR, ending at
the floor (1, .5, .25, .125, .0625, .05 m by default; a radius at or below
the floor is tried alone). Failure at the end of the schedule raises
SubproblemError, and ``run`` attaches the trace so far. The record of each
accepted step keeps its whole subproblem solution.

``run`` holds the stop rule, and ``PlanResult.stop_reason`` names the exit:
    epsilon   an accepted step changed the energy by at most epsilon,
              relative (the magnitude of the change, so a large descent
              step never terminates the loop);
    cap       n_it_max accepted steps;
    plateau   a subproblem solves and passes the audit but does not lower
              the energy within solver round-off: the incumbent is already
              stationary for its trust region, and the loop ends without
              adding a record.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import audit
from .errors import SubproblemError
from .graphinit import InitSelection, select_initial
from .scenario import Scenario, motion_energy
from .snrmodel import SnrModel, linearize_rate
from .socp import ObstacleLinearization, SubproblemSolution, assemble_p4, solve_p4

# the trust-radius retry schedule (see above)
TRUST_SHRINK = 0.5
TRUST_FLOOR = 0.05


@dataclass(frozen=True)
class ScoConfig:
    epsilon: float = 0.01          # relative-improvement stopping threshold
    n_it_max: int = 100
    trust_radius: float = 1.0      # meters
    grid_spacing: float = 1.0      # initializer grid

    def __post_init__(self):
        if self.epsilon <= 0 or self.n_it_max < 1 or self.trust_radius <= 0:
            raise ValueError("epsilon, n_it_max and trust_radius must be positive")


@dataclass(frozen=True)
class IterationRecord:
    iteration: int
    energy: float
    improvement: float             # relative change versus the previous energy
    status: str                    # subproblem status, or "initial"
    max_violation: float           # worst audited constraint violation (0 = clean)
    wall_time: float
    trust_radius: float
    trajectory: np.ndarray = None
    audit_report: "audit.AuditReport" = None
    solution: SubproblemSolution | None = None   # the accepted step's; None on record 0


@dataclass
class PlanResult:
    status: str                    # "optimal" | "infeasible"
    init_label: str | None
    trajectory: np.ndarray | None
    energy: float
    trace: list = field(default_factory=list)
    init_reports: dict = field(default_factory=dict)
    stop_reason: str | None = None  # "epsilon" | "cap" | "plateau"; None when infeasible

    @property
    def feasible(self) -> bool:
        return self.status == "optimal"

    @property
    def final_audit(self) -> audit.AuditReport | None:
        """The P3 audit of the returned trajectory; None when infeasible."""
        return self.trace[-1].audit_report if self.trace else None


def linearize_obstacles(prev_traj, obstacles) -> ObstacleLinearization:
    """Tangent minorants of each obstacle quadratic at the previous waypoints.

    For f(q) = (q-c)' P^-1 (q-c), the first-order expansion at q0 is
    f(q0) + grad f(q0) . (q - q0) with grad f = 2 P^-1 (q0-c); convexity of
    f makes it a global under-estimator, so requiring the minorant to clear
    the safety level keeps the admitted half-plane inside the true feasible
    set. Rows run over the free slots, and over the obstacles within a slot.
    """
    q0 = np.asarray(prev_traj, dtype=float)[1:-1, None, None, :]   # (free, 1, 1, 2)
    centers = np.array([obs.center for obs in obstacles]).reshape(-1, 1, 2)
    shape_inv = np.array([obs.shape_inv for obs in obstacles]).reshape(-1, 2, 2)
    # batched matmuls with the operand shapes of the per-row form
    # diff @ P^-1 @ diff and (2 P^-1) @ diff, so every row keeps its bits
    diff = q0 - centers                                             # (free, obs, 1, 2)
    value = diff @ shape_inv @ diff.swapaxes(-1, -2)                # (free, obs, 1, 1)
    grad = ((2.0 * shape_inv) @ diff.swapaxes(-1, -2)).swapaxes(-1, -2)
    offset = value - grad @ q0.swapaxes(-1, -2)
    n_free, n_obs = value.shape[:2]
    return ObstacleLinearization(slot=np.repeat(np.arange(1, n_free + 1), n_obs),
                                 coeff=grad.reshape(-1, 2), offset=offset.reshape(-1))


def descent_step(incumbent: IterationRecord, model: SnrModel, scenario: Scenario,
                 radii: list[float]) -> tuple:
    """The accepted step from the incumbent: (solution, P3 report, trust radius).

    Tries the radii in turn and accepts the first solution that solves
    optimal and passes both audits, so the index of the returned radius is
    the number of shrinks; raises SubproblemError when none passes.
    """
    traj = incumbent.trajectory
    lins = linearize_rate(model, traj, scenario)
    obstacle_rows = linearize_obstacles(traj, scenario.obstacles)
    for trust in radii:
        sub = assemble_p4(scenario, lins, traj, obstacle_rows, trust)
        sol = solve_p4(sub)
        if sol.status == "optimal":
            rejected = [f"P4 {v}" for v in audit.check_p4(sol.trajectory, sub)]
            p3_report = audit.check_p3(sol.trajectory, scenario, model)
            rejected += [f"P3 {v}" for v in p3_report.violations]
            if not rejected:
                return sol, p3_report, trust
    violation = f", {rejected[0]}" if sol.status == "optimal" else ""
    raise SubproblemError(f"subproblem failed at iteration {incumbent.iteration + 1}"
                          f"{violation} (status {sol.status}, trust radius {trust})")


def run(scenario: Scenario, model: SnrModel, config: ScoConfig = ScoConfig()) -> PlanResult:
    """Full descent from the graph initializer to a stationary trajectory."""
    selection: InitSelection = select_initial(scenario, model,
                                              grid_spacing=config.grid_spacing)
    if not selection.feasible:
        return PlanResult(status="infeasible", init_label=None, trajectory=None,
                          energy=float("inf"), init_reports=selection.reports)

    init_report = selection.reports[selection.label]
    trace = [IterationRecord(iteration=0, energy=motion_energy(selection.trajectory, scenario),
                             improvement=0.0, status="initial",
                             max_violation=init_report.worst_violation,
                             wall_time=0.0, trust_radius=config.trust_radius,
                             trajectory=selection.trajectory, audit_report=init_report)]
    safety_pad = 1e-9    # monotonicity slack for solver round-off
    radii = [config.trust_radius]       # the retry schedule of the module docstring
    while radii[-1] > TRUST_FLOOR:
        radii.append(max(radii[-1] * TRUST_SHRINK, TRUST_FLOOR))

    for iteration in range(1, config.n_it_max + 1):
        t0 = time.perf_counter()
        energy = trace[-1].energy
        try:
            sol, p3_report, trust = descent_step(trace[-1], model, scenario, radii)
        except SubproblemError as exc:
            exc.trace = trace
            raise
        if sol.objective > energy + safety_pad:
            # feasible but no descent left within solver accuracy:
            # the incumbent is already stationary for this region
            stop_reason = "plateau"
            break

        improvement = (energy - sol.objective) / energy if energy > 0 else 0.0
        trace.append(IterationRecord(
            iteration=iteration, energy=sol.objective, improvement=improvement,
            status=sol.status, max_violation=p3_report.worst_violation,
            wall_time=time.perf_counter() - t0, trust_radius=trust,
            trajectory=sol.trajectory, audit_report=p3_report, solution=sol,
        ))
        if abs(improvement) <= config.epsilon:
            stop_reason = "epsilon"
            break
    else:
        stop_reason = "cap"

    return PlanResult(status="optimal", init_label=selection.label,
                      trajectory=trace[-1].trajectory, energy=trace[-1].energy, trace=trace,
                      init_reports=selection.reports, stop_reason=stop_reason)
