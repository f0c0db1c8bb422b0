"""The trajectory descent loop: linearize, solve the convex subproblem, repeat.

Each iteration builds tangent minorants of the rate (``linearize_rate``,
which freezes each slot's visibility class) and of the obstacle quadratics
at the previous trajectory, each as one set of arrays over the slots, and
solves the resulting second-order cone subproblem inside a trust region.
The previous trajectory is always feasible for its own subproblem, so
accepted energies are non-increasing; every accepted iterate must
additionally pass the independent original-constraint audit.

The trace holds one ``IterationRecord`` for the seed path (record 0, a
solution with status "initial" and no cone solve) and one for each accepted
step, each with its whole subproblem solution and its P3 audit.
``descent_step`` builds the record of one step from the last one. When a
subproblem fails or its solution fails an audit, it retries down one
schedule of trust radii: the configured radius, then its halvings clipped
at TRUST_FLOOR, ending at the floor (1, .5, .25, .125, .0625, .05 m by
default; a radius at or below the floor is tried alone). Failure at the
end of the schedule raises SubproblemError carrying the trace so far.

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

from dataclasses import dataclass, field

import numpy as np

from . import audit
from .errors import SubproblemError
from .graphinit import select_initial
from .scenario import Scenario, motion_energy, obstacle_margins
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

    def __post_init__(self):
        for name in ("epsilon", "trust_radius"):
            value = getattr(self, name)
            if not 0 < value < np.inf:
                raise ValueError(f"{name} must be finite and positive, got {value}")
        if not (isinstance(self.n_it_max, (int, np.integer)) and self.n_it_max >= 1):
            raise ValueError(f"n_it_max must be an integer at least 1, got {self.n_it_max!r}")


@dataclass(frozen=True)
class IterationRecord:
    """One accepted step of the descent; record 0 holds the seed path."""

    solution: SubproblemSolution   # record 0: status "initial", conic None
    audit_report: audit.AuditReport   # the P3 audit of solution.trajectory
    improvement: float             # relative energy change versus the previous record
    trust_radius: float


@dataclass
class PlanResult:
    init_label: str | None
    trace: list = field(default_factory=list)   # empty when infeasible
    init_reports: dict = field(default_factory=dict)
    stop_reason: str | None = None  # "epsilon" | "cap" | "plateau"; None when infeasible

    @property
    def feasible(self) -> bool:
        return bool(self.trace)

    @property
    def status(self) -> str:
        return "optimal" if self.trace else "infeasible"

    @property
    def trajectory(self) -> np.ndarray | None:
        return self.trace[-1].solution.trajectory if self.trace else None

    @property
    def energy(self) -> float:
        return self.trace[-1].solution.objective if self.trace else float("inf")

    @property
    def final_audit(self) -> audit.AuditReport | None:
        """The P3 audit of the returned trajectory; None when infeasible."""
        return self.trace[-1].audit_report if self.trace else None


def linearize_obstacles(prev_traj, scenario: Scenario) -> ObstacleLinearization:
    """Tangent minorants of each obstacle quadratic at the previous waypoints.

    For f(q) = (q-c)' P^-1 (q-c), the first-order expansion at q0 is
    f(q0) + grad f(q0) . (q - q0) with grad f = 2 P^-1 (q0-c); convexity of
    f makes it a global under-estimator, so requiring the minorant to clear
    the safety level keeps the admitted half-plane inside the true feasible
    set. f(q0) is the (free slot, obstacle) grid of ``obstacle_margins`` and
    the gradients read the scenario's stacked obstacles; entry [k - 1, j] is
    the minorant of scenario.obstacles[j] at waypoint k.
    """
    points = np.asarray(prev_traj, dtype=float)[1:-1]
    stack = scenario.obstacle_stack
    q0 = points[:, None, None, :]                                   # (free, 1, 1, 2)
    diff = q0 - stack.centers[:, None, :]                           # (free, obs, 1, 2)
    grad = ((2.0 * stack.shape_inv) @ diff.swapaxes(-1, -2)).swapaxes(-1, -2)
    offset = obstacle_margins(points, scenario) - (grad @ q0.swapaxes(-1, -2))[..., 0, 0]
    return ObstacleLinearization(coeff=grad[..., 0, :], offset=offset)


def descent_step(trace: list, model: SnrModel, scenario: Scenario,
                 radii: list[float]) -> IterationRecord:
    """The record of the accepted step from the incumbent ``trace[-1]``.

    Tries the radii in turn and accepts the first solution that solves
    optimal and passes both audits, so the record's radius tells the number
    of shrinks; raises SubproblemError carrying ``trace`` when none passes.
    """
    incumbent = trace[-1].solution
    traj = incumbent.trajectory
    lins = linearize_rate(model, traj, scenario)
    obstacle_rows = linearize_obstacles(traj, scenario)
    for trust in radii:
        sub = assemble_p4(scenario, lins, traj, obstacle_rows, trust)
        sol = solve_p4(sub)
        if sol.status == "optimal":
            rejected = [f"P4 {v}" for v in audit.check_p4(sol.trajectory, sub)]
            p3_report = audit.check_p3(sol.trajectory, scenario, model)
            rejected += [f"P3 {v}" for v in p3_report.violations]
            if not rejected:
                energy = incumbent.objective
                improvement = (energy - sol.objective) / energy if energy > 0 else 0.0
                return IterationRecord(sol, p3_report, improvement, trust)
    violation = f", {rejected[0]}" if sol.status == "optimal" else ""
    raise SubproblemError(f"subproblem failed at iteration {len(trace)}{violation} "
                          f"(status {sol.status}, trust radius {trust})", trace=trace)


def run(scenario: Scenario, model: SnrModel, config: ScoConfig = ScoConfig()) -> PlanResult:
    """Full descent from the graph initializer to a stationary trajectory."""
    selection = select_initial(scenario, model)
    if not selection.feasible:
        return PlanResult(init_label=None, init_reports=selection.reports)

    initial = SubproblemSolution(selection.trajectory,
                                 motion_energy(selection.trajectory, scenario), "initial",
                                 conic=None)
    trace = [IterationRecord(initial, selection.reports[selection.label], improvement=0.0,
                             trust_radius=config.trust_radius)]
    safety_pad = 1e-9    # monotonicity slack for solver round-off
    radii = [config.trust_radius]       # the retry schedule of the module docstring
    while radii[-1] > TRUST_FLOOR:
        radii.append(max(radii[-1] * TRUST_SHRINK, TRUST_FLOOR))

    for _ in range(config.n_it_max):
        step = descent_step(trace, model, scenario, radii)
        if step.solution.objective > trace[-1].solution.objective + safety_pad:
            # feasible but no descent left within solver accuracy:
            # the incumbent is already stationary for this region
            stop_reason = "plateau"
            break
        trace.append(step)
        if abs(step.improvement) <= config.epsilon:
            stop_reason = "epsilon"
            break
    else:
        stop_reason = "cap"

    return PlanResult(init_label=selection.label, trace=trace,
                      init_reports=selection.reports, stop_reason=stop_reason)
