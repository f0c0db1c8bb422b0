"""The trajectory descent loop: linearize, solve the convex subproblem, repeat.

Each iteration freezes the per-slot visibility classes at the previous
trajectory, builds tangent minorants of the rate and of the obstacle
quadratics there, and solves the resulting second-order cone subproblem
inside a trust region. The previous trajectory is always feasible for its
own subproblem, so accepted energies are non-increasing; every accepted
iterate must additionally pass the independent original-constraint audit.

The stopping rule is relative energy improvement below epsilon (the
magnitude of the change, so a large descent step never terminates the
loop) or the iteration cap. When a subproblem fails or its solution fails
the audit, the trust region shrinks and the iteration retries; persistent
failure aborts with the trace collected so far.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import audit
from .errors import SubproblemError
from .graphinit import InitSelection, select_initial
from .scenario import Scenario, los_class, motion_energy
from .snrmodel import SnrModel, linearize_rate
from .socp import LinearObstacle, assemble_p4, solve_p4


@dataclass(frozen=True)
class ScoConfig:
    epsilon: float = 0.01          # relative-improvement stopping threshold
    n_it_max: int = 100
    trust_radius: float = 1.0      # meters
    grid_spacing: float = 1.0      # initializer grid
    solver_tol: float = 1e-8
    solver_max_iter: int = 200
    trust_shrink: float = 0.5      # failed subproblems retry with trust*shrink,
    trust_floor: float = 0.05      # bottoming out at the floor (5 retries at defaults)

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


@dataclass
class PlanResult:
    status: str                    # "optimal" | "infeasible" | "failed"
    init_label: str | None
    trajectory: np.ndarray | None
    energy: float
    trace: list = field(default_factory=list)
    init_reports: dict = field(default_factory=dict)
    final_audit: audit.AuditReport | None = None
    final_residuals: tuple = (0.0, 0.0, 0.0)

    @property
    def feasible(self) -> bool:
        return self.status == "optimal"


def linearize_obstacles(prev_traj, obstacles) -> list:
    """Tangent minorants of each obstacle quadratic at the previous waypoints.

    For f(q) = (q-c)' P^-1 (q-c), the first-order expansion at q0 is
    f(q0) + grad f(q0) . (q - q0) with grad f = 2 P^-1 (q0-c); convexity of
    f makes it a global under-estimator, so requiring the minorant to clear
    the safety level keeps the admitted half-plane inside the true feasible
    set.
    """
    prev_traj = np.asarray(prev_traj, dtype=float)
    rows = []
    for k in range(1, len(prev_traj) - 1):
        q0 = prev_traj[k]
        for obs in obstacles:
            diff = q0 - obs.center
            value = float(diff @ obs.shape_inv @ diff)
            grad = 2.0 * obs.shape_inv @ diff
            rows.append(LinearObstacle(slot=k, coeff=grad,
                                       offset=value - float(grad @ q0)))
    return rows


def run(scenario: Scenario, model: SnrModel, config: ScoConfig = ScoConfig()) -> PlanResult:
    """Full descent from the graph initializer to a stationary trajectory."""
    selection: InitSelection = select_initial(scenario, model,
                                              grid_spacing=config.grid_spacing)
    if not selection.feasible:
        return PlanResult(status="infeasible", init_label=None, trajectory=None,
                          energy=float("inf"), init_reports=selection.reports)

    traj = selection.trajectory
    energy = motion_energy(traj, scenario)
    init_report = selection.reports[selection.label]
    trace = [IterationRecord(iteration=0, energy=energy, improvement=0.0,
                             status="initial",
                             max_violation=init_report.worst_violation,
                             wall_time=0.0, trust_radius=config.trust_radius,
                             trajectory=traj, audit_report=init_report)]
    safety_pad = 1e-9    # monotonicity slack for solver round-off
    last_residuals = (0.0, 0.0, 0.0)

    for iteration in range(1, config.n_it_max + 1):
        t0 = time.perf_counter()
        links = [los_class(q, scenario) for q in traj]
        lins = linearize_rate(model, links, traj, scenario)
        obstacle_rows = linearize_obstacles(traj, scenario.obstacles)

        trust = config.trust_radius
        accepted = None
        plateau = False
        while True:
            sub = assemble_p4(scenario, lins, traj, obstacle_rows, trust)
            sol = solve_p4(sub, tol=config.solver_tol,
                           max_iter=config.solver_max_iter)
            if sol.status == "optimal":
                p4_violations = audit.check_p4(sol.trajectory, sub)
                p3_report = audit.check_p3(sol.trajectory, scenario, model)
                if not p4_violations and p3_report.ok:
                    if sol.objective <= energy + safety_pad:
                        accepted = (sol, p3_report)
                    else:
                        # feasible but no descent left within solver accuracy:
                        # the incumbent is already stationary for this region
                        plateau = True
                    break
            shrunk = max(trust * config.trust_shrink, config.trust_floor)
            if shrunk == trust:
                break
            trust = shrunk

        if plateau:
            break
        if accepted is None:
            raise SubproblemError(
                f"subproblem failed at iteration {iteration} "
                f"(status {sol.status}, trust radius {trust})",
                trace=trace,
            )

        sol, p3_report = accepted
        new_energy = sol.objective
        improvement = (energy - new_energy) / energy if energy > 0 else 0.0
        trace.append(IterationRecord(
            iteration=iteration, energy=new_energy, improvement=improvement,
            status=sol.status, max_violation=p3_report.worst_violation,
            wall_time=time.perf_counter() - t0, trust_radius=trust,
            trajectory=sol.trajectory, audit_report=p3_report,
        ))
        traj = sol.trajectory
        last_residuals = (sol.primal_residual, sol.dual_residual, sol.gap_residual)
        previous_energy, energy = energy, new_energy

        if abs(previous_energy - energy) / max(previous_energy, 1e-12) <= config.epsilon:
            break

    final_report = audit.check_p3(traj, scenario, model)
    return PlanResult(
        status="optimal", init_label=selection.label, trajectory=traj,
        energy=energy, trace=trace, init_reports=selection.reports,
        final_audit=final_report, final_residuals=last_residuals,
    )
