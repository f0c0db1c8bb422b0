"""Full planning run: map, fit, seed path, convex descent, audit.

Prints the energy trace of the descent loop and draws the final trajectory
over the obstacle field.
"""

import numpy as np

from irsplan import audit
from irsplan.radiomap import build_map
from irsplan.scenario import load_scenario, obstacle_margin, scenario_overrides
from irsplan.sco import ScoConfig, run
from irsplan.snrmodel import fit

scenario = scenario_overrides(load_scenario("configs/desk_scenario.cfg"),
                              n_irs_elements=0)
radio_map = build_map(scenario, nx=50, ny=30, draws_per_cell=100, seed=7)
model = fit(radio_map, scenario)

result = run(scenario, model, ScoConfig())
print(f"status: {result.status}, seed path: {result.init_label}")
energies = [rec.solution.objective for rec in result.trace]
print("energy trace (J):", " -> ".join(f"{e:.1f}" for e in energies))
print(audit.check_p3(result.trajectory, scenario, model).summary())

# ASCII sketch: '#' blocked cells (safety level), 'o' trajectory, S/G endpoints
cols, rows = 50, 30
canvas = [[" "] * cols for _ in range(rows)]
for iy in range(rows):
    for ix in range(cols):
        q = np.array([ix + 0.5, iy + 0.5])
        if any(obstacle_margin(q, o) < scenario.safety_level
               for o in scenario.obstacles):
            canvas[iy][ix] = "#"
for q in result.trajectory:
    canvas[min(int(q[1]), rows - 1)][min(int(q[0]), cols - 1)] = "o"
sx, sy = scenario.q_start.astype(int)
gx, gy = scenario.q_goal.astype(int)
canvas[sy][sx], canvas[gy][gx] = "S", "G"
print()
for row in reversed(canvas):
    print("  " + "".join(row))
