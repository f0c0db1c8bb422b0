"""Full planning run: map, fit, seed path, convex descent, audit.

Prints the energy trace of the descent loop and draws the final trajectory
over the obstacle field.
"""

import numpy as np

from irsplan import audit
from irsplan.radiomap import build_map
from irsplan.scenario import load_scenario, obstacle_margins, scenario_overrides
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
centres = np.stack(np.meshgrid(np.arange(cols) + 0.5, np.arange(rows) + 0.5), axis=-1)
blocked = np.any(obstacle_margins(centres, scenario) < scenario.safety_level, axis=-1)
for iy, ix in zip(*np.nonzero(blocked)):
    canvas[iy][ix] = "#"
for q in result.trajectory:
    canvas[min(int(q[1]), rows - 1)][min(int(q[0]), cols - 1)] = "o"
sx, sy = scenario.q_start.astype(int)
gx, gy = scenario.q_goal.astype(int)
canvas[sy][sx], canvas[gy][gx] = "S", "G"
print()
for row in reversed(canvas):
    print("  " + "".join(row))
