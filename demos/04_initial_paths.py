"""Minimum-energy versus maximum-rate seed paths on the time-expanded graph.

The initializer tries the energy-greedy path first and falls back to the
rate-greedy one when the average-rate requirement rules the first out.
"""

from irsplan.graphinit import build_graph, select_initial, shortest_path
from irsplan.radiomap import build_map
from irsplan.scenario import load_scenario, motion_energy, scenario_overrides
from irsplan.snrmodel import fit, rate

base = load_scenario("configs/desk_scenario.cfg")

for m in (0, 64):
    sc = scenario_overrides(base, n_irs_elements=m)
    radio_map = build_map(sc, nx=50, ny=30, draws_per_cell=100, seed=7)
    model = fit(radio_map, sc)

    print(f"M = {m}, required average rate "
          f"{sc.min_avg_rate / 1e9:.1f} Gbps")
    for mode in ("ME", "MR"):
        traj = shortest_path(build_graph(sc, model=model, mode=mode))
        avg = rate(model, traj, sc) / 1e9
        print(f"  {mode} path: energy {motion_energy(traj, sc):8.1f} J, "
              f"average rate {avg:.3f} Gbps")
    selection = select_initial(sc, model)
    print(f"  initializer selects: {selection.label}\n")
