"""Minimum-energy robot trajectory planning with an IRS-assisted mm-wave uplink.

The package is organized around one pipeline:

    scenario  -> channel -> radiomap -> snrmodel -> graphinit -> sco
                                 (socp solves each convex subproblem)

plus an independent constraint auditor (`audit`) and a command-line
front end (`cli`). See README.md for file formats and units.
"""

from .scenario import (  # noqa: F401
    LinkClass,
    Obstacle,
    Scenario,
    distances,
    load_scenario,
    motion_energy,
    obstacle_margins,
    scenario_overrides,
)
from .channel import (  # noqa: F401
    Beamformer,
    ChannelDraw,
    draw_channel,
    optimal_beamformer,
    optimal_snr_closed_form,
    snr,
)
from .radiomap import RadioMap, build_map, load_map, save_map  # noqa: F401
from .snrmodel import SnrModel, fit, load_model, save_model  # noqa: F401
from .graphinit import select_initial  # noqa: F401
from .sco import PlanResult, ScoConfig, run  # noqa: F401

__all__ = [
    "LinkClass",
    "Obstacle",
    "Scenario",
    "distances",
    "load_scenario",
    "motion_energy",
    "obstacle_margins",
    "scenario_overrides",
    "Beamformer",
    "ChannelDraw",
    "draw_channel",
    "optimal_beamformer",
    "optimal_snr_closed_form",
    "snr",
    "RadioMap",
    "build_map",
    "load_map",
    "save_map",
    "SnrModel",
    "fit",
    "load_model",
    "save_model",
    "select_initial",
    "PlanResult",
    "ScoConfig",
    "run",
]
