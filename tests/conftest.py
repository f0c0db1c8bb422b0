from pathlib import Path

import numpy as np
import pytest

from irsplan.radiomap import build_map
from irsplan.scenario import (ALL_LINK_CLASSES, LinkClass, Scenario, load_scenario,
                              los_class_batch, scenario_overrides)
from irsplan.snrmodel import ClassFit, SnrModel, fit

DESK_CONFIG = "configs/desk_scenario.cfg"


@pytest.fixture(scope="session")
def desk_scenario() -> Scenario:
    return load_scenario(DESK_CONFIG)


@pytest.fixture(scope="session")
def empty_scenario(desk_scenario) -> Scenario:
    """Desk geometry without obstacles; handy for pure-geometry cases."""
    return scenario_overrides(desk_scenario, obstacles=())


@pytest.fixture(scope="session")
def toy_model() -> SnrModel:
    """Hand-set parameters, one fit shared by all visibility classes."""
    cf = ClassFit(gain_irs=2.3, gain_cross=0.5, gain_direct=1.9,
                  exp_irs=2.1, exp_ap=2.4)
    return SnrModel(fits={link: cf for link in ALL_LINK_CLASSES})


@pytest.fixture(scope="session")
def small_map(desk_scenario):
    """Coarse desk-scale radio map (fast); M = 64 from the config."""
    return build_map(desk_scenario, nx=40, ny=24, draws_per_cell=50, seed=3)


@pytest.fixture(scope="session")
def fitted_model(small_map, desk_scenario):
    return fit(small_map, desk_scenario)


def desk_config_with(tmp_path, key, value):
    """The desk config file with ``key = value`` in place of its own line."""
    lines = [line for line in Path(DESK_CONFIG).read_text(encoding="utf-8").splitlines()
             if not line.startswith(f"{key} =")]
    path = tmp_path / "edited.cfg"
    path.write_text("\n".join([f"{key} = {value}", *lines]) + "\n")
    return path


def straight_line(scenario: Scenario) -> np.ndarray:
    return np.linspace(scenario.q_start, scenario.q_goal, scenario.n_slots + 1)


def point_class(q, scenario: Scenario) -> LinkClass:
    """The visibility class of one position, as a LinkClass of two bools."""
    return LinkClass(*(flags.item() for flags in los_class_batch(np.array([q]), scenario)))
