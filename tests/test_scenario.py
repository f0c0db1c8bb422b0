import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from irsplan import scenario as scenario_module
from irsplan.errors import (ConfigError, FileFormatError, InvalidObstacleError,
                            InvalidTrajectoryError)
from irsplan.scenario import (LinkClass, Obstacle, distances, load_scenario,
                              los_class_batch, motion_energy, obstacle_margin,
                              scenario_from_payload, scenario_overrides, scenario_payload,
                              slot_energy)

from conftest import DESK_CONFIG, desk_config_with, point_class, straight_line


# ---------------------------------------------------------------------------
# motion energy


def test_stationary_trajectory_only_pays_idle(empty_scenario):
    traj = np.tile([10.0, 10.0], (31, 1))
    assert motion_energy(traj, empty_scenario) == pytest.approx(30 * 14.77, rel=1e-12)


def test_straight_line_energy_matches_scalar_summation(empty_scenario):
    traj = straight_line(empty_scenario)
    # independent oracle: plain per-slot scalar evaluation
    expected = 0.0
    for k in range(1, len(traj)):
        step = math.hypot(traj[k][0] - traj[k - 1][0], traj[k][1] - traj[k - 1][1])
        expected += 4.39 * step**2 / 1.0 + 24.67 * step + 14.77 * 1.0
    assert motion_energy(traj, empty_scenario) == pytest.approx(expected, rel=1e-12)


def test_single_full_speed_step_hand_value(empty_scenario):
    sc = scenario_overrides(empty_scenario, n_slots=1, q_start=[10.0, 10.0],
                            q_goal=[13.0, 10.0])
    # one slot of length D_max = 3 m: 4.39*9 + 24.67*3 + 14.77 = 128.29 J
    assert motion_energy(np.array([[10.0, 10.0], [13.0, 10.0]]), sc) == pytest.approx(
        128.29, abs=1e-10
    )


def test_slot_energies_add_up_to_the_motion_energy(desk_scenario):
    traj = straight_line(desk_scenario)
    steps = np.linalg.norm(np.diff(traj, axis=0), axis=1)
    assert slot_energy(steps, desk_scenario).sum() == pytest.approx(
        motion_energy(traj, desk_scenario), rel=1e-12)


def test_wrong_waypoint_count_rejected(empty_scenario):
    with pytest.raises(InvalidTrajectoryError):
        motion_energy(np.zeros((7, 2)), empty_scenario)


def test_midpoint_convexity_and_translation_invariance(empty_scenario):
    rng = np.random.default_rng(7)
    for _ in range(100):
        a = rng.uniform([0, 0], [50, 30], size=(31, 2))
        b = rng.uniform([0, 0], [50, 30], size=(31, 2))
        mid = motion_energy((a + b) / 2, empty_scenario)
        avg = (motion_energy(a, empty_scenario) + motion_energy(b, empty_scenario)) / 2
        assert mid <= avg * (1 + 1e-9)
        shift = rng.uniform(-5, 5, size=2)
        assert motion_energy(a + shift, empty_scenario) == pytest.approx(
            motion_energy(a, empty_scenario), abs=1e-12 * motion_energy(a, empty_scenario)
        )


# ---------------------------------------------------------------------------
# obstacles


def test_margin_at_center_is_zero():
    obs = Obstacle.from_extents([5.0, 5.0], 6.0, 4.0, height=2.0)
    assert obstacle_margin([5.0, 5.0], obs) == 0.0


def test_margin_reduces_to_euclidean_for_identity_shape():
    obs = Obstacle(np.array([1.0, 1.0]), np.eye(2), 2.0)
    assert obstacle_margin([1.0, 3.0], obs) == pytest.approx(4.0, rel=1e-14)


def test_margin_on_ellipse_axis_endpoint_matches_matrix_arithmetic():
    # 6 m long, 4 m wide ellipse: semi-axes (3, 2)
    obs = Obstacle.from_extents([10.0, 8.0], 6.0, 4.0, angle_deg=30.0, height=2.0)
    phi = math.radians(30.0)
    tip = np.array([10.0 + 3 * math.cos(phi), 8.0 + 3 * math.sin(phi)])
    # independent oracle: explicit quadratic-form evaluation
    diff = tip - obs.center
    expected = float(diff @ np.linalg.inv(obs.shape) @ diff)
    assert obstacle_margin(tip, obs) == pytest.approx(expected, rel=1e-12)
    assert expected == pytest.approx(1.0, rel=1e-12)


def test_margin_invariant_under_joint_rotation():
    rng = np.random.default_rng(3)
    for _ in range(50):
        center = rng.uniform(0, 20, 2)
        obs = Obstacle.from_extents(center, 6.0, 4.0, angle_deg=0.0, height=2.0)
        q = rng.uniform(0, 20, 2)
        theta = rng.uniform(0, 2 * math.pi)
        c, s = math.cos(theta), math.sin(theta)
        rot = np.array([[c, -s], [s, c]])
        obs_rot = Obstacle(rot @ center, rot @ obs.shape @ rot.T, 2.0)
        assert obstacle_margin(rot @ q, obs_rot) == pytest.approx(
            obstacle_margin(q, obs), rel=1e-9
        )


def test_margin_of_an_array_is_the_one_point_margin_of_each_row(desk_scenario):
    rng = np.random.default_rng(8)
    xmin, xmax, ymin, ymax = desk_scenario.workspace
    points = np.column_stack([rng.uniform(xmin, xmax, 2000), rng.uniform(ymin, ymax, 2000)])
    for obs in desk_scenario.obstacles:
        margins = obstacle_margin(points, obs)
        assert margins.shape == (2000,)
        one_by_one = np.array([obstacle_margin(q, obs) for q in points])
        assert np.array_equal(margins.view(np.uint64), one_by_one.view(np.uint64))


def test_invalid_obstacles_rejected():
    with pytest.raises(InvalidObstacleError):
        Obstacle(np.zeros(2), np.array([[1.0, 0.5], [0.4, 1.0]]), 2.0)  # asymmetric
    with pytest.raises(InvalidObstacleError):
        Obstacle(np.zeros(2), np.array([[1.0, 0.0], [0.0, -1.0]]), 2.0)  # indefinite
    with pytest.raises(InvalidObstacleError):
        Obstacle.from_extents([0, 0], 6.0, 4.0, height=0.0)


# ---------------------------------------------------------------------------
# line of sight


def _los_sampling_oracle(q, target, z0, z1, obstacles, step=0.01):
    """Dense 1 cm sampling of the 3D segment with point-in-cylinder tests."""
    q = np.asarray(q, float)
    target = np.asarray(target, float)
    length = np.linalg.norm(np.append(target - q, z1 - z0))
    n = max(int(length / step), 2)
    ts = np.linspace(0.0, 1.0, n)
    points = q[None, :] + ts[:, None] * (target - q)[None, :]
    zs = z0 + ts * (z1 - z0)
    for obs in obstacles:
        diff = points - obs.center
        vals = np.einsum("ni,ij,nj->n", diff, obs.shape_inv, diff)
        if np.any((vals < 1.0) & (zs <= obs.height)):
            return False
    return True


def test_no_obstacles_means_both_los(empty_scenario):
    assert point_class([20.0, 20.0], empty_scenario) == LinkClass(True, True)


def test_tall_obstacle_on_segment_blocks_ap(empty_scenario):
    sc = empty_scenario
    q = np.array([25.0, 10.0])
    mid = (q + sc.ap_pos) / 2
    blocker = Obstacle.from_extents(mid, 6.0, 4.0, height=50.0)  # taller than both ends
    sc_blocked = scenario_overrides(sc, obstacles=(blocker,),
                                    q_start=[2.0, 2.0], q_goal=[48.0, 2.0])
    assert point_class(q, sc_blocked).ap_los is False


def test_desk_corridor_midpoint_is_double_los(desk_scenario):
    link = point_class([25.0, 15.0], desk_scenario)
    assert link == LinkClass(True, True)
    assert _los_sampling_oracle([25.0, 15.0], desk_scenario.ap_pos,
                                desk_scenario.z_robot, desk_scenario.z_ap,
                                desk_scenario.obstacles)
    assert _los_sampling_oracle([25.0, 15.0], desk_scenario.irs_pos,
                                desk_scenario.z_robot, desk_scenario.z_irs,
                                desk_scenario.obstacles)


def test_los_classification_agrees_with_sampling_oracle_on_grid(desk_scenario):
    sc = desk_scenario
    xs = np.arange(0.5, 50.0, 1.0)
    ys = np.arange(0.5, 30.0, 1.0)
    points = np.stack(np.meshgrid(xs, ys), axis=-1).reshape(-1, 2)
    ap_los, irs_los = los_class_batch(points, sc)
    for i, q in enumerate(points):
        assert ap_los[i] == _los_sampling_oracle(q, sc.ap_pos, sc.z_robot, sc.z_ap,
                                                 sc.obstacles), q
        assert irs_los[i] == _los_sampling_oracle(q, sc.irs_pos, sc.z_robot, sc.z_irs,
                                                  sc.obstacles), q


def test_visibility_classes_match_the_einsum_form_of_the_ellipse_term(desk_scenario,
                                                                      monkeypatch):
    # the reference takes the segment test's u0' P^-1 u0 from an einsum, which
    # differs from obstacle_margin in the last bit at some points: no class may move
    rng = np.random.default_rng(25)
    xmin, xmax, ymin, ymax = desk_scenario.workspace
    points = np.column_stack([rng.uniform(xmin, xmax, 20_000),
                              rng.uniform(ymin, ymax, 20_000)])
    got = los_class_batch(points, desk_scenario)

    def einsum_margin(q, obstacle):
        u0 = q - obstacle.center
        return np.einsum("ni,ij,nj->n", u0, obstacle.shape_inv, u0)

    monkeypatch.setattr(scenario_module, "obstacle_margin", einsum_margin)
    ref = los_class_batch(points, desk_scenario)
    assert np.array_equal(got.ap_los, ref.ap_los)
    assert np.array_equal(got.irs_los, ref.irs_los)


# ---------------------------------------------------------------------------
# distances


def test_distance_directly_below_ap(empty_scenario):
    sc = empty_scenario
    d_ap, _ = distances(sc.ap_pos, sc)
    assert d_ap == pytest.approx(4.5, rel=1e-14)   # 5.0 - 0.5 height gap


def test_distance_hand_case(empty_scenario):
    _, d_irs = distances([25.0, 15.0], empty_scenario)
    assert d_irs == pytest.approx(math.sqrt(15**2 + 2**2), rel=1e-14)


def test_symmetric_positions_equidistant(empty_scenario):
    sc = empty_scenario
    d1, _ = distances([20.0, 12.0], sc)
    d2, _ = distances([30.0, 12.0], sc)   # mirrored about the AP x
    assert d1 == pytest.approx(d2, rel=1e-14)


# ---------------------------------------------------------------------------
# configuration


def test_load_desk_config_round_trips_key_values(desk_scenario):
    sc = desk_scenario
    assert sc.n_slots == 30 and sc.v_max == 3.0 and sc.safety_level == 1.35
    assert sc.tx_power == pytest.approx(0.1)
    assert sc.noise_power == pytest.approx(10 ** (-35.5 / 10) * 1e-3)
    assert sc.bandwidth_hz == pytest.approx(200e6)
    assert sc.max_step == pytest.approx(3.0)
    assert len(sc.obstacles) == 5


def test_unknown_config_key_is_named(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("florp = 1\n")
    with pytest.raises(ConfigError, match="florp"):
        load_scenario(path)


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("name", ["v_max", "min_avg_rate", "slot_duration", "z_robot", "z_ap",
                                  "motor_v2", "bandwidth_hz", "ref_gain", "tx_power",
                                  "los_exponent", "nlos_exponent"])
def test_non_finite_scenario_field_is_a_config_error(desk_scenario, name, value):
    with pytest.raises(ConfigError, match="must be finite") as err:
        scenario_overrides(desk_scenario, **{name: value})
    assert err.value.key == name


@pytest.mark.parametrize("value", [0.0, -2.0])
@pytest.mark.parametrize("name", ["bandwidth_hz", "ref_gain", "los_exponent", "nlos_exponent",
                                  "noise_power"])
def test_nonpositive_channel_field_is_a_config_error(desk_scenario, name, value):
    with pytest.raises(ConfigError, match="must be positive") as err:
        scenario_overrides(desk_scenario, **{name: value})
    assert err.value.key == name


@pytest.mark.parametrize("height", [math.inf, -math.inf, math.nan])
def test_non_finite_obstacle_height_is_rejected(height):
    with pytest.raises(InvalidObstacleError, match="height"):
        Obstacle.from_extents([10.0, 10.0], 4.0, 2.0, height=height)


def test_nan_safety_level_is_a_config_error(desk_scenario):
    with pytest.raises(ConfigError, match="must be finite"):
        scenario_overrides(desk_scenario, safety_level=math.nan)


@pytest.mark.parametrize("key,value", [("n_slots", "inf"), ("n_slots", "nan"),
                                       ("n_antennas", "inf"), ("los_exponent", "x"),
                                       ("nlos_exponent", "nan"), ("v_max", "nan")])
def test_bad_config_scalar_is_a_config_error_naming_the_key(tmp_path, key, value):
    with pytest.raises(ConfigError) as err:
        load_scenario(desk_config_with(tmp_path, key, value))
    assert key in str(err.value)


def test_bad_shape_obstacle_height_is_a_config_error(tmp_path):
    path = tmp_path / "shape.cfg"
    path.write_text(Path(DESK_CONFIG).read_text(encoding="utf-8").split("\n[obstacle]")[0]
                    + "\n[obstacle]\ncenter = 17 18.5\nshape = 9 0 4\nheight = x\n")
    with pytest.raises(ConfigError, match="obstacle"):
        load_scenario(path)


@pytest.mark.parametrize("after,extra,field", [
    ("v_max =", "v_max = 2.0", "v_max"),
    ("center = 17.0 18.5", "center = 30 25", "center"),
    ("n_slots =", "n_slots 30", "n_slots 30")],
    ids=["repeated-top-level-key", "repeated-obstacle-key", "not-key-value"])
def test_repeated_key_or_bad_line_is_a_format_error_at_its_line(tmp_path, after, extra, field):
    lines = Path(DESK_CONFIG).read_text(encoding="utf-8").splitlines()
    lineno = next(i for i, line in enumerate(lines, start=1) if line.startswith(after)) + 1
    lines.insert(lineno - 1, extra)
    path = tmp_path / "bad.cfg"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(FileFormatError) as err:
        load_scenario(path)
    assert (err.value.path, err.value.line, err.value.field) == (path, lineno, field)


@pytest.mark.parametrize("block", [
    "center = 17 18.5\nshape = 9 0 4\nlength = 6\nwidth = 4\nheight = 2",
    "center = 17 18.5\nshape = 9 0 4\nangle_deg = 30\nheight = 2",
    "center = 17 18.5\nlength = 6\nheight = 2",
    "center = 17 18.5\nshape = 9 0 4",
    "center = 17 18.5\nshape = 9 0 4\nheight = 2\nradius = 1"],
    ids=["shape-and-extents", "shape-and-angle", "length-without-width", "no-height",
         "unknown-key"])
def test_obstacle_block_takes_exactly_one_form(tmp_path, block):
    path = tmp_path / "obstacle.cfg"
    path.write_text(Path(DESK_CONFIG).read_text(encoding="utf-8").split("\n[obstacle]")[0]
                    + f"\n[obstacle]\n{block}\n")
    with pytest.raises(ConfigError, match="obstacle"):
        load_scenario(path)


def test_endpoint_inside_obstacle_rejected(desk_scenario):
    with pytest.raises(ConfigError):
        scenario_overrides(desk_scenario, q_start=[17.0, 18.5])  # center of O1


def test_fingerprints_distinguish_planning_from_channel(desk_scenario):
    other = scenario_overrides(desk_scenario, min_avg_rate=3.2e9)
    assert other.fingerprint() != desk_scenario.fingerprint()
    assert other.channel_fingerprint() == desk_scenario.channel_fingerprint()
    bigger = scenario_overrides(desk_scenario, n_irs_elements=128)
    assert bigger.channel_fingerprint() != desk_scenario.channel_fingerprint()


@pytest.mark.parametrize("name,value", [("v_max", "x"), ("workspace", "abc"), ("v_max", None),
                                        ("ap_pos", [1.0, 2.0, 3.0]), ("workspace", (0, 50, 0)),
                                        ("n_slots", 2.5), ("z_ap", [5.0])])
def test_non_numeric_or_misshapen_field_is_a_config_error(desk_scenario, name, value):
    with pytest.raises(ConfigError) as err:
        scenario_overrides(desk_scenario, **{name: value})
    assert err.value.key == name


def test_fingerprint_does_not_depend_on_how_numbers_are_given(desk_scenario):
    same = scenario_overrides(desk_scenario, v_max=np.float64(3.0), n_slots=np.int64(30),
                              workspace=np.array([0, 50, 0, 30]), q_start=(9.5, 15.5))
    assert same.fingerprint() == desk_scenario.fingerprint()


# ---------------------------------------------------------------------------
# manifest payload

PAYLOAD_KEYS = [
    "ap_pos", "bandwidth_hz", "fingerprint", "irs_pos", "los_exponent",
    "min_avg_rate_bits_s", "motor_v0", "motor_v1", "motor_v2", "n_antennas",
    "n_irs_elements", "n_slots", "nlos_exponent", "noise_power_w", "obstacles",
    "q_goal", "q_start", "ref_gain", "safety_level", "slot_duration", "tx_power_w",
    "v_max", "workspace", "z_ap", "z_irs", "z_robot",
]


def through_json(scenario):
    return scenario_from_payload(json.loads(json.dumps(scenario_payload(scenario))))


def test_desk_payload_has_its_26_keys_and_round_trips(desk_scenario):
    assert sorted(scenario_payload(desk_scenario)) == PAYLOAD_KEYS
    assert through_json(desk_scenario).fingerprint() == desk_scenario.fingerprint()


@settings(derandomize=True, max_examples=40, deadline=None)
@given(poses=st.lists(st.tuples(st.floats(0.0, 50.0), st.floats(0.0, 30.0),
                                st.floats(0.5, 8.0), st.floats(0.5, 8.0),
                                st.floats(-90.0, 90.0), st.floats(0.5, 4.0)), max_size=4),
       n_slots=st.integers(1, 60), m=st.integers(0, 256), rate_gbps=st.floats(0.0, 5.0))
def test_payload_round_trips_the_fingerprint(desk_scenario, poses, n_slots, m, rate_gbps):
    obstacles = tuple(Obstacle.from_extents([x, y], length, width, angle, height)
                      for x, y, length, width, angle, height in poses)
    try:
        sc = scenario_overrides(desk_scenario, obstacles=obstacles, n_slots=n_slots,
                                n_irs_elements=m, min_avg_rate=rate_gbps * 1e9)
    except ConfigError:          # an endpoint inside an obstacle
        assume(False)
    assert through_json(sc).fingerprint() == sc.fingerprint()

