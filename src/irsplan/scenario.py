"""Static problem data: geometry, obstacles, LOS classification, motion energy.

Positions are length-2 float arrays [x, y] in meters on the robot's motion
plane. All quantities are stored in linear SI units (watts, Hz, bits/s,
meters); dB/dBm/Gbps appear only at the configuration-file interface.
Obstacles are stacked once per scenario (``Scenario.obstacle_stack``) and
queried as a (point, obstacle) grid, by ``obstacle_margins`` and the LOS test.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import MISSING, dataclass, replace
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import textfile
from .errors import ConfigError, InvalidObstacleError, InvalidTrajectoryError

Array = np.ndarray

# Nominal path-loss exponents for line-of-sight and blocked links.
LOS_EXPONENT = 2.0
NLOS_EXPONENT = 4.5


def db_to_linear(db: float) -> float:
    return 10.0 ** (db / 10.0)


def dbm_to_watts(dbm: float) -> float:
    return 10.0 ** (dbm / 10.0) * 1e-3


class LinkClass(NamedTuple):
    """Visibility of the two uplink hops from one robot position.

    A LinkClass of two boolean arrays gives the class of each of several
    positions; ``los_class_batch`` returns one, and the rate functions of
    ``snrmodel`` take either form.
    """

    ap_los: bool
    irs_los: bool

    def label(self) -> str:
        return f"ap={'LOS' if self.ap_los else 'NLOS'} irs={'LOS' if self.irs_los else 'NLOS'}"


class ObstacleStack(NamedTuple):
    """A scenario's obstacles stacked along a leading obstacle axis."""

    centers: Array      # (n_obs, 2)
    shape_inv: Array    # (n_obs, 2, 2) inverse shape matrices
    heights: Array      # (n_obs,)


ALL_LINK_CLASSES = [
    LinkClass(True, True),
    LinkClass(True, False),
    LinkClass(False, True),
    LinkClass(False, False),
]


@dataclass(frozen=True)
class Obstacle:
    """Elliptic-cylinder obstacle.

    ``shape`` is the 2x2 symmetric positive-definite matrix whose unit level
    set {q : (q-center)^T shape^-1 (q-center) = 1} is the physical ellipse
    footprint; ``height`` is the cylinder height above the floor in meters.
    """

    center: Array
    shape: Array
    height: float

    def __post_init__(self):
        center = np.asarray(self.center, dtype=float)
        shape = np.asarray(self.shape, dtype=float)
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "shape", shape)
        if center.shape != (2,) or not np.all(np.isfinite(center)):
            raise InvalidObstacleError("obstacle center must be a finite 2-vector")
        if shape.shape != (2, 2) or not np.all(np.isfinite(shape)):
            raise InvalidObstacleError("shape matrix must be a finite 2x2 matrix")
        if abs(shape[0, 1] - shape[1, 0]) > 1e-12:
            raise InvalidObstacleError("shape matrix must be symmetric within 1e-12")
        eigvals = np.linalg.eigvalsh(shape)
        if eigvals.min() <= 0.0:
            raise InvalidObstacleError("shape matrix must be positive definite")
        if not (math.isfinite(self.height) and self.height > 0.0):
            raise InvalidObstacleError("obstacle height must be finite and positive")
        object.__setattr__(self, "shape_inv", np.linalg.inv(shape))

    @classmethod
    def from_extents(cls, center, length: float, width: float, angle_deg: float = 0.0,
                     height: float = 2.0) -> "Obstacle":
        """Build from full axis lengths (meters) and a rotation of the long axis."""
        a, b = length / 2.0, width / 2.0
        if a <= 0 or b <= 0:
            raise InvalidObstacleError("obstacle axis lengths must be positive")
        phi = math.radians(angle_deg)
        rot = np.array([[math.cos(phi), -math.sin(phi)], [math.sin(phi), math.cos(phi)]])
        shape = rot @ np.diag([a * a, b * b]) @ rot.T
        shape = 0.5 * (shape + shape.T)
        return cls(np.asarray(center, dtype=float), shape, height)


# The numbers behind each annotation of a Scenario field other than the
# obstacles: the one tuple is the workspace rectangle, every Array a position.
_FIELD_SHAPES = {"tuple": (4,), "Array": (2,), "float": (), "int": ()}


def _as_field(value, kind: str, name: str):
    """``value`` in the canonical form of its annotation ``kind``.

    Python floats and ints, a tuple of floats or a float array, so that the
    fingerprint of a scenario does not depend on how its numbers were given.
    Anything else is a ConfigError naming the field.
    """
    shape = _FIELD_SHAPES[kind]
    try:
        array = np.asarray(value)
    except ValueError:                      # ragged nesting
        array = np.asarray(None)
    if array.dtype.kind not in "iuf" or array.shape != shape:
        count = f"{shape[0]} numbers" if shape else "a number"
        raise ConfigError(f"expected {count}, got {value!r}", key=name)
    if kind == "int":
        if not float(array).is_integer():
            raise ConfigError("expected an integer", key=name)
        return int(array)
    if not np.all(np.isfinite(array)):
        raise ConfigError("must be finite", key=name)
    if kind == "float":
        return float(array)
    array = array.astype(float)
    return tuple(array.tolist()) if kind == "tuple" else array


@dataclass(frozen=True)
class Scenario:
    """Full static description of one planning problem.

    Internal units: meters, seconds, watts, Hz, bits/s, linear gains.
    """

    workspace: tuple  # (xmin, xmax, ymin, ymax)
    ap_pos: Array
    irs_pos: Array
    z_robot: float
    z_ap: float
    z_irs: float
    obstacles: tuple
    n_slots: int                 # K: slots per horizon; trajectory has K+1 waypoints
    slot_duration: float         # seconds
    v_max: float                 # m/s
    safety_level: float          # dimensionless ellipse level for collision avoidance
    motor_v2: float              # J*s/m^2, multiplies v^2
    motor_v1: float              # J/m, multiplies v
    motor_v0: float              # W, idle draw
    tx_power: float              # W
    noise_power: float           # W
    bandwidth_hz: float
    ref_gain: float              # linear channel power gain at 1 m
    n_antennas: int              # AP antennas
    n_irs_elements: int
    q_start: Array
    q_goal: Array
    min_avg_rate: float          # bits/s
    los_exponent: float = LOS_EXPONENT
    nlos_exponent: float = NLOS_EXPONENT

    def __post_init__(self):
        for name, spec in self.__dataclass_fields__.items():
            if name != "obstacles":
                object.__setattr__(self, name, _as_field(getattr(self, name), spec.type, name))
        object.__setattr__(self, "obstacles", tuple(self.obstacles))
        xmin, xmax, ymin, ymax = self.workspace
        if not (xmax > xmin and ymax > ymin):
            raise ConfigError("workspace rectangle is empty", key="workspace")
        for key in ("z_ap", "z_irs"):
            if abs(getattr(self, key) - self.z_robot) < 1e-15:
                # a waypoint under the antenna would be at 3D distance 0, and
                # the LOS test divides by the height difference
                raise ConfigError("must differ from z_robot by at least 1e-15 m", key=key)
        if self.n_slots < 1:
            raise ConfigError("need at least one timeslot", key="n_slots")
        if self.slot_duration <= 0:
            raise ConfigError("slot duration must be positive", key="slot_duration")
        if self.v_max <= 0:
            raise ConfigError("maximum speed must be positive", key="v_max")
        if self.safety_level < 1.0:
            raise ConfigError("safety level must be >= 1", key="safety_level")
        for key in ("motor_v2", "motor_v1", "motor_v0"):
            if getattr(self, key) < 0:
                raise ConfigError("motor energy constants must be nonnegative", key=key)
        for key in ("bandwidth_hz", "ref_gain", "los_exponent", "nlos_exponent",
                    "noise_power"):
            if getattr(self, key) <= 0:
                raise ConfigError("must be positive", key=key)
        if self.tx_power < 0:
            raise ConfigError("transmit power cannot be negative", key="tx_power")
        if self.n_antennas < 1:
            raise ConfigError("AP needs at least one antenna", key="n_antennas")
        if self.n_irs_elements < 0:
            raise ConfigError("IRS element count cannot be negative", key="n_irs_elements")
        if self.min_avg_rate < 0:
            raise ConfigError("rate requirement cannot be negative", key="min_avg_rate")
        for name in ("q_start", "q_goal"):
            q = getattr(self, name)
            if not (xmin <= q[0] <= xmax and ymin <= q[1] <= ymax):
                raise ConfigError(f"outside the workspace rectangle {self.workspace}",
                                  key=name)
            if np.any(obstacle_margins(q, self) < self.safety_level):
                raise ConfigError(f"{name} violates the obstacle safety constraint", key=name)

    @property
    def max_step(self) -> float:
        """Largest distance the robot can cover in one slot."""
        return self.v_max * self.slot_duration

    # The fields are frozen, so the channel constants below are computed once
    # per scenario and then read from the instance (the radio map reads them
    # in every cell).

    @cached_property
    def snr_scale(self) -> float:
        """Transmit power over noise power; multiplies every SNR expression."""
        return self.tx_power / self.noise_power

    @cached_property
    def obstacle_stack(self) -> ObstacleStack:
        """The obstacles' centres, inverse shapes and heights, one row per obstacle."""
        obstacles = self.obstacles
        return ObstacleStack(np.array([o.center for o in obstacles]).reshape(-1, 2),
                             np.array([o.shape_inv for o in obstacles]).reshape(-1, 2, 2),
                             np.array([o.height for o in obstacles], dtype=float))

    @cached_property
    def ap_irs_distance(self) -> float:
        """Fixed 3D distance between the AP and the IRS."""
        planar = float(np.linalg.norm(self.ap_pos - self.irs_pos))
        return math.hypot(planar, self.z_ap - self.z_irs)

    @cached_property
    def irs_ap_gain(self) -> float:
        """Amplitude gamma = sqrt(ref_gain) / ap_irs_distance of the IRS-AP hop."""
        return math.sqrt(self.ref_gain) / self.ap_irs_distance

    def exponents(self, link: LinkClass) -> tuple:
        """(AP-link, IRS-link) path-loss exponents of a visibility class: two floats
        for a LinkClass of bools, two arrays for a LinkClass of boolean arrays."""
        pair = (np.where(los, self.los_exponent, self.nlos_exponent) for los in link)
        return tuple(e if e.ndim else float(e) for e in pair)

    def _hash_fields(self, names) -> str:
        parts = []
        for name in names:
            value = getattr(self, name)
            if isinstance(value, np.ndarray):
                parts.append(f"{name}={value.tolist()!r}")
            elif name == "obstacles":
                for i, obs in enumerate(value):
                    parts.append(
                        f"obstacle{i}={obs.center.tolist()!r}|{obs.shape.tolist()!r}|{obs.height!r}"
                    )
            else:
                parts.append(f"{name}={value!r}")
        return hashlib.sha256(";".join(parts).encode()).hexdigest()[:16]

    def fingerprint(self) -> str:
        """Stable short hash of every field; identifies a full planning problem."""
        return self._hash_fields(sorted(self.__dataclass_fields__))

    # fields the radio map / SNR model actually depend on; planning knobs
    # (deadline, speed, motor constants, rate requirement, endpoints) excluded
    _CHANNEL_FIELDS = (
        "workspace", "ap_pos", "irs_pos", "z_robot", "z_ap", "z_irs", "obstacles",
        "tx_power", "noise_power", "ref_gain", "n_antennas", "n_irs_elements",
        "los_exponent", "nlos_exponent",
    )

    def channel_fingerprint(self) -> str:
        """Hash of the channel-relevant fields; stamped into map/model files."""
        return self._hash_fields(self._CHANNEL_FIELDS)


# ---------------------------------------------------------------------------
# Core geometric / energetic operations


def _speed_energy(steps, scenario: Scenario):
    """The speed-dependent part of each slot's energy, motor_v2*v^2*dt + motor_v1*v*dt
    with v = step / dt; the idle draw motor_v0*dt is left to the caller."""
    return (scenario.motor_v2 * np.square(steps) / scenario.slot_duration
            + scenario.motor_v1 * steps)


def motion_energy(traj, scenario: Scenario) -> float:
    """Total motion energy of a K+1-waypoint trajectory, in joules.

    Per slot the robot pays motor_v2*v^2*dt + motor_v1*v*dt + motor_v0*dt,
    with v the (constant) slot speed implied by the waypoint displacement.
    """
    traj = np.asarray(traj, dtype=float)
    if traj.shape != (scenario.n_slots + 1, 2):
        raise InvalidTrajectoryError(
            f"expected {scenario.n_slots + 1} waypoints, got shape {traj.shape}"
        )
    if not np.all(np.isfinite(traj)):
        raise InvalidTrajectoryError("trajectory contains non-finite coordinates")
    steps = np.linalg.norm(np.diff(traj, axis=0), axis=1)
    return float(np.sum(_speed_energy(steps, scenario))
                 + scenario.n_slots * scenario.motor_v0 * scenario.slot_duration)


def slot_energy(steps, scenario: Scenario):
    """Motion energy of one slot for each step length, in joules."""
    return _speed_energy(np.asarray(steps), scenario) + scenario.motor_v0 * scenario.slot_duration


def obstacle_margins(points, scenario: Scenario) -> Array:
    """The (..., n_obs) grid of quadratic forms (q-c_j)^T P_j^-1 (q-c_j) of each point
    q of a (2,) or (..., 2) array and each obstacle j, every entry with the bits of
    one point and one obstacle; compare against safety_level."""
    stack = scenario.obstacle_stack
    d = np.asarray(points, dtype=float)[..., None, :] - stack.centers
    return (d[..., None, :] @ stack.shape_inv @ d[..., :, None])[..., 0, 0]


def distances(points, scenario: Scenario) -> tuple:
    """(robot-AP, robot-IRS) 3D distances including antenna heights.

    ``points`` is one (2,) position, which gives two floats, or an (n, 2)
    array of positions, which gives two length-n arrays.
    """
    points = np.asarray(points, dtype=float)
    dz_ap = scenario.z_robot - scenario.z_ap
    dz_irs = scenario.z_robot - scenario.z_irs
    d_ap = np.sqrt(np.sum((points - scenario.ap_pos) ** 2, axis=-1) + dz_ap**2)
    d_irs = np.sqrt(np.sum((points - scenario.irs_pos) ** 2, axis=-1) + dz_irs**2)
    return d_ap, d_irs


def _segment_blocked(points: Array, z0: float, targets: Array, z1: Array,
                     scenario: Scenario) -> Array:
    """The (n, L, n_obs) grid, True where the non-horizontal 3D segment from
    (points[i], z0) to (targets[l], z1[l]) crosses the cylinder of obstacle j.

    The planar segment p(t) = points[i] + t (targets[l] - points[i]) lies inside
    ellipse j where a t^2 + b t + c < 0; the crossing blocks the link only where
    the segment height z0 + t (z1[l] - z0) is at or below the cylinder height, on
    the obstacle's height window [z_lo, z_hi] of t. The window divides by
    z1[l] - z0, which ``Scenario`` keeps at least 1e-15 for the antenna heights.
    """
    stack = scenario.obstacle_stack
    d = targets - points[:, None, :]                          # (n, L, 2)
    u0 = points[:, None, :] - stack.centers                   # (n, n_obs, 2)
    a = np.einsum("nli,oij,nlj->nlo", d, stack.shape_inv, d)
    b = 2.0 * np.einsum("noi,oij,nlj->nlo", u0, stack.shape_inv, d)
    c = obstacle_margins(points, scenario)[:, None, :] - 1.0

    rising = (z1 > z0)[:, None]                               # (L, 1)
    t_h = (stack.heights - z0) / (z1 - z0)[:, None]           # (L, n_obs)
    z_lo = np.where(rising, 0.0, np.maximum(0.0, t_h))
    z_hi = np.where(rising, np.minimum(1.0, t_h), 1.0)

    degenerate = a < 1e-18
    # stationary planar point: blocked iff it sits inside the ellipse
    blocked = degenerate & (c < 0.0)
    disc = b * b - 4.0 * a * c
    cross = ~degenerate & (disc > 0.0)
    sq = np.sqrt(np.where(cross, disc, 0.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        t1 = (-b - sq) / (2.0 * a)
        t2 = (-b + sq) / (2.0 * a)
        blocked |= cross & (np.minimum(t2, z_hi) - np.maximum(t1, z_lo) > 1e-12)
    return blocked & (z_hi > z_lo)


def los_class_batch(points: Array, scenario: Scenario) -> LinkClass:
    """The visibility class of every point, as a LinkClass of boolean arrays."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    blocked = _segment_blocked(points, scenario.z_robot,
                               np.stack([scenario.ap_pos, scenario.irs_pos]),
                               np.array([scenario.z_ap, scenario.z_irs]), scenario)
    return LinkClass(*~blocked.any(axis=-1).T)


# ---------------------------------------------------------------------------
# Configuration file interface
#
# Line-oriented key = value text. Lengths in meters, powers in dBm, the
# reference path loss in dB, rates in Gbps, bandwidth in MHz. Obstacles are
# declared as repeated [obstacle] blocks. '#' starts a comment.

# the config keys in other units than their Scenario field: field -> (key,
# conversion to SI units); every other field is a key of its own name
_UNIT_KEYS = {
    "tx_power": ("tx_power_dbm", dbm_to_watts),
    "noise_power": ("noise_dbm", dbm_to_watts),
    "bandwidth_hz": ("bandwidth_mhz", lambda mhz: mhz * 1e6),
    "ref_gain": ("path_loss_db", lambda db: db_to_linear(-db)),
    "min_avg_rate": ("min_avg_rate_gbps", lambda gbps: gbps * 1e9),
}

# config key -> (Scenario field, count of numbers, conversion to SI units or None)
_CONFIG_KEYS = {key: (name, math.prod(_FIELD_SHAPES[spec.type]), to_si)
                for name, spec in Scenario.__dataclass_fields__.items() if name != "obstacles"
                for key, to_si in [_UNIT_KEYS.get(name, (name, None))]}

# each key of an [obstacle] block with its count of numbers, and the key sets a
# block may have: a shape matrix, or axis lengths with an optional rotation
_OBSTACLE_KEYS = {"center": 2, "height": 1, "shape": 3, "length": 1, "width": 1,
                  "angle_deg": 1}
_OBSTACLE_FORMS = ({"center", "height", "shape"}, {"center", "height", "length", "width"},
                   {"center", "height", "length", "width", "angle_deg"})

# a key may be left out where its field has a default
_REQUIRED_KEYS = {key for key, (name, _, _) in _CONFIG_KEYS.items()
                  if Scenario.__dataclass_fields__[name].default is MISSING}


def _parse_floats(text: str, n: int, key: str):
    """The ``n`` numbers of ``text``: a float if ``n`` is 1, else a list."""
    parts = text.split()
    if len(parts) != n:
        raise ConfigError(f"expected {n} numbers, got {len(parts)}", key=key)
    try:
        values = [float(p) for p in parts]
    except ValueError as exc:
        raise ConfigError(f"not a number: {exc}", key=key) from None
    return values[0] if n == 1 else values


def _obstacle(lineno: int, block: dict) -> Obstacle:
    """The obstacle of the [obstacle] block at line ``lineno``."""
    if set(block) not in _OBSTACLE_FORMS:
        raise ConfigError(f"needs center, height and either shape or length, width and "
                          f"optional angle_deg, got {sorted(block)} (line {lineno})",
                          key="obstacle")
    values = {key: _parse_floats(text, _OBSTACLE_KEYS[key], f"obstacle.{key}")
              for key, (_, text) in block.items()}
    try:
        if "shape" in values:
            pxx, pxy, pyy = values["shape"]
            return Obstacle(values["center"], [[pxx, pxy], [pxy, pyy]], values["height"])
        return Obstacle.from_extents(values["center"], values["length"], values["width"],
                                     values.get("angle_deg", 0.0), values["height"])
    except InvalidObstacleError as exc:
        raise ConfigError(str(exc), key=f"obstacle (line {lineno})") from None


def load_scenario(path) -> Scenario:
    """Parse a scenario configuration file. Unknown or repeated keys are errors."""
    (_, _, top), *sections = textfile.blocks(textfile.read_lines(path), 1, path)
    fields = {}
    for key, (lineno, text) in top.items():
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"unknown key (line {lineno})", key=key)
        name, count, to_si = _CONFIG_KEYS[key]
        value = _parse_floats(text, count, key)
        fields[name] = to_si(value) if to_si else value
    missing = _REQUIRED_KEYS - top.keys()
    if missing:
        raise ConfigError(f"missing required keys: {sorted(missing)}",
                          key=sorted(missing)[0])
    obstacles = []
    for lineno, tag, block in sections:
        if tag != "[obstacle]":
            raise ConfigError(f"unknown section {tag!r} (line {lineno})", key=tag)
        obstacles.append(_obstacle(lineno, block))
    return Scenario(obstacles=tuple(obstacles), **fields)


def scenario_overrides(scenario: Scenario, **updates) -> Scenario:
    """Copy a scenario with some fields replaced (e.g. n_irs_elements, min_avg_rate)."""
    return replace(scenario, **updates)


# ---------------------------------------------------------------------------
# Manifest payload: the "scenario" object of summary.json
#
# Every field in SI units under its own name, except the three renamed below;
# obstacles as {center, shape, height}; and the scenario's fingerprint.

_PAYLOAD_KEYS = {"tx_power": "tx_power_w", "noise_power": "noise_power_w",
                 "min_avg_rate": "min_avg_rate_bits_s"}


def scenario_payload(scenario: Scenario) -> dict:
    """Every configuration value needed to rebuild the scenario exactly."""
    payload = {_PAYLOAD_KEYS.get(name, name): np.asarray(getattr(scenario, name)).tolist()
               for name in scenario.__dataclass_fields__ if name != "obstacles"}
    payload["obstacles"] = [
        {"center": obs.center.tolist(), "shape": obs.shape.tolist(), "height": obs.height}
        for obs in scenario.obstacles
    ]
    payload["fingerprint"] = scenario.fingerprint()
    return payload


def scenario_from_payload(payload: dict) -> Scenario:
    """Rebuild a scenario; a ConfigError unless it has the payload's fingerprint."""
    if not isinstance(payload, dict):
        raise ConfigError("expected a JSON object", key="scenario")
    try:
        fields = {name: payload[_PAYLOAD_KEYS.get(name, name)]
                  for name in Scenario.__dataclass_fields__}
        stored = payload["fingerprint"]
    except KeyError as exc:
        raise ConfigError("missing from the manifest", key=exc.args[0]) from None
    try:
        fields["obstacles"] = [Obstacle(o["center"], o["shape"], o["height"])
                               for o in fields["obstacles"]]
    except (KeyError, TypeError, ValueError, InvalidObstacleError) as exc:
        raise ConfigError(f"bad obstacle: {exc!r}", key="obstacles") from None
    scenario = Scenario(**fields)
    if scenario.fingerprint() != stored:
        raise ConfigError(f"the manifest's fields give scenario {scenario.fingerprint()}, "
                          f"not {stored}", key="fingerprint")
    return scenario
