"""Stochastic uplink channel draws and closed-form joint AP/IRS beamforming.

The uplink is robot -> AP, optionally assisted by an IRS whose M passive
elements apply unit-modulus phase shifts. Small-scale fading on both robot
links is i.i.d. circular complex Gaussian; blockage enters only through the
per-link path-loss exponent. The IRS-AP hop is a fixed rank-one
line-of-sight channel built from two uniform-linear-array responses.

Both arrays are modeled as half-wavelength ULAs laid along the global x
axis; steering uses the direction cosine of the IRS-AP sight line. Every
draw is reproducible from an explicit integer seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateChannelError
from .scenario import LinkClass, Scenario, distances

Array = np.ndarray


def ula_response(n_elements: int, cos_angle: float) -> Array:
    """Normalized half-wavelength ULA response, entries of modulus 1/sqrt(n)."""
    idx = np.arange(n_elements)
    return np.exp(1j * math.pi * idx * cos_angle) / math.sqrt(max(n_elements, 1))


def _array_responses(scenario: Scenario) -> tuple:
    """(IRS response toward AP, AP response toward IRS) from the geometry."""
    u_irs = float(scenario.ap_pos[0] - scenario.irs_pos[0]) / scenario.ap_irs_distance
    u_ap = float(scenario.irs_pos[0] - scenario.ap_pos[0]) / scenario.ap_irs_distance
    return (ula_response(scenario.n_irs_elements, u_irs),
            ula_response(scenario.n_antennas, u_ap))


@dataclass(frozen=True)
class ChannelDraw:
    """One realization of both robot links plus the fixed IRS-AP structure.

    ``fading_irs`` / ``fading_direct`` are the unscaled unit-variance fading
    vectors; the physical channels (path loss applied) are exposed as
    properties. ``gamma`` = sqrt(ref_gain) / d_irs_ap is the rank-one IRS-AP
    amplitude.
    """

    fading_irs: Array        # (M,) complex, robot -> IRS
    fading_direct: Array     # (N,) complex, robot -> AP
    irs_response: Array      # (M,) complex, unit norm
    ap_response: Array       # (N,) complex, unit norm
    gamma: float
    ref_gain: float
    d_ap: float
    d_irs: float
    exp_ap: float
    exp_irs: float

    def __post_init__(self):
        for name in ("fading_irs", "fading_direct", "irs_response", "ap_response"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=complex))
        if not (np.all(np.isfinite(self.fading_irs.view(float)))
                and np.all(np.isfinite(self.fading_direct.view(float)))):
            raise ValueError("fading vectors must be finite")
        for name in ("irs_response", "ap_response"):
            vec = getattr(self, name)
            if vec.size and abs(np.linalg.norm(vec) - 1.0) > 1e-12:
                raise ValueError(f"{name} must have unit norm")

    @property
    def n_irs_elements(self) -> int:
        return self.fading_irs.size

    @property
    def n_antennas(self) -> int:
        return self.fading_direct.size

    @property
    def path_gain_irs(self) -> float:
        """Amplitude scale sqrt(ref_gain * d_irs^-exp) of the robot-IRS link."""
        return math.sqrt(self.ref_gain * self.d_irs ** (-self.exp_irs))

    @property
    def path_gain_direct(self) -> float:
        return math.sqrt(self.ref_gain * self.d_ap ** (-self.exp_ap))

    @property
    def h_irs(self) -> Array:
        """Scaled robot-IRS channel vector."""
        return self.path_gain_irs * self.fading_irs

    @property
    def h_direct(self) -> Array:
        """Scaled robot-AP channel vector."""
        return self.path_gain_direct * self.fading_direct

    def irs_ap_matrix(self) -> Array:
        """Rank-one IRS-AP channel sqrt(NM) * gamma * a b^T, shape (M, N)."""
        m, n = self.n_irs_elements, self.n_antennas
        return (math.sqrt(m * n) * self.gamma
                * np.outer(self.irs_response, self.ap_response))


@dataclass(frozen=True)
class Beamformer:
    """Joint IRS phase configuration and AP combining vector.

    The applied IRS matrix is exp(j*global_phase) * diag(exp(j*phases)); the
    combiner norm never exceeds one.
    """

    phases: Array          # (M,) in [0, 2*pi)
    combiner: Array        # (N,) complex
    global_phase: float

    def __post_init__(self):
        object.__setattr__(self, "phases", np.asarray(self.phases, dtype=float))
        object.__setattr__(self, "combiner", np.asarray(self.combiner, dtype=complex))
        if self.phases.size and (self.phases.min() < 0.0 or self.phases.max() >= 2.0 * math.pi):
            raise ValueError("phases must lie in [0, 2*pi)")
        if np.linalg.norm(self.combiner) > 1.0 + 1e-12:
            raise ValueError("combiner norm must not exceed 1")

    def irs_matrix(self) -> Array:
        return np.exp(1j * self.global_phase) * np.diag(np.exp(1j * self.phases))


def draw_channel(q, scenario: Scenario, link: LinkClass, seed: int) -> ChannelDraw:
    """Draw one channel realization at position q. Identical seeds reproduce bits."""
    fading_irs, fading_direct = _draw_fading(scenario.n_irs_elements, scenario.n_antennas,
                                             1, seed)
    irs_resp, ap_resp = _array_responses(scenario)
    d_ap, d_irs = distances(q, scenario)
    exp_ap, exp_irs = scenario.exponents(link)
    return ChannelDraw(fading_irs=fading_irs[0], fading_direct=fading_direct[0],
                       irs_response=irs_resp, ap_response=ap_resp,
                       gamma=scenario.irs_ap_gain, ref_gain=scenario.ref_gain,
                       d_ap=d_ap, d_irs=d_irs, exp_ap=exp_ap, exp_irs=exp_irs)


def _draw_fading(m: int, n: int, count: int, seed: int) -> tuple:
    """Unit-variance complex Gaussian fading, IRS block drawn before AP block.

    Both blocks come from one draw of the sequential stream, scaled in place
    and read as (re, im) pairs of complex128 without a copy. Multiplying by
    1/sqrt(2) gives the bits numpy's complex-by-real division by sqrt(2)
    gives, since that division multiplies by the reciprocal.
    """
    normals = np.random.default_rng(seed).standard_normal(count * (m + n) * 2)
    normals *= 1.0 / math.sqrt(2.0)
    fading = normals.view(np.complex128)
    return fading[:count * m].reshape(count, m), fading[count * m:].reshape(count, n)


def optimal_beamformer(draw: ChannelDraw) -> Beamformer:
    """Closed-form SNR-maximizing IRS phases, global phase, and AP combiner.

    Element phases cancel the per-element cascade phase; the global IRS
    phase aligns the reflected component with the direct one; the combiner
    is the unit-norm matched filter to the resulting effective channel.
    """
    m = draw.n_irs_elements
    if m:
        g = draw.gamma * np.conj(draw.fading_irs) * draw.irs_response
        phases = np.mod(-np.angle(g), 2.0 * math.pi)
    else:
        phases = np.zeros(0)
    global_phase = float(-np.angle(draw.ap_response @ draw.fading_direct))
    h_eff = _effective_channel(draw, phases, global_phase)
    norm = np.linalg.norm(h_eff)
    if norm == 0.0:
        raise DegenerateChannelError("effective channel is identically zero")
    return Beamformer(phases=phases, combiner=np.conj(h_eff) / norm,
                      global_phase=global_phase)


def _effective_channel(draw: ChannelDraw, phases: Array, global_phase: float) -> Array:
    """Row vector h_irs^H Phi G + h_direct^H as an (N,) array."""
    direct = np.conj(draw.h_direct)
    m = draw.n_irs_elements
    if m == 0:
        return direct
    coupling = np.sum(np.conj(draw.fading_irs) * np.exp(1j * phases) * draw.irs_response)
    n = draw.n_antennas
    reflected = (
        np.exp(1j * global_phase)
        * draw.path_gain_irs
        * math.sqrt(m * n)
        * draw.gamma
        * coupling
        * draw.ap_response
    )
    return reflected + direct


def snr(draw: ChannelDraw, beamformer: Beamformer, scenario: Scenario) -> float:
    """Received SNR |(h_irs^H Phi G + h_direct^H) w|^2 * p_tx / noise."""
    h_eff = _effective_channel(draw, beamformer.phases, beamformer.global_phase)
    return float(abs(h_eff @ beamformer.combiner) ** 2) * scenario.snr_scale


def optimal_snr_closed_form(draw: ChannelDraw, d_ap: float, d_irs: float,
                            scenario: Scenario) -> float:
    """Beamforming-optimal SNR evaluated directly from the draw statistics.

    Equals snr(draw, optimal_beamformer(draw)) when called with the draw's
    own distances; callable at other distances for the same fading state.
    """
    if d_ap <= 0 or d_irs <= 0:
        raise ValueError("distances must be positive")
    l1_irs = float(np.sum(np.abs(draw.fading_irs)))
    coefs = _snr_coefficients(l1_irs**2, l1_irs, abs(draw.ap_response @ draw.fading_direct),
                              float(np.sum(np.abs(draw.fading_direct) ** 2)),
                              draw.n_antennas, draw.ref_gain, draw.gamma)
    return _snr_form(*coefs, draw.exp_irs, draw.exp_ap, d_ap, d_irs, scenario.snr_scale)


def _snr_coefficients(l1_sq, l1, cross, l2sq_direct, n, rho, gamma) -> tuple:
    """The gains (A, B, C) = (N rho gamma^2 l1^2, 2 sqrt(N) rho gamma l1 |a^H h_d|,
    rho ||h_d||^2) of the beamforming-optimal SNR, from the draw statistics
    l1^2, l1 = sum_i |h_i|, |a^H h_d| and ||h_d||^2 (scalars or arrays). The
    grouping of each product is part of the map file: its bits depend on it."""
    return (l1_sq * (n * rho * gamma**2),
            l1 * (2.0 * math.sqrt(n) * rho * gamma) * cross,
            l2sq_direct * rho)


def _snr_form(a_coef, b_coef, c_coef, exp_irs, exp_ap, d_ap, d_irs, snr_scale):
    """(A d_irs^-nu + B d_irs^(-nu/2) d_ap^(-mu/2) + C d_ap^-mu) * snr_scale.

    The form of the beamforming-optimal SNR and of the fitted model, with
    nu = exp_irs and mu = exp_ap. Every argument may be an array; they
    broadcast against each other.
    """
    return (
        a_coef * d_irs ** (-exp_irs)
        + b_coef * d_irs ** (-exp_irs / 2) * d_ap ** (-exp_ap / 2)
        + c_coef * d_ap ** (-exp_ap)
    ) * snr_scale


def optimal_snr_samples(d_ap: float, d_irs: float, scenario: Scenario, link: LinkClass,
                        n_draws: int, seed: int) -> Array:
    """Beamforming-optimal SNR for n_draws channel draws from one seeded stream.

    ``d_ap`` and ``d_irs`` are the 3D distances of the drawn position (see
    ``scenario.distances``). Vectorized over draws; used by the radio-map
    builder, which computes the distances of every cell at once.

    The optimal SNR of a draw depends on its fading only through
    l1 = sum_i |h_i|, |a^H h_d|^2 and ||h_d||^2, so the stream draws
    those: per draw, M + 1 Exp(1) powers (|a^H h_d|^2 first, then each
    |h_i|^2) and, for N > 1, the Gamma(N-1, 1) remainder
    ||h_d||^2 - |a^H h_d|^2, which is independent of the rest
    because a has unit norm. The samples follow the law of
    optimal_snr_closed_form over draw_channel draws, not its draw-by-draw
    values.
    """
    m, n = scenario.n_irs_elements, scenario.n_antennas
    rng = np.random.default_rng(seed)
    powers = rng.standard_exponential(n_draws * (m + 1)).reshape(n_draws, m + 1)
    remainder = rng.standard_gamma(n - 1, n_draws) if n > 1 else 0.0
    l2sq_direct = powers[:, 0] + remainder      # a new array: the sqrt below is in place
    np.sqrt(powers, out=powers)
    cross = powers[:, 0]
    l1_irs = np.sum(powers[:, 1:], axis=1)
    exp_ap, exp_irs = scenario.exponents(link)
    coefs = _snr_coefficients(np.square(l1_irs), l1_irs, cross, l2sq_direct, n,
                              scenario.ref_gain, scenario.irs_ap_gain)
    return _snr_form(*coefs, exp_irs, exp_ap, d_ap, d_irs, scenario.snr_scale)


def expected_snr(points, scenario: Scenario, ap_los, irs_los) -> Array:
    """Exact ensemble mean of the optimal SNR at each of the (n, 2) points.

    ``ap_los`` and ``irs_los`` give each point's visibility class, as
    length-n boolean arrays or as scalars shared by all points.

    Each gain of optimal_snr_closed_form is linear in one draw statistic or in
    the product of two independent ones. So the mean is the fitted model's form
    with the class's nominal exponents and the gains of the four means E[l1^2] =
    M + M(M-1) pi/4, E[l1] = M sqrt(pi)/2, E|a^H h_d| = sqrt(pi)/2 and
    E||h_d||^2 = N: A = N rho gamma^2 (M + M(M-1) pi/4), B = sqrt(N) rho gamma M pi/2
    and C = rho N.
    """
    m, n = scenario.n_irs_elements, scenario.n_antennas
    half_sqrt_pi = math.sqrt(math.pi) / 2
    coefs = _snr_coefficients(m + m * (m - 1) * math.pi / 4, m * half_sqrt_pi, half_sqrt_pi,
                              n, n, scenario.ref_gain, scenario.irs_ap_gain)
    d_ap, d_irs = distances(np.atleast_2d(points), scenario)
    exp_ap, exp_irs = scenario.exponents(LinkClass(ap_los, irs_los))
    return _snr_form(*coefs, exp_irs, exp_ap, d_ap, d_irs, scenario.snr_scale)
