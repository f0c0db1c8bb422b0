import itertools
import math

import numpy as np
import pytest

from scipy.stats import ks_2samp

from irsplan.channel import (Beamformer, ChannelDraw, _draw_fading, _effective_channel,
                             draw_channel, expected_snr, optimal_beamformer,
                             optimal_snr_closed_form, optimal_snr_samples, snr, ula_response)
from irsplan.errors import DegenerateChannelError
from irsplan.scenario import ALL_LINK_CLASSES, LinkClass, distances, scenario_overrides

LOS = LinkClass(True, True)


def small_array_scenario(empty_scenario, m=2, n=2):
    return scenario_overrides(empty_scenario, n_irs_elements=m, n_antennas=n)


def test_same_seed_is_bit_identical(empty_scenario):
    a = draw_channel([20.0, 12.0], empty_scenario, LOS, seed=123)
    b = draw_channel([20.0, 12.0], empty_scenario, LOS, seed=123)
    assert np.array_equal(a.fading_irs, b.fading_irs)
    assert np.array_equal(a.fading_direct, b.fading_direct)
    assert snr(a, optimal_beamformer(a), empty_scenario) == snr(
        b, optimal_beamformer(b), empty_scenario
    )


def test_array_responses_are_unit_norm(empty_scenario):
    d = draw_channel([20.0, 12.0], empty_scenario, LOS, seed=5)
    assert np.linalg.norm(d.irs_response) == pytest.approx(1.0, abs=1e-12)
    assert np.linalg.norm(d.ap_response) == pytest.approx(1.0, abs=1e-12)
    assert np.all(np.abs(np.abs(d.irs_response) - 1 / math.sqrt(64)) < 1e-12)


def test_no_irs_reduces_to_maximum_ratio_combining(empty_scenario):
    sc = scenario_overrides(empty_scenario, n_irs_elements=0)
    d = draw_channel([20.0, 12.0], sc, LOS, seed=9)
    assert d.fading_irs.size == 0
    bf = optimal_beamformer(d)
    mrc = d.fading_direct / np.linalg.norm(d.fading_direct)
    assert np.allclose(bf.combiner, mrc, atol=1e-12)
    # SNR reduces to the direct term rho * d^-mu * ||h~||^2 * p/sigma^2
    expected = (sc.ref_gain * d.d_ap ** (-2.0)
                * float(np.sum(np.abs(d.fading_direct) ** 2)) * sc.snr_scale)
    assert snr(d, bf, sc) == pytest.approx(expected, rel=1e-12)
    assert optimal_snr_closed_form(d, d.d_ap, d.d_irs, sc) == pytest.approx(
        expected, rel=1e-12
    )


def test_fading_is_unit_variance(empty_scenario):
    # law of large numbers: mean ||h~_d||^2 / N over 10k draws -> 1.0 +- 0.05
    sc = scenario_overrides(empty_scenario, n_irs_elements=0, n_antennas=4)
    samples = optimal_snr_samples(*distances([25.0, 15.0], sc), sc, LOS, n_draws=10_000,
                                  seed=1)
    d = draw_channel([25.0, 15.0], sc, LOS, seed=1)
    per_unit = sc.ref_gain * d.d_ap ** (-2.0) * sc.snr_scale
    mean_h2_over_n = float(np.mean(samples)) / per_unit / sc.n_antennas
    assert abs(mean_h2_over_n - 1.0) < 0.05


def test_closed_form_matches_beamformed_snr(empty_scenario):
    for seed in range(10):
        d = draw_channel([18.0, 9.0], empty_scenario, LinkClass(True, False), seed=seed)
        via_bf = snr(d, optimal_beamformer(d), empty_scenario)
        closed = optimal_snr_closed_form(d, d.d_ap, d.d_irs, empty_scenario)
        assert via_bf == pytest.approx(closed, rel=1e-9)


def test_beamformer_beats_exhaustive_phase_grid(empty_scenario):
    sc = small_array_scenario(empty_scenario, m=2, n=1)
    levels = np.arange(64) * 2 * math.pi / 64
    for seed in (42, 43):
        d = draw_channel([20.0, 12.0], sc, LOS, seed=seed)
        opt = snr(d, optimal_beamformer(d), sc)
        best = 0.0
        for phases in itertools.product(levels, repeat=2):
            bf = Beamformer(phases=np.array(phases),
                            combiner=optimal_beamformer(d).combiner,
                            global_phase=0.0)
            # matched filter for this phase choice: renormalize by hand
            from irsplan.channel import _effective_channel
            h_eff = _effective_channel(d, np.array(phases), 0.0)
            best = max(best, float(np.linalg.norm(h_eff) ** 2) * sc.snr_scale)
        assert opt >= best * (1 - 1e-9)


def test_global_phase_leaves_snr_unchanged(empty_scenario):
    d = draw_channel([20.0, 12.0], empty_scenario, LOS, seed=11)
    bf = optimal_beamformer(d)
    shifted = Beamformer(phases=bf.phases, combiner=bf.combiner,
                         global_phase=bf.global_phase + 1.2345)
    # |.|^2 removes a phase common to the whole effective channel only when
    # the combiner is re-matched; compare effective-channel magnitudes instead
    from irsplan.channel import _effective_channel
    h0 = _effective_channel(d, bf.phases, bf.global_phase)
    h1 = _effective_channel(d, np.mod(bf.phases + 0.777, 2 * math.pi),
                            bf.global_phase - 0.777)
    assert np.linalg.norm(h0) == pytest.approx(np.linalg.norm(h1), rel=1e-12)


def test_zero_transmit_power_gives_zero_snr(empty_scenario):
    sc = scenario_overrides(empty_scenario, tx_power=0.0)
    d = draw_channel([20.0, 12.0], sc, LOS, seed=2)
    assert snr(d, optimal_beamformer(d), sc) == 0.0


def test_snr_is_quadratic_in_combiner(empty_scenario):
    d = draw_channel([20.0, 12.0], empty_scenario, LOS, seed=3)
    bf = optimal_beamformer(d)
    half = Beamformer(phases=bf.phases, combiner=0.5 * bf.combiner,
                      global_phase=bf.global_phase)
    assert snr(d, half, empty_scenario) == pytest.approx(
        0.25 * snr(d, bf, empty_scenario), rel=1e-12
    )


def test_closed_form_monotone_decreasing_in_distances(empty_scenario):
    d = draw_channel([20.0, 12.0], empty_scenario, LOS, seed=4)
    base = optimal_snr_closed_form(d, 10.0, 10.0, empty_scenario)
    assert optimal_snr_closed_form(d, 12.0, 10.0, empty_scenario) < base
    assert optimal_snr_closed_form(d, 10.0, 12.0, empty_scenario) < base


@pytest.mark.parametrize("m,n,count", itertools.product((0, 64), (1, 16), (1, 200)))
def test_fading_stream_is_bitwise_the_reference_formula(m, n, count):
    # the map's per-cell seed stream: any change to these bits changes map.csv
    pair = np.array([1.0, 1j])
    for seed in range(20):
        rng = np.random.default_rng(seed)
        ref_irs = rng.standard_normal((count, m, 2)) @ pair / math.sqrt(2.0)
        ref_direct = rng.standard_normal((count, n, 2)) @ pair / math.sqrt(2.0)
        hr, hd = _draw_fading(m, n, count, seed)
        assert hr.shape == (count, m) and hd.shape == (count, n)
        assert np.array_equal(hr.view(np.float64), ref_irs.view(np.float64))
        assert np.array_equal(hd.view(np.float64), ref_direct.view(np.float64))


def _reference_samples(q, scenario, link, n_draws, seed):
    """The map stream of irsplan-radiomap v1: full fading vectors, complex matmul."""
    m, n = scenario.n_irs_elements, scenario.n_antennas
    pair = np.array([1.0, 1j])
    rng = np.random.default_rng(seed)
    fading_irs = rng.standard_normal((n_draws, m, 2)) @ pair / math.sqrt(2.0)
    fading_direct = rng.standard_normal((n_draws, n, 2)) @ pair / math.sqrt(2.0)
    d_ap, d_irs = distances(q, scenario)
    exp_ap, exp_irs = scenario.exponents(link)
    rho = scenario.ref_gain
    ap_irs = math.hypot(float(np.linalg.norm(scenario.ap_pos - scenario.irs_pos)),
                        scenario.z_ap - scenario.z_irs)
    gamma = math.sqrt(rho) / ap_irs
    u_ap = float(scenario.irs_pos[0] - scenario.ap_pos[0]) / ap_irs
    ap_resp = np.exp(1j * math.pi * np.arange(n) * u_ap) / math.sqrt(n)

    l1_irs = np.sum(np.abs(fading_irs), axis=1)
    cross = np.abs(fading_direct @ ap_resp)
    l2sq_direct = np.sum(np.abs(fading_direct) ** 2, axis=1)
    a_coef = n * rho * gamma**2 * l1_irs**2
    b_coef = 2.0 * math.sqrt(n) * rho * gamma * l1_irs * cross
    c_coef = rho * l2sq_direct
    return (
        a_coef * d_irs ** (-exp_irs)
        + b_coef * d_irs ** (-exp_irs / 2) * d_ap ** (-exp_ap / 2)
        + c_coef * d_ap ** (-exp_ap)
    ) * (scenario.tx_power / scenario.noise_power)


def _v2_reference_samples(q, scenario, link, n_draws, seed):
    """The map stream of irsplan-radiomap v2, step by step."""
    m, n = scenario.n_irs_elements, scenario.n_antennas
    rng = np.random.default_rng(seed)
    powers = rng.standard_exponential(n_draws * (m + 1)).reshape(n_draws, m + 1)
    aligned = powers[:, 0]
    remainder = rng.standard_gamma(n - 1, n_draws) if n > 1 else 0.0
    l1_irs = np.sum(np.sqrt(powers[:, 1:]), axis=1)
    cross = np.sqrt(aligned)
    l2sq_direct = aligned + remainder
    d_ap, d_irs = distances(q, scenario)
    exp_ap, exp_irs = scenario.exponents(link)
    rho = scenario.ref_gain
    ap_irs = math.hypot(float(np.linalg.norm(scenario.ap_pos - scenario.irs_pos)),
                        scenario.z_ap - scenario.z_irs)
    gamma = math.sqrt(rho) / ap_irs

    a_coef = n * rho * gamma**2 * l1_irs**2
    b_coef = 2.0 * math.sqrt(n) * rho * gamma * l1_irs * cross
    c_coef = rho * l2sq_direct
    return (
        a_coef * d_irs ** (-exp_irs)
        + b_coef * d_irs ** (-exp_irs / 2) * d_ap ** (-exp_ap / 2)
        + c_coef * d_ap ** (-exp_ap)
    ) * (scenario.tx_power / scenario.noise_power)


@pytest.mark.parametrize("m,n,n_draws", itertools.product((0, 64), (1, 16), (1, 200)))
def test_snr_samples_are_bitwise_the_reference_formula(empty_scenario, m, n, n_draws):
    # every radio-map cell averages these samples: any bit changed here changes map.csv
    sc = small_array_scenario(empty_scenario, m=m, n=n)
    for link in ALL_LINK_CLASSES:
        for seed in range(10):
            samples = optimal_snr_samples(*distances([17.3, 9.6], sc), sc, link, n_draws, seed)
            ref = _v2_reference_samples([17.3, 9.6], sc, link, n_draws, seed)
            assert samples.shape == (n_draws,)
            assert np.array_equal(samples.view(np.uint64), ref.view(np.uint64))


def test_batch_samples_follow_the_full_fading_law(empty_scenario):
    # the map stream draws three statistics per draw; their law must be the
    # closed-form optimal SNR's over full fading vectors
    for m, n, link in itertools.product((0, 64), (1, 16),
                                        (LinkClass(True, True), LinkClass(False, False))):
        sc = small_array_scenario(empty_scenario, m=m, n=n)
        samples = optimal_snr_samples(*distances([20.0, 12.0], sc), sc, link, 20_000,
                                      seed=77)
        full = _reference_samples([20.0, 12.0], sc, link, 20_000, seed=78)
        assert ks_2samp(samples, full).pvalue > 1e-3, (m, n, link)


@pytest.mark.parametrize("m,link", itertools.product((0, 16, 64), ALL_LINK_CLASSES))
def test_sample_mean_matches_the_exact_expected_snr(empty_scenario, m, link):
    sc = scenario_overrides(empty_scenario, n_irs_elements=m)
    q = np.array([20.0, 12.0])
    samples = optimal_snr_samples(*distances(q, sc), sc, link, 100_000, seed=5)
    exact = expected_snr(q, sc, link.ap_los, link.irs_los)
    assert exact.shape == (1,)
    se = samples.std(ddof=1) / math.sqrt(samples.size)
    assert abs(samples.mean() - exact[0]) <= 4 * se


def test_expected_snr_is_vectorized_over_points_and_classes(desk_scenario):
    points = np.array([[20.0, 12.0], [5.0, 25.0], [33.0, 4.0]])
    ap_los = np.array([True, False, True])
    irs_los = np.array([False, False, True])
    batch = expected_snr(points, desk_scenario, ap_los, irs_los)
    for point, ap, irs, value in zip(points, ap_los, irs_los, batch):
        assert expected_snr(point, desk_scenario, ap, irs)[0] == value


@pytest.mark.parametrize("m", (0, 1, 4, 16))
def test_effective_channel_is_the_explicit_matrix_product(empty_scenario, m):
    # h_irs^H Phi G + h_d^H with G = irs_ap_matrix and Phi = irs_matrix
    sc = small_array_scenario(empty_scenario, m=m, n=4)
    rng = np.random.default_rng(m)
    for seed in range(3):
        draw = draw_channel([20.0, 12.0], sc, LinkClass(True, False), seed=seed)
        phases = rng.uniform(0.0, 2 * math.pi, m)
        global_phase = float(rng.uniform(-math.pi, math.pi))
        phi = Beamformer(phases=phases, combiner=np.zeros(4),
                         global_phase=global_phase).irs_matrix()
        explicit = np.conj(draw.h_irs) @ phi @ draw.irs_ap_matrix() + np.conj(draw.h_direct)
        assert explicit.shape == (4,)
        assert np.allclose(_effective_channel(draw, phases, global_phase), explicit,
                           rtol=1e-12, atol=0.0)


def test_degenerate_all_zero_channel_raises(empty_scenario):
    d = draw_channel([20.0, 12.0], empty_scenario, LOS, seed=5)
    dead = ChannelDraw(
        fading_irs=np.zeros(d.n_irs_elements, dtype=complex),
        fading_direct=np.zeros(d.n_antennas, dtype=complex),
        irs_response=d.irs_response, ap_response=d.ap_response,
        gamma=d.gamma, ref_gain=d.ref_gain, d_ap=d.d_ap, d_irs=d.d_irs,
        exp_ap=d.exp_ap, exp_irs=d.exp_irs,
    )
    with pytest.raises(DegenerateChannelError):
        optimal_beamformer(dead)


def test_nlos_exponent_drives_path_scaling(empty_scenario):
    d_los = draw_channel([20.0, 12.0], empty_scenario, LinkClass(True, True), seed=6)
    d_nlos = draw_channel([20.0, 12.0], empty_scenario, LinkClass(False, True), seed=6)
    assert d_nlos.exp_ap == 4.5 and d_los.exp_ap == 2.0
    assert d_nlos.path_gain_direct < d_los.path_gain_direct


def test_ula_response_degenerate_sizes():
    assert ula_response(0, 0.3).size == 0
    assert ula_response(1, 0.3) == pytest.approx(1.0)
