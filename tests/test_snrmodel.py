import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from irsplan import audit
from irsplan.channel import expected_snr
from irsplan.errors import FileFormatError, FitFailureError, UnsupportedVersionError
from irsplan.radiomap import RadioMap, build_map
from irsplan.scenario import (ALL_LINK_CLASSES, LinkClass, distances, los_class_batch,
                              scenario_overrides)
from irsplan.snrmodel import (MIN_CLASS_CELLS, ClassFit, RateLinearization, SnrModel, fit,
                              linearize_rate, load_model, rate, rate_gradient, _fit_class,
                              save_model, slot_rate, snr_hat)

from conftest import straight_line
from helpers import (rate_app_position_gradient, rate_app_position_hessian, rate_app_value,
                     rate_hessian_distances)

LOS = LinkClass(True, True)


def synthetic_map(scenario, params: ClassFit, nx=40, ny=24, noise_rng=None,
                  n_draws=1) -> RadioMap:
    """Map whose cell values come exactly from known parameters.

    With a noise generator, each cell averages ``n_draws`` multiplicative
    unit-mean exponential weights, mimicking Monte-Carlo fading noise.
    """
    xmin, xmax, ymin, ymax = scenario.workspace
    cell = (xmax - xmin) / nx
    xs = xmin + (np.arange(nx) + 0.5) * cell
    ys = ymin + (np.arange(ny) + 0.5) * cell
    grid = np.stack(np.meshgrid(xs, ys), axis=-1).reshape(-1, 2)
    dz_ap = scenario.z_robot - scenario.z_ap
    dz_irs = scenario.z_robot - scenario.z_irs
    d_ap = np.sqrt(((grid - scenario.ap_pos) ** 2).sum(-1) + dz_ap**2)
    d_irs = np.sqrt(((grid - scenario.irs_pos) ** 2).sum(-1) + dz_irs**2)
    values = (params.gain_irs * d_irs ** (-params.exp_irs)
              + params.gain_cross * d_irs ** (-params.exp_irs / 2)
              * d_ap ** (-params.exp_ap / 2)
              + params.gain_direct * d_ap ** (-params.exp_ap)) * scenario.snr_scale
    if noise_rng is not None:
        weights = noise_rng.exponential(1.0, size=(len(values), n_draws)).mean(axis=1)
        values = values * weights
    return RadioMap(
        nx=nx, ny=ny, cell_size=cell, origin=(xmin, ymin),
        avg_snr=values.reshape(ny, nx),
        n_draws=np.full((ny, nx), n_draws, dtype=np.int64),
        ap_los=np.ones((ny, nx), dtype=bool), irs_los=np.ones((ny, nx), dtype=bool),
        scenario_hash="synthetic", seed=0,
    )


# ---------------------------------------------------------------------------
# model evaluation


def test_direct_only_model_is_pure_power_law(empty_scenario, toy_model):
    only_c = SnrModel(fits={l: ClassFit(0.0, 0.0, 1.9, 2.0, 2.0)
                            for l in ALL_LINK_CLASSES})
    s1 = snr_hat(only_c, LOS, 10.0, 7.0, empty_scenario)
    assert s1 == pytest.approx(1.9 * 10.0**-2 * empty_scenario.snr_scale, rel=1e-12)
    # doubling the AP distance with exponent 2 divides the SNR by four
    assert snr_hat(only_c, LOS, 20.0, 7.0, empty_scenario) == pytest.approx(
        s1 / 4, rel=1e-12
    )


def test_nonpositive_distance_rejected(empty_scenario, toy_model):
    with pytest.raises(ValueError):
        snr_hat(toy_model, LOS, 0.0, 5.0, empty_scenario)


def test_rate_of_zero_snr_is_zero(empty_scenario):
    dead = SnrModel(fits={l: ClassFit(0.0, 0.0, 0.0, 2.0, 2.0)
                          for l in ALL_LINK_CLASSES})
    traj = straight_line(empty_scenario)
    assert rate(dead, traj, empty_scenario) == 0.0


def test_constant_snr_1023_gives_two_gbps(empty_scenario):
    # exponents zero make the model distance-free: snr == 1023 everywhere,
    # so the average rate is exactly 200 MHz * log2(1024) = 2 Gbps
    const = SnrModel(fits={
        l: ClassFit(0.0, 0.0, 1023.0 / empty_scenario.snr_scale, 0.0, 0.0)
        for l in ALL_LINK_CLASSES
    })
    traj = straight_line(empty_scenario)
    assert rate(const, traj, empty_scenario) == pytest.approx(2e9, rel=1e-14)


def test_rate_matches_independent_per_slot_summation(empty_scenario, toy_model):
    traj = straight_line(empty_scenario)
    total = 0.0
    for q in traj:   # scalar re-evaluation oracle
        d_ap, d_irs = distances(q, empty_scenario)
        cf = toy_model.fit_for(LOS)
        s = (cf.gain_irs * d_irs**-cf.exp_irs
             + cf.gain_cross * d_irs**(-cf.exp_irs / 2) * d_ap**(-cf.exp_ap / 2)
             + cf.gain_direct * d_ap**-cf.exp_ap) * empty_scenario.snr_scale
        total += empty_scenario.bandwidth_hz * math.log2(1 + s)
    assert rate(toy_model, traj, empty_scenario) == pytest.approx(
        total / len(traj), rel=1e-12
    )


# ---------------------------------------------------------------------------
# derivatives


def test_gradient_matches_finite_differences(empty_scenario, toy_model):
    rng = np.random.default_rng(0)
    h = 1e-5
    for _ in range(50):
        d_ap, d_irs = rng.uniform(2.0, 60.0, size=2)
        g = rate_gradient(toy_model, LOS, d_ap, d_irs, empty_scenario)
        fd = np.array([
            (slot_rate(toy_model, LOS, d_ap + h, d_irs, empty_scenario)
             - slot_rate(toy_model, LOS, d_ap - h, d_irs, empty_scenario)) / (2 * h),
            (slot_rate(toy_model, LOS, d_ap, d_irs + h, empty_scenario)
             - slot_rate(toy_model, LOS, d_ap, d_irs - h, empty_scenario)) / (2 * h),
        ])
        assert np.all(np.abs(g - fd) <= 1e-4 * np.abs(fd))
        assert np.all(g < 0)


def test_gradient_has_no_irs_term_without_irs_gains(empty_scenario):
    only_c = SnrModel(fits={l: ClassFit(0.0, 0.0, 1.9, 2.0, 2.0)
                            for l in ALL_LINK_CLASSES})
    g = rate_gradient(only_c, LOS, 11.0, 9.0, empty_scenario)
    assert g[1] == 0.0 and g[0] < 0.0


def test_hessian_matches_finite_differences_and_is_positive_definite(
        empty_scenario, toy_model):
    rng = np.random.default_rng(1)
    h = 1e-4
    for _ in range(50):
        d_ap, d_irs = rng.uniform(2.0, 60.0, size=2)
        hess = rate_hessian_distances(toy_model, LOS, d_ap, d_irs, empty_scenario)
        assert hess[0, 1] == hess[1, 0]
        fd = np.zeros((2, 2))
        for i, delta in enumerate((np.array([h, 0.0]), np.array([0.0, h]))):
            gp = rate_gradient(toy_model, LOS, d_ap + delta[0], d_irs + delta[1],
                               empty_scenario)
            gm = rate_gradient(toy_model, LOS, d_ap - delta[0], d_irs - delta[1],
                               empty_scenario)
            fd[:, i] = (gp - gm) / (2 * h)
        scale = np.abs(fd).max()
        assert np.all(np.abs(hess - 0.5 * (fd + fd.T)) <= 1e-3 * scale)
        assert np.linalg.eigvalsh(hess).min() > 0


def test_cross_term_free_hessian_offdiagonal_is_gradient_product(empty_scenario):
    # without the cross gain, the mixed partial keeps only the product of the
    # two first derivatives (scaled by -ln2 / bandwidth)
    no_b = SnrModel(fits={l: ClassFit(2.3, 0.0, 1.9, 2.1, 2.4)
                          for l in ALL_LINK_CLASSES})
    d_ap, d_irs = 13.0, 9.0
    hess = rate_hessian_distances(no_b, LOS, d_ap, d_irs, empty_scenario)
    g = rate_gradient(no_b, LOS, d_ap, d_irs, empty_scenario)
    expected = -math.log(2.0) / empty_scenario.bandwidth_hz * g[0] * g[1]
    assert hess[0, 1] == pytest.approx(expected, rel=1e-12)


# ---------------------------------------------------------------------------
# linearization


def test_linearization_exact_at_anchor(empty_scenario, toy_model):
    anchor = np.array([[20.0, 12.0]])
    lin = linearize_rate(toy_model, anchor, empty_scenario)
    d_ap, d_irs = distances(anchor[0], empty_scenario)
    assert rate_app_value(lin, anchor, empty_scenario)[0] == pytest.approx(
        float(slot_rate(toy_model, LOS, d_ap, d_irs, empty_scenario)), rel=1e-14
    )


def test_linearization_is_global_underestimator(empty_scenario, toy_model):
    rng = np.random.default_rng(2)
    lin = linearize_rate(toy_model, np.array([[20.0, 12.0]]), empty_scenario)
    for _ in range(100):
        q = rng.uniform([0, 0], [50, 30])
        d_ap, d_irs = distances(q, empty_scenario)
        true = float(slot_rate(toy_model, LOS, d_ap, d_irs, empty_scenario))
        assert rate_app_value(lin, q[None], empty_scenario)[0] <= true * (1 + 1e-9)


def test_position_gradient_matches_finite_differences(empty_scenario, toy_model):
    lin = linearize_rate(toy_model, np.array([[20.0, 12.0]]), empty_scenario)
    rng = np.random.default_rng(3)
    h = 1e-6
    for _ in range(20):
        q = rng.uniform([2, 2], [48, 28])[None]
        g = rate_app_position_gradient(lin, q, empty_scenario)[0]
        fd = np.array([
            (rate_app_value(lin, q + [h, 0], empty_scenario)[0]
             - rate_app_value(lin, q - [h, 0], empty_scenario)[0]) / (2 * h),
            (rate_app_value(lin, q + [0, h], empty_scenario)[0]
             - rate_app_value(lin, q - [0, h], empty_scenario)[0]) / (2 * h),
        ])
        assert np.all(np.abs(g - fd) <= 1e-6 * np.maximum(np.abs(fd), 1.0))


def test_position_hessian_negative_definite(empty_scenario, toy_model):
    rng = np.random.default_rng(4)
    for _ in range(50):
        anchor = rng.uniform([2, 2], [48, 28])
        lin = linearize_rate(toy_model, anchor[None, :], empty_scenario)
        q = rng.uniform([2, 2], [48, 28])
        hess = rate_app_position_hessian(lin, q[None], empty_scenario)[0]
        eig = np.linalg.eigvalsh(hess)
        assert eig.max() < 0
        # leading principal minors alternate: H00 < 0, det > 0
        assert hess[0, 0] < 0 and np.linalg.det(hess) > 0


# ---------------------------------------------------------------------------
# fitting


def test_fit_recovers_known_parameters_exactly(empty_scenario):
    truth = ClassFit(1e-3, 1e-4, 1e-3, 2.0, 2.0)
    built = synthetic_map(empty_scenario, truth)
    model = fit(built, empty_scenario)
    got = model.fit_for(LOS)
    for name in ("gain_irs", "gain_cross", "gain_direct", "exp_irs", "exp_ap"):
        assert getattr(got, name) == pytest.approx(getattr(truth, name), rel=0.01)


def test_fit_drives_absent_cross_term_to_zero(empty_scenario):
    truth = ClassFit(1e-3, 0.0, 1e-3, 2.0, 2.0)
    model = fit(synthetic_map(empty_scenario, truth), empty_scenario)
    got = model.fit_for(LOS)
    assert got.gain_cross <= 1e-6 * got.gain_irs


def test_all_zero_map_yields_zero_gains(empty_scenario):
    built = synthetic_map(empty_scenario, ClassFit(0.0, 0.0, 0.0, 2.0, 2.0))
    model = fit(built, empty_scenario)
    got = model.fit_for(LOS)
    assert got.gain_irs == got.gain_cross == got.gain_direct == 0.0


def test_sparse_classes_inherit_nearest_fit(small_map, desk_scenario, caplog):
    # force a map where only the doubly-LOS class is populated
    uniform = RadioMap(
        nx=small_map.nx, ny=small_map.ny, cell_size=small_map.cell_size,
        origin=small_map.origin, avg_snr=small_map.avg_snr,
        n_draws=small_map.n_draws,
        ap_los=np.ones_like(small_map.ap_los), irs_los=np.ones_like(small_map.irs_los),
        scenario_hash=small_map.scenario_hash, seed=small_map.seed,
    )
    with caplog.at_level("WARNING"):
        model = fit(uniform, desk_scenario)
    donor = model.fit_for(LinkClass(True, True))
    for link in ALL_LINK_CLASSES:
        cf = model.fit_for(link)
        assert cf.as_tuple() == donor.as_tuple()
        if link != LinkClass(True, True):
            assert cf.inherited_from == LinkClass(True, True).label()


def test_fitted_model_tracks_map_cell_within_residual_band(
        small_map, fitted_model, desk_scenario):
    xs, ys = small_map.cell_centers()
    ix = int(np.argmin(np.abs(xs - 25.0)))
    iy = int(np.argmin(np.abs(ys - 15.0)))
    link = LinkClass(bool(small_map.ap_los[iy, ix]), bool(small_map.irs_los[iy, ix]))
    cf = fitted_model.fit_for(link)
    d_ap = math.hypot(np.hypot(xs[ix] - 25.0, ys[iy] - 30.0), 4.5)
    d_irs = math.hypot(np.hypot(xs[ix] - 25.0, ys[iy] - 0.0), 2.0)
    predicted = snr_hat(fitted_model, link, d_ap, d_irs, desk_scenario)
    observed = small_map.avg_snr[iy, ix]
    log_err = abs(math.log1p(predicted) - math.log1p(observed))
    assert log_err <= 4 * max(cf.residual_rms, 1e-6)


def test_tiny_desk_map_fits_its_most_populated_class_only(desk_scenario, caplog):
    # no class of a 5x3 map has MIN_CLASS_CELLS cells
    tiny = build_map(desk_scenario, nx=5, ny=3, draws_per_cell=5, seed=4)
    counts = {link: int(np.sum((tiny.ap_los == link.ap_los) & (tiny.irs_los == link.irs_los)))
              for link in ALL_LINK_CLASSES}
    assert max(counts.values()) < MIN_CLASS_CELLS
    with caplog.at_level("WARNING"):
        model = fit(tiny, desk_scenario)
    donor = LinkClass(True, True)
    assert max(counts, key=counts.get) == donor
    assert model.fit_for(donor).inherited_from is None
    inheriting = [link for link in ALL_LINK_CLASSES if link != donor]
    for link in inheriting:
        cf = model.fit_for(link)
        assert cf.as_tuple() == model.fit_for(donor).as_tuple()
        assert (cf.inherited_from, cf.n_cells) == (donor.label(), counts[link])
    assert [r.getMessage() for r in caplog.records] == [
        f"class {link.label()} has {counts[link]} cells (< {MIN_CLASS_CELLS}); "
        f"inheriting fit from {donor.label()}" for link in inheriting]


@pytest.mark.parametrize("populated,donors", [
    ([(True, True), (False, False)], {(True, False): (True, True), (False, True): (False, False)}),
    ([(True, True), (True, False)], {(False, True): (True, True), (False, False): (True, False)})],
    ids=["irs-flip-first", "then-ap-flip"])
def test_sparse_class_inherits_in_flip_order(empty_scenario, populated, donors):
    built = synthetic_map(empty_scenario, ClassFit(1e-3, 1e-3, 1e-3, 2.0, 2.0))
    labels = [*donors] * 5 + populated * ((built.nx * built.ny - 5 * len(donors)) // 2)
    ap_los, irs_los = np.array(labels).T.reshape(2, built.ny, built.nx)
    model = fit(replace(built, ap_los=ap_los, irs_los=irs_los), empty_scenario)
    for link in populated:
        assert model.fit_for(LinkClass(*link)).inherited_from is None
    for link, donor in donors.items():
        cf = model.fit_for(LinkClass(*link))
        assert (cf.inherited_from, cf.n_cells) == (LinkClass(*donor).label(), 5)


def test_fit_with_monte_carlo_noise_recovers_within_ten_percent(empty_scenario):
    # balanced gains keep every parameter statistically identifiable at the
    # 200-draw noise level; a vanishing cross gain cannot be pinned to 10%
    # by any estimator on this workspace
    truth = ClassFit(1e-3, 1e-3, 1e-3, 2.0, 2.0)
    rng = np.random.default_rng(5)
    built = synthetic_map(empty_scenario, truth, nx=100, ny=60, noise_rng=rng,
                          n_draws=200)
    model = fit(built, empty_scenario)
    got = model.fit_for(LOS)
    for name in ("gain_irs", "gain_cross", "gain_direct", "exp_irs", "exp_ap"):
        assert getattr(got, name) == pytest.approx(getattr(truth, name), rel=0.10)


@pytest.mark.parametrize("m", [0, 16, 64])
@pytest.mark.parametrize("link", ALL_LINK_CLASSES,
                         ids=lambda link: link.label().replace(" ", "-"))
def test_fit_recovers_the_exact_expected_snr_parameters(desk_scenario, link, m):
    # the physics ground truth: an exact-mean desk map at the published scale
    sc = scenario_overrides(desk_scenario, n_irs_elements=m)
    xmin, xmax, ymin, ymax = sc.workspace
    nx, ny = 100, 60
    cell = (xmax - xmin) / nx
    xs = xmin + (np.arange(nx) + 0.5) * cell
    ys = ymin + (np.arange(ny) + 0.5) * cell
    grid = np.stack(np.meshgrid(xs, ys), axis=-1).reshape(-1, 2)
    ap_los, irs_los = los_class_batch(grid, sc)
    exact = RadioMap(
        nx=nx, ny=ny, cell_size=cell, origin=(xmin, ymin),
        avg_snr=expected_snr(grid, sc, ap_los, irs_los).reshape(ny, nx),
        n_draws=np.ones((ny, nx), dtype=np.int64),
        ap_los=ap_los.reshape(ny, nx), irs_los=irs_los.reshape(ny, nx),
        scenario_hash=sc.channel_fingerprint(), seed=0,
    )
    m, n, rho, gamma = sc.n_irs_elements, sc.n_antennas, sc.ref_gain, sc.irs_ap_gain
    exp_ap, exp_irs = sc.exponents(link)
    truth = (n * rho * gamma**2 * (m + m * (m - 1) * math.pi / 4),
             math.sqrt(n) * rho * gamma * m * math.pi / 2,
             rho * n, exp_irs, exp_ap)
    got = fit(exact, sc).fit_for(link)
    assert got.inherited_from is None
    assert got.as_tuple() == pytest.approx(truth, rel=1e-9)


def test_seed_332_desk_map_fits_every_class(desk_scenario):
    # its ap=NLOS irs=LOS class sits on a (gain_cross, exp_ap) ridge that once
    # ran the fit into its iteration cap
    built = build_map(desk_scenario, nx=100, ny=60, draws_per_cell=200, seed=332)
    model = fit(built, desk_scenario)
    for link in ALL_LINK_CLASSES:
        got = model.fit_for(link)
        assert got.inherited_from is None and got.n_cells >= MIN_CLASS_CELLS
        assert math.isfinite(got.residual_rms)


# ---------------------------------------------------------------------------
# persistence


def test_model_round_trip(fitted_model, tmp_path):
    path = tmp_path / "model.txt"
    save_model(fitted_model, path)
    again = load_model(path)
    assert again.scenario_hash == fitted_model.scenario_hash
    for link in ALL_LINK_CLASSES:
        assert again.fit_for(link) == fitted_model.fit_for(link)


def test_model_version_mismatch(fitted_model, tmp_path):
    path = tmp_path / "model.txt"
    save_model(fitted_model, path)
    text = path.read_text().replace("irsplan-snrmodel v1", "irsplan-snrmodel v3", 1)
    (tmp_path / "v3.txt").write_text(text)
    with pytest.raises(UnsupportedVersionError):
        load_model(tmp_path / "v3.txt")


def test_model_missing_class_block_rejected(fitted_model, tmp_path):
    path = tmp_path / "model.txt"
    save_model(fitted_model, path)
    lines = path.read_text().splitlines()
    head = lines[:2] + lines[2:11]   # keep only the first class block
    (tmp_path / "partial.txt").write_text("\n".join(head) + "\n")
    with pytest.raises(FileFormatError, match="missing class"):
        load_model(tmp_path / "partial.txt")


def test_model_header_token_without_equals_is_a_format_error(fitted_model, tmp_path):
    path = tmp_path / "model.txt"
    save_model(fitted_model, path)
    lines = path.read_text().splitlines()
    lines[1] += " stray"
    (tmp_path / "bad.txt").write_text("\n".join(lines) + "\n")
    with pytest.raises(FileFormatError) as err:
        load_model(tmp_path / "bad.txt")
    assert (err.value.line, err.value.field) == (2, "stray")


@pytest.mark.parametrize("tag,message", [
    ("[class ap=NLSO irs=LOS]", "unknown class tag"),
    ("[class ap=LOS irs=NLOS]", "repeated class block")],
    ids=["misspelt", "repeated"])
def test_model_class_tag_must_be_known_and_new(fitted_model, tmp_path, tag, message):
    path = tmp_path / "model.txt"
    save_model(fitted_model, path)
    lines = path.read_text().splitlines()
    lineno = lines.index("[class ap=NLOS irs=LOS]") + 1     # the third block
    lines[lineno - 1] = tag
    (tmp_path / "bad.txt").write_text("\n".join(lines) + "\n")
    with pytest.raises(FileFormatError, match=message) as err:
        load_model(tmp_path / "bad.txt")
    assert (err.value.line, err.value.field) == (lineno, tag)


def test_model_header_fit_mode_is_not_read(fitted_model, tmp_path):
    path = tmp_path / "model.txt"
    save_model(fitted_model, path)
    assert path.read_text().splitlines()[1].endswith(" fit_mode=per_class")
    (tmp_path / "global.txt").write_text(
        path.read_text().replace("fit_mode=per_class", "fit_mode=global", 1))
    assert load_model(tmp_path / "global.txt") == load_model(path)


@pytest.mark.parametrize("index,extra,line,field", [
    (4, None, 5, "gain_irs"),
    (4, "bogus = 1", 3, "[class ap=LOS irs=LOS]"),
    (2, "gain_irs = 1.0", 3, "gain_irs")],
    ids=["repeated-field", "unknown-field", "field-before-first-tag"])
def test_model_class_block_holds_exactly_its_fields(fitted_model, tmp_path, index, extra,
                                                     line, field):
    path = tmp_path / "model.txt"
    save_model(fitted_model, path)
    lines = path.read_text().splitlines()
    assert lines[2] == "[class ap=LOS irs=LOS]" and lines[3].startswith("gain_irs = ")
    lines.insert(index, extra or lines[index - 1])      # None: repeat the line above
    (tmp_path / "bad.txt").write_text("\n".join(lines) + "\n")
    with pytest.raises(FileFormatError) as err:
        load_model(tmp_path / "bad.txt")
    assert (err.value.line, err.value.field) == (line, field)


def _assert_rejected_at_its_line(model, tmp_path, name, value):
    """load_model on ``model`` saved with its first ``name`` line set to
    ``value`` raises FileFormatError naming that line and field."""
    path = tmp_path / "model.txt"
    save_model(model, path)
    lines = path.read_text().splitlines()
    lineno = next(i for i, line in enumerate(lines, start=1)
                  if line.startswith(f"{name} = "))
    lines[lineno - 1] = f"{name} = {value}"
    (tmp_path / "bad.txt").write_text("\n".join(lines) + "\n")
    with pytest.raises(FileFormatError) as err:
        load_model(tmp_path / "bad.txt")
    assert (err.value.line, err.value.field) == (lineno, name)


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_model_non_finite_parameter_is_a_format_error(fitted_model, tmp_path, value):
    _assert_rejected_at_its_line(fitted_model, tmp_path, "gain_irs", value)


@pytest.mark.parametrize("name,value", [("n_cells", "-3"), ("residual_rms", "nan"),
                                        ("residual_rms", "-1.0")])
def test_model_bad_fit_statistic_is_a_format_error(fitted_model, tmp_path, name, value):
    _assert_rejected_at_its_line(fitted_model, tmp_path, name, value)


@pytest.mark.parametrize("name,value", [("n_cells", -3), ("residual_rms", math.nan),
                                        ("residual_rms", math.inf), ("residual_rms", -1.0)])
def test_class_fit_rejects_a_bad_fit_statistic(name, value):
    with pytest.raises(ValueError, match=f"{name} must be finite and nonnegative"):
        ClassFit(1.0, 1.0, 1.0, 2.0, 2.0, **{name: value})


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("name", ["gain_irs", "gain_cross", "gain_direct", "exp_irs", "exp_ap"])
def test_class_fit_rejects_a_non_finite_parameter(name, value):
    params = dict(gain_irs=1.0, gain_cross=1.0, gain_direct=1.0, exp_irs=2.0, exp_ap=2.0)
    params[name] = value
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        ClassFit(**params)


def test_fit_whose_gains_overflow_is_a_fit_failure(desk_scenario):
    # cells near the float limit 1e8 m away: a gain overflows to inf
    rng = np.random.default_rng(0)
    d_ap, d_irs = rng.uniform(1e8, 2e8, (2, 50))
    values = rng.uniform(5e299, 1e300, 50)
    with np.errstate(all="ignore"), pytest.raises(FitFailureError, match="must be finite"):
        _fit_class(d_ap, d_irs, values, LOS, desk_scenario)


# ---------------------------------------------------------------------------
# the vectorized rate against the scalar audit, beyond the desk seed paths

_fit_params = st.tuples(*[st.floats(0.0, 10.0)] * 3, *[st.floats(0.0, 6.0)] * 2)


@settings(derandomize=True, max_examples=50, deadline=None)
@given(points=st.lists(st.tuples(st.floats(0.0, 50.0), st.floats(0.0, 30.0)),
                       min_size=31, max_size=31),
       params=st.lists(_fit_params, min_size=4, max_size=4))
def test_vectorized_rate_matches_the_scalar_audit(desk_scenario, points, params):
    traj = np.array(points)
    assert len(traj) == desk_scenario.n_slots + 1
    model = SnrModel(fits={link: ClassFit(*p) for link, p in zip(ALL_LINK_CLASSES, params)})
    planner = rate(model, traj, desk_scenario)
    audited = audit.check_p3(traj, desk_scenario, model).avg_rate
    assert planner == pytest.approx(audited, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("grad,message", [
    (np.zeros((3, 3)), "one gradient 2-vector per slot"),
    (np.zeros(2), "one gradient 2-vector per slot"),
    ([[0.0, -1.0], [2e-12, -1.0]], "nonpositive"),
], ids=["three-columns", "one-vector", "positive-entry"])
def test_rate_linearization_rejects_a_bad_gradient(grad, message):
    n = len(np.atleast_2d(grad))
    with pytest.raises(ValueError, match=message):
        RateLinearization(d_ap0=np.ones(n), d_irs0=np.ones(n), value=np.ones(n), grad=grad)
