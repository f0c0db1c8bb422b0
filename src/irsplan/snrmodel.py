"""Parametric SNR-vs-distance model: fitting, rate evaluation, derivatives.

The model form is

    snr_hat(d_ap, d_irs) = (A d_irs^-nu + B d_irs^(-nu/2) d_ap^(-mu/2)
                            + C d_ap^-mu) * p_tx / noise

with five nonnegative parameters per visibility class, fitted to a radio
map by Levenberg-Marquardt on log(1+SNR) residuals. The fit runs on the
five parameters themselves and keeps them nonnegative with an active set;
it starts from linear least squares for the three gains at the class's
nominal exponents.

Rates are Shannon rates over the configured bandwidth; the per-slot rate
is a convex function of the two distances, which yields a global
first-order minorant (the rate linearization consumed by the trajectory
optimizer).

All derivative expressions here are exercised against central finite
differences in the test suite; gradients carry the bandwidth factor so
they are consistent with the bits/s rate values.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace

import numpy as np

from . import textfile
from .channel import _snr_form
from .errors import FileFormatError, FitFailureError
from .radiomap import RadioMap
from .scenario import ALL_LINK_CLASSES, LinkClass, Scenario, distances, los_class_batch

log = logging.getLogger(__name__)

LN2 = math.log(2.0)

# a class is fitted on its own cells when it has this many; sparser classes inherit
MIN_CLASS_CELLS = 20

# a class fit stops once its projected gradient falls to _FIT_GRAD_TOL of its
# starting value, or after _FIT_MAX_ITER accepted steps
_FIT_MAX_ITER = 500
_FIT_GRAD_TOL = 1e-10

# the five model parameters, in ClassFit.as_tuple order
_PARAMS = ("gain_irs", "gain_cross", "gain_direct", "exp_irs", "exp_ap")
_CHECKED = (*_PARAMS, "residual_rms", "n_cells")     # finite and nonnegative


@dataclass(frozen=True)
class ClassFit:
    """Fitted parameters for one (AP, IRS) visibility class."""

    gain_irs: float       # reflected-path gain, A
    gain_cross: float     # cross-term gain, B
    gain_direct: float    # direct-path gain, C
    exp_irs: float        # robot-IRS path-loss exponent, nu
    exp_ap: float         # robot-AP path-loss exponent, mu
    residual_rms: float = 0.0   # RMS of log(1+SNR) fit residuals
    n_cells: int = 0
    inherited_from: str | None = None

    def __post_init__(self):
        for name in _CHECKED:
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be finite and nonnegative, got {value}")

    def as_tuple(self) -> tuple:
        return (self.gain_irs, self.gain_cross, self.gain_direct,
                self.exp_irs, self.exp_ap)


@dataclass(frozen=True)
class SnrModel:
    """Fitted SNR model: one ClassFit for each of the four visibility classes."""

    fits: dict
    scenario_hash: str = ""

    def fit_for(self, link: LinkClass) -> ClassFit:
        return self.fits[link]


@dataclass(frozen=True)
class RateLinearization:
    """First-order expansion of each slot k's rate around fixed distances.

    rate_app_k(d) = value[k] + grad[k] . (d_ap - d_ap0[k], d_irs - d_irs0[k])

    All gradient entries are nonpositive, which makes each rate_app_k concave
    as a function of the planar position (the distances are convex in it).
    """

    d_ap0: np.ndarray         # (n,) expansion distances, meters
    d_irs0: np.ndarray        # (n,)
    value: np.ndarray         # (n,) bits/s at the expansion points
    grad: np.ndarray          # (n, 2) (d/d d_ap, d/d d_irs), bits/s per meter

    def __post_init__(self):
        for name in ("d_ap0", "d_irs0", "value", "grad"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        if self.grad.shape != (len(self.value), 2):
            raise ValueError("need one gradient 2-vector per slot")
        if np.any(self.grad > 1e-12):
            raise ValueError("rate gradient components must be nonpositive")


def _check_distances(d_ap, d_irs):
    if np.any(np.asarray(d_ap) <= 0) or np.any(np.asarray(d_irs) <= 0):
        raise ValueError("distances must be positive")


def _class_params(model: SnrModel, link: LinkClass) -> np.ndarray:
    """(A, B, C, nu, mu) of ``link``, stacked on the first axis.

    A class of two bools gives a (5,) array; a LinkClass of boolean arrays
    gives one parameter set per point, a (5, n) array.
    """
    table = np.array([[model.fit_for(LinkClass(ap, irs)).as_tuple()
                       for irs in (False, True)] for ap in (False, True)])
    params = table[np.asarray(link.ap_los, dtype=np.intp),
                   np.asarray(link.irs_los, dtype=np.intp)]
    return np.moveaxis(params, -1, 0)


def snr_hat(model: SnrModel, link: LinkClass, d_ap, d_irs, scenario: Scenario):
    """Fitted linear SNR at the given 3D distances.

    ``link`` is the class of every point, or a LinkClass of boolean arrays
    that gives the class of each point; ``slot_rate`` and ``rate_gradient``
    take it the same way.
    """
    _check_distances(d_ap, d_irs)
    a, b, c, nu, mu = _class_params(model, link)
    value = _snr_form(a, b, c, nu, mu, np.asarray(d_ap, dtype=float),
                      np.asarray(d_irs, dtype=float), scenario.snr_scale)
    return value if value.shape else float(value)


def slot_rate(model: SnrModel, link: LinkClass, d_ap, d_irs, scenario: Scenario):
    """Shannon rate B_w log2(1 + snr_hat), bits/s."""
    s = snr_hat(model, link, d_ap, d_irs, scenario)
    return scenario.bandwidth_hz * np.log2(1.0 + s)


def rate(model: SnrModel, traj, scenario: Scenario) -> float:
    """Average fitted rate along a trajectory (mean over the K+1 slots), bits/s."""
    traj = np.asarray(traj, dtype=float)
    links = los_class_batch(traj, scenario)
    return float(np.mean(slot_rate(model, links, *distances(traj, scenario), scenario)))


def _term_shapes(nu, mu, d_ap, d_irs) -> tuple:
    """Shapes d_irs^-nu, d_irs^(-nu/2) d_ap^(-mu/2), d_ap^-mu of the A, B, C terms."""
    return d_irs ** (-nu), d_irs ** (-nu / 2) * d_ap ** (-mu / 2), d_ap ** (-mu)


def _snr_terms(params, d_ap, d_irs, snr_scale):
    """Value and first/second partials of the linear SNR w.r.t. (d_ap, d_irs)."""
    a, b, c, nu, mu = params
    ti, tx, ta = _term_shapes(nu, mu, d_ap, d_irs)
    s = (a * ti + b * tx + c * ta) * snr_scale
    s_a = (-mu * c * ta / d_ap - (mu / 2) * b * tx / d_ap) * snr_scale
    s_i = (-nu * a * ti / d_irs - (nu / 2) * b * tx / d_irs) * snr_scale
    s_aa = (mu * (mu + 1) * c * ta / d_ap**2
            + (mu / 2) * (mu / 2 + 1) * b * tx / d_ap**2) * snr_scale
    s_ii = (nu * (nu + 1) * a * ti / d_irs**2
            + (nu / 2) * (nu / 2 + 1) * b * tx / d_irs**2) * snr_scale
    s_ai = ((mu / 2) * (nu / 2) * b * tx / (d_ap * d_irs)) * snr_scale
    return s, s_a, s_i, s_aa, s_ii, s_ai


def rate_gradient(model: SnrModel, link: LinkClass, d_ap, d_irs,
                  scenario: Scenario) -> np.ndarray:
    """(d rate/d d_ap, d rate/d d_irs) in bits/s per meter; both nonpositive.

    Length-n distance arrays give an (n, 2) array, one gradient per point.
    """
    _check_distances(d_ap, d_irs)
    s, s_a, s_i, *_ = _snr_terms(_class_params(model, link), np.asarray(d_ap, dtype=float),
                                 np.asarray(d_irs, dtype=float), scenario.snr_scale)
    f = LN2 * (1.0 + s)
    bw = scenario.bandwidth_hz
    return np.stack([bw * s_a / f, bw * s_i / f], axis=-1)


def rate_hessian_distances(model: SnrModel, link: LinkClass, d_ap: float,
                           d_irs: float, scenario: Scenario) -> np.ndarray:
    """Symmetric 2x2 Hessian of the slot rate w.r.t. (d_ap, d_irs)."""
    _check_distances(d_ap, d_irs)
    s, s_a, s_i, s_aa, s_ii, s_ai = _snr_terms(
        model.fit_for(link).as_tuple(), d_ap, d_irs, scenario.snr_scale
    )
    f = LN2 * (1.0 + s)
    bw = scenario.bandwidth_hz
    h_aa = bw * (s_aa * f - LN2 * s_a * s_a) / f**2
    h_ii = bw * (s_ii * f - LN2 * s_i * s_i) / f**2
    h_ai = bw * (s_ai * f - LN2 * s_a * s_i) / f**2
    return np.array([[h_aa, h_ai], [h_ai, h_ii]])


def linearize_rate(model: SnrModel, expansion_traj, scenario: Scenario) -> RateLinearization:
    """Tangent minorants of every slot's rate, with each class frozen at its waypoint."""
    expansion_traj = np.asarray(expansion_traj, dtype=float)
    links = los_class_batch(expansion_traj, scenario)
    d_ap, d_irs = distances(expansion_traj, scenario)
    return RateLinearization(d_ap0=d_ap, d_irs0=d_irs,
                             value=slot_rate(model, links, d_ap, d_irs, scenario),
                             grad=rate_gradient(model, links, d_ap, d_irs, scenario))


def rate_app_value(lin: RateLinearization, points, scenario: Scenario) -> np.ndarray:
    """Linearized rate of each slot k at points[k] (global under-estimators)."""
    d_ap, d_irs = distances(points, scenario)
    return (lin.value + lin.grad[:, 0] * (d_ap - lin.d_ap0)
            + lin.grad[:, 1] * (d_irs - lin.d_irs0))


def rate_app_position_gradient(lin: RateLinearization, points,
                               scenario: Scenario) -> np.ndarray:
    """(n, 2) gradients of the linearized slot rates w.r.t. the planar positions."""
    points = np.asarray(points, dtype=float)
    d_ap, d_irs = distances(points, scenario)
    return (lin.grad[:, :1] * (points - scenario.ap_pos) / d_ap[:, None]
            + lin.grad[:, 1:] * (points - scenario.irs_pos) / d_irs[:, None])


def rate_app_position_hessian(lin: RateLinearization, points,
                              scenario: Scenario) -> np.ndarray:
    """(n, 2, 2) position Hessians of the linearized slot rates; negative semidefinite."""
    points = np.asarray(points, dtype=float)
    d_ap, d_irs = (d[:, None, None] for d in distances(points, scenario))
    eye = np.eye(2)
    u_ap = points - scenario.ap_pos
    u_irs = points - scenario.irs_pos
    h_ap = (d_ap**2 * eye - u_ap[:, :, None] * u_ap[:, None, :]) / d_ap**3
    h_irs = (d_irs**2 * eye - u_irs[:, :, None] * u_irs[:, None, :]) / d_irs**3
    return lin.grad[:, 0, None, None] * h_ap + lin.grad[:, 1, None, None] * h_irs


# ---------------------------------------------------------------------------
# Fitting


def fit(radio_map: RadioMap, scenario: Scenario) -> SnrModel:
    """Fit one parameter set per (AP, IRS) visibility class of a radio map.

    Each class with at least ``MIN_CLASS_CELLS`` cells is fitted on its own
    cells; when no class has that many, the most populated one is. Every
    other class inherits the fit of the nearest fitted class: flip the IRS
    label first, then the AP label, then both.
    """
    xs, ys = radio_map.cell_centers()
    grid = np.stack(np.meshgrid(xs, ys), axis=-1).reshape(-1, 2)
    d_ap, d_irs = distances(grid, scenario)
    values = radio_map.avg_snr.reshape(-1)
    ap_los = radio_map.ap_los.reshape(-1)
    irs_los = radio_map.irs_los.reshape(-1)

    masks = {link: (ap_los == link.ap_los) & (irs_los == link.irs_los)
             for link in ALL_LINK_CLASSES}
    counts = {link: int(mask.sum()) for link, mask in masks.items()}
    fitted = ([link for link in ALL_LINK_CLASSES if counts[link] >= MIN_CLASS_CELLS]
              or [max(ALL_LINK_CLASSES, key=counts.get)])
    fits = {link: _fit_class(d_ap[masks[link]], d_irs[masks[link]], values[masks[link]],
                             link, scenario) for link in fitted}
    for link in ALL_LINK_CLASSES:
        if link in fitted:
            continue
        ap, irs = link
        donor = next(c for c in (LinkClass(ap, not irs), LinkClass(not ap, irs),
                                 LinkClass(not ap, not irs)) if c in fitted)
        log.warning("class %s has %d cells (< %d); inheriting fit from %s",
                    link.label(), counts[link], MIN_CLASS_CELLS, donor.label())
        fits[link] = replace(fits[donor], n_cells=counts[link], inherited_from=donor.label())
    return SnrModel(fits={link: fits[link] for link in ALL_LINK_CLASSES},
                    scenario_hash=radio_map.scenario_hash)


def _fit_class(d_ap, d_irs, values, link: LinkClass, scenario: Scenario) -> ClassFit:
    """Levenberg-Marquardt on log1p residuals over (A, B, C, nu, mu) >= 0.

    Nonnegativity comes from an active set (Bertsekas, "Projected Newton
    methods for optimization problems with simple constraints", 1982): a
    parameter at zero whose gradient points below zero is held there, every
    other parameter takes the damped step, clipped at zero. A held gain is
    free again as soon as its gradient turns, so no term is trapped at zero.
    """
    n = len(values)
    if n == 0:
        raise ValueError("cannot fit a class with no cells")
    snr_scale = scenario.snr_scale
    e_ap0, e_irs0 = scenario.exponents(link)
    log_ap, log_irs = np.log(d_ap), np.log(d_irs)
    target = np.log1p(values)

    def residuals_jac(theta):
        a, b, c, nu, mu = theta
        ti, tx, ta = _term_shapes(nu, mu, d_ap, d_irs)
        s = (a * ti + b * tx + c * ta) * snr_scale
        jac = np.stack([ti, tx, ta, -(a * ti + 0.5 * b * tx) * log_irs,
                        -(c * ta + 0.5 * b * tx) * log_ap], axis=1)
        return np.log1p(s) - target, jac * (snr_scale / (1.0 + s))[:, None]

    # start: linear least squares for the gains at the nominal exponents
    design = np.stack(_term_shapes(e_irs0, e_ap0, d_ap, d_irs), axis=1) * snr_scale
    gains0, *_ = np.linalg.lstsq(design, values, rcond=None)
    theta = np.concatenate([np.maximum(gains0, 0.0), [e_irs0, e_ap0]])
    res, jac = residuals_jac(theta)
    cost = 0.5 * float(res @ res)
    grad = jac.T @ res
    free = (theta > 0.0) | (grad <= 0.0)
    grad_ref = float(np.max(np.abs(grad[free]), initial=0.0))
    damping = 1e-3
    for _ in range(_FIT_MAX_ITER):
        if np.max(np.abs(grad[free]), initial=0.0) <= _FIT_GRAD_TOL * grad_ref:
            break
        jtj = jac[:, free].T @ jac[:, free]
        scale = np.diag(np.maximum(np.diag(jtj), 1e-12))
        while damping <= 1e15:
            try:
                delta = np.linalg.solve(jtj + damping * scale, -grad[free])
            except np.linalg.LinAlgError:
                damping *= 10.0
                continue
            trial = theta.copy()
            trial[free] = np.maximum(theta[free] + delta, 0.0)
            trial_res, trial_jac = residuals_jac(trial)
            trial_cost = 0.5 * float(trial_res @ trial_res)
            if np.isfinite(trial_cost) and trial_cost < cost:
                theta, res, jac, cost = trial, trial_res, trial_jac, trial_cost
                damping = max(damping / 3.0, 1e-14)
                break
            damping *= 10.0
        else:
            break   # no damping level lowers the cost: numerical minimum
        grad = jac.T @ res
        free = (theta > 0.0) | (grad <= 0.0)
    else:
        # at the cap, accept a minimum on a flat ridge (projected gradient
        # already tiny against the start) and fail a fit that is still moving
        if np.max(np.abs(grad[free]), initial=0.0) > 1e-2 * grad_ref:
            raise FitFailureError(
                f"least squares did not converge for class {link.label()} "
                f"(residual rms {math.sqrt(2.0 * cost / n):.3e})")

    a, b, c, nu, mu = (float(v) for v in theta)
    # an exponent whose two terms both have zero gain is unidentified
    if a == 0.0 and b == 0.0:
        nu = e_irs0
    if c == 0.0 and b == 0.0:
        mu = e_ap0
    try:
        return ClassFit(gain_irs=a, gain_cross=b, gain_direct=c, exp_irs=nu, exp_ap=mu,
                        residual_rms=math.sqrt(2.0 * cost / n), n_cells=n)
    except ValueError as exc:
        raise FitFailureError(f"fit for class {link.label()} is not valid: {exc}") from None


# ---------------------------------------------------------------------------
# Persistence


# the line that opens each class block of a model file
_CLASS_TAGS = {f"[class {link.label()}]": link for link in ALL_LINK_CLASSES}

# the fields of a class block, in the order they are written, with their parsers
_FIELDS = {**dict.fromkeys((*_PARAMS, "residual_rms"), float), "n_cells": int,
           "inherited_from": lambda text: None if text == "-" else text}


def save_model(model: SnrModel, path) -> None:
    # fit_mode=per_class is a fixed part of the v1 header
    lines = [f"# scenario={model.scenario_hash or '-'} fit_mode=per_class"]
    for tag, link in _CLASS_TAGS.items():
        lines.append(tag)
        for name in _FIELDS:
            value = getattr(model.fits[link], name)
            lines.append(f"{name} = {'-' if value is None else value}")
    textfile.write(path, "snrmodel", lines)


def load_model(path) -> SnrModel:
    lines = textfile.read(path, "snrmodel")
    if len(lines) < 2 or "scenario=" not in lines[1]:
        raise FileFormatError("missing metadata header", path=path, line=2)
    # fit_mode is not read: the four identical class blocks of a file that
    # says fit_mode=global are a valid per-class model
    scenario_hash = textfile.header_fields(lines[1], 2, path).get("scenario", "-")

    (_, _, head), *class_blocks = textfile.blocks(lines[2:], 3, path)
    for name, (line, _) in head.items():        # the first field line, if any
        raise FileFormatError("field before the first class tag", path=path, line=line,
                              field=name)
    fits: dict = {}
    for lineno, tag, block in class_blocks:
        link = _CLASS_TAGS.get(tag)
        if link is None or link in fits:
            raise FileFormatError("unknown class tag" if link is None
                                  else "repeated class block",
                                  path=path, line=lineno, field=tag)
        if block.keys() != _FIELDS.keys():
            raise FileFormatError(f"has the fields {', '.join(block)}, expected "
                                  f"{', '.join(_FIELDS)}", path=path, line=lineno, field=tag)
        try:
            fields = {name: parse(block[name][1]) for name, parse in _FIELDS.items()}
        except ValueError as exc:
            raise FileFormatError(str(exc), path=path, line=lineno, field=tag) from None
        for name in _CHECKED:
            if not (math.isfinite(fields[name]) and fields[name] >= 0):
                raise FileFormatError(f"must be finite and nonnegative, got {fields[name]}",
                                      path=path, line=block[name][0], field=name)
        fits[link] = ClassFit(**fields)

    missing = [link for link in ALL_LINK_CLASSES if link not in fits]
    if missing:
        raise FileFormatError(
            f"missing class blocks: {[m.label() for m in missing]}",
            path=path, line=len(lines),
        )
    return SnrModel(fits=fits, scenario_hash="" if scenario_hash == "-" else scenario_hash)
