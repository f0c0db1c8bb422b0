"""Parametric SNR-vs-distance model: fitting, rate evaluation, derivatives.

The model form is

    snr_hat(d_ap, d_irs) = (A d_irs^-nu + B d_irs^(-nu/2) d_ap^(-mu/2)
                            + C d_ap^-mu) * p_tx / noise

with five nonnegative parameters per visibility class, fitted to a radio
map by damped nonlinear least squares on log(1+SNR) residuals. Rates are
Shannon rates over the configured bandwidth; the per-slot rate is a convex
function of the two distances, which yields a global first-order minorant
(the rate linearization consumed by the trajectory optimizer).

All derivative expressions here are exercised against central finite
differences in the test suite; gradients carry the bandwidth factor so
they are consistent with the bits/s rate values.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import FileFormatError, FitFailureError, UnsupportedVersionError
from .radiomap import RadioMap
from .scenario import ALL_LINK_CLASSES, LinkClass, Scenario, distances, distances_batch

log = logging.getLogger(__name__)

LN2 = math.log(2.0)

_FORMAT_TAG = "irsplan-snrmodel"
_FORMAT_VERSION = 1


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
        for name in ("gain_irs", "gain_cross", "gain_direct", "exp_irs", "exp_ap"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")

    def as_tuple(self) -> tuple:
        return (self.gain_irs, self.gain_cross, self.gain_direct,
                self.exp_irs, self.exp_ap)


@dataclass(frozen=True)
class SnrModel:
    """Per-class fitted SNR model (four classes; a global fit repeats one)."""

    fits: dict
    scenario_hash: str = ""
    fit_mode: str = "per_class"

    def fit_for(self, link: LinkClass) -> ClassFit:
        return self.fits[link]


@dataclass(frozen=True)
class RateLinearization:
    """First-order expansion of one slot's rate around fixed distances.

    rate_app(d) = value + grad[0] * (d_ap - d_ap0) + grad[1] * (d_irs - d_irs0)

    Both gradient entries are nonpositive, which makes rate_app concave as a
    function of the planar position (the distances are convex in position).
    """

    link: LinkClass
    d_ap0: float
    d_irs0: float
    value: float              # bits/s at the expansion point
    grad: np.ndarray          # (d/d d_ap, d/d d_irs), bits/s per meter

    def __post_init__(self):
        object.__setattr__(self, "grad", np.asarray(self.grad, dtype=float))
        if self.grad.shape != (2,):
            raise ValueError("gradient must be a 2-vector")
        if self.grad[0] > 1e-12 or self.grad[1] > 1e-12:
            raise ValueError("rate gradient components must be nonpositive")


def _check_distances(d_ap, d_irs):
    if np.any(np.asarray(d_ap) <= 0) or np.any(np.asarray(d_irs) <= 0):
        raise ValueError("distances must be positive")


def snr_hat(model: SnrModel, link: LinkClass, d_ap, d_irs, scenario: Scenario):
    """Fitted linear SNR at the given 3D distances."""
    _check_distances(d_ap, d_irs)
    a, b, c, nu, mu = model.fit_for(link).as_tuple()
    d_ap = np.asarray(d_ap, dtype=float)
    d_irs = np.asarray(d_irs, dtype=float)
    value = (
        a * d_irs ** (-nu)
        + b * d_irs ** (-nu / 2) * d_ap ** (-mu / 2)
        + c * d_ap ** (-mu)
    ) * scenario.snr_scale
    return value if value.shape else float(value)


def slot_rate(model: SnrModel, link: LinkClass, d_ap, d_irs, scenario: Scenario):
    """Shannon rate B_w log2(1 + snr_hat), bits/s."""
    s = snr_hat(model, link, d_ap, d_irs, scenario)
    return scenario.bandwidth_hz * np.log2(1.0 + s)


def rate(model: SnrModel, links, traj, scenario: Scenario) -> float:
    """Average fitted rate along a trajectory (mean over the K+1 slots), bits/s."""
    traj = np.asarray(traj, dtype=float)
    if len(links) != len(traj):
        raise ValueError("need one visibility class per waypoint")
    total = 0.0
    for link, q in zip(links, traj):
        d_ap, d_irs = distances(q, scenario)
        total += slot_rate(model, link, d_ap, d_irs, scenario)
    return total / len(traj)


def _snr_terms(params, d_ap, d_irs, snr_scale):
    """Value and first/second partials of the linear SNR w.r.t. (d_ap, d_irs)."""
    a, b, c, nu, mu = params
    ti = d_irs ** (-nu)                       # A-term shape
    tx = d_irs ** (-nu / 2) * d_ap ** (-mu / 2)   # B-term shape
    ta = d_ap ** (-mu)                        # C-term shape
    s = (a * ti + b * tx + c * ta) * snr_scale
    s_a = (-mu * c * ta / d_ap - (mu / 2) * b * tx / d_ap) * snr_scale
    s_i = (-nu * a * ti / d_irs - (nu / 2) * b * tx / d_irs) * snr_scale
    s_aa = (mu * (mu + 1) * c * ta / d_ap**2
            + (mu / 2) * (mu / 2 + 1) * b * tx / d_ap**2) * snr_scale
    s_ii = (nu * (nu + 1) * a * ti / d_irs**2
            + (nu / 2) * (nu / 2 + 1) * b * tx / d_irs**2) * snr_scale
    s_ai = ((mu / 2) * (nu / 2) * b * tx / (d_ap * d_irs)) * snr_scale
    return s, s_a, s_i, s_aa, s_ii, s_ai


def rate_gradient(model: SnrModel, link: LinkClass, d_ap: float, d_irs: float,
                  scenario: Scenario) -> np.ndarray:
    """(d rate/d d_ap, d rate/d d_irs) in bits/s per meter; both nonpositive."""
    _check_distances(d_ap, d_irs)
    s, s_a, s_i, *_ = _snr_terms(model.fit_for(link).as_tuple(), d_ap, d_irs,
                                 scenario.snr_scale)
    f = LN2 * (1.0 + s)
    bw = scenario.bandwidth_hz
    return np.array([bw * s_a / f, bw * s_i / f])


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


def linearize_rate(model: SnrModel, links, expansion_traj, scenario: Scenario):
    """Per-slot tangent minorants of the rate around an expansion trajectory."""
    expansion_traj = np.asarray(expansion_traj, dtype=float)
    if len(links) != len(expansion_traj):
        raise ValueError("need one visibility class per waypoint")
    out = []
    for link, q in zip(links, expansion_traj):
        d_ap, d_irs = distances(q, scenario)
        out.append(
            RateLinearization(
                link=link,
                d_ap0=d_ap,
                d_irs0=d_irs,
                value=float(slot_rate(model, link, d_ap, d_irs, scenario)),
                grad=rate_gradient(model, link, d_ap, d_irs, scenario),
            )
        )
    return out


def rate_app_value(lin: RateLinearization, q, scenario: Scenario) -> float:
    """Linearized slot rate at position q (a global under-estimator)."""
    d_ap, d_irs = distances(q, scenario)
    return lin.value + lin.grad[0] * (d_ap - lin.d_ap0) + lin.grad[1] * (d_irs - lin.d_irs0)


def rate_app_position_gradient(lin: RateLinearization, q, scenario: Scenario) -> np.ndarray:
    """Gradient of the linearized slot rate w.r.t. the planar position."""
    q = np.asarray(q, dtype=float)
    d_ap, d_irs = distances(q, scenario)
    return (lin.grad[0] * (q - scenario.ap_pos) / d_ap
            + lin.grad[1] * (q - scenario.irs_pos) / d_irs)


def rate_app_position_hessian(lin: RateLinearization, q, scenario: Scenario) -> np.ndarray:
    """Position Hessian of the linearized slot rate; negative semidefinite."""
    q = np.asarray(q, dtype=float)
    d_ap, d_irs = distances(q, scenario)
    eye = np.eye(2)
    u_ap = q - scenario.ap_pos
    u_irs = q - scenario.irs_pos
    h_ap = (d_ap**2 * eye - np.outer(u_ap, u_ap)) / d_ap**3
    h_irs = (d_irs**2 * eye - np.outer(u_irs, u_irs)) / d_irs**3
    return lin.grad[0] * h_ap + lin.grad[1] * h_irs


# ---------------------------------------------------------------------------
# Fitting


def fit(radio_map: RadioMap, scenario: Scenario, mode: str = "per_class",
        min_cells: int = 20) -> SnrModel:
    """Fit the model to a radio map.

    ``per_class`` fits each (AP, IRS) visibility class on its own cells;
    classes with fewer than ``min_cells`` cells inherit the nearest
    populated class's fit (flip the IRS label first, then the AP label).
    ``global`` fits a single parameter set on every cell.
    """
    xs, ys = radio_map.cell_centers()
    grid = np.stack(np.meshgrid(xs, ys), axis=-1).reshape(-1, 2)
    d_ap, d_irs = distances_batch(grid, scenario)
    values = radio_map.avg_snr.reshape(-1)
    ap_los = radio_map.ap_los.reshape(-1)
    irs_los = radio_map.irs_los.reshape(-1)

    if mode == "global":
        fit_all = _fit_class(d_ap, d_irs, values, LinkClass(True, True), scenario)
        fits = {link: fit_all for link in ALL_LINK_CLASSES}
        return SnrModel(fits=fits, scenario_hash=radio_map.scenario_hash,
                        fit_mode="global")
    if mode != "per_class":
        raise ValueError(f"unknown fit mode {mode!r}")

    fitted: dict = {}
    counts: dict = {}
    for link in ALL_LINK_CLASSES:
        mask = (ap_los == link.ap_los) & (irs_los == link.irs_los)
        counts[link] = int(mask.sum())
        if counts[link] >= min_cells:
            fitted[link] = _fit_class(d_ap[mask], d_irs[mask], values[mask],
                                      link, scenario)

    if not fitted:
        # tiny maps: fit the single most populated class and share it
        best = max(ALL_LINK_CLASSES, key=lambda c: counts[c])
        mask = (ap_los == best.ap_los) & (irs_los == best.irs_los)
        log.warning("no visibility class has %d cells; fitting %s on %d cells",
                    min_cells, best.label(), counts[best])
        fitted[best] = _fit_class(d_ap[mask], d_irs[mask], values[mask], best,
                                  scenario)

    fits = {}
    for link in ALL_LINK_CLASSES:
        if link in fitted:
            fits[link] = fitted[link]
            continue
        donor = _nearest_populated(link, fitted)
        log.warning("class %s has %d cells (< %d); inheriting fit from %s",
                    link.label(), counts[link], min_cells, donor.label())
        fits[link] = replace(fitted[donor], n_cells=counts[link],
                             inherited_from=donor.label())
    return SnrModel(fits=fits, scenario_hash=radio_map.scenario_hash,
                    fit_mode="per_class")


def _nearest_populated(link: LinkClass, fitted: dict) -> LinkClass:
    for candidate in (
        LinkClass(link.ap_los, not link.irs_los),
        LinkClass(not link.ap_los, link.irs_los),
        LinkClass(not link.ap_los, not link.irs_los),
    ):
        if candidate in fitted:
            return candidate
    raise RuntimeError("no populated class to inherit from")  # unreachable


def _fit_class(d_ap, d_irs, values, link: LinkClass, scenario: Scenario,
               max_iter: int = 500, grad_tol: float = 1e-10) -> ClassFit:
    """Damped least squares on log1p residuals; parameters squared for nonnegativity."""
    n = len(values)
    if n == 0:
        raise ValueError("cannot fit a class with no cells")
    if float(np.max(values)) == 0.0:
        # all-zero map: zero gains by definition, exponents at nominal
        e_ap, e_irs = scenario.exponents(link)
        return ClassFit(0.0, 0.0, 0.0, e_irs, e_ap, residual_rms=0.0, n_cells=n)

    snr_scale = scenario.snr_scale
    e_ap0, e_irs0 = scenario.exponents(link)

    # warm start: linear least squares for the gains with exponents frozen.
    # Terms whose least-squares contribution is negligible (or negative)
    # start at exactly zero; a zero gain has a zero Jacobian column, so the
    # term and its exponent stay frozen instead of wandering along the
    # unidentifiable ridge A -> 0, exponent -> inf.
    design = np.stack(
        [
            d_irs ** (-e_irs0),
            d_irs ** (-e_irs0 / 2) * d_ap ** (-e_ap0 / 2),
            d_ap ** (-e_ap0),
        ],
        axis=1,
    ) * snr_scale
    coef, *_ = np.linalg.lstsq(design, values, rcond=None)
    contribution = np.maximum(coef, 0.0) * np.median(design, axis=0)
    supported = contribution > 1e-3 * max(float(np.median(values)), 1e-300)
    gains0 = np.where(supported, np.maximum(coef, 0.0), 0.0)

    theta = np.sqrt(np.array([gains0[0], gains0[1], gains0[2], e_irs0, e_ap0]))
    target = np.log1p(values)

    def residuals_jac(theta):
        a, b, c, p, q = theta
        params = (a * a, b * b, c * c, p * p, q * q)
        av, bv, cv, nu, mu = params
        ti = d_irs ** (-nu)
        tx = d_irs ** (-nu / 2) * d_ap ** (-mu / 2)
        ta = d_ap ** (-mu)
        s = (av * ti + bv * tx + cv * ta) * snr_scale
        res = np.log1p(s) - target
        denom = 1.0 + s
        jac = np.empty((len(res), 5))
        jac[:, 0] = 2 * a * ti * snr_scale / denom
        jac[:, 1] = 2 * b * tx * snr_scale / denom
        jac[:, 2] = 2 * c * ta * snr_scale / denom
        ds_dnu = (-av * np.log(d_irs) * ti - 0.5 * bv * np.log(d_irs) * tx) * snr_scale
        ds_dmu = (-cv * np.log(d_ap) * ta - 0.5 * bv * np.log(d_ap) * tx) * snr_scale
        jac[:, 3] = 2 * p * ds_dnu / denom
        jac[:, 4] = 2 * q * ds_dmu / denom
        return res, jac

    res, jac = residuals_jac(theta)
    cost = 0.5 * float(res @ res)
    damping = 1e-3
    converged = False
    grad_ref = max(1.0, float(np.max(np.abs(jac.T @ res))))
    flat_steps = 0
    for _ in range(max_iter):
        grad = jac.T @ res
        if np.max(np.abs(grad)) <= grad_tol * grad_ref:
            converged = True
            break
        jtj = jac.T @ jac
        scale = np.maximum(np.diag(jtj), 1e-12)
        stepped = False
        for _ in range(40):
            try:
                delta = np.linalg.solve(jtj + damping * np.diag(scale), -grad)
            except np.linalg.LinAlgError:
                damping *= 10.0
                continue
            trial = theta + delta
            trial_res, trial_jac = residuals_jac(trial)
            trial_cost = 0.5 * float(trial_res @ trial_res)
            if np.isfinite(trial_cost) and trial_cost < cost:
                improvement = cost - trial_cost
                theta, res, jac, cost = trial, trial_res, trial_jac, trial_cost
                damping = max(damping / 3.0, 1e-14)
                stepped = True
                flat_steps = flat_steps + 1 if improvement <= 1e-10 * max(cost, 1e-300) else 0
                break
            damping *= 10.0
            if damping > 1e15:
                break
        if not stepped or flat_steps >= 5:
            # either no damping level yields a productive step or the cost
            # only moves in its last digits: numerical minimum reached
            converged = True
            break
    else:
        # iteration cap: accept ridge-crawling minima (gradient already tiny
        # relative to the start), fail on genuinely unconverged fits
        grad = jac.T @ res
        converged = bool(np.max(np.abs(grad)) <= 1e-2 * grad_ref)

    a, b, c, p, q = theta
    gains = np.array([a * a, b * b, c * c])
    nu, mu = float(p * p), float(q * q)

    # drop terms that contribute nowhere on this class's cells: they are
    # unidentifiable (the optimizer may have parked them on a gain->inf,
    # exponent->inf ridge whose value is zero at every data point)
    terms = np.stack([
        gains[0] * d_irs ** (-nu),
        gains[1] * d_irs ** (-nu / 2) * d_ap ** (-mu / 2),
        gains[2] * d_ap ** (-mu),
    ])
    total = np.maximum(terms.sum(axis=0), 1e-300)
    for j in range(3):
        if gains[j] and float(np.max(terms[j] / total)) < 1e-4:
            gains[j] = 0.0
    if gains[0] == 0.0 and gains[1] == 0.0:
        nu = e_irs0
    if gains[2] == 0.0 and gains[1] == 0.0:
        mu = e_ap0

    model_vals = (gains[0] * d_irs ** (-nu)
                  + gains[1] * d_irs ** (-nu / 2) * d_ap ** (-mu / 2)
                  + gains[2] * d_ap ** (-mu)) * snr_scale
    result = ClassFit(
        gain_irs=float(gains[0]), gain_cross=float(gains[1]),
        gain_direct=float(gains[2]), exp_irs=nu, exp_ap=mu,
        residual_rms=float(np.sqrt(np.mean((np.log1p(model_vals) - target) ** 2))),
        n_cells=n,
    )
    if not converged:
        raise FitFailureError(
            f"least squares did not converge for class {link.label()} "
            f"(residual rms {result.residual_rms:.3e})",
            best=result,
        )
    return result


# ---------------------------------------------------------------------------
# Persistence


def _class_tag(link: LinkClass) -> str:
    return f"ap={'LOS' if link.ap_los else 'NLOS'} irs={'LOS' if link.irs_los else 'NLOS'}"


def _parse_class_tag(tag: str, path, lineno) -> LinkClass:
    parts = tag.split()
    if len(parts) != 2 or not parts[0].startswith("ap=") or not parts[1].startswith("irs="):
        raise FileFormatError("malformed class tag", path=path, line=lineno, field=tag)
    return LinkClass(parts[0] == "ap=LOS", parts[1] == "irs=LOS")


def save_model(model: SnrModel, path) -> None:
    lines = [
        f"# {_FORMAT_TAG} v{_FORMAT_VERSION}",
        f"# scenario={model.scenario_hash or '-'} fit_mode={model.fit_mode}",
    ]
    for link in ALL_LINK_CLASSES:
        cf = model.fits[link]
        lines.append(f"[class {_class_tag(link)}]")
        for name in ("gain_irs", "gain_cross", "gain_direct", "exp_irs", "exp_ap",
                     "residual_rms"):
            lines.append(f"{name} = {getattr(cf, name)!r}")
        lines.append(f"n_cells = {cf.n_cells}")
        lines.append(f"inherited_from = {cf.inherited_from or '-'}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def load_model(path) -> SnrModel:
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise FileFormatError("empty file", path=path, line=1)
    head = lines[0].lstrip("# ").split()
    if len(head) != 2 or head[0] != _FORMAT_TAG:
        raise FileFormatError(f"not a {_FORMAT_TAG} file", path=path, line=1)
    if head[1] != f"v{_FORMAT_VERSION}":
        raise UnsupportedVersionError(
            f"unsupported version {head[1]} (expected v{_FORMAT_VERSION})",
            path=path, line=1,
        )
    if len(lines) < 2 or "scenario=" not in lines[1]:
        raise FileFormatError("missing metadata header", path=path, line=2)
    meta = dict(token.split("=", 1) for token in lines[1].lstrip("# ").split())
    scenario_hash = meta.get("scenario", "-")

    fits: dict = {}
    current: LinkClass | None = None
    fields: dict = {}

    def finish(lineno):
        if current is None:
            return
        try:
            fits[current] = ClassFit(
                gain_irs=float(fields["gain_irs"]),
                gain_cross=float(fields["gain_cross"]),
                gain_direct=float(fields["gain_direct"]),
                exp_irs=float(fields["exp_irs"]),
                exp_ap=float(fields["exp_ap"]),
                residual_rms=float(fields["residual_rms"]),
                n_cells=int(fields["n_cells"]),
                inherited_from=None if fields["inherited_from"] == "-"
                else fields["inherited_from"],
            )
        except (KeyError, ValueError) as exc:
            raise FileFormatError(f"incomplete class block: {exc}", path=path,
                                  line=lineno) from None

    for lineno, line in enumerate(lines[2:], start=3):
        line = line.strip()
        if not line:
            continue
        if line.startswith("[class ") and line.endswith("]"):
            finish(lineno)
            current = _parse_class_tag(line[len("[class "):-1], path, lineno)
            fields = {}
        elif "=" in line and current is not None:
            key, value = (part.strip() for part in line.split("=", 1))
            fields[key] = value
        else:
            raise FileFormatError("unexpected line", path=path, line=lineno, field=line)
    finish(len(lines))

    missing = [link for link in ALL_LINK_CLASSES if link not in fits]
    if missing:
        raise FileFormatError(
            f"missing class blocks: {[m.label() for m in missing]}",
            path=path, line=len(lines),
        )
    return SnrModel(fits=fits, scenario_hash="" if scenario_hash == "-" else scenario_hash,
                    fit_mode=meta.get("fit_mode", "per_class"))
