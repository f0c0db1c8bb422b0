"""Primal-dual interior-point solver for second-order cone programs.

Standard form:

    minimize    c'x
    subject to  A x = b
                G x + s = h,   s in K

where K is a product of cones given as a list of dimensions: dimension 1
means a nonnegative-orthant coordinate, dimension >= 2 a second-order cone
{(t, v) : ||v|| <= t}. The dual variable z lives in the same cone.

The algorithm is a Mehrotra predictor-corrector path follower with
Nesterov-Todd scaling, one sparse LU factorization of the full
quasi-definite KKT system per iteration and iterative refinement on every
solve. It is fully deterministic. Primal infeasibility is reported on
residual stagnation rather than via a homogeneous embedding certificate.

What does not change within a solve is built once: G as a sparse matrix
(and its transpose) for every product, and the CSC pattern of the KKT
matrix with the slots of the cones' W^2 blocks. Each iteration writes the
W^2 values into those slots and refactors; no matrix is reassembled.

The cones form one padded block: ``cone_index`` gives a (k, dmax) array of
row indices, one row per cone, whose pad entries point at a dummy row that
reads as zero. Every cone operation (Jordan product and divide, margins,
step to the boundary, NT scaling) is one array expression over that block.
A dimension-1 cone is the degenerate second-order cone with a zero v part,
so one code path covers both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

from .errors import AssemblyError, FileFormatError, UnsupportedVersionError

Array = np.ndarray

_FORMAT_TAG = "irsplan-conicproblem"
_FORMAT_VERSION = 1


@dataclass(frozen=True)
class ConicProblem:
    """One SOCP in standard form. ``dims`` lists the cone sizes in row order."""

    c: Array
    G: Array
    h: Array
    dims: tuple
    A: Array = None
    b: Array = None

    def __post_init__(self):
        c = np.asarray(self.c, dtype=float)
        G = np.asarray(self.G, dtype=float)
        h = np.asarray(self.h, dtype=float)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "G", G)
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))
        if self.A is None:
            object.__setattr__(self, "A", np.zeros((0, c.size)))
            object.__setattr__(self, "b", np.zeros(0))
        else:
            object.__setattr__(self, "A", np.asarray(self.A, dtype=float))
            object.__setattr__(self, "b", np.asarray(self.b, dtype=float))
        n = c.size
        if G.ndim != 2 or G.shape[1] != n:
            raise AssemblyError(f"G must be (m, {n}), got {G.shape}")
        if h.shape != (G.shape[0],):
            raise AssemblyError("h length must match G rows")
        if any(d < 1 for d in self.dims) or sum(self.dims) != G.shape[0]:
            raise AssemblyError("cone dimensions must be >= 1 and sum to G rows")
        if self.A.shape[1] != n or self.b.shape != (self.A.shape[0],):
            raise AssemblyError("A/b dimensions inconsistent with c")
        for name in ("c", "G", "h", "A", "b"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise AssemblyError(f"{name} contains non-finite entries")

    @property
    def n_vars(self) -> int:
        return self.c.size


@dataclass
class ConicSolution:
    x: Array
    s: Array
    z: Array
    y: Array
    status: str                   # optimal | max-iter | infeasible
    iterations: int
    primal_objective: float
    dual_objective: float
    primal_residual: float
    dual_residual: float
    gap_residual: float


# ---------------------------------------------------------------------------
# Jordan-algebra / cone helpers. All operate on stacked vectors; ``index`` is
# the output of ``cone_index``. Each helper gathers the (k, dmax) block
# ``_blocks(u, index)``, whose column 0 is t and columns 1: are v, works on
# it as one array and scatters the result back with ``_unblock``.

# Centering used when the Mehrotra estimate is unusable (degenerate affine
# step); normally the centering parameter adapts per iteration.
_BARRIER_REDUCTION = 0.1
# Iterations without a 10% drop of the worst residual before giving up.
_STAGNATION_WINDOW = 20
# Optimal once the worst scaled residual is at most TOL; at most MAX_ITER steps.
TOL = 1e-8
MAX_ITER = 200


def cone_index(dims) -> Array:
    """Row indices of the cones as one (k, dmax) array, one row per cone.

    A cone shorter than dmax is padded with the dummy row m = sum(dims),
    which reads as zero and is never written back.
    """
    dims = np.asarray(dims, dtype=int)
    cols = np.arange(dims.max(initial=1))
    starts = np.cumsum(dims) - dims
    return np.where(cols < dims[:, None], starts[:, None] + cols, dims.sum())


def _blocks(u: Array, index: Array) -> Array:
    """The (k, dmax) cone blocks of a stacked vector, zero in the pad."""
    return np.append(u, 0.0)[index]


def _unblock(blocks: Array, index: Array, m: int) -> Array:
    """The stacked length-m vector of (k, dmax) blocks, pad entries dropped."""
    out = np.empty(m + 1)
    out[index] = blocks
    return out[:m]


def _rowdot(a: Array, b: Array) -> Array:
    return np.einsum("ij,ij->i", a, b)


def _jnorm2(b: Array) -> Array:
    """t^2 - ||v||^2 of each row of a (k, d) block."""
    return b[:, 0] ** 2 - _rowdot(b[:, 1:], b[:, 1:])


def _jsign(d: int) -> Array:
    """Diagonal of the reflection J = diag(1, -1, ..., -1)."""
    sign = -np.ones(d)
    sign[0] = 1.0
    return sign


def cone_margin(u: Array, index) -> float:
    """Smallest interior margin t - ||v|| (the value itself for dim 1)."""
    ub = _blocks(u, index)
    return float(np.min(ub[:, 0] - np.linalg.norm(ub[:, 1:], axis=1), initial=math.inf))


def jordan_product(u: Array, v: Array, index) -> Array:
    ub, vb = _blocks(u, index), _blocks(v, index)
    out = ub[:, :1] * vb + vb[:, :1] * ub
    out[:, 0] = _rowdot(ub, vb)
    return _unblock(out, index, u.size)


def jordan_divide(lam: Array, d: Array, index) -> Array:
    """Solve lam o u = d for u, cone by cone."""
    lb, db = _blocks(lam, index), _blocks(d, index)
    l0 = lb[:, 0]
    u0 = (l0 * db[:, 0] - _rowdot(lb[:, 1:], db[:, 1:])) / _jnorm2(lb)
    out = (db - u0[:, None] * lb) / l0[:, None]
    out[:, 0] = u0
    return _unblock(out, index, d.size)


def max_step_to_boundary(u: Array, du: Array, index) -> float:
    """Largest alpha >= 0 with u + alpha*du still in the cone closure.

    Per cone the step is bounded by the t + alpha dt >= 0 face and by the
    smallest positive root of jnorm2(u + alpha du) = a alpha^2 + b alpha + c,
    where c > 0 for interior u (a linear equation where a vanishes).
    """
    ub, db = _blocks(u, index), _blocks(du, index)
    u0, d0 = ub[:, 0], db[:, 0]
    a = _jnorm2(db)
    b = 2.0 * (u0 * d0 - _rowdot(ub[:, 1:], db[:, 1:]))
    c = _jnorm2(ub)
    flat = np.abs(a) < 1e-300
    with np.errstate(divide="ignore", invalid="ignore"):
        face = np.where(d0 < 0, -u0 / d0, math.inf)
        linear = np.where(flat & (b < 0), -c / b, math.inf)
        sq = np.sqrt(b * b - 4.0 * a * c)          # nan: no real root
        roots = np.where(flat, math.inf, [(-b - sq) / (2 * a), (-b + sq) / (2 * a)])
    return min(float(face.min(initial=math.inf)), float(linear.min(initial=math.inf)),
               float(roots[roots > 1e-300].min(initial=math.inf)))


class _NTScaling:
    """Nesterov-Todd scaling W with lam = W z = W^-1 s for the current iterate.

    For a second-order cone the scaling point is w = eta * wbar with
    wbar = (sbar + J zbar) / (2 gamma); W is the quadratic representation of
    its Jordan square root u = (wbar + e) / sqrt(2 (wbar_0 + 1)), giving
    W = eta (2 u u' - J) and the defining identity W^2 z = s. For dimension 1
    this reduces to W = sqrt(s / z). ``eta`` is (k,) and ``wbar`` and ``u``
    are (k, dmax), zero in the pad.
    """

    def __init__(self, s: Array, z: Array, index):
        self.index = index
        self.sign = _jsign(index.shape[1])
        sb, zb = _blocks(s, index), _blocks(z, index)
        snorm2, znorm2 = _jnorm2(sb), _jnorm2(zb)
        if not (np.all(snorm2 > 0) and np.all(znorm2 > 0)):
            raise ValueError("iterate left the cone interior")
        sbar = sb / np.sqrt(snorm2)[:, None]
        zbar = zb / np.sqrt(znorm2)[:, None]
        gamma = np.sqrt((1.0 + _rowdot(sbar, zbar)) / 2.0)
        self.wbar = (sbar + self.sign * zbar) / (2.0 * gamma)[:, None]
        self.u = self.wbar.copy()
        self.u[:, 0] += 1.0
        self.u /= np.sqrt(2.0 * (self.wbar[:, 0] + 1.0))[:, None]
        self.eta = (snorm2 / znorm2) ** 0.25

    def apply(self, v: Array, inverse: bool = False) -> Array:
        """W v (or W^-1 v) for a stacked vector v.

        W v = eta (2 u (u'v) - J v) and W^-1 v = (1/eta)(2 Ju (Ju'v) - J v).
        """
        u, eta = self.u, self.eta
        if inverse:
            u, eta = self.sign * u, 1.0 / eta
        vb = _blocks(v, self.index)
        out = eta[:, None] * (2.0 * u * _rowdot(u, vb)[:, None] - self.sign * vb)
        return _unblock(out, self.index, v.size)

    def w2_blocks(self) -> Array:
        """The (k, dmax, dmax) dense blocks of W^2 (the quadratic
        representation P(w) = eta^2 (2 wbar wbar' - J)). A pad row or column
        is eta^2 on the diagonal and zero elsewhere."""
        return ((self.eta**2)[:, None, None]
                * (2.0 * self.wbar[:, :, None] * self.wbar[:, None, :] - np.diag(self.sign)))


def _kkt_pattern(G, A: Array, index: Array, reg: float) -> tuple:
    """The CSC matrix of the quasi-definite KKT system and its W^2 slots.

    The matrix is [[reg I, A', G'], [A, -reg I, 0], [G, 0, -(W^2 + reg I)]]
    for sparse G, with every entry of the cones' W^2 blocks in the pattern.
    Returns (kkt, slots, take, shift): ``kkt.data[slots] = shift -
    w2.ravel()[take]`` writes the last block from the (k, dmax, dmax) blocks
    ``w2``, whose pad rows and columns ``take`` leaves out.
    """
    m, n = G.shape
    p = A.shape[0]
    k, d = index.shape
    G = G.tocoo()
    A = scipy.sparse.coo_matrix(A)
    w2_rows = np.broadcast_to(index[:, :, None], (k, d, d)).ravel()
    w2_cols = np.broadcast_to(index[:, None, :], (k, d, d)).ravel()
    take = np.flatnonzero((w2_rows < m) & (w2_cols < m))
    w2_rows, w2_cols = w2_rows[take], w2_cols[take]
    diag_n, diag_p = np.arange(n), np.arange(p)
    rows = np.concatenate([diag_n, n + A.row, A.col, n + diag_p, n + p + G.row, G.col,
                           n + p + w2_rows])
    cols = np.concatenate([diag_n, A.col, n + A.row, n + diag_p, G.col, n + p + G.row,
                           n + p + w2_cols])
    values = np.concatenate([np.full(n, reg), A.data, A.data, np.full(p, -reg),
                             G.data, G.data, np.zeros(take.size)])
    order = np.lexsort((rows, cols))                  # column-major, rows sorted
    size = n + p + m
    indptr = np.concatenate([[0], np.cumsum(np.bincount(cols, minlength=size))])
    kkt = scipy.sparse.csc_matrix(
        (values[order], rows[order].astype(np.int32), indptr.astype(np.int32)),
        shape=(size, size))
    slots = np.argsort(order)[values.size - take.size:]
    shift = np.where(w2_rows == w2_cols, -reg, 0.0)
    return kkt, slots, take, shift


def solve(problem: ConicProblem) -> ConicSolution:
    """Solve the cone program. Deterministic for identical inputs."""
    c, h, A, b = problem.c, problem.h, problem.A, problem.b
    n, m, p = c.size, h.size, b.size
    index = cone_index(problem.dims)
    n_cones = len(problem.dims)
    e = np.zeros(m)
    e[index[:, 0]] = 1.0                      # the cone identity
    reg = 1e-10

    norm_c = 1.0 + np.linalg.norm(c)
    norm_h = 1.0 + np.linalg.norm(h)
    norm_b = 1.0 + np.linalg.norm(b)

    G = scipy.sparse.csr_matrix(problem.G)
    GT = G.T.tocsr()
    kkt, slots, take, shift = _kkt_pattern(G, A, index, reg)
    k, d = index.shape
    identity = np.broadcast_to(np.eye(d), (k, d, d))

    def factor(w2):
        """Sparse LU of the full quasi-definite KKT matrix

            [ dI   A'   G'     ]
            [ A   -dI   0      ]
            [ G    0   -W2-dI  ]

        with the W^2 blocks ``w2`` written into the fixed pattern.
        Factoring the full system (rather than the Schur complement)
        keeps the conditioning linear in that of the scaled data, which
        is what lets the iterates reach 1e-9 residuals.
        """
        kkt.data[slots] = shift - w2.ravel()[take]
        return scipy.sparse.linalg.splu(kkt)

    def kkt_solve(lu, w2, bx, by, bz):
        """Solve the KKT system with refinement against the unregularized
        operator; returns (dx, dy, dz)."""
        rhs = np.concatenate([bx, by, bz])

        def unreg_residual(sol):
            dx, dy, dz = sol[:n], sol[n:n + p], sol[n + p:]
            w2_dz = _unblock(np.einsum("kij,kj->ki", w2, _blocks(dz, index)), index, m)
            return np.concatenate([A.T @ dy + GT @ dz - bx,
                                   A @ dx - by,
                                   G @ dx - w2_dz - bz])

        sol = lu.solve(rhs)
        if not np.all(np.isfinite(sol)):
            raise np.linalg.LinAlgError("non-finite KKT solution")
        for _ in range(2):
            sol = sol - lu.solve(unreg_residual(sol))
        return sol[:n], sol[n:n + p], sol[n + p:]

    # --- initial point: two solves with identity scaling, then shift into the cone
    lu0 = factor(identity)
    x, y, dz = kkt_solve(lu0, identity, np.zeros(n), b.copy(), h.copy())
    s = -dz                      # equals h - G x up to regularization
    margin = cone_margin(s, index)
    if margin < 1e-8:
        s = s + (1.0 + abs(margin)) * e
    _, y, z = kkt_solve(lu0, identity, -c, np.zeros(p), np.zeros(m))
    margin = cone_margin(z, index)
    if margin < 1e-8:
        z = z + (1.0 + abs(margin)) * e

    def residuals(x, y, s, z):
        rx = A.T @ y + GT @ z + c
        ry = A @ x - b
        rz = G @ x + s - h
        gap = float(s @ z)
        pobj = float(c @ x)
        pres = max(np.linalg.norm(rz) / norm_h, np.linalg.norm(ry) / norm_b)
        dres = np.linalg.norm(rx) / norm_c
        gapres = gap / max(1.0, abs(pobj))
        return rx, ry, rz, gap, pobj, float(pres), float(dres), float(gapres)

    best = None          # (worst, x, y, s, z)
    best_progress = math.inf
    stall = 0
    iters = 0
    converged = False

    for iteration in range(1, MAX_ITER + 1):
        iters = iteration
        rx, ry, rz, gap, pobj, pres, dres, gapres = residuals(x, y, s, z)
        mu = gap / n_cones
        worst = max(pres, dres, gapres)
        if best is None or worst < best[0]:
            best = (worst, x.copy(), y.copy(), s.copy(), z.copy())

        if worst <= TOL:
            converged = True
            break

        # residual stagnation: numerically saturated or infeasible
        if worst < best_progress * 0.9:
            best_progress = worst
            stall = 0
        else:
            stall += 1
            if stall >= _STAGNATION_WINDOW:
                break

        try:
            scaling = _NTScaling(s, z, index)
            lam = scaling.apply(z)                 # lam = W z
            w2 = scaling.w2_blocks()
            lu = factor(w2)

            # predictor (affine) direction
            lam_sq = jordan_product(lam, lam, index)
            u = jordan_divide(lam, -lam_sq, index)
            bz_t = -rz - scaling.apply(u)
            dx_a, dy_a, dz_a = kkt_solve(lu, w2, -rx, -ry, bz_t)
        except (ValueError, RuntimeError, np.linalg.LinAlgError,
                scipy.linalg.LinAlgError):
            break      # numerically exhausted; report the best iterate
        ds_a = -rz - G @ dx_a

        alpha_aff = min(
            1.0,
            max_step_to_boundary(s, ds_a, index),
            max_step_to_boundary(z, dz_a, index),
        )
        mu_aff = float((s + alpha_aff * ds_a) @ (z + alpha_aff * dz_a)) / n_cones
        if mu > 0 and np.isfinite(mu_aff):
            sigma = min(1.0, max(0.0, (mu_aff / mu) ** 3))
        else:
            sigma = _BARRIER_REDUCTION

        # corrector + centering
        correction = jordan_product(
            scaling.apply(ds_a, inverse=True), scaling.apply(dz_a), index
        )
        d_comb = -lam_sq - correction + sigma * mu * e
        u = jordan_divide(lam, d_comb, index)
        bz_t = -rz - scaling.apply(u)
        try:
            dx_c, dy_c, dz_c = kkt_solve(lu, w2, -rx, -ry, bz_t)
        except (ValueError, RuntimeError, np.linalg.LinAlgError,
                scipy.linalg.LinAlgError):
            break
        ds_c = -rz - G @ dx_c

        alpha = 0.99 * min(
            max_step_to_boundary(s, ds_c, index),
            max_step_to_boundary(z, dz_c, index),
        )
        alpha = min(1.0, alpha)
        if not np.isfinite(alpha) or alpha <= 1e-13:
            break

        x = x + alpha * dx_c
        y = y + alpha * dy_c
        s = s + alpha * ds_c
        z = z + alpha * dz_c
        # keep iterates numerically interior
        for vec in (s, z):
            margin = cone_margin(vec, index)
            if margin <= 0.0:
                vec += (abs(margin) + 1e-14) * e

    # report the best iterate seen (the last accepted step may be worse)
    if best is not None:
        _, bx_, by_, bs_, bz_ = best
        x, y, s, z = bx_, by_, bs_, bz_
    rx, ry, rz, gap, pobj, pres, dres, gapres = residuals(x, y, s, z)
    if converged or max(pres, dres, gapres) <= TOL:
        status = "optimal"
    elif pres > 1e3 * TOL:
        # primal residual irreducible: no cone point satisfies Gx + s = h
        status = "infeasible"
    else:
        status = "max-iter"
    return ConicSolution(
        x=x, s=s, z=z, y=y, status=status, iterations=iters,
        primal_objective=pobj, dual_objective=float(-(b @ y) - (h @ z)),
        primal_residual=pres, dual_residual=dres, gap_residual=gapres,
    )


# ---------------------------------------------------------------------------
# Plain-text dump for cross-checking against external solvers.
# Layout: header, sizes, cone dims, then c / h / b as one value per line and
# G / A as dense row-major blocks, floats in shortest round-trip form.


def dump_problem(problem: ConicProblem, path) -> None:
    lines = [
        f"# {_FORMAT_TAG} v{_FORMAT_VERSION}",
        f"n {problem.n_vars}",
        f"m {problem.h.size}",
        f"p {problem.b.size}",
        "dims " + " ".join(str(d) for d in problem.dims),
        "c " + " ".join(repr(float(v)) for v in problem.c),
        "h " + " ".join(repr(float(v)) for v in problem.h),
        "b " + " ".join(repr(float(v)) for v in problem.b),
    ]
    for row in problem.G:
        lines.append("G " + " ".join(repr(float(v)) for v in row))
    for row in problem.A:
        lines.append("A " + " ".join(repr(float(v)) for v in row))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def load_problem(path) -> ConicProblem:
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or not lines[0].startswith(f"# {_FORMAT_TAG}"):
        raise FileFormatError(f"not a {_FORMAT_TAG} file", path=path, line=1)
    version = lines[0].split()[-1]
    if version != f"v{_FORMAT_VERSION}":
        raise UnsupportedVersionError(f"unsupported version {version}", path=path, line=1)
    fields = {}
    rows = {"G": [], "A": []}     # (line number, values) per matrix row
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        key, _, rest = line.partition(" ")
        values = rest.split()
        try:
            if key in ("n", "m", "p"):
                fields[key] = int(values[0])
            elif key == "dims":
                fields["dims"] = [int(v) for v in values]
            elif key in ("c", "h", "b"):
                fields[key] = np.array([float(v) for v in values])
            elif key in rows:
                rows[key].append((lineno, [float(v) for v in values]))
            else:
                raise FileFormatError("unknown record", path=path, line=lineno, field=key)
        except ValueError as exc:
            raise FileFormatError(f"bad number: {exc}", path=path, line=lineno,
                                  field=key) from None

    def matrix(key, n_rows, n):
        for lineno, row in rows[key]:
            if len(row) != n:
                raise FileFormatError(f"expected {n} values, got {len(row)}", path=path,
                                      line=lineno, field=key)
        if len(rows[key]) != n_rows:
            raise FileFormatError(f"expected {n_rows} rows, got {len(rows[key])}",
                                  path=path, line=len(lines), field=key)
        return np.array([row for _, row in rows[key]]).reshape(n_rows, n)

    try:
        n = fields["n"]
        G = matrix("G", fields["m"], n)
        A = matrix("A", fields["p"], n) if fields["p"] else None
        return ConicProblem(c=fields["c"], G=G, h=fields["h"], dims=fields["dims"],
                            A=A, b=fields["b"] if fields["p"] else None)
    except KeyError as exc:
        raise FileFormatError(f"missing record {exc}", path=path, line=len(lines)) from None
