"""Primal-dual interior-point solver for second-order cone programs.

Standard form:

    minimize    c'x
    subject to  A x = b
                G x + s = h,   s in K

where K is a product of cones given as a list of dimensions: dimension 1
means a nonnegative-orthant coordinate, dimension >= 2 a second-order cone
{(t, v) : ||v|| <= t}. The dual variable z lives in the same cone.

The algorithm is a Mehrotra predictor-corrector path follower on the
homogeneous self-dual embedding (Vandenberghe, "The CVXOPT linear and
quadratic cone program solvers", 2010; ECOS): the pair (kappa, tau) joins
(s, z) as one more dimension-1 cone, the start is x = y = 0, s = z = e,
and each iteration takes Nesterov-Todd scaling, one sparse LU
factorization of the full quasi-definite KKT system and iteratively refined
solves; the tau column costs one extra solve and a scalar Schur
complement. A solve ends ``optimal`` when the point scaled by 1/tau meets
every residual tolerance, ``infeasible`` or ``unbounded`` when kappa > tau
and the iterate holds a Farkas certificate, and ``max-iter`` otherwise. It is fully
deterministic.

What does not change within a solve is built once: G as a sparse matrix
(and its transpose) for every product, and the CSC pattern of the KKT
matrix with the slots of the cones' W^2 blocks. Each iteration writes the
W^2 values into those slots and refactors; no matrix is reassembled.

The cone variables keep one padded layout for the whole solve: s, z, the
scaled point lam and every search direction are (k, dmax) blocks, one row
per cone with t in column 0 and v in columns 1:, zero in the pad of a cone
shorter than dmax. (kappa, tau) is the last row, read as s[-1, 0] and
z[-1, 0]. ``cone_mask`` marks the entries that are not pad; read row by
row it is in stacked row order, so ``blocks[mask]`` is the stacked vector,
built only where G, h and the KKT right-hand side need one. Every cone
operation (Jordan product and divide, margins, step to the boundary, NT
scaling) is one array expression over blocks that keeps the pad zero. A
dimension-1 cone is the degenerate second-order cone with a zero v part,
so one code path covers both.

scipy is imported by the first ``solve``, not with this module: the sparse
LU is the package's only use of it, and loading it takes about 0.33 s and
32 MB of resident memory (Python 3.11, scipy 1.17, 2-vCPU x86 host). So
importing irsplan, and the verbs that never solve a cone program (map, fit,
audit), need numpy alone, and a plan pays for scipy at its first SOCP
instead of at start-up. ``splu`` is looked up on ``scipy.sparse.linalg`` at
each call, so a wrapper patched onto that module sees every factorization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import textfile
from .errors import AssemblyError, FileFormatError

Array = np.ndarray


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
    """The last iterate scaled by 1/tau, or a certificate normalized to -1:
    (y, z) with h'z + b'y = -1 when ``infeasible``, (x, s) with c'x = -1
    when ``unbounded``; the other pair is then NaN. Objectives and residuals
    are those of the last iterate scaled by 1/tau."""

    x: Array
    s: Array
    z: Array
    y: Array
    status: str                   # optimal | max-iter | infeasible | unbounded
    iterations: int
    primal_objective: float
    dual_objective: float
    primal_residual: float
    dual_residual: float
    gap_residual: float


# ---------------------------------------------------------------------------
# Jordan-algebra / cone helpers. Each takes and returns (k, dmax) blocks,
# column 0 the t part and columns 1: the v part, zero in the pad.

# Optimal once the worst scaled residual is at most TOL, certified infeasible
# or unbounded once kappa > tau and a normalized Farkas residual is; at most
# MAX_ITER steps.
TOL = 1e-8
MAX_ITER = 200


def cone_mask(dims) -> Array:
    """The (k, dmax) block layout of the cones: row i is True in its first
    dims[i] entries and False in the pad. Row by row it is in stacked row
    order, so a block array u stacks to u[mask]."""
    dims = np.asarray(dims, dtype=int)
    return np.arange(dims.max(initial=1)) < dims[:, None]


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


def cone_margin(u: Array) -> float:
    """Smallest interior margin t - ||v|| (the value itself for dim 1)."""
    return float(np.min(u[:, 0] - np.linalg.norm(u[:, 1:], axis=1), initial=math.inf))


def jordan_product(u: Array, v: Array) -> Array:
    out = u[:, :1] * v + v[:, :1] * u
    out[:, 0] = _rowdot(u, v)
    return out


def jordan_divide(lam: Array, d: Array) -> Array:
    """Solve lam o u = d for u, cone by cone."""
    l0 = lam[:, 0]
    u0 = (l0 * d[:, 0] - _rowdot(lam[:, 1:], d[:, 1:])) / _jnorm2(lam)
    out = (d - u0[:, None] * lam) / l0[:, None]
    out[:, 0] = u0
    return out


def max_step_to_boundary(u: Array, du: Array) -> float:
    """Largest alpha >= 0 with u + alpha*du still in the cone closure.

    Per cone the step is bounded by the t + alpha dt >= 0 face and by the
    smallest positive root of jnorm2(u + alpha du) = a alpha^2 + b alpha + c,
    where c > 0 for interior u. The roots are q/a and c/q with
    q = -(b + sign(b) sqrt(b^2 - 4ac)) / 2, which cancels no digits when a
    is tiny; c/q is also the single root when a vanishes.
    """
    u0, d0 = u[:, 0], du[:, 0]
    a = _jnorm2(du)
    b = 2.0 * (u0 * d0 - _rowdot(u[:, 1:], du[:, 1:]))
    c = _jnorm2(u)
    with np.errstate(all="ignore"):
        face = np.where(d0 < 0, -u0 / d0, math.inf)
        q = -0.5 * (b + np.copysign(np.sqrt(b * b - 4.0 * a * c), b))   # nan: no real root
        roots = np.array([q / a, c / q])
    return min(float(face.min(initial=math.inf)),
               float(roots[roots > 0].min(initial=math.inf)))


class _NTScaling:
    """Nesterov-Todd scaling W with lam = W z = W^-1 s for the current iterate.

    For a second-order cone the scaling point is w = eta * wbar with
    wbar = (sbar + J zbar) / (2 gamma); W is the quadratic representation of
    its Jordan square root u = (wbar + e) / sqrt(2 (wbar_0 + 1)), giving
    W = eta (2 u u' - J) and the defining identity W^2 z = s. For dimension 1
    this reduces to W = sqrt(s / z). ``eta`` is (k,) and ``wbar`` and ``u``
    are (k, dmax), zero in the pad.
    """

    def __init__(self, s: Array, z: Array):
        self.sign = _jsign(s.shape[1])
        snorm2, znorm2 = _jnorm2(s), _jnorm2(z)
        if not (np.all(snorm2 > 0) and np.all(znorm2 > 0)):
            raise ValueError("iterate left the cone interior")
        sbar = s / np.sqrt(snorm2)[:, None]
        zbar = z / np.sqrt(znorm2)[:, None]
        gamma = np.sqrt((1.0 + _rowdot(sbar, zbar)) / 2.0)
        self.wbar = (sbar + self.sign * zbar) / (2.0 * gamma)[:, None]
        self.u = self.wbar.copy()
        self.u[:, 0] += 1.0
        self.u /= np.sqrt(2.0 * (self.wbar[:, 0] + 1.0))[:, None]
        self.eta = (snorm2 / znorm2) ** 0.25

    def apply(self, v: Array, inverse: bool = False) -> Array:
        """W v (or W^-1 v) for a block v.

        W v = eta (2 u (u'v) - J v) and W^-1 v = (1/eta)(2 Ju (Ju'v) - J v).
        """
        u, eta = self.u, self.eta
        if inverse:
            u, eta = self.sign * u, 1.0 / eta
        return eta[:, None] * (2.0 * u * _rowdot(u, v)[:, None] - self.sign * v)

    def w2_blocks(self) -> Array:
        """The (k, dmax, dmax) dense blocks of W^2 (the quadratic
        representation P(w) = eta^2 (2 wbar wbar' - J)). A pad row or column
        is eta^2 on the diagonal and zero elsewhere, so it maps a zero pad
        to a zero pad."""
        return ((self.eta**2)[:, None, None]
                * (2.0 * self.wbar[:, :, None] * self.wbar[:, None, :] - np.diag(self.sign)))


def _kkt_pattern(G, A: Array, mask: Array, reg: float) -> tuple:
    """The CSC matrix of the quasi-definite KKT system and its W^2 slots.

    The matrix is [[reg I, A', G'], [A, -reg I, 0], [G, 0, -(W^2 + reg I)]]
    for sparse G, with every entry of the cones' W^2 blocks in the pattern;
    ``mask`` is the cone_mask of G's rows. Returns (kkt, slots, pair, shift):
    ``kkt.data[slots] = shift - w2[pair]`` writes the last block from the
    (k, dmax, dmax) blocks ``w2``, whose pad rows and columns ``pair`` leaves
    out.
    """
    import scipy.sparse

    m, n = G.shape
    p = A.shape[0]
    G = G.tocoo()
    A = scipy.sparse.coo_matrix(A)
    pair = mask[:, :, None] & mask[:, None, :]
    row = np.cumsum(mask).reshape(mask.shape) - 1           # stacked row of each entry
    w2_rows = np.broadcast_to(row[:, :, None], pair.shape)[pair]
    w2_cols = np.broadcast_to(row[:, None, :], pair.shape)[pair]
    diag_n, diag_p = np.arange(n), np.arange(p)
    rows = np.concatenate([diag_n, n + A.row, A.col, n + diag_p, n + p + G.row, G.col,
                           n + p + w2_rows])
    cols = np.concatenate([diag_n, A.col, n + A.row, n + diag_p, G.col, n + p + G.row,
                           n + p + w2_cols])
    values = np.concatenate([np.full(n, reg), A.data, A.data, np.full(p, -reg),
                             G.data, G.data, np.zeros(w2_rows.size)])
    order = np.lexsort((rows, cols))                  # column-major, rows sorted
    size = n + p + m
    indptr = np.concatenate([[0], np.cumsum(np.bincount(cols, minlength=size))])
    kkt = scipy.sparse.csc_matrix(
        (values[order], rows[order].astype(np.int32), indptr.astype(np.int32)),
        shape=(size, size))
    slots = np.argsort(order)[values.size - w2_rows.size:]
    shift = np.where(w2_rows == w2_cols, -reg, 0.0)
    return kkt, slots, pair, shift


def solve(problem: ConicProblem) -> ConicSolution:
    """Solve the cone program. Deterministic for identical inputs."""
    import scipy.sparse
    import scipy.sparse.linalg

    c, h, A, b = problem.c, problem.h, problem.A, problem.b
    n, m, p = c.size, h.size, b.size
    # (kappa, tau) is one more dimension-1 cone after the problem's cones,
    # the last block row: scaling, Jordan algebra and steps cover it
    mask = cone_mask(problem.dims + (1,))
    cones = mask[:-1]
    degree = mask.shape[0]
    e = np.zeros(mask.shape)
    e[:, 0] = 1.0                             # the cone identity
    reg = 1e-10

    norm_c = 1.0 + np.linalg.norm(c)
    norm_h = 1.0 + np.linalg.norm(h)
    norm_b = 1.0 + np.linalg.norm(b)

    G = scipy.sparse.csr_matrix(problem.G)
    GT = G.T.tocsr()
    kkt, slots, pair, shift = _kkt_pattern(G, A, cones, reg)
    reg_diag = np.concatenate([np.full(n, reg), np.full(p + m, -reg)])

    def factor(scaling):
        """Sparse LU of the full quasi-definite KKT matrix

            [ dI   A'   G'     ]
            [ A   -dI   0      ]
            [ G    0   -W2-dI  ]

        with the cones' W^2 blocks written into the fixed pattern.
        Factoring the full system (rather than the Schur complement)
        keeps the conditioning linear in that of the scaled data, which
        is what lets the iterates reach 1e-9 residuals.
        """
        kkt.data[slots] = shift - scaling.w2_blocks()[:-1][pair]
        return scipy.sparse.linalg.splu(kkt)

    def kkt_solve(lu, rhs):
        """Solve the KKT system with refinement against the unregularized
        operator ``kkt - diag(reg_diag)``; returns (dx, dy, dz)."""
        sol = lu.solve(rhs)
        if not np.all(np.isfinite(sol)):
            raise np.linalg.LinAlgError("non-finite KKT solution")
        for _ in range(2):
            sol = sol + lu.solve(rhs - kkt @ sol + reg_diag * sol)
        return sol[:n], sol[n:n + p], sol[n + p:]

    x, y = np.zeros(n), np.zeros(p)
    s, z = e.copy(), e.copy()

    for iters in range(1, MAX_ITER + 1):
        tau, kappa = z[-1, 0], s[-1, 0]
        s_m, z_m = s[:-1][cones], z[:-1][cones]     # stacked, for G and h
        # residuals of the embedding, and of the certificates (tau = 0)
        aty_gtz = A.T @ y + GT @ z_m
        ax, gx_s = A @ x, G @ x + s_m
        cx, hz_by = float(c @ x), float(h @ z_m + b @ y)
        rx, ry, rz = aty_gtz + c * tau, ax - b * tau, gx_s - h * tau
        rt = kappa + cx + hz_by
        pres = max(np.linalg.norm(rz) / norm_h, np.linalg.norm(ry) / norm_b) / tau
        dres = np.linalg.norm(rx) / norm_c / tau
        gapres = float(s_m @ z_m) / tau**2 / max(1.0, abs(cx) / tau)
        # a certificate needs kappa > tau (as in ECOS): its tests compare
        # c-scaled with h-scaled quantities, which large data can pass at tau ~ 1
        if max(pres, dres, gapres) <= TOL:
            status = "optimal"
        elif kappa > tau and hz_by < 0 and np.linalg.norm(aty_gtz) <= TOL * norm_c * -hz_by:
            status = "infeasible"
        elif kappa > tau and cx < 0 and max(np.linalg.norm(gx_s) / norm_h,
                                            np.linalg.norm(ax) / norm_b) <= TOL * -cx:
            status = "unbounded"
        else:
            status = "max-iter"
        if status != "max-iter" or iters == MAX_ITER:
            break

        try:
            scaling = _NTScaling(s, z)
            lam = scaling.apply(z)                 # lam = W z
            lu = factor(scaling)
            # K (x1, y1, z1) = (-c, b, h) is the tau column; dtau then
            # follows from the scalar Schur complement of the tau row
            x1, y1, z1 = kkt_solve(lu, np.concatenate([-c, b, h]))
            schur = float(c @ x1 + b @ y1 + h @ z1) - kappa / tau

            def direction(u, keep):
                """Newton direction of lam o (W dz + W^-1 ds) = lam o u, with
                the linear residuals reduced to ``keep`` times their value."""
                wu, f = scaling.apply(u), keep - 1.0
                dx, dy, dz_m = kkt_solve(
                    lu, np.concatenate([f * rx, f * ry, f * rz - wu[:-1][cones]]))
                dtau = (f * rt - wu[-1, 0] - c @ dx - b @ dy - h @ dz_m) / schur
                dz = np.zeros(mask.shape)
                dz[:-1][cones], dz[-1, 0] = dz_m + dtau * z1, dtau
                return dx + dtau * x1, dy + dtau * y1, scaling.apply(u - scaling.apply(dz)), dz

            # predictor (affine) direction: lam \ (-lam o lam) = -lam
            _, _, ds_a, dz_a = direction(-lam, 0.0)
            alpha_aff = min(1.0, max_step_to_boundary(s, ds_a),
                            max_step_to_boundary(z, dz_a))
            mu = float(np.vdot(s, z)) / degree
            mu_aff = float(np.vdot(s + alpha_aff * ds_a, z + alpha_aff * dz_a)) / degree
            sigma = min(1.0, max(0.0, (mu_aff / mu) ** 3))

            # corrector + centering
            correction = jordan_product(scaling.apply(ds_a, inverse=True), scaling.apply(dz_a))
            d_comb = -jordan_product(lam, lam) - correction + sigma * mu * e
            dx, dy, ds, dz = direction(jordan_divide(lam, d_comb), sigma)
        except (ValueError, RuntimeError, np.linalg.LinAlgError):
            break      # numerically exhausted

        alpha = min(1.0, 0.99 * min(max_step_to_boundary(s, ds), max_step_to_boundary(z, dz)))
        if not np.isfinite(alpha) or alpha <= 1e-13:
            break
        x = x + alpha * dx
        y = y + alpha * dy
        s = s + alpha * ds
        z = z + alpha * dz

    # the point is (x, y, s, z) / tau; a certificate is normalized to -1
    if status == "infeasible":
        x, y, s, z = np.full(n, np.nan), y / -hz_by, np.full(m, np.nan), z_m / -hz_by
    elif status == "unbounded":
        x, y, s, z = x / -cx, np.full(p, np.nan), s_m / -cx, np.full(m, np.nan)
    else:
        x, y, s, z = x / tau, y / tau, s_m / tau, z_m / tau
    return ConicSolution(
        x=x, s=s, z=z, y=y, status=status, iterations=iters,
        primal_objective=cx / tau, dual_objective=-hz_by / tau,
        primal_residual=float(pres), dual_residual=float(dres), gap_residual=gapres,
    )


# ---------------------------------------------------------------------------
# Plain-text dump for cross-checking against external solvers.
# Layout: header, sizes, cone dims, then c / h / b as one value per line and
# G / A as dense row-major blocks, floats in shortest round-trip form.


def dump_problem(problem: ConicProblem, path) -> None:
    lines = [
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
    textfile.write(path, "conicproblem", lines)


def load_problem(path) -> ConicProblem:
    lines = textfile.read(path, "conicproblem")
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
    except AssemblyError as exc:      # records that parse but make no cone program
        raise FileFormatError(str(exc), path=path) from None
