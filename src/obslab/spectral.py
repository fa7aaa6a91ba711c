"""Frequency masks and spectral constants on the discrete torus.

The torus [0, P)^d is sampled on N points per axis, so the frequency
lattice is (2*pi/P) * Z^d aliased to [-pi*N/P, pi*N/P). Masks select
lattice subsets (balls, annuli, sectors, rectangles); compressions of a
multiplication operator onto a masked frequency subspace are assembled
exactly through the convolution theorem, and the reported constants are
eigenvalues of those Hermitian matrices.

Conventions. The uncertainty constant C is c^(-1/2) where c is the
smallest eigenvalue of Pi M_w Pi on the mask range, with w the field
itself (weight "sqrt", matching an observation norm ||a^(1/2) u||) or its
square (weight "full", matching ||a u||). The resolvent constant M is the
smallest number with ||u||^2 <= M ||(A - lam) u||^2 + m <a u, u> on the
sampled lattice, A the Fourier multiplier |xi|^gamma; exact kernel modes
of A - lam are deflated through a Schur complement and the value is
infinite when the form I - m M_a is positive on some kernel vector.

The resolvent works in a real Fourier basis of the full lattice: e_k
for each self-conjugate k (k = -k mod N on every axis) and, for each
pair {k, -k}, the cosine (e_k + e_-k)/sqrt2 and sine i(e_k - e_-k)/sqrt2
vectors. The field is real and |xi|^gamma is even, so M_a is a real
symmetric matrix there, A - lam stays diagonal and its kernel stays a
coordinate subset: the complex Hermitian problem is solved as a real
symmetric one of the same order. When the field has a flip on every
axis (fields.lattice_symmetries), the pairs are twisted by the phase
exp(-i pi k.s/N) of the reflection x -> s - x, which then fixes the
cosine-like vectors and negates the sine-like ones: the form splits into
an even and an odd block of about half the order, solved one by one.

The uncertainty compression of a transpose-invariant field on a
transpose-invariant mask splits the same way, into the blocks spanned by
e_k + e_k' and e_k - e_k', k' = (k2, k1). Each block is solved densely
or iteratively by its own order against DENSE_RANK_LIMIT.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

import numpy as np
import scipy.linalg
import scipy.sparse.linalg

from .fields import ObservationField, lattice_symmetries

DENSE_RANK_LIMIT = 2000
DENSE_LATTICE_LIMIT = 8192
RESIDUAL_FLOOR = 1e-10
KERNEL_TOL = 1e-9


def frequency_axes(grid: int, dim: int, period: float) -> list[np.ndarray]:
    """Per-axis frequency values xi = (2*pi/P) * k in FFT storage order.

    The spacing is computed once so a period of exactly 2*pi yields exact
    integer frequencies, keeping mask boundaries sharp.
    """
    k = np.fft.fftfreq(grid, d=1.0 / grid)
    spacing = 2.0 * math.pi / period
    return [k * spacing for _ in range(dim)]


def aliasing_radius(grid: int, period: float) -> float:
    return math.pi * grid / period


@dataclass
class FrequencyMask:
    grid: int
    dim: int
    period: float
    kind: str
    params: dict
    mask: np.ndarray

    @property
    def rank(self) -> int:
        return int(self.mask.sum())

    def indices(self) -> np.ndarray:
        """Integer lattice indices (rank, dim) of selected frequencies."""
        return np.argwhere(self.mask)

    def xi(self) -> np.ndarray:
        """Frequency vectors (rank, dim) of the selected lattice points."""
        axes = frequency_axes(self.grid, self.dim, self.period)
        idx = self.indices()
        return np.stack([axes[j][idx[:, j]] for j in range(self.dim)], axis=-1)

    def describe(self) -> dict:
        return {
            "grid": self.grid,
            "dim": self.dim,
            "period": self.period,
            "kind": self.kind,
            "params": {k: (v if np.isscalar(v) else list(np.ravel(v))) for k, v in self.params.items()},
            "rank": self.rank,
        }


def _abs_xi(grid: int, dim: int, period: float) -> np.ndarray:
    axes = frequency_axes(grid, dim, period)
    if dim == 1:
        return np.abs(axes[0])
    gx, gy = np.meshgrid(axes[0], axes[1], indexing="ij")
    return np.hypot(gx, gy)


def build_mask(grid: int, dim: int, period: float, kind: str, **params) -> FrequencyMask:
    """Boolean mask over the frequency lattice.

    Kinds and parameters:
      ball: radius (may be inf)
      annulus: lam, delta, beta; band lam - delta*lam^(-beta) <= |xi| <=
        lam + delta*lam^(-beta); must stay below the aliasing radius
      sector: angle, eps0; nonzero xi with |xi/|xi| - theta| <= eps0 (d=2)
      annulus_sector: parameters of both
      rectangle: zeta (scalar or per-axis), sigma; the box
        [zeta_j, zeta_j + sigma] on each axis
    """
    if dim not in (1, 2):
        raise ValueError("dim must be 1 or 2")
    rad = aliasing_radius(grid, period)
    absxi = _abs_xi(grid, dim, period)

    def annulus_band():
        lam, delta, beta = params["lam"], params["delta"], params.get("beta", 0.0)
        half = delta * lam ** (-beta)
        if lam + half >= rad:
            raise ValueError(
                f"annulus reaches the aliasing radius {rad}: lam + delta*lam^-beta = {lam + half}"
            )
        return (absxi >= lam - half) & (absxi <= lam + half)

    def sector_wedge():
        if dim != 2:
            raise ValueError("sector masks need dim = 2")
        angle, eps0 = params["angle"], params["eps0"]
        axes = frequency_axes(grid, dim, period)
        gx, gy = np.meshgrid(axes[0], axes[1], indexing="ij")
        r = np.hypot(gx, gy)
        ok = r > 0
        ux = np.where(ok, gx / np.where(ok, r, 1.0), 0.0)
        uy = np.where(ok, gy / np.where(ok, r, 1.0), 0.0)
        d = np.hypot(ux - math.cos(angle), uy - math.sin(angle))
        return ok & (d <= eps0)

    if kind == "ball":
        radius = params["radius"]
        if math.isfinite(radius) and radius >= rad:
            raise ValueError(f"ball radius {radius} reaches the aliasing radius {rad}")
        m = absxi <= radius
    elif kind == "annulus":
        m = annulus_band()
    elif kind == "sector":
        m = sector_wedge()
    elif kind == "annulus_sector":
        m = annulus_band() & sector_wedge()
    elif kind == "rectangle":
        zeta = np.broadcast_to(np.asarray(params["zeta"], dtype=np.float64), (dim,))
        sigma = params["sigma"]
        if np.any(zeta < -rad) or np.any(zeta + sigma >= rad):
            raise ValueError("rectangle leaves the aliased frequency range")
        axes = frequency_axes(grid, dim, period)
        per_axis = [(axes[j] >= zeta[j]) & (axes[j] <= zeta[j] + sigma) for j in range(dim)]
        m = per_axis[0] if dim == 1 else per_axis[0][:, None] & per_axis[1][None, :]
    else:
        raise ValueError(f"unknown mask kind: {kind}")
    if not m.any():
        raise ValueError(f"mask {kind} selects no lattice point")
    return FrequencyMask(grid, dim, period, kind, dict(params), m)


@dataclass
class SpectralReport:
    kind: str
    value: float
    c: float
    residual: float
    rank: int
    mask: dict
    field: dict
    extra: dict = dc_field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "value": self.value,
            "c": self.c,
            "residual": self.residual,
            "rank": self.rank,
            "mask": self.mask,
            "field": self.field,
            **self.extra,
        }


def _weight_values(field: ObservationField, weight: str) -> np.ndarray:
    if weight == "sqrt":
        return field.values
    if weight == "full":
        return field.values ** 2
    raise ValueError("weight must be 'sqrt' or 'full'")


def _coefficient_table(w: np.ndarray) -> tuple[np.ndarray, int, int]:
    """Fourier coefficients of w tiled twice per axis and flattened, with
    the radix and shift that index them.

    For lattice points k, l with flat keys key = k @ radix^(dim-1, ..., 0),
    table[key_k - key_l + shift] is the (k - l) and table[key_k + key_l]
    the (k + l) coefficient of w: no modulo is needed, because every
    per-axis index stays inside the doubled table.
    """
    grid, dim = w.shape[0], w.ndim
    radix = 2 * grid
    table = np.tile(np.fft.fftn(w) / w.size, (2,) * dim).ravel()
    return table, radix, grid * int(np.sum(radix ** np.arange(dim)))


def compression_matrix(field: ObservationField, mask: FrequencyMask, weight: str = "sqrt") -> np.ndarray:
    """Hermitian matrix of Pi M_w Pi in the orthonormal Fourier basis.

    Entry (j, k) is the (xi_j - xi_k) Fourier coefficient of w, read off a
    single FFT of the weight, so the compression is exact on the lattice.
    Rows are gathered in blocks of at most 8192 entries, so no rank x rank
    index array is allocated.
    """
    table, radix, shift = _coefficient_table(_weight_values(field, weight))
    key = mask.indices() @ radix ** np.arange(mask.dim - 1, -1, -1)
    out = np.empty((key.size, key.size), dtype=table.dtype)
    step = max(1, (1 << 13) // key.size)
    for r0 in range(0, key.size, step):
        np.take(table, key[r0:r0 + step, None] - (key - shift), out=out[r0:r0 + step])
    return out


def _sandwich_matvec(field: ObservationField, mask: FrequencyMask, weight: str):
    """Matrix-free Pi M_w Pi as restrict -> ifft -> multiply -> fft -> restrict."""
    w = _weight_values(field, weight)
    sel = mask.mask

    def matvec(v):
        spec = np.zeros(sel.shape, dtype=complex)
        spec[sel] = v
        u = np.fft.ifftn(spec, norm="ortho")
        spec2 = np.fft.fftn(w * u, norm="ortho")
        return spec2[sel]

    return matvec


def _smallest_pair(dense, matvec, r):
    """Smallest eigenpair of a Hermitian r x r operator.

    Dense (dense() builds the matrix) up to DENSE_RANK_LIMIT; above it,
    shift-invert Lanczos on matvec at a small negative shift, so the inner
    conjugate-gradient solves stay well conditioned even when the operator
    is nearly singular. A block of Ritz pairs is requested because the
    smallest eigenvalues of concentration operators cluster.
    """
    if r <= DENSE_RANK_LIMIT:
        vals, vecs = scipy.linalg.eigh(dense(), subset_by_index=[0, 0])
        return float(vals[0]), vecs[:, 0]
    op = scipy.sparse.linalg.LinearOperator((r, r), matvec=matvec, dtype=complex)
    sigma = -1e-2
    shifted = scipy.sparse.linalg.LinearOperator(
        (r, r), matvec=lambda x: matvec(x) - sigma * x, dtype=complex)

    def solve(b):
        x, info = scipy.sparse.linalg.cg(shifted, b, rtol=1e-12, atol=0.0, maxiter=5000)
        if info != 0:
            raise RuntimeError(f"inner conjugate-gradient solve failed (info = {info})")
        return x

    opinv = scipy.sparse.linalg.LinearOperator((r, r), matvec=solve, dtype=complex)
    # a fixed Gaussian start makes reruns bit-identical; a structured
    # start such as ones would be orthogonal to odd eigenvectors
    rng = np.random.default_rng(0)
    v0 = rng.standard_normal(r) + 1j * rng.standard_normal(r)
    try:
        vals, vecs = scipy.sparse.linalg.eigsh(
            op, k=4, sigma=sigma, which="LM", OPinv=opinv, tol=1e-9, maxiter=1000,
            v0=v0, rng=np.random.default_rng(0))
    except scipy.sparse.linalg.ArpackNoConvergence as exc:
        vals, vecs = exc.eigenvalues, exc.eigenvectors
        if vals is None or not len(vals):
            raise RuntimeError("eigensolver did not converge and returned no Ritz pairs") from exc
    i = int(np.argmin(vals))
    return float(vals[i]), vecs[:, i]


def _transpose_fold(field: ObservationField, mask: FrequencyMask):
    """Two-point bases (pts, alpha, pts2, beta) of the blocks that split
    Pi M_w Pi when the field and the mask are transpose-invariant, else None.

    With k' = (k2, k1), the + block holds (e_k + e_k')/sqrt2 for k1 < k2
    and e_k on the diagonal k1 = k2 (alpha = beta = 1/2); the - block holds
    (e_k - e_k')/sqrt2. A transpose-invariant weight maps neither into the
    other.
    """
    if (field.dim != 2 or not np.array_equal(mask.mask, mask.mask.T)
            or {"kind": "transpose"} not in lattice_symmetries(field)):
        return None
    idx = mask.indices()
    upper, diag = idx[:, 0] < idx[:, 1], idx[:, 0] == idx[:, 1]
    plus = upper | diag
    a = np.where(diag[plus], 0.5, math.sqrt(0.5))
    h = np.full(int(upper.sum()), math.sqrt(0.5))
    blocks = [(idx[plus], a, idx[plus][:, ::-1], a), (idx[upper], h, idx[upper][:, ::-1], -h)]
    return [b for b in blocks if b[0].size]


def _fold_block_smallest(matvec, table, pos, rank, pts, alpha, pts2, beta):
    """Smallest eigenpair of one _transpose_fold block, the eigenvector
    lifted to the rank mask points (pos maps a lattice point to its mask
    position; alpha and beta are real)."""
    i, j = pos[tuple(pts.T)], pos[tuple(pts2.T)]

    def lift(x):
        v = np.zeros(rank, dtype=complex)
        v[i] = alpha * x
        v[j] += beta * x
        return v

    def block_matvec(x):
        y = matvec(lift(x))
        return alpha * y[i] + beta * y[j]

    c, x = _smallest_pair(lambda: _pair_form(table, pts, alpha, pts2, beta), block_matvec,
                          len(pts))
    return c, lift(x)


def _smallest_eig(field, mask, weight):
    """Smallest eigenpair of the compression, with its matrix-free residual.

    A transpose-invariant field and mask split the compression into the
    blocks of _transpose_fold, each solved on its own (dense or iterative
    by its own order) and lifted back to the mask; the residual is taken
    on the full mask.
    """
    matvec = _sandwich_matvec(field, mask, weight)
    blocks = _transpose_fold(field, mask)
    if blocks is None:
        c, v = _smallest_pair(lambda: compression_matrix(field, mask, weight), matvec, mask.rank)
    else:
        table = _coefficient_table(_weight_values(field, weight))
        pos = np.zeros(mask.mask.shape, dtype=np.intp)
        pos[mask.mask] = np.arange(mask.rank)
        c, v = min((_fold_block_smallest(matvec, table, pos, mask.rank, *b) for b in blocks),
                   key=lambda pair: pair[0])
    residual = float(np.linalg.norm(matvec(v) - c * v))
    if residual > 1e-8:
        raise RuntimeError(f"eigensolver did not converge; residual {residual}")
    return c, v, residual


def uncertainty_constant(field: ObservationField, mask: FrequencyMask, weight: str = "sqrt") -> SpectralReport:
    """C = c^(-1/2) with c the smallest eigenvalue of Pi M_w Pi.

    C is reported as inf when c falls below the residual floor: the masked
    subspace then contains data essentially invisible to the field.
    """
    c, _, residual = _smallest_eig(field, mask, weight)
    if c < -1e-10:
        raise RuntimeError(f"compression eigenvalue {c} is negative beyond roundoff")
    c = max(c, 0.0)
    C = float("inf") if c <= RESIDUAL_FLOOR else c ** -0.5
    return SpectralReport(
        kind=f"uncertainty-{weight}",
        value=C,
        c=c,
        residual=residual,
        rank=mask.rank,
        mask=mask.describe(),
        field=field.describe(),
    )


def _pair_form(table, pts: np.ndarray, alpha: np.ndarray, pts2: np.ndarray,
               beta: np.ndarray, real: bool = False) -> np.ndarray:
    """Pi M_w Pi in an orthonormal basis of two-point vectors
    alpha_r e_k + beta_r e_k', k = pts[r], k' = pts2[r]; table is
    _coefficient_table(w).

    Entry (r, s) is 2 conj(alpha_r) [alpha_s w^(k_r - k_s) + beta_s
    w^(k_r - k'_s)]. These two terms stand for all four of the exact entry
    in the two bases built on it:
      real Fourier bases (k' = -k, beta = conj(alpha), w real): the other
        two terms are their conjugates, and the entry is the real part
        (real=True returns it as float64);
      the transpose fold (k' the transpose of k, beta = +-alpha real, w
        transpose-invariant): the other two terms equal these.
    Rows are filled in blocks, so no rank x rank index temporary is
    allocated.
    """
    table, radix, shift = table
    powers = radix ** np.arange(pts.shape[1] - 1, -1, -1)
    key, key2 = pts @ powers - shift, pts2 @ powers - shift
    n = key.size
    out = np.empty((n, n), dtype=np.float64 if real else complex)
    step = max(1, (1 << 16) // n)
    for r0 in range(0, n, step):
        blk = slice(r0, r0 + step)
        a = np.conj(alpha[blk])[:, None]
        row = key[blk, None] + shift
        rows = 2.0 * (a * alpha * table[row - key] + a * beta * table[row - key2])
        out[blk] = rows.real if real else rows
    return out


def _real_fourier_basis(grid: int, dim: int, s=None) -> list[tuple[np.ndarray, np.ndarray]]:
    """Blocks (pts, alpha) of a real Fourier basis of the full lattice:
    vector r of a block is alpha_r e_k + conj(alpha_r) e_-k, k = pts[r].

    With no reflection (s None) there is one block. alpha is 1/2 at a
    self-conjugate k (the vector is e_k itself), 1/sqrt2 for the cosine
    and i/sqrt2 for the sine vector of a pair {k, -k}. The cosine and
    self-conjugate vectors come first, then the sines, each in flat
    lattice order.

    With the point reflection x -> s - x (one shift per axis), each pair
    is twisted by phi_k = exp(-i pi k.s / grid): its even vector has
    alpha = phi_k/sqrt2 and its odd vector i phi_k/sqrt2. The reflection
    fixes the first and negates the second, so the even block (even
    vectors and the self-conjugate k with exp(2 pi i k.s / grid) = 1) and
    the odd block (odd vectors and the other self-conjugate k) are
    returned apart, each in flat lattice order.
    """
    shape = (grid,) * dim
    pts = np.indices(shape).reshape(dim, -1).T
    flat = np.arange(pts.shape[0])
    neg = np.ravel_multi_index(tuple(np.mod(-pts, grid).T), shape)
    pair, fixed = flat < neg, flat == neg
    if s is None:
        cos = pair | fixed
        alpha = np.concatenate([np.where(fixed[cos], 0.5, math.sqrt(0.5)),
                                np.full(int(pair.sum()), 1j * math.sqrt(0.5))])
        return [(np.concatenate([pts[cos], pts[pair]]), alpha)]
    ks = pts @ np.asarray(s) % (2 * grid)  # k.s mod 2 grid fixes phi_k
    twist = np.exp(-1j * math.pi * ks / grid) * math.sqrt(0.5)
    odd_fixed = fixed & (2 * ks // grid % 2 == 1)
    blocks = [(pts[sel], np.where(fixed[sel], 0.5, unit * twist[sel]))
              for sel, unit in ((pair | (fixed & ~odd_fixed), 1.0), (pair | odd_fixed, 1j))]
    return [b for b in blocks if b[0].size]


def _resolvent_form(field: ObservationField, m: float) -> list[tuple[np.ndarray, np.ndarray]]:
    """Blocks (Q, |xi|) of I - m M_a, one per block of the real Fourier
    basis, with |xi| at the block's basis points. The basis is twisted by
    the point reflection x -> s - x when fields.lattice_symmetries finds a
    flip i -> (s_k - i) mod grid on every axis k."""
    if m <= 0:
        raise ValueError("m must be positive")
    n = field.grid ** field.dim
    if n > DENSE_LATTICE_LIMIT:
        raise ValueError(
            f"the dense resolvent on n = {n} lattice points needs about {3 * 8 * n * n / 1e9:.1f} GB"
            f" for three n x n float64 matrices; the limit is {DENSE_LATTICE_LIMIT} points")
    flips = {g["axis"]: g["s"] for g in lattice_symmetries(field) if g["kind"] == "flip"}
    s = [flips[k] for k in range(field.dim)] if len(flips) == field.dim else None
    table = _coefficient_table(field.values)
    absxi = _abs_xi(field.grid, field.dim, field.period)
    blocks = []
    for pts, alpha in _real_fourier_basis(field.grid, field.dim, s):
        Q = _pair_form(table, pts, alpha, np.mod(-pts, field.grid), np.conj(alpha), real=True)
        Q *= -m
        Q[np.diag_indices(len(pts))] += 1.0
        blocks.append((Q, absxi[tuple(pts.T)]))
    return blocks


def _resolvent_at(field: ObservationField, blocks, gamma: float, lam: float,
                  m: float) -> SpectralReport:
    """M at one lam from the blocks of I - m M_a built by _resolvent_form."""
    if not gamma > 0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    parts = []
    for Q, absxi in blocks:
        dvec = absxi ** gamma - lam
        ker = np.abs(dvec) <= KERNEL_TOL * max(1.0, abs(lam))
        parts.append((Q, dvec, np.flatnonzero(ker), np.flatnonzero(~ker)))
    n = sum(Q.shape[0] for Q, _ in blocks)
    extra = {"kernel_dim": sum(k_idx.size for _, _, k_idx, _ in parts), "lam": lam,
             "gamma": gamma, "m": m}
    # the full lattice, as FrequencyMask.describe() writes a ball of radius inf
    full = {"grid": field.grid, "dim": field.dim, "period": field.period, "kind": "ball",
            "params": {"radius": float("inf")}, "rank": n}

    def report(value, c, residual=0.0):
        return SpectralReport(
            kind="resolvent-M", value=value, c=c, residual=residual, rank=n,
            mask=full, field=field.describe(), extra=extra,
        )

    # every block's kernel is tested before any block is solved, so the
    # verdict does not depend on the block order
    kernels = [scipy.linalg.eigh(Q[np.ix_(k_idx, k_idx)]) if k_idx.size else None
               for Q, _, k_idx, _ in parts]
    tops = [eig[0][-1] for eig in kernels if eig is not None]
    if tops and max(tops) > 1e-12:
        return report(float("inf"), float(max(tops)))
    for (Q, _, k_idx, p_idx), eig in zip(parts, kernels):
        if eig is not None:
            e, V = eig
            null = np.abs(e) <= 1e-12
            if null.any() and np.any(
                    np.linalg.norm(V[:, null].T @ Q[np.ix_(k_idx, p_idx)], axis=1) > 1e-10):
                return report(float("inf"), 0.0)
    M, residual = -math.inf, 0.0
    for (Q, dvec, k_idx, p_idx), eig in zip(parts, kernels):
        if not p_idx.size:
            continue
        W = Q[np.ix_(p_idx, p_idx)]
        if eig is not None:
            e, V = eig
            neg = e < -1e-12
            X = V[:, neg].T @ Q[np.ix_(k_idx, p_idx)]
            W -= (X.T / e[neg]) @ X
        scale = 1.0 / np.abs(dvec[p_idx])
        W *= scale[:, None]
        W *= scale[None, :]
        top = W.shape[0] - 1
        vals, vecs = scipy.linalg.eigh(W, subset_by_index=[top, top], driver="evx")
        block_M, v = float(vals[0]), vecs[:, 0]
        block_residual = float(np.linalg.norm(W @ v - block_M * v))
        if block_residual > 1e-8 * max(1.0, abs(block_M)):
            raise RuntimeError(f"top eigenpair of a resolvent block did not converge; residual "
                               f"{block_residual} at M = {block_M}")
        if block_M > M:
            M, residual = block_M, block_residual
    M = max(M, 0.0)
    return report(M, M, residual)


def resolvent_constant(field: ObservationField, gamma: float, lam: float, m: float) -> SpectralReport:
    """Smallest M with ||u||^2 <= M ||(A - lam) u||^2 + m <a u, u>.

    A = |xi|^gamma on the full frequency lattice. The form I - m M_a is
    assembled in the real Fourier basis of the module docstring, where it
    is real symmetric and A - lam is diagonal: one block, or the even and
    odd blocks of the twisted basis when the field has a flip on every
    axis. Kernel modes of A - lam, |A - lam| <= KERNEL_TOL * max(1, |lam|),
    are deflated: the value is inf if the form is positive on the kernel
    of any block (c is then the largest kernel eigenvalue over all
    blocks), or null with coupling there; otherwise each block's kernel is
    eliminated by a Schur complement S, and M is the largest top
    eigenvalue of D^-1 S D^-1 over the blocks, D = |A - lam| off the
    kernel. kernel_dim counts the kernel of every block. A top eigenpair
    whose residual exceeds 1e-8 * max(1, |M|) raises RuntimeError. The
    lattice may have at most DENSE_LATTICE_LIMIT points in all, whatever
    the blocks; larger ones raise ValueError.
    """
    return _resolvent_at(field, _resolvent_form(field, m), gamma, lam, m)


def calibrate_m(field: ObservationField, gamma: float, lam0: float) -> float:
    """m = 2 / c with c the uncertainty eigenvalue on the ball of radius
    lam0^(1/gamma): kernel modes of any |lam| <= lam0 then satisfy
    m <a u, u> >= 2 ||u||^2, keeping the deflated form negative there."""
    if not gamma > 0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    if not lam0 > 0:
        raise ValueError(f"lam0 must be positive, got {lam0}")
    radius = lam0 ** (1.0 / gamma)
    rad = aliasing_radius(field.grid, field.period)
    if radius >= rad:
        raise ValueError(f"calibration ball radius {radius} reaches the aliasing radius {rad}")
    mask = build_mask(field.grid, field.dim, field.period, "ball", radius=radius)
    rep = uncertainty_constant(field, mask, weight="sqrt")
    if rep.c <= RESIDUAL_FLOOR:
        raise ValueError("field is invisible on the calibration ball; cannot set m")
    return 2.0 / rep.c


def resolvent_sweep(field: ObservationField, gamma: float, lambdas, m: float) -> list[SpectralReport]:
    """resolvent_constant across a lam list, assembling the form once."""
    blocks = _resolvent_form(field, m)
    return [_resolvent_at(field, blocks, gamma, float(lam), m) for lam in lambdas]
