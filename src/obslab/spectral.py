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

The resolvent works in the real Fourier basis of the full lattice: e_k
for each self-conjugate k (k = -k mod N on every axis) and, for each
pair {k, -k}, the cosine (e_k + e_-k)/sqrt2 and sine i(e_k - e_-k)/sqrt2
vectors. The field is real and |xi|^gamma is even, so M_a is a real
symmetric matrix there, A - lam stays diagonal and its kernel stays a
coordinate subset: the complex Hermitian problem is solved as a real
symmetric one of the same order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

import numpy as np
import scipy.linalg
import scipy.sparse.linalg

from .fields import ObservationField

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


def _smallest_eig(field, mask, weight):
    """Smallest eigenpair of the compression, with its matrix-free residual.

    Dense below the rank limit; above it, shift-invert Lanczos at a small
    negative shift, so the inner conjugate-gradient solves stay well
    conditioned even when the compression is nearly singular. A block of
    Ritz pairs is requested because the smallest eigenvalues of
    concentration operators cluster.
    """
    matvec = _sandwich_matvec(field, mask, weight)
    r = mask.rank
    if r <= DENSE_RANK_LIMIT:
        mat = compression_matrix(field, mask, weight)
        vals, vecs = scipy.linalg.eigh(mat, subset_by_index=[0, 0])
        c, v = float(vals[0]), vecs[:, 0]
    else:
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
        c, v = float(vals[i]), vecs[:, i]
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


def _real_fourier_basis(grid: int, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Lattice points k (n, dim) and coefficients alpha (n,) of the real
    Fourier basis: vector r is alpha_r e_k + conj(alpha_r) e_-k, k = pts[r].

    alpha is 1/2 at a self-conjugate k (the vector is e_k itself), 1/sqrt2
    for the cosine and i/sqrt2 for the sine vector of a pair {k, -k}. The
    cosine and self-conjugate vectors come first, then the sines, each in
    flat lattice order.
    """
    shape = (grid,) * dim
    pts = np.indices(shape).reshape(dim, -1).T
    flat = np.arange(pts.shape[0])
    neg = np.ravel_multi_index(tuple(np.mod(-pts, grid).T), shape)
    cos, sin = flat <= neg, flat < neg
    alpha = np.concatenate([np.where(flat[cos] == neg[cos], 0.5, math.sqrt(0.5)),
                            np.full(int(sin.sum()), 1j * math.sqrt(0.5))])
    return np.concatenate([pts[cos], pts[sin]]), alpha


def _real_compression(field: ObservationField) -> tuple[np.ndarray, np.ndarray]:
    """Full-lattice Pi M_a Pi in the real Fourier basis, and the basis points.

    Entry (r, s) is 2 Re[conj(alpha_r) alpha_s a^(k_r - k_s)
    + conj(alpha_r alpha_s) a^(k_r + k_s)] with a^ the Fourier coefficients
    of the field, the same exact lattice compression as compression_matrix.
    Rows are filled in blocks so the index temporaries stay small.
    """
    table, radix, shift = _coefficient_table(field.values)
    pts, alpha = _real_fourier_basis(field.grid, field.dim)
    key = pts @ radix ** np.arange(field.dim - 1, -1, -1)
    n = pts.shape[0]
    out = np.empty((n, n))
    step = max(1, (1 << 20) // n)
    for r0 in range(0, n, step):
        blk = slice(r0, r0 + step)
        a = np.conj(alpha[blk])[:, None]
        diff = table[key[blk, None] - key[None, :] + shift]
        summ = table[key[blk, None] + key[None, :]]
        out[blk] = 2.0 * (a * alpha * diff + a * np.conj(alpha) * summ).real
    return out, pts


def _resolvent_form(field: ObservationField, m: float) -> tuple[np.ndarray, np.ndarray]:
    """I - m M_a in the real Fourier basis, and |xi| at the basis points."""
    if m <= 0:
        raise ValueError("m must be positive")
    n = field.grid ** field.dim
    if n > DENSE_LATTICE_LIMIT:
        raise ValueError(
            f"the dense resolvent on n = {n} lattice points needs about {3 * 8 * n * n / 1e9:.1f} GB"
            f" for three n x n float64 matrices; the limit is {DENSE_LATTICE_LIMIT} points")
    Q, pts = _real_compression(field)
    Q *= -m
    Q[np.diag_indices(n)] += 1.0
    return Q, _abs_xi(field.grid, field.dim, field.period)[tuple(pts.T)]


def _resolvent_at(field: ObservationField, Q: np.ndarray, absxi: np.ndarray, gamma: float,
                  lam: float, m: float) -> SpectralReport:
    """M at one lam from the form Q = I - m M_a of _resolvent_form."""
    if not gamma > 0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    n = Q.shape[0]
    dvec = absxi ** gamma - lam
    ker = np.abs(dvec) <= KERNEL_TOL * max(1.0, abs(lam))
    extra = {"kernel_dim": int(ker.sum()), "lam": lam, "gamma": gamma, "m": m}
    # the full lattice, as FrequencyMask.describe() writes a ball of radius inf
    full = {"grid": field.grid, "dim": field.dim, "period": field.period, "kind": "ball",
            "params": {"radius": float("inf")}, "rank": n}

    def report(value, c, residual=0.0):
        return SpectralReport(
            kind="resolvent-M", value=value, c=c, residual=residual, rank=n,
            mask=full, field=field.describe(), extra=extra,
        )

    k_idx, p_idx = np.flatnonzero(ker), np.flatnonzero(~ker)
    W = Q[np.ix_(p_idx, p_idx)]
    if k_idx.size:
        Q01 = Q[np.ix_(k_idx, p_idx)]
        e, V = scipy.linalg.eigh(Q[np.ix_(k_idx, k_idx)])
        if e[-1] > 1e-12:
            return report(float("inf"), float(e[-1]))
        null = np.abs(e) <= 1e-12
        if null.any() and np.any(np.linalg.norm(V[:, null].T @ Q01, axis=1) > 1e-10):
            return report(float("inf"), 0.0)
        neg = e < -1e-12
        X = V[:, neg].T @ Q01
        W -= (X.T / e[neg]) @ X
    scale = 1.0 / np.abs(dvec[p_idx])
    W *= scale[:, None]
    W *= scale[None, :]
    top = W.shape[0] - 1
    vals, vecs = scipy.linalg.eigh(W, subset_by_index=[top, top], driver="evx")
    M, v = float(vals[0]), vecs[:, 0]
    residual = float(np.linalg.norm(W @ v - M * v))
    M = max(M, 0.0)
    return report(M, M, residual)


def resolvent_constant(field: ObservationField, gamma: float, lam: float, m: float) -> SpectralReport:
    """Smallest M with ||u||^2 <= M ||(A - lam) u||^2 + m <a u, u>.

    A = |xi|^gamma on the full frequency lattice. The form I - m M_a is
    assembled in the real Fourier basis of the module docstring, where it
    is real symmetric and A - lam is diagonal. Kernel modes of A - lam,
    |A - lam| <= KERNEL_TOL * max(1, |lam|), are deflated: the value is
    inf if the form is positive, or null with coupling, on the kernel;
    otherwise the kernel is eliminated by a Schur complement S and M is
    the top eigenvalue of D^-1 S D^-1, D = |A - lam| off the kernel. The
    lattice may have at most DENSE_LATTICE_LIMIT points; larger ones
    raise ValueError.
    """
    Q, absxi = _resolvent_form(field, m)
    return _resolvent_at(field, Q, absxi, gamma, lam, m)


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
    Q, absxi = _resolvent_form(field, m)
    return [_resolvent_at(field, Q, absxi, gamma, float(lam), m) for lam in lambdas]
