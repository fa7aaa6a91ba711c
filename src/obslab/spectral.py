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

The resolvent is solved matrix-free on the real samples x of the full
lattice, where I - m M_a is the multiplication by q = 1 - m a and
|A - lam|^-1 is a real even Fourier multiplier s, set to 0 on the kernel
K of A - lam. The form of resolvent_constant is
  W x = s(q (s x)) - Z diag(1/e) Z^T x,
s applied as irfftn(s rfftn(x)) with norm="ortho". The second term is
the Schur correction over the kernel: e are the negative eigenvalues of
the kernel form B^T diag(q) B on a real orthonormal basis B of the
kernel modes (_kernel_basis), and Z = s(q B V) with V their
eigenvectors. The top eigenpair of W is found by Lanczos with full
reorthogonalization (_top_lanczos), which needs no N x N array.

The uncertainty compression is solved densely over the blocks of
_mask_blocks (two transpose blocks on a transpose-invariant field and
mask, else one identity block); a block of order above DENSE_RANK_LIMIT
is refused before any form is built.

Every field is real, so conjugation J, J e_k = e_-k (k mod grid),
commutes with Pi M_w Pi. On a mask closed under k -> -k (a ball, an
annulus, a rectangle centred on 0; _negated_positions tests it) J maps
each block of _mask_blocks to itself, and as J is antiunitary with
J^2 = 1 the block is a real symmetric matrix on a J-invariant basis of
cosine and sine pairs (_real_form, built from one rectangular
_pair_form; Dyson, J. Math. Phys. 3, 1962). _real_lift maps its
eigenvectors back to the mask. Blocks of such masks are solved in that
real form; those of any other mask (sectors, off-centre rectangles) as
a complex Hermitian _pair_form. The Gramian blocks of evolution are the
same real forms times a real time kernel.

Every block, real or complex, uncertainty or Gramian, goes to
_lowest_pair, which solves each in its own arithmetic. Its caller
bounds the form by 0 <= G <= g (g = max w, or T max a for the Gramian)
and passes sigma = -SHIFT_EPS g, so G - sigma I is positive definite:
it is Cholesky-factored once (a quarter of the flops of a
tridiagonalization), and Lanczos finds the largest eigenvalue mu of its
inverse, lam = sigma + 1/mu. Orders up to DENSE_EIGH_LIMIT and the zero
form (sigma = 0) go to eigh. The two agree to 1e-13 relative on the
benchmark's blocks.

One Lanczos loop, _top_lanczos, serves the resolvent and the
shift-invert blocks. It keeps every basis vector and reorthogonalizes
against all of them, so it needs no restart, and it stops at the block
order at the latest, where the Krylov space is exhausted and the top
Ritz value is exact: a bottom cluster as narrow as roundoff cannot
stall it.

One OpenBLAS pool per eigensolve. numpy and SciPy each load their own
OpenBLAS (numpy.libs' libscipy_openblas64_, scipy.libs'
libscipy_openblas), each with its own worker threads. After a threaded
numpy matrix-vector product, numpy's idle worker keeps spinning on the
other core, and SciPy's threaded factor waits for that core. On 2 cores,
in the 2d observe of the cost benchmark, cho_factor of the order-913 and
order-880 Gramian blocks took a median 11-12 ms a call (up to 127 ms)
with numpy's Lanczos and residual GEMVs between the calls, and 6-7 ms
with SciPy's. So every matrix-vector product inside a solve runs in
SciPy's BLAS, the library that factors: _top_lanczos's Gram-Schmidt
passes and Ritz vector through get_blas_funcs("gemv") on its basis in
place, and the residual of evolution.cost_curve. Level-1 calls
(np.vdot, np.linalg.norm) may stay on numpy.

SciPy is imported inside the functions that call it (here and in
evolution.cost_curve), at the first eigensolve, so importing obslab
loads numpy alone and the commands that solve no eigenproblem (certify,
cover, construct-demo) never load SciPy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .fields import ObservationField, lattice_symmetries

# the largest order of a dense uncertainty block, and the largest Gramian rank
DENSE_RANK_LIMIT = 8192
# block orders up to this go to eigh, which is as fast there (measured
# crossover 130-230 on smooth fields, 2 cores, OpenBLAS)
DENSE_EIGH_LIMIT = 160
SHIFT_EPS = 1e-6
# a Ritz tolerance of 0 (machine precision) would run every block to its
# order, one Cholesky solve per step; the Gramian divides it by max(1, T),
# so its residual, at most tol ||G - sigma I||, stays near it
LANCZOS_TOL = 1e-10
DENSE_LATTICE_LIMIT = 8192
RESOLVENT_TOL = 1e-14
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
    It is _pair_form on the identity block e_k = e_k/2 + e_k/2, whose
    entries 2 (w/4 + w/4) are exact in floating point.
    """
    idx = mask.indices()
    half = np.full(mask.rank, 0.5)
    return _pair_form(_coefficient_table(_weight_values(field, weight)), idx, half, idx, half)


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


def _lowest_pair(G, sigma, tol):
    """Smallest eigenpair of the dense Hermitian (or real symmetric) G >= 0
    by eigh, or by Lanczos at tolerance tol on (G - sigma I)^-1, sigma < 0
    (module docstring), in G's own arithmetic. An F-ordered G, as
    _real_form and _pair_form write it, is shifted and factored in place,
    so a solve holds one form; G of any other layout is left as it was,
    and its F-ordered copy is factored."""
    import scipy.linalg
    n = G.shape[0]
    if n <= DENSE_EIGH_LIMIT or sigma == 0.0:
        vals, vecs = scipy.linalg.eigh(G, subset_by_index=[0, 0], overwrite_a=True)
        return float(vals[0]), vecs[:, 0]
    F = np.asfortranarray(G)
    F[np.diag_indices(n)] -= sigma
    factor = scipy.linalg.cho_factor(F, overwrite_a=True, check_finite=False)
    mu, v = _top_lanczos(lambda b: scipy.linalg.cho_solve(factor, b, check_finite=False),
                         _gaussian_start(n, G.dtype), n, tol)
    return sigma + 1.0 / mu, v


def _gaussian_start(n: int, dtype) -> np.ndarray:
    """The fixed Lanczos start: n standard normal draws from seed 0, plus
    i times n more for a complex dtype. Reruns are bit-identical, and
    unlike a structured start such as ones it is orthogonal to no
    eigenvector."""
    rng = np.random.default_rng(0)
    v = rng.standard_normal(n)
    return v + 1j * rng.standard_normal(n) if np.dtype(dtype).kind == "c" else v


def _mask_blocks(field: ObservationField, mask: FrequencyMask):
    """Blocks (i, alpha, j, beta) that split Pi M_w Pi: vector r of a block
    is alpha_r e_k + beta_r e_k', k and k' the mask points at positions
    i[r] and j[r] of mask.indices(), alpha and beta real.

    With no transpose symmetry there is one identity block, e_k = e_k/2 +
    e_k/2. A transpose-invariant 2d field and mask give two: with
    k' = (k2, k1), the + block holds (e_k + e_k')/sqrt2 for k1 < k2 and
    e_k on the diagonal (alpha = beta = 1/2), the - block (e_k - e_k')/sqrt2.
    A transpose-invariant weight maps neither into the other.
    """
    pos = np.arange(mask.rank)
    if (field.dim != 2 or not np.array_equal(mask.mask, mask.mask.T)
            or {"kind": "transpose"} not in lattice_symmetries(field)):
        half = np.full(mask.rank, 0.5)
        return [(pos, half, pos, half)]
    idx = mask.indices()
    at = np.zeros(mask.mask.shape, dtype=np.intp)
    at[mask.mask] = pos
    pos_t = at[idx[:, 1], idx[:, 0]]
    upper, diag = idx[:, 0] < idx[:, 1], idx[:, 0] == idx[:, 1]
    plus = upper | diag
    a = np.where(diag[plus], 0.5, math.sqrt(0.5))
    h = np.full(int(upper.sum()), math.sqrt(0.5))
    blocks = [(pos[plus], a, pos_t[plus], a), (pos[upper], h, pos_t[upper], -h)]
    return [b for b in blocks if b[0].size]


def _smallest_eig(field, mask, weight):
    """Smallest eigenpair of the compression, with its matrix-free residual.

    Each block of _mask_blocks is solved by _lowest_pair and its
    eigenvector lifted back to the mask; the least block minimum wins,
    and the residual is taken on the full mask by _sandwich_matvec, which
    reads no pair form. A block of a mask closed under k -> -k is solved
    as its real form (_real_form), any other block as its complex
    _pair_form. A block of order above DENSE_RANK_LIMIT raises ValueError
    before the coefficient table or any form is built.
    """
    blocks = _mask_blocks(field, mask)
    neg, closed = _negated_positions(mask)
    order = max(len(b[0]) for b in blocks)
    if order > DENSE_RANK_LIMIT:
        # the traced peak of a dense solve: its form and the Lanczos basis
        # reserved beside it (at order 2541, 104.8 MB against 2 x 8 x 2541^2
        # = 103.3 MB)
        dtype, size = ("float64", 8) if closed else ("complex128", 16)
        raise ValueError(
            f"the uncertainty block of order {order} needs about"
            f" {2 * size * order * order / 1e9:.1f} GB (two {order} x {order} {dtype} arrays,"
            f" the form and its Lanczos basis, the measured peak of its dense solve); the limit"
            f" is order {DENSE_RANK_LIMIT}")
    w = _weight_values(field, weight)
    table = _coefficient_table(w)
    idx = mask.indices()
    sigma = -SHIFT_EPS * float(np.max(w))

    def block_smallest(i, alpha, j, beta):
        if closed:
            R, *_ = _real_form(table, idx, neg, i, alpha, j, beta)
            c, x = _lowest_pair(R, sigma, LANCZOS_TOL)
            return c, _real_lift(neg, i, alpha, j, beta, x, mask.rank)
        c, x = _lowest_pair(_pair_form(table, idx[i], alpha, idx[j], beta), sigma, LANCZOS_TOL)
        v = np.zeros(mask.rank, dtype=complex)
        v[i] = alpha * x
        v[j] += beta * x
        return c, v

    c, v = min((block_smallest(*b) for b in blocks), key=lambda pair: pair[0])
    residual = float(np.linalg.norm(_sandwich_matvec(field, mask, weight)(v) - c * v))
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
               beta: np.ndarray) -> np.ndarray:
    """Pi M_w Pi between two-point vectors alpha_r e_k + beta_r e_k',
    k = pts[r], k' = pts2[r], orthonormal within a block; table is
    _coefficient_table(w).

    Entry (r, s) is 2 conj(alpha_r) [alpha_s w^(k_r - k_s) + beta_s
    w^(k_r - k'_s)]. These two terms stand for all four of the exact entry
    when beta = +-alpha real with one sign for every vector, and k' = k or
    the transpose of k with w transpose-invariant (a block of _mask_blocks,
    or the conjugates of its vectors): the other two terms equal these.
    The form is written once, column-major as _lowest_pair factors it in
    place, from the row blocks of _pair_rows.
    """
    n = len(pts)
    out = np.empty((n, n), dtype=complex, order="F")
    for blk, rows in _pair_rows(table, pts, alpha, pts2, beta, n):
        out[blk] = rows
    return out


def _pair_rows(table, pts, alpha, pts2, beta, n_rows: int):
    """The first n_rows rows of _pair_form, columns all of its vectors, as
    (slice, rows) in blocks of about 2^15 entries, so no rows x columns
    index temporary is allocated."""
    table, radix, shift = table
    powers = radix ** np.arange(pts.shape[1] - 1, -1, -1)
    key, key2 = pts @ powers - shift, pts2 @ powers - shift
    step = max(1, (1 << 15) // key.size)
    for r0 in range(0, n_rows, step):
        blk = slice(r0, min(r0 + step, n_rows))
        a = np.conj(alpha[blk])[:, None]
        row = key[blk, None] + shift
        yield blk, 2.0 * (a * alpha * table[row - key] + a * beta * table[row - key2])


def _negated_positions(mask: FrequencyMask) -> tuple[np.ndarray, bool]:
    """neg[p], the position in mask.indices() of -k (mod grid) for the mask
    point k at p, or -1 where -k is not in the mask; and whether the mask
    is closed under k -> -k (every neg[p] >= 0)."""
    at = np.full(mask.mask.shape, -1, dtype=np.intp)
    at[mask.mask] = np.arange(mask.rank)
    neg = at[tuple((-mask.indices() % mask.grid).T)]
    return neg, bool(np.all(neg >= 0))


def _conjugate_pairs(neg, i, alpha, j, beta):
    """A block of _mask_blocks under conjugation J, J e_k = e_-k, which
    commutes with Pi M_w Pi on a real w (and with the Gramian's centred
    time kernel); the mask must be closed under k -> -k (neg from
    _negated_positions).

    Block vector f_a = alpha_a e_k + beta_a e_k' (k, k' at mask positions
    i[a], j[a]; neg[p] is the position of the negative of the point at p)
    has J f_a = alpha_a e_-k + beta_a e_-k' = +-f_b for one block vector
    b, its partner. Returns rep, the a with a < b; own, the a with b = a;
    and for each own the phase, 1 or i, that makes phase f_a J-invariant
    (i exactly when -k = k' != k and beta_a = -alpha_a, so J f_a = -f_a).
    """
    row = np.empty(neg.size, dtype=np.intp)
    row[j] = np.arange(j.size)
    row[i] = np.arange(i.size)
    pos = np.arange(i.size)
    partner = row[neg[i]]
    own = np.flatnonzero(partner == pos)
    odd = (neg[i[own]] == j[own]) & (alpha[own] * beta[own] < 0)
    return np.flatnonzero(pos < partner), own, np.where(odd, 1j, 1.0)


def _real_form(table, idx, neg, i, alpha, j, beta, order="F"):
    """One block of Pi M_w Pi, w real (table is _coefficient_table(w)), as
    a real symmetric matrix R, with the mask positions pos whose omega the
    Gramian's time kernel reads and the index expand that spreads a
    kernel on pos over R's rows.

    The basis is (f_a + J f_a)/sqrt2 and i (f_a - J f_a)/sqrt2 for a in
    rep, then phase f_c for c in own (_conjugate_pairs), all J-invariant,
    so every entry of the compression C between them is real. With
    X = C[rep, rep] and Y = C[rep, J rep] (J f_a is a two-point vector on
    the negated points) the pairs give [[Re(X + Y), -Im(X - Y)],
    [Im(X + Y), Re(X - Y)]]. Both vectors of a pair have f_a's omega, so
    a kernel on the rep and own points multiplies all of R through
    expand. _real_lift maps R's eigenvectors back to the mask.

    R is written once, in the order asked: column-major (the default) as
    _lowest_pair factors it in place, row-major for a Gramian that
    multiplies it into a row-major kernel. The row blocks (_pair_rows) of
    the rep and own vectors against f_rep, f_own and J f_rep are each
    assembled in a row-major tile and copied to R in one assignment, so
    no complex form of the block is held.
    """
    rep, own, phase = _conjugate_pairs(neg, i, alpha, j, beta)
    rows = np.concatenate([rep, own])
    na, m = rep.size, rows.size
    R = np.empty((na + m, na + m), order=order)
    top, mid, low = slice(None, na), slice(na, 2 * na), slice(2 * na, None)
    # columns: f_rep, f_own, then J f_rep, with f_rep's coefficients
    for blk, W in _pair_rows(table, idx[np.concatenate([i[rows], neg[i[rep]]])],
                             np.concatenate([alpha[rows], alpha[rep]]),
                             idx[np.concatenate([j[rows], neg[j[rep]]])],
                             np.concatenate([beta[rows], beta[rep]]), m):
        r0, r1 = blk.start, min(blk.stop, na)  # the rep rows of the block
        if r0 < r1:
            X, Y = W[:r1 - r0, :na], W[:r1 - r0, m:]
            Z = math.sqrt(2.0) * W[:r1 - r0, na:m] * phase
            # rows r0:r1 of R's first and second row of blocks
            t = np.empty((2, r1 - r0, na + m))
            np.add(X.real, Y.real, out=t[0, :, top])
            np.add(X.imag, Y.imag, out=t[1, :, top])
            np.subtract(X.imag, Y.imag, out=t[0, :, mid])
            np.negative(t[0, :, mid], out=t[0, :, mid])
            np.subtract(X.real, Y.real, out=t[1, :, mid])
            t[0, :, low], t[1, :, low] = Z.real, Z.imag
            R[r0:r1], R[na + r0:na + r1] = t
            R[low, r0:r1], R[low, na + r0:na + r1] = Z.real.T, Z.imag.T
        c0 = max(blk.start, na)  # the own rows
        if c0 < blk.stop:
            R[na + c0:na + blk.stop, low] = (np.conj(phase[c0 - na:blk.stop - na])[:, None]
                                             * W[c0 - blk.start:, na:m] * phase).real
    return R, i[rows], np.concatenate([np.arange(na), np.arange(m)])


def _real_lift(neg, i, alpha, j, beta, x, rank):
    """The mask vector (length rank) of a real vector x on _real_form's
    basis of the block: f_a takes (x_a + i x_(na+a))/sqrt2 and J f_a its
    conjugate for the na pairs, and f_c takes phase_c x_(2na+c)."""
    rep, own, phase = _conjugate_pairs(neg, i, alpha, j, beta)
    na = rep.size
    p = (x[:na] + 1j * x[na:2 * na]) / math.sqrt(2.0)
    coef = np.concatenate([p, np.conj(p), phase * x[2 * na:]])
    at = np.concatenate([rep, rep, own])
    v = np.zeros(rank, dtype=complex)
    np.add.at(v, np.concatenate([i[rep], neg[i[rep]], i[own]]), alpha[at] * coef)
    np.add.at(v, np.concatenate([j[rep], neg[j[rep]], j[own]]), beta[at] * coef)
    return v


def _kernel_basis(ker: np.ndarray) -> np.ndarray:
    """Real orthonormal basis (n x kdim) on the flattened samples of the
    span of e_k, k in the boolean lattice set ker, which must be closed
    under k -> -k: e_k itself at a self-conjugate k, and sqrt2 Re e_k and
    sqrt2 Im e_k for each pair {k, -k}."""
    grid, shape = ker.shape[0], ker.shape
    pts = np.argwhere(ker)
    flat = np.ravel_multi_index(tuple(pts.T), shape)
    neg = np.ravel_multi_index(tuple(np.mod(-pts, grid).T), shape)
    rep, pair = flat <= neg, flat < neg
    # k.x mod grid keeps the phase exact on large lattices
    phase = (2.0 * math.pi / grid) * (pts[rep] @ np.indices(shape).reshape(ker.ndim, -1) % grid)
    scale = np.where(pair[rep], math.sqrt(2.0), 1.0)[:, None]
    rows = np.concatenate([scale * np.cos(phase), math.sqrt(2.0) * np.sin(phase[pair[rep]])])
    return rows.T / math.sqrt(ker.size)


def _top_lanczos(matvec, start: np.ndarray, cap: int, tol: float):
    """Top eigenpair of a Hermitian (or real symmetric) operator by Lanczos
    from start, in start's arithmetic, with full reorthogonalization and
    no restarts. It stops when the top Ritz residual |beta_j y_j| is at
    most tol * max(1, |theta|), or after cap steps (the order of the
    operator's range, where the Krylov space is exhausted and theta is
    exact). A step whose image of the unit vector v, or its norm, is past
    the float64 range raises RuntimeError."""
    import scipy.linalg
    # np.empty commits only the rows that are written
    basis = np.empty((cap, start.size), dtype=start.dtype)
    # basis[:j + 1].T, the basis as columns, is F-contiguous, so gemv reads
    # it in place: trans = 2 (1 if real) gives cols^H w, trans = 0 cols y
    gemv = scipy.linalg.get_blas_funcs("gemv", (basis,))
    adjoint = 2 if basis.dtype.kind == "c" else 1

    def orthogonalize(cols, w):
        """w -= cols cols^H w in place, one classical Gram-Schmidt pass. A
        single column's cols^H w is a dot product, summed by np.vdot in the
        order numpy's @ sums it (gemv's order differs in the last bits)."""
        if cols.shape[1] == 1:
            w -= gemv(1.0, cols, np.array([np.vdot(cols[:, 0], w)]))
        else:
            w -= gemv(1.0, cols, gemv(1.0, cols, w, trans=adjoint))

    alpha, beta = [], []
    v = start / np.linalg.norm(start)
    for j in range(cap):
        basis[j] = v
        with np.errstate(over="ignore", invalid="ignore"):
            w = matvec(v)
            size = np.linalg.norm(w)
        if not math.isfinite(size):
            raise RuntimeError(f"Lanczos step {j + 1} maps a unit vector to norm {size},"
                               f" past the float64 range")
        alpha.append(float(np.vdot(v, w).real))
        cols = basis[:j + 1].T
        orthogonalize(cols, w)
        # classical Gram-Schmidt twice is enough, unless the first pass left
        # only roundoff: the Krylov space is exhausted, what is left of w is
        # a new direction, mostly inside the basis, and it takes a third
        for _ in range(2 if np.linalg.norm(w) < 1e-8 * size else 1):
            orthogonalize(cols, w)
        b = float(np.linalg.norm(w))
        theta, y = scipy.linalg.eigh_tridiagonal(np.array(alpha), np.array(beta),
                                                 select="i", select_range=(j, j))
        if b * abs(y[-1, 0]) <= tol * max(1.0, abs(theta[0])) or j + 1 == cap:
            break
        beta.append(b)
        v = w / b
    return float(theta[0]), gemv(1.0, cols, y[:, 0])


def _resolvent_weight(field: ObservationField, m: float) -> np.ndarray:
    """q = 1 - m a on the samples, once the lattice passes the size guard."""
    if m <= 0:
        raise ValueError("m must be positive")
    n = field.grid ** field.dim
    if n > DENSE_LATTICE_LIMIT:
        raise ValueError(
            f"the resolvent on n = {n} lattice points may need about {8 * n * n / 1e9:.1f} GB"
            f" for a Lanczos basis of up to n float64 rows of length n; the limit is"
            f" {DENSE_LATTICE_LIMIT} points")
    return 1.0 - m * field.values


def _resolvent_operator(q: np.ndarray, s: np.ndarray, qBV: np.ndarray, e: np.ndarray):
    """W (module docstring) as a matvec on the flattened samples, with s
    on the rfft half-lattice and qBV = q B V over the negative kernel
    eigenvalues e; and the fixed _gaussian_start projected off the
    kernel."""
    shape, axes = q.shape, tuple(range(-q.ndim, 0))

    def multiplier(f, x):
        """The Fourier multiplier f on samples x of shape (..., *shape)."""
        return np.fft.irfftn(f * np.fft.rfftn(x, axes=axes, norm="ortho"), s=shape, axes=axes,
                             norm="ortho")

    Z = multiplier(s, qBV.T.reshape((-1,) + shape)).reshape(e.size, q.size).T

    def matvec(x):
        return multiplier(s, q * multiplier(s, x.reshape(shape))).ravel() - Z @ ((Z.T @ x) / e)

    return matvec, multiplier(s != 0, _gaussian_start(q.size, float).reshape(shape)).ravel()


def _resolvent_at(field: ObservationField, q: np.ndarray, gamma: float, lam: float,
                  m: float) -> SpectralReport:
    """M at one lam, with q = 1 - m a from _resolvent_weight."""
    import scipy.linalg
    if not gamma > 0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    dvec = np.abs(_abs_xi(field.grid, field.dim, field.period) ** gamma - lam)
    ker = dvec <= KERNEL_TOL * max(1.0, abs(lam))
    n, kdim = q.size, int(np.count_nonzero(ker))
    full = build_mask(field.grid, field.dim, field.period, "ball", radius=math.inf).describe()

    def report(value, c, residual=0.0):
        return SpectralReport(
            kind="resolvent-M", value=value, c=c, residual=residual, rank=n, mask=full,
            field=field.describe(), extra={"kernel_dim": kdim, "lam": lam, "gamma": gamma, "m": m},
        )

    B = _kernel_basis(ker)
    qB = q.reshape(-1, 1) * B
    e, V = scipy.linalg.eigh(B.T @ qB)
    if kdim and e[-1] > 1e-12:
        return report(float("inf"), float(e[-1]))
    # a null kernel vector must not couple to the rest of the lattice
    coupling = qB @ V[:, np.abs(e) <= 1e-12]
    if np.any(np.linalg.norm(coupling - B @ (B.T @ coupling), axis=0) > 1e-10):
        return report(float("inf"), 0.0)
    # |A - lam|^-1 off the kernel on the rfft half-lattice, the first
    # grid // 2 + 1 entries of the last axis
    half = (Ellipsis, slice(0, field.grid // 2 + 1))
    s = np.divide(1.0, dvec[half], out=np.zeros(dvec[half].shape), where=~ker[half])
    neg = e < -1e-12
    matvec, start = _resolvent_operator(q, s, qB @ V[:, neg], e[neg])
    M, v = _top_lanczos(matvec, start, n - kdim, RESOLVENT_TOL)
    residual = float(np.linalg.norm(matvec(v) - M * v))
    if residual > 1e-8 * max(1.0, abs(M)):
        raise RuntimeError(f"top eigenpair of the resolvent form did not converge; residual "
                           f"{residual} at M = {M}")
    M = max(M, 0.0)
    return report(M, M, residual)


def resolvent_constant(field: ObservationField, gamma: float, lam: float, m: float) -> SpectralReport:
    """Smallest M with ||u||^2 <= M ||(A - lam) u||^2 + m <a u, u>.

    A = |xi|^gamma on the full frequency lattice. Kernel modes of A - lam,
    |A - lam| <= KERNEL_TOL * max(1, |lam|), are deflated: the value is
    inf if the form I - m M_a is positive on the kernel (c is then its
    largest kernel eigenvalue), or null there with coupling to the rest;
    otherwise the kernel is eliminated by a Schur complement S, and M is
    the top eigenvalue of W = D^-1 S D^-1, D = |A - lam| off the kernel,
    found matrix-free by Lanczos (module docstring). kernel_dim counts the
    kernel. A top eigenpair whose residual exceeds 1e-8 * max(1, |M|)
    raises RuntimeError. Lattices of more than DENSE_LATTICE_LIMIT points
    raise ValueError.
    """
    return _resolvent_at(field, _resolvent_weight(field, m), gamma, lam, m)


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
    """resolvent_constant across a lam list."""
    q = _resolvent_weight(field, m)
    return [_resolvent_at(field, q, gamma, float(lam), m) for lam in lambdas]
