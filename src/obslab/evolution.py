"""Observability costs of fractional Schrödinger flows.

The group S_beta(t) acts on Fourier coefficients by the unimodular phase
exp(-i |xi|^(beta+1) t), so its action is exact on the lattice. The
observability Gramian over a time window [0, T],

    G_T = sum_i w_i S(t_i)* M_a S(t_i),

is assembled on the span of frequencies |xi| <= K. In that basis the sum
collapses to a Hadamard product: the (j, k) entry is C_a[j, k] times
sum_i w_i exp(i (omega_j - omega_k) t_i), with C_a the exact compression
of the field and omega the phase symbol, so the only quadrature error is
the trapezoid rule in time. Its smallest eigenvalue is the reciprocal of
the observability cost on the truncated data class; since the true cost
is an infimum over all of L^2, reported costs are lower bounds of the
continuum cost.

The trapezoid nodes t_n and weights are symmetric about T/2, so with
D = diag(exp(i omega_k T/2)) the Gramian is G = D (C_a o K) D*, where
the centred kernel K_kl = sum_n w_n cos((omega_k - omega_l)(t_n - T/2))
is real (two real GEMMs, _centred_kernel). D is unitary and diagonal, so
C_a o K has the spectrum of G and its eigenvectors are D* times G's;
every solve is of C_a o K.

That form is solved over the blocks of spectral._mask_blocks. omega =
|xi|^(beta+1) is invariant under the transpose k' = (k2, k1), so on a
transpose-invariant 2d field every term of a block entry, in the bases
e_k + e_k' and e_k - e_k', shares the kernel at (omega_k, omega_l): the
block is the two-point form of C_a times that kernel, entry by entry,
and the full rank x rank Gramian is never formed. A field with no such
symmetry is one identity block. Every field is real, so conjugation J,
J e_k = e_-k, commutes with C_a; K is real and omega(-k) = omega(k), so
J commutes with C_a o K too, and as the ball is closed under k -> -k, J
maps each block to itself. J is antiunitary with J^2 = 1, so each block
is a real symmetric matrix on a J-invariant basis of cosine and sine
pairs (Dyson, J. Math. Phys. 3, 1962): spectral._real_form, the form the
uncertainty solver takes on the same blocks, times K on those pairs.
That real form of C_a is built once per T sweep and multiplied by K at
each T. Each block goes to spectral._lowest_pair at
sigma = -SHIFT_EPS T max(a) (the weights sum to T, so
0 <= G <= T max(a)), tolerance LANCZOS_TOL / max(1, T): eigh up to
DENSE_EIGH_LIMIT, else one Cholesky factor of G - sigma I and the one
Lanczos loop, spectral._top_lanczos, on its inverse.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fields import ObservationField, SizeError
from .spectral import (DENSE_LATTICE_LIMIT, LANCZOS_TOL, SHIFT_EPS, _coefficient_table,
                       _lowest_pair, _mask_blocks, _negated_positions, _real_form, build_mask)
# bound here only so that bench/spans.py can wrap it; no solver calls it
from .spectral import compression_matrix  # noqa: F401

KAPPA_FLOOR = 1e-14
# bytes one T's time tables may take: its trapezoid nodes and weights and
# _centred_kernel's three (block order) x n_nodes float64 tables, the
# block order counted as the rank
MAX_TIME_TABLE_BYTES = 10**9


def nyquist_nodes(beta: float, T: float, K: float) -> int:
    """Trapezoid node count resolving the fastest Gramian phase K^(beta+1)."""
    return int(math.ceil(4.0 * K ** (beta + 1.0) * T / (2.0 * math.pi))) + 1


@dataclass
class GramianReport:
    T: float
    beta: float
    K: float
    n_nodes: int
    quadrature: str
    rank: int
    lam_min: float
    kappa: float
    residual: float
    field: dict

    def to_dict(self) -> dict:
        return {
            "T": self.T,
            "beta": self.beta,
            "K": self.K,
            "n_nodes": self.n_nodes,
            "quadrature": self.quadrature,
            "rank": self.rank,
            "lam_min": self.lam_min,
            "kappa": self.kappa,
            "residual": self.residual,
            "cost_class": "frequency-truncated (lower bound of the continuum cost)",
            "field": self.field,
        }


def observability_gramian(field: ObservationField, beta: float, T: float,
                          cutoff_K: float) -> GramianReport:
    """Smallest Gramian eigenvalue on the data class spec u ⊂ {|xi| <= K}:
    cost_curve at the one time T."""
    return cost_curve(field, beta, [T], cutoff_K)[0]


def cost_curve(field: ObservationField, beta: float, T_list, cutoff_K: float) -> list[GramianReport]:
    """observability_gramian across a T sweep, one report per T.

    Composite trapezoid in time on max(nyquist_nodes, 33) nodes with
    weights summing to T, so a field identically 1 gives lam_min = T
    exactly. Every argument is checked, and masks of rank above
    DENSE_LATTICE_LIMIT are rejected, before any form is assembled. The
    real form of C_a on each block (spectral._real_form) is built once for
    the sweep; at each T it is multiplied by the centred time kernel and
    solved by spectral._lowest_pair at sigma = -SHIFT_EPS T max(a)
    (module docstring). Memory peaks in that solve of a block of order
    n: the block's real form of C_a, its Gramian and the Gramian's
    Cholesky copy, 3 n^2 float64 (the kernel's three n/2 x n_nodes time
    tables come and go before it). lam_min is the least block minimum and
    the residual that block's, ||G v - lam v||. An eigenpair whose
    residual exceeds 1e-8 * max(1, T) raises RuntimeError (||G|| <= T
    max a). A T whose time tables, at most 8 n_nodes (3 r + 2) B at rank
    r, exceed MAX_TIME_TABLE_BYTES raises SizeError naming T_list, also
    before any form is assembled.
    """
    if not 0.0 <= beta <= 1.0:
        raise ValueError(f"beta = {beta} outside the valid range [0, 1]")
    T_list = [float(T) for T in T_list]
    if any(T <= 0 for T in T_list):
        raise ValueError("T must be positive")
    n_nodes = [max(nyquist_nodes(beta, T, cutoff_K), 33) for T in T_list]
    mask = build_mask(field.grid, field.dim, field.period, "ball", radius=cutoff_K)
    r, n = mask.rank, max(n_nodes)
    if r > DENSE_LATTICE_LIMIT:
        raise ValueError(
            f"the Gramian at rank {r} (|xi| <= {cutoff_K}) needs about"
            f" {8 * (3 * r * r + 1.5 * r * n) / 1e9:.1f} GB to solve a rank x rank block on {n}"
            f" time nodes (its real form of C_a, its Gramian, a Cholesky copy and three"
            f" rank/2 x n_nodes time tables, float64); the limit is rank {DENSE_LATTICE_LIMIT}")
    if 8 * n * (3 * r + 2) > MAX_TIME_TABLE_BYTES:
        raise SizeError("T_list", (
            f"T = {max(T_list):g} needs {n} trapezoid nodes, whose time tables take up to"
            f" {8 * n * (3 * r + 2) / 1e9:.3g} GB (nodes, weights and three tables of at most"
            f" rank x n_nodes float64, rank {r}); the limit is {MAX_TIME_TABLE_BYTES / 1e9:g} GB"))
    idx = mask.indices()
    omega = np.linalg.norm(mask.xi(), axis=1) ** (beta + 1.0)
    # a ball is closed under k -> -k
    neg, _ = _negated_positions(mask)
    table = _coefficient_table(field.values)
    forms = [_real_form(table, idx, neg, *b) for b in _mask_blocks(field, mask)]
    a_max = float(np.max(field.values))

    def report(T, n):
        # nodes t - T/2 and weights are symmetric about 0, so the kernel
        # sum_n w_n exp(i (omega_k - omega_l) s_n) is its cosine sum
        s = np.linspace(-0.5 * T, 0.5 * T, n)
        w = np.full(n, T / (n - 1))
        w[0] *= 0.5
        w[-1] *= 0.5
        sigma = -SHIFT_EPS * T * a_max

        def block_smallest(R, pos, expand):
            G = _centred_kernel(omega[pos], s, w)[np.ix_(expand, expand)]
            G *= R
            lam, v = _lowest_pair(G, sigma, LANCZOS_TOL / max(1.0, T))
            residual = float(np.linalg.norm(G @ v - lam * v))
            if residual > 1e-8 * max(1.0, T):
                raise RuntimeError(f"smallest Gramian eigenpair did not converge; residual"
                                   f" {residual} at T = {T}")
            return lam, residual

        lam_min, residual = min((block_smallest(*f) for f in forms), key=lambda pair: pair[0])
        lam_min = max(lam_min, 0.0)
        kappa = float("inf") if lam_min <= KAPPA_FLOOR else 1.0 / lam_min
        return GramianReport(
            T=T, beta=beta, K=cutoff_K, n_nodes=n, quadrature="trapezoid", rank=r,
            lam_min=lam_min, kappa=kappa, residual=residual, field=field.describe(),
        )

    return [report(T, n) for T, n in zip(T_list, n_nodes)]


def _centred_kernel(omega, s, w):
    """The time kernel sum_n w_n cos((omega_k - omega_l) s_n) on nodes s
    centred on T/2, by two real GEMMs."""
    phase = np.outer(omega, s)
    cos = np.cos(phase)
    sin = np.sin(phase, out=phase)
    return (cos * w) @ cos.T + (sin * w) @ sin.T


def check_miller(M_res: float, m_res: float, eps: float) -> None:
    """Refuse Miller constants outside M >= 0, m > 0, eps > 0."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    if M_res < 0 or m_res <= 0:
        raise ValueError("need M >= 0 and m > 0")


def miller_cost(M_res: float, m_res: float, T: float, eps: float) -> float | None:
    """Predicted cost m T / (T^2 - M (pi^2 + eps)); None below the time
    threshold. The prefactor C_eps is not computable and is reported as 1,
    so the prediction is a shape, not a calibrated value."""
    check_miller(M_res, m_res, eps)
    gap = T * T - M_res * (math.pi ** 2 + eps)
    if gap <= 0:
        return None
    return m_res * T / gap


def fit_log_cost(T_values, kappas, exponent: float) -> dict:
    """Least-squares fit of log kappa against T^exponent with R^2."""
    T_values = np.asarray(T_values, dtype=np.float64)
    y = np.log(np.asarray(kappas, dtype=np.float64))
    x = T_values ** exponent
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - float(np.sum(resid ** 2)) / ss_tot if ss_tot > 0 else 0.0
    return {
        "exponent": exponent,
        "slope": float(slope),
        "intercept": float(intercept),
        "r2": r2,
        "x": [float(v) for v in x],
        "log_kappa": [float(v) for v in y],
    }


def arb_time_shape_check(field: ObservationField, eps_decay: float, T_list, cutoff_K: float,
                         beta: float | None = None, alt_exponents=()) -> dict:
    """Envelope-shape check for small-time cost growth.

    A resolvent constant decaying like lam^(-eps) yields costs bounded by
    C exp(C T^(2 - 4/eps)); the check fits measured log kappa against
    T^(2 - 4/eps) and passes when the slope is non-negative and the fit
    quality reaches R^2 >= 0.9. Alternative exponents, when given, are
    fitted on the same sweep for comparison.
    """
    check_envelope_sweep(eps_decay, T_list)
    if beta is None:
        beta = 2.0 / (2.0 / eps_decay - 1.0) - 1.0
    reports = cost_curve(field, beta, T_list, cutoff_K)
    return _envelope_fit(eps_decay, T_list, [r.kappa for r in reports], beta, alt_exponents)


def check_envelope_sweep(eps_decay: float, T_list) -> None:
    """Refuse, before any Gramian, an envelope fit that no sweep could make."""
    if not 0.0 < eps_decay <= 1.0:
        raise ValueError("eps_decay must lie in (0, 1]")
    if len(set(T_list)) < 2:
        raise ValueError(f"the envelope fit needs at least two distinct T, got {len(set(T_list))}")


def _envelope_fit(eps_decay: float, T_list, kappas, beta: float, alt_exponents=()) -> dict:
    """The arb_time_shape_check fit of one measured (T, kappa) sweep."""
    if any(not math.isfinite(k) for k in kappas):
        raise ValueError("cost is infinite at some T; the envelope fit needs finite costs")
    fit = fit_log_cost(T_list, kappas, 2.0 - 4.0 / eps_decay)
    fit["eps_decay"] = eps_decay
    fit["beta"] = beta
    fit["T"] = [float(t) for t in T_list]
    fit["kappa"] = kappas
    fit["passed"] = bool(fit["slope"] >= 0.0 and fit["r2"] >= 0.9)
    if alt_exponents:
        fit["alternatives"] = {str(e): fit_log_cost(T_list, kappas, float(e)) for e in alt_exponents}
    return fit
