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

omega = |xi|^(beta+1) is invariant under the transpose k' = (k2, k1), so
on a transpose-invariant 2d field the Gramian splits into the transpose
blocks of spectral._transpose_fold, spanned by e_k + e_k' and
e_k - e_k': every term of a block entry shares the time kernel at
(omega_k, omega_l), so the block is the two-point form of C_a times that
kernel, entry by entry. Each block is solved on its own, and the full
rank x rank Gramian is never formed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .fields import ObservationField
from .spectral import (DENSE_LATTICE_LIMIT, _coefficient_table, _pair_form, _transpose_fold,
                       build_mask, compression_matrix)

KAPPA_FLOOR = 1e-14


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


def observability_gramian(field: ObservationField, beta: float, T: float, cutoff_K: float,
                          n_nodes: int | None = None) -> GramianReport:
    """Smallest Gramian eigenvalue on the data class spec u ⊂ {|xi| <= K}.

    Composite trapezoid in time with weights summing to T, so a field
    identically 1 gives lam_min = T exactly. Node counts below the phase
    Nyquist guard are rejected with the required count in the message, and
    so are masks of rank above DENSE_LATTICE_LIMIT, before any rank x rank
    allocation. A transpose-invariant 2d field is solved per transpose
    block (module docstring); lam_min is the least block minimum and the
    residual that block's. An eigenpair whose residual exceeds
    1e-8 * max(1, T) raises RuntimeError (||G|| <= T max a).
    """
    if not 0.0 <= beta <= 1.0:
        raise ValueError(f"beta = {beta} outside the valid range [0, 1]")
    if T <= 0:
        raise ValueError("T must be positive")
    required = nyquist_nodes(beta, T, cutoff_K)
    if n_nodes is None:
        n_nodes = max(required, 33)
    elif n_nodes < required:
        raise ValueError(
            f"n_nodes = {n_nodes} undersamples the fastest phase: need at least {required}"
        )
    mask = build_mask(field.grid, field.dim, field.period, "ball", radius=cutoff_K)
    r = mask.rank
    if r > DENSE_LATTICE_LIMIT:
        raise ValueError(
            f"the Gramian at rank {r} (|xi| <= {cutoff_K}) needs about {4 * 16 * r * r / 1e9:.1f} GB"
            f" for four rank x rank complex128 matrices; the limit is rank {DENSE_LATTICE_LIMIT}")
    omega = np.linalg.norm(mask.xi(), axis=1) ** (beta + 1.0)
    nodes = np.linspace(0.0, T, n_nodes)
    w = np.full(n_nodes, T / (n_nodes - 1))
    w[0] *= 0.5
    w[-1] *= 0.5

    def time_kernel(om):
        E = np.exp(1j * np.outer(om, nodes))
        return (E * w) @ E.conj().T

    def smallest(G):
        vals, vecs = scipy.linalg.eigh(G, subset_by_index=[0, 0])
        lam, v = float(vals[0]), vecs[:, 0]
        residual = float(np.linalg.norm(G @ v - lam * v))
        if residual > 1e-8 * max(1.0, T):
            raise RuntimeError(f"smallest Gramian eigenpair did not converge; residual {residual}"
                               f" at T = {T}")
        return lam, residual

    blocks = _transpose_fold(field, mask)
    if blocks is None:
        lam_min, residual = smallest(compression_matrix(field, mask, weight="sqrt")
                                     * time_kernel(omega))
    else:
        table = _coefficient_table(field.values)
        pos = np.zeros(mask.mask.shape, dtype=np.intp)
        pos[mask.mask] = np.arange(r)

        def block_form(pts, alpha, pts2, beta2):
            G = _pair_form(table, pts, alpha, pts2, beta2)
            G *= time_kernel(omega[pos[tuple(pts.T)]])
            return G

        lam_min, residual = min((smallest(block_form(*b)) for b in blocks),
                                key=lambda pair: pair[0])
    lam_min = max(lam_min, 0.0)
    kappa = float("inf") if lam_min <= KAPPA_FLOOR else 1.0 / lam_min
    return GramianReport(
        T=T, beta=beta, K=cutoff_K, n_nodes=n_nodes, quadrature="trapezoid",
        rank=mask.rank, lam_min=lam_min, kappa=kappa, residual=residual,
        field=field.describe(),
    )


def cost_curve(field: ObservationField, beta: float, T_list, cutoff_K: float,
               n_nodes: int | None = None) -> list[GramianReport]:
    """observability_gramian across a T sweep, one report per T."""
    return [observability_gramian(field, beta, float(T), cutoff_K, n_nodes=n_nodes) for T in T_list]


def miller_cost(M_res: float, m_res: float, T: float, eps: float) -> float | None:
    """Predicted cost m T / (T^2 - M (pi^2 + eps)); None below the time
    threshold. The prefactor C_eps is not computable and is reported as 1,
    so the prediction is a shape, not a calibrated value."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    if M_res < 0 or m_res <= 0:
        raise ValueError("need M >= 0 and m > 0")
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
    if not 0.0 < eps_decay <= 1.0:
        raise ValueError("eps_decay must lie in (0, 1]")
    if beta is None:
        beta = 2.0 / (2.0 / eps_decay - 1.0) - 1.0
    reports = cost_curve(field, beta, T_list, cutoff_K)
    return _envelope_fit(eps_decay, T_list, [r.kappa for r in reports], beta, alt_exponents)


def _envelope_fit(eps_decay: float, T_list, kappas, beta: float, alt_exponents=()) -> dict:
    """The arb_time_shape_check fit of one measured (T, kappa) sweep."""
    if not 0.0 < eps_decay <= 1.0:
        raise ValueError("eps_decay must lie in (0, 1]")
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
