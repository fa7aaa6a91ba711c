import math

import numpy as np
import pytest
import scipy.linalg

from obslab import fields, spectral


def _const(dim=1, grid=64, value=1.0, period=2.0 * math.pi):
    return fields.make_field("constant", dim=dim, period=period, grid=grid, value=value)


def _ps_mollified(grid=128):
    f = fields.make_field("periodic-square", dim=1, period=2.0 * math.pi,
                          grid=grid, delta=0.3)
    return fields.mollify(f, 0.05)


def test_frequency_axes_integer_lattice():
    axes = spectral.frequency_axes(8, 1, 2.0 * math.pi)
    assert np.array_equal(np.sort(axes[0]), np.array([-4., -3., -2., -1., 0., 1., 2., 3.]))
    axes2 = spectral.frequency_axes(4, 2, 1.0)
    assert np.allclose(np.sort(axes2[0]), 2.0 * math.pi * np.array([-2., -1., 0., 1.]))


def test_build_mask_ranks():
    """Lattice counts by hand: ball of radius 8 has 17 integers, the
    [18, 22] annulus has 10, the corner rectangle {10, 11, 12} has 3."""
    ball = spectral.build_mask(64, 1, 2.0 * math.pi, "ball", radius=8.0)
    assert ball.rank == 17
    ann = spectral.build_mask(128, 1, 2.0 * math.pi, "annulus", lam=20.0, delta=2.0, beta=0.0)
    assert ann.rank == 10
    rect = spectral.build_mask(128, 1, 2.0 * math.pi, "rectangle", zeta=10.0, sigma=2.0)
    assert rect.rank == 3


def test_build_mask_2d_counts_match_brute_force():
    n, period = 32, 2.0 * math.pi
    ann = spectral.build_mask(n, 2, period, "annulus", lam=10.0, delta=3.0, beta=0.0)
    k = np.fft.fftfreq(n, d=1.0 / n)
    kx, ky = np.meshgrid(k, k, indexing="ij")
    r = np.hypot(kx, ky)
    expected = int(np.count_nonzero((r >= 7.0) & (r <= 13.0)))
    assert ann.rank == expected

    sec = spectral.build_mask(n, 2, period, "sector", angle=0.0, eps0=0.25)
    vx, vy = np.cos(0.0), np.sin(0.0)
    with np.errstate(invalid="ignore"):
        chordsq = (kx / np.maximum(r, 1e-300) - vx) ** 2 + (ky / np.maximum(r, 1e-300) - vy) ** 2
    inside = (r > 0) & (chordsq <= 0.25 ** 2)
    assert sec.rank == int(np.count_nonzero(inside))


def test_build_mask_errors():
    with pytest.raises(ValueError):
        spectral.build_mask(16, 1, 2.0 * math.pi, "ball", radius=100.0)
    with pytest.raises(ValueError):
        spectral.build_mask(64, 1, 2.0 * math.pi, "rectangle", zeta=3.2, sigma=0.3)
    with pytest.raises(ValueError):
        spectral.build_mask(64, 1, 2.0 * math.pi, "wedge")


def test_compression_matrix_matches_direct_sum():
    rng = np.random.default_rng(8)
    n = 16
    vals = rng.uniform(0.2, 1.0, size=n)
    f = fields.make_field("custom-grid", dim=1, period=2.0 * math.pi, grid=n, values=vals)
    mask = spectral.build_mask(n, 1, 2.0 * math.pi, "ball", radius=3.0)
    C = spectral.compression_matrix(f, mask, weight="sqrt")
    x = np.arange(n) * f.h
    xi = mask.xi()[:, 0]
    E = np.exp(-1j * np.outer(xi, x)) / math.sqrt(n)
    direct = E @ np.diag(vals) @ E.conj().T
    assert np.allclose(C, direct, atol=1e-12)
    assert np.allclose(C, C.conj().T, atol=1e-14)
    assert scipy.linalg.eigvalsh(C).min() > -1e-12


def test_uncertainty_constant_constant_field():
    rep = spectral.uncertainty_constant(_const(), spectral.build_mask(
        64, 1, 2.0 * math.pi, "ball", radius=8.0))
    assert rep.c == pytest.approx(1.0, abs=1e-12)
    assert rep.value == pytest.approx(1.0, abs=1e-12)
    assert rep.rank == 17
    assert rep.residual < 1e-10


def test_uncertainty_constant_vanishing_field():
    rep = spectral.uncertainty_constant(_const(value=0.0), spectral.build_mask(
        64, 1, 2.0 * math.pi, "ball", radius=4.0))
    assert rep.c == pytest.approx(0.0, abs=1e-12)
    assert rep.value == math.inf


def test_uncertainty_constant_frozen_annulus_case():
    f = _ps_mollified()
    mask = spectral.build_mask(128, 1, 2.0 * math.pi, "annulus", lam=20.0, delta=2.0, beta=0.0)
    rep = spectral.uncertainty_constant(f, mask)
    assert rep.rank == 10
    assert rep.c == pytest.approx(0.26988972676530726, abs=1e-9)
    assert rep.value == pytest.approx(1.924894019460987, abs=1e-9)


def test_uncertainty_constant_monotone_in_mask():
    """Growing the admissible frequency set can only make concentration
    easier, so c decreases."""
    f = _ps_mollified()
    cs = []
    for r in (4.0, 8.0, 16.0):
        mask = spectral.build_mask(128, 1, 2.0 * math.pi, "ball", radius=r)
        cs.append(spectral.uncertainty_constant(f, mask).c)
    assert cs[0] >= cs[1] - 1e-12
    assert cs[1] >= cs[2] - 1e-12


def test_sparse_path_matches_dense(monkeypatch):
    f = _ps_mollified()
    mask = spectral.build_mask(128, 1, 2.0 * math.pi, "ball", radius=16.0)
    dense = spectral.uncertainty_constant(f, mask)
    monkeypatch.setattr(spectral, "DENSE_RANK_LIMIT", 4)
    sparse = spectral.uncertainty_constant(f, mask)
    assert sparse.c == pytest.approx(dense.c, abs=1e-8)
    assert sparse.residual < 1e-8


def test_resolvent_constant_trivial_cases():
    f = _const()
    # m = 2 makes I - m a strictly negative, so no M is needed at all
    assert spectral.resolvent_constant(f, 1.5, 16.0, 2.0).value == 0.0
    # lam = -2: (A - lam) >= 2, so M = (1 - m) / min(A - lam)^2 = 1/8
    rep = spectral.resolvent_constant(f, 1.5, -2.0, 0.5)
    assert rep.value == pytest.approx(0.125, abs=1e-12)
    assert rep.extra["kernel_dim"] == 0


def test_resolvent_constant_kernel_handling():
    f = _const()
    # |xi|^2 = 16 at xi = +-4: kernel of dimension 2
    rep = spectral.resolvent_constant(f, 2.0, 16.0, 0.5)
    assert rep.extra["kernel_dim"] == 2
    assert rep.value == math.inf
    rep2 = spectral.resolvent_constant(f, 2.0, 16.0, 2.0)
    assert rep2.extra["kernel_dim"] == 2
    assert rep2.value == 0.0


def test_resolvent_constant_frozen_case():
    f = _ps_mollified()
    m = spectral.calibrate_m(f, 1.5, 16.0)
    assert m == pytest.approx(78.449215810379, abs=1e-6)
    rep = spectral.resolvent_constant(f, 1.5, 64.0, m)
    assert rep.extra["kernel_dim"] == 2
    assert rep.value == pytest.approx(0.0017933538664261274, rel=1e-9)
    assert rep.residual < 1e-10


def test_resolvent_sweep_matches_single_calls():
    f = _ps_mollified()
    m = spectral.calibrate_m(f, 1.5, 16.0)
    reps = spectral.resolvent_sweep(f, 1.5, [16.0, 64.0], m)
    single = spectral.resolvent_constant(f, 1.5, 64.0, m)
    assert reps[1].value == single.value
    assert [r.extra["lam"] for r in reps] == [16.0, 64.0]


def test_calibrate_m_validation():
    f = _const(grid=32)
    with pytest.raises(ValueError):
        spectral.calibrate_m(f, 1.5, 1e9)  # calibration ball would alias
    with pytest.raises(ValueError):
        spectral.calibrate_m(_const(value=0.0), 1.5, 16.0)


def test_spectral_report_to_dict():
    rep = spectral.uncertainty_constant(_const(), spectral.build_mask(
        64, 1, 2.0 * math.pi, "ball", radius=4.0))
    d = rep.to_dict()
    assert d["kind"].startswith("uncertainty")
    assert "c" in d and "value" in d and "mask" in d


def _random_field(dim, grid, seed=3):
    vals = np.random.default_rng(seed).uniform(0.2, 1.0, size=(grid,) * dim)
    return fields.make_field("custom-grid", dim=dim, period=2.0 * math.pi, grid=grid,
                             values=vals)


def _ps_2d(grid=24):
    f = fields.make_field("periodic-square", dim=2, period=2.0 * math.pi, grid=grid, delta=0.8)
    return fields.mollify(f, 0.05)


def _full_mask(field):
    return spectral.FrequencyMask(field.grid, field.dim, field.period, "ball",
                                  {"radius": math.inf},
                                  np.ones((field.grid,) * field.dim, dtype=bool))


def _basis_matrix(grid, dim):
    """Columns alpha e_k + conj(alpha) e_-k of the real Fourier basis, in
    the flat lattice order of compression_matrix on the full lattice."""
    pts, alpha = spectral._real_fourier_basis(grid, dim)
    shape = (grid,) * dim
    flat = np.ravel_multi_index(tuple(pts.T), shape)
    neg = np.ravel_multi_index(tuple(np.mod(-pts, grid).T), shape)
    cols = np.arange(len(pts))
    T = np.zeros((grid ** dim, grid ** dim), dtype=complex)
    np.add.at(T, (flat, cols), alpha)
    np.add.at(T, (neg, cols), np.conj(alpha))
    return T


@pytest.mark.parametrize("grid, dim", [(16, 1), (15, 1), (8, 2)])
def test_real_compression_is_the_complex_one_in_the_real_basis(grid, dim):
    f = _random_field(dim, grid)
    T = _basis_matrix(grid, dim)
    assert np.allclose(T.conj().T @ T, np.eye(grid ** dim), atol=1e-14)
    complex_form = T.conj().T @ spectral.compression_matrix(f, _full_mask(f)) @ T
    real_form, _ = spectral._real_compression(f)
    assert real_form.dtype == np.float64
    assert np.allclose(real_form, complex_form.real, atol=1e-14)
    assert np.abs(complex_form.imag).max() < 1e-14
    # an odd grid has k = 0 as its only self-conjugate point
    n_self = np.count_nonzero(spectral._real_fourier_basis(grid, dim)[1] == 0.5)
    assert n_self == (1 if grid % 2 else 2 ** dim)


def _complex_resolvent_reference(field, gamma, lam, m, kernel_tol=1e-9):
    """The resolvent constant on the complex full-lattice compression:
    kernel test, null-coupling test, Schur complement, D^-1 scaling, top
    eigenvalue. Returns (M, kernel dimension)."""
    C_a = spectral.compression_matrix(field, _full_mask(field), "sqrt")
    n = C_a.shape[0]
    dvec = spectral._abs_xi(field.grid, field.dim, field.period).ravel() ** gamma - lam
    Q = np.eye(n) - m * C_a
    ker = np.abs(dvec) <= kernel_tol * max(1.0, abs(lam))
    if ker.any():
        k_idx, p_idx = np.where(ker)[0], np.where(~ker)[0]
        Q01 = Q[np.ix_(k_idx, p_idx)]
        e, V = scipy.linalg.eigh(Q[np.ix_(k_idx, k_idx)])
        if e[-1] > 1e-12:
            return math.inf, int(ker.sum())
        null = np.abs(e) <= 1e-12
        if null.any() and np.any(np.linalg.norm(V[:, null].conj().T @ Q01, axis=1) > 1e-10):
            return math.inf, int(ker.sum())
        Vn = V[:, e < -1e-12]
        S = Q[np.ix_(p_idx, p_idx)] - (Q01.conj().T @ Vn) @ np.diag(1.0 / e[e < -1e-12]) \
            @ (Vn.conj().T @ Q01)
        d1 = dvec[p_idx]
    else:
        S, d1 = Q, dvec
    W = S / np.abs(d1)[:, None] / np.abs(d1)[None, :]
    return max(float(scipy.linalg.eigvalsh(W)[-1]), 0.0), int(ker.sum())


@pytest.mark.parametrize("make, gamma, lam, m, kdim", [
    (_ps_mollified, 2.0, 16.0, None, 2),
    (_ps_mollified, 2.0, 64.0, None, 2),
    (_ps_2d, 2.0, 25.0, None, 12),
    (_ps_2d, 2.0, 50.0, None, 12),
    (_const, 1.5, 16.0, 2.0, 0),   # M = 0
    (_const, 1.5, -2.0, 0.5, 0),   # M = 1/8
    (_const, 2.0, 16.0, 0.5, 2),   # M = inf
    (_const, 2.0, 16.0, 2.0, 2),   # M = 0 after deflation
])
def test_resolvent_constant_matches_complex_reference(make, gamma, lam, m, kdim):
    f = make()
    calibrated = m is None
    if calibrated:
        m = spectral.calibrate_m(f, gamma, 64.0)
    want, want_kdim = _complex_resolvent_reference(f, gamma, lam, m)
    rep = spectral.resolvent_constant(f, gamma, lam, m)
    assert rep.extra["kernel_dim"] == want_kdim == kdim
    if math.isinf(want) or want == 0.0:
        assert rep.value == want
    else:
        assert rep.value == pytest.approx(want, rel=1e-10)
        assert rep.residual < 1e-10
    if calibrated:
        assert math.isfinite(rep.value) and rep.value > 0.0


def test_dense_resolvent_size_guard(monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("the oversized form was assembled")
    monkeypatch.setattr(spectral, "_real_compression", never)
    f = _const(dim=2, grid=128, period=1.0)
    with pytest.raises(ValueError, match=r"n = 16384 .* GB"):
        spectral.resolvent_constant(f, 1.5, 64.0, 0.5)
    with pytest.raises(ValueError, match="16384"):
        spectral.resolvent_sweep(f, 1.5, [64.0, 128.0], 0.5)


def test_iterative_uncertainty_is_deterministic(monkeypatch):
    f = _ps_mollified()
    mask = spectral.build_mask(128, 1, 2.0 * math.pi, "ball", radius=16.0)
    monkeypatch.setattr(spectral, "DENSE_RANK_LIMIT", 4)
    first = spectral.uncertainty_constant(f, mask)
    second = spectral.uncertainty_constant(f, mask)
    assert first.c == second.c
    assert first.residual == second.residual
