import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from obslab import cli, fields, spectral


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


def _basis_matrix(grid, dim, s=None):
    """Columns alpha e_k + conj(alpha) e_-k of the real Fourier basis, block
    after block, in the flat lattice order of compression_matrix on the
    full lattice; and the block sizes."""
    blocks = spectral._real_fourier_basis(grid, dim, s)
    pts = np.concatenate([p for p, _ in blocks])
    alpha = np.concatenate([a for _, a in blocks])
    shape = (grid,) * dim
    flat = np.ravel_multi_index(tuple(pts.T), shape)
    neg = np.ravel_multi_index(tuple(np.mod(-pts, grid).T), shape)
    cols = np.arange(len(pts))
    T = np.zeros((grid ** dim, grid ** dim), dtype=complex)
    np.add.at(T, (flat, cols), alpha)
    np.add.at(T, (neg, cols), np.conj(alpha))
    return T, [len(p) for p, _ in blocks]


def _real_forms(field, s=None):
    """M_a on each block of the real Fourier basis, through the one
    two-point assembly the resolvent uses."""
    table = spectral._coefficient_table(field.values)
    return [spectral._pair_form(table, pts, alpha, np.mod(-pts, field.grid), np.conj(alpha),
                                real=True)
            for pts, alpha in spectral._real_fourier_basis(field.grid, field.dim, s)]


@pytest.mark.parametrize("grid, dim", [(16, 1), (15, 1), (8, 2)])
def test_real_compression_is_the_complex_one_in_the_real_basis(grid, dim):
    f = _random_field(dim, grid)
    T, sizes = _basis_matrix(grid, dim)
    assert sizes == [grid ** dim]
    assert np.allclose(T.conj().T @ T, np.eye(grid ** dim), atol=1e-14)
    complex_form = T.conj().T @ spectral.compression_matrix(f, _full_mask(f)) @ T
    [real_form] = _real_forms(f)
    assert real_form.dtype == np.float64
    assert np.allclose(real_form, complex_form.real, atol=1e-14)
    assert np.abs(complex_form.imag).max() < 1e-14
    # an odd grid has k = 0 as its only self-conjugate point
    n_self = np.count_nonzero(spectral._real_fourier_basis(grid, dim)[0][1] == 0.5)
    assert n_self == (1 if grid % 2 else 2 ** dim)


def _reflect(values, s):
    """values at x -> s - x (mod grid) on every axis."""
    idx = [np.mod(si - np.arange(values.shape[0]), values.shape[0]) for si in s]
    return values[np.ix_(*idx)]


@pytest.mark.parametrize("grid, s", [(16, (5,)), (16, (0,)), (15, (4,)), (15, (7,)),
                                     (8, (3, 0)), (8, (1, 6)), (7, (2, 5))])
def test_twisted_basis_splits_a_reflection_symmetric_form(grid, s):
    dim = len(s)
    u = _random_field(dim, grid).values
    f = fields.make_field("custom-grid", dim=dim, period=2.0 * math.pi, grid=grid,
                          values=(u + _reflect(u, s)) / 2.0)
    T, sizes = _basis_matrix(grid, dim, s)
    assert len(sizes) == 2 and sum(sizes) == grid ** dim
    assert np.allclose(T.conj().T @ T, np.eye(grid ** dim), atol=1e-14)
    # on the samples (F[x, k] = e_k(x)) the reflection fixes the even
    # block's vectors and negates the odd block's
    n = grid ** dim
    F = np.fft.ifftn(np.eye(n).reshape((n,) + (grid,) * dim),
                     axes=tuple(range(1, dim + 1))).reshape(n, n).T * math.sqrt(n)
    samples = F @ T
    assert np.allclose(_reflect(samples.reshape((grid,) * dim + (n,)), s).reshape(n, n),
                       samples * np.repeat([1.0, -1.0], sizes), atol=1e-13)
    complex_form = T.conj().T @ spectral.compression_matrix(f, _full_mask(f)) @ T
    assert np.abs(complex_form.imag).max() < 1e-14
    even, odd = _real_forms(f, s)
    n0 = sizes[0]
    assert np.abs(complex_form[:n0, n0:]).max() < 1e-14
    assert np.allclose(even, complex_form[:n0, :n0].real, atol=1e-14)
    assert np.allclose(odd, complex_form[n0:, n0:].real, atol=1e-14)


def _complex_resolvent_reference(field, gamma, lam, m, kernel_tol=1e-9):
    """The resolvent constant on the complex full-lattice compression:
    kernel test, null-coupling test, Schur complement, D^-1 scaling, top
    eigenvalue. Returns (M, kernel dimension, the largest |eigenvalue| of
    D^-1 S D^-1), the last being the scale of any dense solver's error."""
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
            return math.inf, int(ker.sum()), math.inf
        null = np.abs(e) <= 1e-12
        if null.any() and np.any(np.linalg.norm(V[:, null].conj().T @ Q01, axis=1) > 1e-10):
            return math.inf, int(ker.sum()), math.inf
        Vn = V[:, e < -1e-12]
        S = Q[np.ix_(p_idx, p_idx)] - (Q01.conj().T @ Vn) @ np.diag(1.0 / e[e < -1e-12]) \
            @ (Vn.conj().T @ Q01)
        d1 = dvec[p_idx]
    else:
        S, d1 = Q, dvec
    W = S / np.abs(d1)[:, None] / np.abs(d1)[None, :]
    e = scipy.linalg.eigvalsh(W)
    return max(float(e[-1]), 0.0), int(ker.sum()), float(np.abs(e).max())


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
    want, want_kdim, _ = _complex_resolvent_reference(f, gamma, lam, m)
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
        raise AssertionError("a block of the oversized form was assembled")
    monkeypatch.setattr(spectral, "_real_fourier_basis", never)
    monkeypatch.setattr(spectral, "_pair_form", never)
    # the constant field has a flip on both axes, so it would split into
    # blocks; the guard still bounds the full lattice
    f = _const(dim=2, grid=128, period=1.0)
    assert {g["kind"] for g in fields.lattice_symmetries(f)} == {"transpose", "flip"}
    for field in (f, _random_field(2, 128)):
        with pytest.raises(ValueError, match=r"n = 16384 .* GB"):
            spectral.resolvent_constant(field, 1.5, 64.0, 0.5)
        with pytest.raises(ValueError, match="16384"):
            spectral.resolvent_sweep(field, 1.5, [64.0, 128.0], 0.5)


def test_iterative_uncertainty_is_deterministic(monkeypatch):
    f = _ps_mollified()
    mask = spectral.build_mask(128, 1, 2.0 * math.pi, "ball", radius=16.0)
    monkeypatch.setattr(spectral, "DENSE_RANK_LIMIT", 4)
    first = spectral.uncertainty_constant(f, mask)
    second = spectral.uncertainty_constant(f, mask)
    assert first.c == second.c
    assert first.residual == second.residual


def _perturbed_top_eigh(monkeypatch):
    """scipy.linalg.eigh returning a perturbed top eigenvector."""
    eigh = scipy.linalg.eigh

    def perturbed(a, *args, **kwargs):
        vals, vecs = eigh(a, *args, **kwargs)
        if kwargs.get("driver") == "evx":
            vecs = vecs + 1e-3
            vecs /= np.linalg.norm(vecs, axis=0)
        return vals, vecs

    monkeypatch.setattr(scipy.linalg, "eigh", perturbed)


def test_resolvent_residual_is_checked(monkeypatch, tmp_path, capsys):
    _perturbed_top_eigh(monkeypatch)
    with pytest.raises(RuntimeError, match="residual"):
        spectral.resolvent_constant(_ps_mollified(), 1.5, 50.0, 2.0)
    code = cli.main(["resolvent", "--out", str(tmp_path), "--field-family", "periodic-square",
                     "--field-dim", "1", "--field-grid", "128", "--field-period", "6.283185307179586",
                     "--gamma", "1.5", "--lambdas", "50", "--m", "2"])
    assert code == 3
    assert "numerical failure" in capsys.readouterr().err


def _flip_symmetric_1d(values, s):
    v = np.asarray(values)
    v = (v + v[np.mod(s - np.arange(v.size), v.size)]) / 2.0
    return fields.make_field("custom-grid", dim=1, period=2.0 * math.pi, grid=v.size, values=v)


def test_flip_symmetric_resolvent_solves_two_blocks(monkeypatch):
    """Two top-eigenpair solves per lam, each through the module attribute
    scipy.linalg.eigh (a bare `from scipy.linalg import eigh` would hide
    them from this count and from any wrapper of that attribute)."""
    f = _flip_symmetric_1d(_random_field(1, 64).values, 5)
    assert fields.lattice_symmetries(f) == [{"kind": "flip", "axis": 0, "s": 5}]
    orders = []
    eigh = scipy.linalg.eigh

    def counted(a, *args, **kwargs):
        orders.append(np.shape(a)[0])
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "eigh", counted)
    lambdas = [50.0, 90.0, 300.0]  # |xi|^1.5 = lam has no integer root: no kernel
    reps = spectral.resolvent_sweep(f, 1.5, lambdas, 2.0)
    assert [r.extra["kernel_dim"] for r in reps] == [0, 0, 0]
    assert len(orders) == 2 * len(lambdas)
    assert orders[:2] == [32, 32]


@settings(max_examples=60, deadline=None)
@given(st.integers(6, 33).flatmap(lambda n: st.tuples(
           st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n), st.integers(0, n - 1))),
       st.floats(0.5, 2.5), st.integers(1, 12), st.booleans(), st.floats(0.2, 8.0))
def test_flip_symmetric_resolvent_matches_complex_reference(field_and_s, gamma, k, on_lattice, m):
    values, s = field_and_s
    f = _flip_symmetric_1d(values, s)
    assert any(g["kind"] == "flip" for g in fields.lattice_symmetries(f))
    lam = float(k) ** gamma if on_lattice else (k + 0.37) ** gamma
    want, want_kdim, scale = _complex_resolvent_reference(f, gamma, lam, m)
    rep = spectral.resolvent_constant(f, gamma, lam, m)
    assert rep.extra["kernel_dim"] == want_kdim
    if math.isinf(want) or want == 0.0:
        assert rep.value == want
    else:
        # a dense solver resolves a small top eigenvalue only to eps times
        # the largest one (0/1-valued fields reach M/scale ~ 1e-6)
        assert rep.value == pytest.approx(want, rel=1e-12, abs=1e-12 * scale)


@settings(max_examples=25, deadline=None)
@given(st.integers(12, 20), st.integers(0, 2 ** 32 - 1), st.sampled_from(["sqrt", "full"]),
       st.floats(2.0, 4.5), st.floats(3.0, 4.0), st.floats(0.5, 1.5))
def test_transpose_fold_matches_dense_uncertainty(grid, seed, weight, radius, lam, delta):
    u = np.random.default_rng(seed).uniform(0.2, 1.0, size=(grid, grid))
    f = fields.make_field("custom-grid", dim=2, period=2.0 * math.pi, grid=grid,
                          values=(u + u.T) / 2.0)
    masks = [spectral.build_mask(grid, 2, f.period, "ball", radius=radius),
             spectral.build_mask(grid, 2, f.period, "annulus", lam=lam, delta=delta, beta=0.0),
             spectral.build_mask(grid, 2, f.period, "sector", angle=0.3, eps0=0.4)]
    for mask, folded in zip(masks, (True, True, False)):
        assert (spectral._transpose_fold(f, mask) is not None) == folded
        want = scipy.linalg.eigvalsh(spectral.compression_matrix(f, mask, weight))[0]
        rep = spectral.uncertainty_constant(f, mask, weight)
        assert rep.c == pytest.approx(want, rel=1e-12)
        assert rep.residual < 1e-10


def test_folded_iterative_uncertainty_matches_dense(monkeypatch):
    f = _ps_2d()
    mask = spectral.build_mask(f.grid, 2, f.period, "ball", radius=8.0)
    blocks = spectral._transpose_fold(f, mask)
    n_diag = int(np.count_nonzero(np.diag(mask.mask)))
    assert [len(b[0]) for b in blocks] == [(mask.rank + n_diag) // 2, (mask.rank - n_diag) // 2]
    dense = spectral.uncertainty_constant(f, mask)
    monkeypatch.setattr(spectral, "DENSE_RANK_LIMIT", 40)
    iterative = spectral.uncertainty_constant(f, mask)
    assert iterative.c == pytest.approx(dense.c, abs=1e-8)
    assert iterative.residual < 1e-8
