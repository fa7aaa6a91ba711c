import contextlib
import math
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.linalg
from hypothesis import example, given, settings, strategies as st

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


def _gathered_compression(field, mask, weight):
    """The compression read off the coefficient table by one gather, with no
    arithmetic: entry (j, k) is table[key_j - key_k + shift]."""
    table, radix, shift = spectral._coefficient_table(spectral._weight_values(field, weight))
    key = mask.indices() @ radix ** np.arange(mask.dim - 1, -1, -1)
    return table[key[:, None] - (key - shift)]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([1, 2]), st.integers(5, 20), st.integers(0, 2 ** 32 - 1),
       st.booleans(), st.sampled_from(["sqrt", "full"]),
       st.sampled_from(["ball", "rectangle", "sector"]), st.floats(0.0, 1.0))
def test_compression_matrix_is_the_gathered_table(dim, grid, seed, binary, weight, kind, t):
    """compression_matrix, built as the identity block of _pair_form, equals
    the plain gather bit for bit: 2 (w/4 + w/4) is exact."""
    vals = np.random.default_rng(seed).uniform(0.0, 1.0, size=(grid,) * dim)
    f = fields.make_field("custom-grid", dim=dim, period=2.0 * math.pi, grid=grid,
                          values=np.round(vals) if binary else vals)
    rad = spectral.aliasing_radius(grid, f.period)
    if kind == "sector" and dim == 2:
        mask = spectral.build_mask(grid, dim, f.period, kind, angle=6.0 * t, eps0=0.5)
    elif kind == "rectangle":
        mask = spectral.build_mask(grid, dim, f.period, kind, zeta=-rad + t * rad, sigma=rad / 2)
    else:
        mask = spectral.build_mask(grid, dim, f.period, "ball", radius=t * (rad - 0.5))
    assert np.array_equal(spectral.compression_matrix(f, mask, weight),
                          _gathered_compression(f, mask, weight))


def test_uncertainty_constant_constant_field():
    rep = spectral.uncertainty_constant(_const(), spectral.build_mask(
        64, 1, 2.0 * math.pi, "ball", radius=8.0))
    assert rep.c == pytest.approx(1.0, abs=1e-12)
    assert rep.value == pytest.approx(1.0, abs=1e-12)
    assert rep.rank == 17
    assert rep.residual < 1e-10


def test_uncertainty_constant_vanishing_field(monkeypatch):
    mask = spectral.build_mask(64, 1, 2.0 * math.pi, "ball", radius=4.0)
    rep = spectral.uncertainty_constant(_const(value=0.0), mask)
    assert rep.c == pytest.approx(0.0, abs=1e-12)
    assert rep.value == math.inf
    # above DENSE_EIGH_LIMIT the zero weight (shift 0) still goes to eigh
    monkeypatch.setattr(spectral, "DENSE_EIGH_LIMIT", 2)
    monkeypatch.setattr(spectral, "_top_lanczos", None)
    rep = spectral.uncertainty_constant(_const(value=0.0), mask)
    assert rep.rank == 9
    assert rep.c == 0.0
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


def _refuse(name):
    def refused(*args, **kwargs):
        raise AssertionError(f"{name} called")

    return refused


@pytest.mark.parametrize("make, kind, params, form", [
    (_ps_mollified, "ball", {"radius": 16.0}, "_real_form"),
    (_ps_mollified, "rectangle", {"zeta": 3.0, "sigma": 20.0}, "_pair_form"),
    # two transpose blocks, each smaller than the mask
    (_ps_2d, "ball", {"radius": 8.0}, "_real_form"),
])
def test_block_order_cap(monkeypatch, make, kind, params, form):
    """A block of order DENSE_RANK_LIMIT is solved densely; with the limit
    one below it, ValueError names the order, the limit and the memory
    before the coefficient table or any form is built."""
    field = make()
    mask = spectral.build_mask(field.grid, field.dim, field.period, kind, **params)
    order = max(len(b[0]) for b in spectral._mask_blocks(field, mask))
    assert (order < mask.rank) == (field.dim == 2)
    want = scipy.linalg.eigvalsh(spectral.compression_matrix(field, mask))[0]
    monkeypatch.setattr(spectral, "DENSE_RANK_LIMIT", order)
    solved, build = [], getattr(spectral, form)

    def counted(*args):
        solved.append(form)
        return build(*args)

    monkeypatch.setattr(spectral, form, counted)
    rep = spectral.uncertainty_constant(field, mask)
    assert solved and rep.c == pytest.approx(want, rel=1e-12, abs=1e-14)
    monkeypatch.setattr(spectral, "DENSE_RANK_LIMIT", order - 1)
    for name in ("_coefficient_table", "_real_form", "_pair_form"):
        monkeypatch.setattr(spectral, name, _refuse(name))
    with pytest.raises(ValueError, match=rf"block of order {order} needs about [.0-9]+ GB "
                                         rf".*the limit is order {order - 1}$"):
        spectral.uncertainty_constant(field, mask)


@pytest.mark.parametrize("grid, dim, radius", [(16, 1, 5.0), (15, 1, 7.0), (8, 2, 2.0),
                                              (7, 2, 3.0)])
def test_kernel_basis_spans_the_kernel_modes(grid, dim, radius):
    """B is real and orthonormal, and on the orthonormal Fourier
    coefficients it is supported on the kernel set, so B B^T is the
    orthogonal projector onto span{e_k : k in ker}."""
    absxi = spectral._abs_xi(grid, dim, 2.0 * math.pi)
    ker = (absxi >= radius - 1.5) & (absxi <= radius)  # a closed band, even in k
    B = spectral._kernel_basis(ker)
    assert B.dtype == np.float64 and B.shape == (grid ** dim, np.count_nonzero(ker))
    assert np.allclose(B.T @ B, np.eye(B.shape[1]), atol=1e-14)
    coef = np.fft.fftn(B.T.reshape((-1,) + (grid,) * dim), axes=tuple(range(1, dim + 1)),
                       norm="ortho").reshape(B.shape[1], -1)
    assert np.abs(coef[:, ~ker.ravel()]).max() < 1e-13
    assert np.allclose(np.sum(np.abs(coef) ** 2, axis=0), ker.ravel(), atol=1e-13)


@pytest.mark.parametrize("grid, dim", [(16, 1), (15, 1), (8, 2)])
def test_real_compression_is_the_complex_one_in_the_real_basis(grid, dim):
    """On the whole lattice _kernel_basis is a real orthonormal basis of the
    samples, and the kernel form B^T diag(q) B that the resolvent builds in
    it is I - m M_a of the complex compression in that basis."""
    f = _random_field(dim, grid)
    n = grid ** dim
    B = spectral._kernel_basis(np.ones((grid,) * dim, dtype=bool))
    assert B.shape == (n, n)
    F = np.fft.fftn(np.eye(n).reshape((n,) + (grid,) * dim), axes=tuple(range(1, dim + 1)),
                    norm="ortho").reshape(n, n).T
    T = F @ B
    assert np.allclose(T.conj().T @ T, np.eye(n), atol=1e-13)
    m = 1.5
    Q = np.eye(n) - m * spectral.compression_matrix(f, _full_mask(f))
    complex_form = T.conj().T @ Q @ T
    q = spectral._resolvent_weight(f, m).reshape(-1, 1)
    real_form = B.T @ (q * B)
    assert real_form.dtype == np.float64
    assert np.allclose(real_form, complex_form.real, atol=1e-13)
    assert np.abs(complex_form.imag).max() < 1e-13
    # a self-conjugate k gives a column of constant modulus; an odd grid
    # has k = 0 as its only one
    n_self = np.count_nonzero(np.all(np.isclose(np.abs(B), 1.0 / math.sqrt(n)), axis=0))
    assert n_self == (1 if grid % 2 else 2 ** dim)


def _complex_deflated_form(field, gamma, lam, m, kernel_tol=1e-9):
    """D^-1 S D^-1 on the complex full-lattice compression, over the
    lattice points off the kernel of A - lam (kernel test, null-coupling
    test, Schur complement, D^-1 scaling), or None when the kernel test
    gives M = inf; and the kernel as a flat boolean mask."""
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
            return None, ker
        null = np.abs(e) <= 1e-12
        if null.any() and np.any(np.linalg.norm(V[:, null].conj().T @ Q01, axis=1) > 1e-10):
            return None, ker
        Vn = V[:, e < -1e-12]
        S = Q[np.ix_(p_idx, p_idx)] - (Q01.conj().T @ Vn) @ np.diag(1.0 / e[e < -1e-12]) \
            @ (Vn.conj().T @ Q01)
        d1 = dvec[p_idx]
    else:
        S, d1 = Q, dvec
    return S / np.abs(d1)[:, None] / np.abs(d1)[None, :], ker


def _complex_resolvent_reference(field, gamma, lam, m):
    """The resolvent constant of _complex_deflated_form by a dense solver.
    Returns (M, kernel dimension, the largest |eigenvalue| of
    D^-1 S D^-1), the last being the scale of any solver's error."""
    W, ker = _complex_deflated_form(field, gamma, lam, m)
    if W is None:
        return math.inf, int(ker.sum()), math.inf
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
        raise AssertionError("the operator of an oversized lattice was built")
    monkeypatch.setattr(spectral, "_resolvent_operator", never)
    for field in (_const(dim=2, grid=128, period=1.0), _random_field(2, 128)):
        with pytest.raises(ValueError, match=r"n = 16384 .* GB"):
            spectral.resolvent_constant(field, 1.5, 64.0, 0.5)
        with pytest.raises(ValueError, match="16384"):
            spectral.resolvent_sweep(field, 1.5, [64.0, 128.0], 0.5)


def _perturbed_top_pair(monkeypatch):
    """spectral._top_lanczos returning a perturbed top eigenvector."""
    top = spectral._top_lanczos

    def perturbed(*args, **kwargs):
        theta, v = top(*args, **kwargs)
        v = v + 1e-3
        return theta, v / np.linalg.norm(v)

    monkeypatch.setattr(spectral, "_top_lanczos", perturbed)


def test_resolvent_residual_is_checked(monkeypatch, tmp_path, capsys):
    _perturbed_top_pair(monkeypatch)
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


@pytest.mark.parametrize("grid, dim, gamma, lam", [(16, 1, 2.0, 16.0), (15, 1, 2.0, 25.0),
                                                 (8, 2, 2.0, 5.0)])
def test_resolvent_operator_is_the_deflated_form(monkeypatch, grid, dim, gamma, lam):
    """On the orthonormal Fourier coefficients, the operator that Lanczos
    receives is D^-1 S D^-1 of the complex compression off the kernel,
    and zero on and into the kernel; its start lies off the kernel."""
    f = _random_field(dim, grid)
    m = spectral.calibrate_m(f, gamma, 2.0 * lam)
    seen = []
    top = spectral._top_lanczos

    def recorded(matvec, start, *args):
        seen.append((matvec, start))
        return top(matvec, start, *args)

    monkeypatch.setattr(spectral, "_top_lanczos", recorded)
    spectral.resolvent_constant(f, gamma, lam, m)
    [(matvec, start)] = seen
    W, ker = _complex_deflated_form(f, gamma, lam, m)
    assert W is not None and ker.any()
    n = grid ** dim
    samples = np.column_stack([matvec(x) for x in np.eye(n)])
    F = np.fft.fftn(np.eye(n).reshape((n,) + (grid,) * dim), axes=tuple(range(1, dim + 1)),
                    norm="ortho").reshape(n, n).T
    form = F @ samples @ F.conj().T
    scale = np.abs(W).max()
    assert np.abs(form[np.ix_(~ker, ~ker)] - W).max() < 1e-13 * scale
    assert np.abs(form[ker]).max() < 1e-13 * scale
    assert np.abs(form[:, ker]).max() < 1e-13 * scale
    assert np.abs((F @ start)[ker]).max() < 1e-13 * np.linalg.norm(start)


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


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([1, 2]).flatmap(
           lambda dim: st.tuples(st.just(dim), st.integers(6, 40) if dim == 1 else st.integers(4, 10))),
       st.integers(0, 2 ** 32 - 1), st.floats(0.5, 2.5), st.integers(0, 20), st.integers(0, 20),
       st.booleans(), st.floats(0.2, 8.0))
def test_resolvent_matches_complex_reference_without_symmetry(dim_grid, seed, gamma, k1, k2,
                                                              on_lattice, m):
    dim, grid = dim_grid
    f = fields.make_field("custom-grid", dim=dim, period=2.0 * math.pi, grid=grid,
                          values=np.random.default_rng(seed).uniform(0.0, 1.0, (grid,) * dim))
    assert fields.lattice_symmetries(f) == []
    # |xi| of a lattice point (k1, k2), or a radius between lattice points
    top = grid // 2 + 1
    r = 1 + k1 % (grid // 2) if dim == 1 else math.hypot(k1 % top, k2 % top)
    lam = r ** gamma if on_lattice else (r + 0.37) ** gamma
    want, want_kdim, scale = _complex_resolvent_reference(f, gamma, lam, m)
    rep = spectral.resolvent_constant(f, gamma, lam, m)
    assert rep.extra["kernel_dim"] == want_kdim
    if math.isinf(want) or want == 0.0:
        assert rep.value == want
    else:
        assert rep.value == pytest.approx(want, rel=1e-12, abs=1e-12 * scale)


@settings(max_examples=25, deadline=None)
@given(st.integers(12, 20), st.integers(0, 2 ** 32 - 1), st.sampled_from(["sqrt", "full"]),
       st.floats(2.0, 4.5), st.floats(3.0, 4.0), st.floats(0.5, 1.5),
       st.sampled_from([2, spectral.DENSE_EIGH_LIMIT]))
def test_transpose_fold_matches_dense_uncertainty(grid, seed, weight, radius, lam, delta, limit):
    """The folded blocks match eigvalsh of the full compression, through
    eigh or, with DENSE_EIGH_LIMIT = 2, every block of order >= 3 through
    one Cholesky shift-invert _top_lanczos run; the absolute term is the
    backward error of both solvers, n eps ||Pi M_w Pi||, with
    ||Pi M_w Pi|| <= max w."""
    u = np.random.default_rng(seed).uniform(0.2, 1.0, size=(grid, grid))
    f = fields.make_field("custom-grid", dim=2, period=2.0 * math.pi, grid=grid,
                          values=(u + u.T) / 2.0)
    masks = [spectral.build_mask(grid, 2, f.period, "ball", radius=radius),
             spectral.build_mask(grid, 2, f.period, "annulus", lam=lam, delta=delta, beta=0.0),
             spectral.build_mask(grid, 2, f.period, "sector", angle=0.3, eps0=0.4)]
    max_w = float(np.max(spectral._weight_values(f, weight)))
    for mask, n_blocks in zip(masks, (2, 2, 1)):
        blocks = spectral._mask_blocks(f, mask)
        assert len(blocks) == n_blocks
        if n_blocks == 1:  # the sector is not transpose-invariant: one identity block
            (i, alpha, j, beta), = blocks
            assert np.array_equal(i, np.arange(mask.rank)) and np.array_equal(i, j)
            assert np.all(alpha == 0.5) and np.all(beta == 0.5)
        want = scipy.linalg.eigvalsh(spectral.compression_matrix(f, mask, weight))[0]
        with mock.patch.object(spectral, "DENSE_EIGH_LIMIT", limit), _lanczos_runs() as lanczos:
            rep = spectral.uncertainty_constant(f, mask, weight)
        assert lanczos == [len(b[0]) for b in blocks if len(b[0]) > limit]
        assert rep.c == pytest.approx(want, rel=1e-12, abs=1e-14 * max_w)
        assert rep.residual < 1e-10


@settings(max_examples=40, deadline=None)
@given(st.integers(12, 20), st.integers(0, 2 ** 32 - 1), st.booleans(),
       st.sampled_from(["sqrt", "full"]), st.floats(2.0, 4.5),
       st.sampled_from([2, spectral.DENSE_EIGH_LIMIT]))
def test_closed_masks_solve_real_blocks(grid, seed, symmetric, weight, radius, limit):
    """Masks closed under k -> -k (ball, annulus, a rectangle centred on 0,
    the full lattice with its Nyquist points) reach _lowest_pair as real
    symmetric blocks, the others (sector, off-centre rectangle) as complex
    Hermitian ones, with or without the transpose blocks. Either way c
    matches eigvalsh of the full compression, and the eigenvector lifted
    back to the mask solves it."""
    u = np.random.default_rng(seed).uniform(0.2, 1.0, size=(grid, grid))
    f = fields.make_field("custom-grid", dim=2, period=2.0 * math.pi, grid=grid,
                          values=(u + u.T) / 2.0 if symmetric else u)
    assert ({"kind": "transpose"} in fields.lattice_symmetries(f)) == symmetric
    build = lambda kind, **p: spectral.build_mask(grid, 2, f.period, kind, **p)  # noqa: E731
    masks = [(build("ball", radius=radius), True),
             (build("annulus", lam=3.5, delta=1.0, beta=0.0), True),
             (build("rectangle", zeta=-2.0, sigma=4.0), True),
             (build("ball", radius=math.inf), True),
             (build("sector", angle=0.3, eps0=0.4), False),
             (build("rectangle", zeta=-1.0, sigma=3.0), False)]
    max_w = float(np.max(spectral._weight_values(f, weight)))
    lowest_pair = spectral._lowest_pair
    dtypes = []

    def capture(A, *args):
        dtypes.append(A.dtype)
        return lowest_pair(A, *args)

    for mask, closed in masks:
        assert spectral._negated_positions(mask)[1] == closed
        del dtypes[:]
        with mock.patch.object(spectral, "DENSE_EIGH_LIMIT", limit), \
                mock.patch.object(spectral, "_lowest_pair", capture):
            c, v, residual = spectral._smallest_eig(f, mask, weight)
        assert dtypes == [np.dtype(np.float64 if closed else complex)] * len(
            spectral._mask_blocks(f, mask))
        H = spectral.compression_matrix(f, mask, weight)
        assert c == pytest.approx(scipy.linalg.eigvalsh(H)[0], rel=1e-12)
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)
        assert float(np.linalg.norm(H @ v - c * v)) <= 1e-10 * max_w
        assert residual <= 1e-10 * max_w


def test_clustered_bottom_is_one_lanczos_run_without_eigh():
    """The mollified periodic square vanishes on an interval, so on the 1d
    ball of radius 100 (rank 201, one real block above DENSE_EIGH_LIMIT)
    59 compression eigenvalues lie within 1e-15 of 0. One Lanczos run,
    capped at the block order, solves that clustered bottom with no eigh
    call, and c matches eigvalsh of the full compression."""
    f = _ps_mollified(512)
    mask = spectral.build_mask(512, 1, f.period, "ball", radius=100.0)
    (block,) = spectral._mask_blocks(f, mask)
    assert len(block[0]) == 201 > spectral.DENSE_EIGH_LIMIT
    eigh, solver = [], scipy.linalg.eigh

    def counted(*args, **kwargs):
        eigh.append(args)
        return solver(*args, **kwargs)

    with _lanczos_runs() as lanczos, mock.patch.object(scipy.linalg, "eigh", counted):
        c, _, residual = spectral._smallest_eig(f, mask, "sqrt")
    assert lanczos == [201]
    assert eigh == []
    assert c == pytest.approx(scipy.linalg.eigvalsh(spectral.compression_matrix(f, mask))[0],
                              abs=1e-14)
    assert residual <= 1e-10
    rep = spectral.uncertainty_constant(f, mask)
    assert rep.c == 0.0 and rep.value == math.inf


def _no_eigsh(*args, **kwargs):
    raise AssertionError("scipy.sparse.linalg.eigsh called")


@contextlib.contextmanager
def _lanczos_runs():
    """The cap (the order of the block) of every spectral._top_lanczos run,
    appended as it starts, with scipy.sparse.linalg.eigsh made to raise."""
    caps = []
    top = spectral._top_lanczos

    def counted(matvec, start, cap, tol):
        caps.append(cap)
        return top(matvec, start, cap, tol)

    with mock.patch.object(spectral, "_top_lanczos", counted), \
            mock.patch.object(scipy.sparse.linalg, "eigsh", _no_eigsh):
        yield caps


def _hermitian(n, seed, is_complex, spectrum):
    """A Hermitian (or real symmetric) matrix of order n with eigenvalues
    in [-1, 1] and top eigenvalue 1 on a random orthonormal basis, and
    those eigenvalues. "repeated" gives the top value to up to n - 1 of
    them, "cluster" spreads up to n - 1 of them over a few ulps below 1."""
    rng = np.random.default_rng(seed)
    lam = np.append(rng.uniform(-1.0, 1.0, n - 1), 1.0)
    k = int(rng.integers(1, n)) if n > 1 else 0
    if spectrum == "repeated":
        lam[-1 - k:] = 1.0
    elif spectrum == "cluster":
        lam[-1 - k:] = 1.0 - np.arange(k + 1) * 2.0 ** -52
    X = rng.standard_normal((n, n))
    if is_complex:
        X = X + 1j * rng.standard_normal((n, n))
    Q, _ = np.linalg.qr(X)
    A = (Q * lam) @ Q.conj().T
    return (A + A.conj().T) / 2.0, lam


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 40), st.integers(0, 2 ** 32 - 1), st.booleans(),
       st.sampled_from(["spread", "repeated", "cluster"]),
       st.sampled_from([0.0, spectral.RESOLVENT_TOL]))
# the Krylov space is exhausted at step 6 of 23: with two Gram-Schmidt
# passes the later basis loses orthogonality and theta read 85
@example(n=23, seed=103045, is_complex=False, spectrum="repeated", tol=0.0)
def test_top_lanczos_matches_eigvalsh(n, seed, is_complex, spectrum, tol):
    """_top_lanczos from _gaussian_start, in real and complex arithmetic,
    finds the top eigenvalue to 1e-12 ||A|| and a unit vector whose
    residual is at most 1e-10 ||A||, for a spread spectrum and for a top
    that is repeated or a cluster as narrow as roundoff. With tol = 0
    it runs cap = n steps (the Krylov space is then exhausted) and is
    still exact, or it stops before on an exactly invariant Krylov space."""
    A, lam = _hermitian(n, seed, is_complex, spectrum)
    norm = float(np.max(np.abs(lam)))
    steps = []

    def matvec(x):
        steps.append(x)
        return A @ x

    start = spectral._gaussian_start(n, A.dtype)
    assert start.dtype == A.dtype
    theta, v = spectral._top_lanczos(matvec, start, n, tol)
    assert v.dtype == A.dtype
    assert theta == pytest.approx(scipy.linalg.eigvalsh(A)[-1], rel=0.0, abs=1e-12 * norm)
    assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)
    assert float(np.linalg.norm(A @ v - theta * v)) <= 1e-10 * norm
    if tol == 0.0:
        # it stops short of cap only where b is exactly 0, on a Krylov space
        # that A maps into itself
        Q = np.array(steps).T
        assert len(steps) == n or np.linalg.norm(A @ Q - Q @ (Q.conj().T @ A @ Q)) <= 1e-12 * norm


def test_dense_block_solve_holds_one_form():
    """An uncertainty solve of one real block (order 2 x 341 - 1 = 681)
    peaks, under tracemalloc, at its form plus the Lanczos basis reserved
    beside it, about 2 x 8 x order^2 bytes: _real_form writes the form once,
    F-ordered, and _lowest_pair factors it in place."""
    import tracemalloc
    field = _ps_mollified(1024)
    mask = spectral.build_mask(1024, 1, field.period, "ball", radius=340.0)
    (block,) = spectral._mask_blocks(field, mask)
    order = block[0].size
    assert order > spectral.DENSE_EIGH_LIMIT
    tracemalloc.start()
    try:
        spectral.uncertainty_constant(field, mask)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.3 * 8 * order * order
