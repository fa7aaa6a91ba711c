import ast
import contextlib
import inspect
import math
import re
import textwrap
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.linalg
from hypothesis import example, given, settings, strategies as st

from obslab import cli, evolution, fields, spectral


def _const(value=1.0, grid=64):
    return fields.make_field("constant", dim=1, period=2.0 * math.pi,
                             grid=grid, value=value)


def test_nyquist_nodes_formula():
    assert evolution.nyquist_nodes(0.5, 0.7, 8.0) == \
        math.ceil(4.0 * 8.0 ** 1.5 * 0.7 / (2.0 * math.pi)) + 1
    assert evolution.nyquist_nodes(1.0, 2.0, 16.0) == \
        math.ceil(4.0 * 16.0 ** 2 * 2.0 / (2.0 * math.pi)) + 1


def test_gramian_constant_field_gives_T():
    rep = evolution.observability_gramian(_const(), 0.5, 0.7, 8.0)
    assert rep.lam_min == pytest.approx(0.7, abs=1e-10)
    assert rep.kappa == pytest.approx(1.0 / 0.7, rel=1e-10)
    assert rep.rank == 17
    assert rep.quadrature == "trapezoid"
    # the kernel is T exactly where omega_k = omega_l, so lam_min is T exactly
    T_list = [1e-6, 0.1, 0.7, 3.3, 20.0, 123.456]
    assert [r.lam_min for r in evolution.cost_curve(_const(), 0.5, T_list, 8.0)] == T_list


def _node_table_kernel(omega, T, n):
    """The time kernel as it was summed before the closed form: trapezoid
    nodes centred on T/2 and their weights as tables, two real GEMMs."""
    s = np.linspace(-0.5 * T, 0.5 * T, n)
    w = np.full(n, T / (n - 1))
    w[0] *= 0.5
    w[-1] *= 0.5
    phase = np.outer(omega, s)
    cos = np.cos(phase)
    sin = np.sin(phase, out=phase)
    return (cos * w) @ cos.T + (sin * w) @ sin.T


def _node_sum_kernel(omega, T, n):
    """sum_j w_j cos(d (t_j - T/2)) over the n trapezoid nodes t_j of [0, T],
    d = |omega_k - omega_l|, node by node in extended precision."""
    d = np.abs(np.subtract.outer(omega, omega))
    T = np.longdouble(T)
    s = np.arange(n, dtype=np.longdouble) * T / (n - 1) - T / 2
    w = np.full(n, T / (n - 1))
    w[0] /= 2
    w[-1] /= 2
    out = np.empty(d.shape)
    for value in np.unique(d):
        out[d == value] = float(np.sum(w * np.cos(np.longdouble(value) * s)))
    return out


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([0.0, 0.5, 1.0]), st.integers(1, 6), st.floats(0.3, 2.0),
       st.floats(-6.0, 3.0))
@example(beta=1.0, m=6, scale=2.0, log_T=3.0)  # 91,675 nodes
@example(beta=0.0, m=1, scale=0.3, log_T=-6.0)
def test_time_kernel_is_the_trapezoid_node_sum(beta, m, scale, log_T):
    """The closed-form kernel on the 1d ball |xi| <= K of a lattice of
    spacing scale, where omega_k = omega_-k ties d = 0 off the diagonal,
    on n = max(nyquist_nodes, 33) nodes: within 4e-15 T of the node sum in
    extended precision and 1e-13 T of the node tables it replaces, and T
    exactly at every tie."""
    T, K = 10.0 ** log_T, m * scale
    omega = np.abs(np.arange(-m, m + 1) * scale) ** (beta + 1.0)
    n = max(evolution.nyquist_nodes(beta, T, K), 33)
    kernel = evolution._time_kernel(omega, T, n)
    assert np.all(np.abs(kernel - _node_sum_kernel(omega, T, n)) <= 4e-15 * T)
    assert np.all(np.abs(kernel - _node_table_kernel(omega, T, n)) <= 1e-13 * T)
    ties = np.subtract.outer(omega, omega) == 0.0
    assert np.count_nonzero(ties) == 4 * m + 1 and np.all(kernel[ties] == T)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(0, 800), min_size=1, max_size=12), st.floats(0.1, 2.0),
       st.sampled_from([0.0, 0.5, 1.0]), st.integers(0, 2 ** 32 - 1), st.floats(-6.0, 3.0),
       st.integers(33, 100_000))
def test_distinct_omega_kernel_gathers_to_the_full_kernel(norms, scale, beta, seed, log_T, n):
    """cost_curve builds each block's time kernel on the distinct omega of
    its mask positions and gathers it through the inverse index. With
    omega = |xi|^(beta + 1) drawn with repeats from a few lattice norms
    |xi| = scale sqrt(k1^2 + k2^2), a block's positions pos and a row
    index expand that repeats positions as _real_form's does, the gather
    equals the kernel built on every omega[pos], bit for bit."""
    rng = np.random.default_rng(seed)
    omega = (scale * np.sqrt(rng.choice(np.array(norms), size=40))) ** (beta + 1.0)
    pos = rng.choice(omega.size, size=int(rng.integers(1, omega.size + 1)), replace=False)
    expand = np.concatenate([np.arange(int(rng.integers(0, pos.size + 1))), np.arange(pos.size)])
    T = 10.0 ** log_T
    distinct, at = np.unique(omega[pos], return_inverse=True)
    gathered = evolution._time_kernel(distinct, T, n)[np.ix_(at[expand], at[expand])]
    full = evolution._time_kernel(omega[pos], T, n)[np.ix_(expand, expand)]
    assert np.array_equal(gathered, full)


def _per_T_cost_curve(field, beta, T_list, K):
    """(lam_min, kappa, residual) per T by the reference path: each
    block's kernel built at each T on every omega of its positions, and
    the residual G @ v taken by numpy."""
    mask = spectral.build_mask(field.grid, field.dim, field.period, "ball", radius=K)
    idx = mask.indices()
    omega = np.linalg.norm(mask.xi(), axis=1) ** (beta + 1.0)
    neg, _ = spectral._negated_positions(mask)
    table = spectral._coefficient_table(field.values)
    forms = [spectral._real_form(table, idx, neg, *b) for b in spectral._mask_blocks(field, mask)]
    a_max = float(np.max(field.values))
    out = []
    for T in T_list:
        n = max(evolution.nyquist_nodes(beta, T, K), 33)
        pairs = []
        for R, pos, expand in forms:
            G = evolution._time_kernel(omega[pos], T, n)[np.ix_(expand, expand)]
            G *= R
            lam, v = spectral._lowest_pair(G, -spectral.SHIFT_EPS * T * a_max,
                                           spectral.LANCZOS_TOL / max(1.0, T))
            pairs.append((lam, float(np.linalg.norm(G @ v - lam * v))))
        lam_min, residual = min(pairs, key=lambda pair: pair[0])
        lam_min = max(lam_min, 0.0)
        out.append((lam_min, math.inf if lam_min <= evolution.KAPPA_FLOOR else 1.0 / lam_min,
                    residual))
    return out


@pytest.mark.parametrize("dim", [1, 2])
def test_cost_curve_keeps_the_per_T_values(dim):
    """cost_curve's lam_min and kappa are those of the reference per-T
    path, bit for bit, on a 1d field (one block) and a transpose-
    invariant 2d field (two blocks), each of an order that goes to
    Cholesky Lanczos; its residual, now a SciPy gemv, agrees to roundoff."""
    if dim == 1:
        field, K = fields.mollify(fields.make_field("periodic-square", dim=1, grid=512,
                                                    period=2.0 * math.pi, delta=0.3), 0.05), 100.0
    else:
        field, K = _random_2d(32, 5, mollify=0.2), 11.0
    mask = spectral.build_mask(field.grid, dim, field.period, "ball", radius=K)
    orders = [spectral._real_form(spectral._coefficient_table(field.values), mask.indices(),
                                  spectral._negated_positions(mask)[0], *b)[0].shape[0]
              for b in spectral._mask_blocks(field, mask)]
    assert len(orders) == dim and min(orders) > spectral.DENSE_EIGH_LIMIT
    T_list = [0.05, 0.5, 1.0, 2.0]
    want = _per_T_cost_curve(field, 0.5, T_list, K)
    reports = evolution.cost_curve(field, 0.5, T_list, K)
    assert [(r.lam_min, r.kappa) for r in reports] == [(lam, kappa) for lam, kappa, _ in want]
    for r, (*_, residual) in zip(reports, want):
        assert abs(r.residual - residual) <= 1e-13 * max(1.0, r.T)


def test_cost_curve_refuses_a_T_whose_kernel_step_underflows():
    """At T = 5e-324 the step T/(n - 1) is 0 and the kernel would be 0/0:
    SizeError naming T_list. At T = 1e-320 the
    step is subnormal but not 0, and the sweep runs."""
    f = _const(0.5)
    with pytest.raises(fields.SizeError, match=r"T = 4\.94066e-324 .* = 0 on n = 33") as exc:
        evolution.cost_curve(f, 0.5, [1.0, 5e-324], 8.0)
    assert exc.value.argument == "T_list"
    assert evolution.cost_curve(f, 0.5, [1e-320], 8.0)[0].lam_min == 0.5 * 1e-320


def test_solves_hold_no_numpy_matrix_product():
    """One OpenBLAS pool per eigensolve. numpy and SciPy each load their
    own OpenBLAS, each with its own threads; right after a threaded numpy
    matrix-vector product, numpy's idle worker still spins on the second
    core, and SciPy's cho_factor and cho_solve wait for that core. So the
    Lanczos loop, the block solver and the Gramian sweep multiply through
    SciPy's BLAS (get_blas_funcs gemv) and hold no @ (ast.MatMult)."""
    for fn in (spectral._top_lanczos, spectral._lowest_pair, evolution.cost_curve):
        tree = ast.parse(textwrap.dedent(inspect.getsource(fn)))
        products = [node for node in ast.walk(tree) if isinstance(node, (ast.BinOp, ast.AugAssign))
                    and isinstance(node.op, ast.MatMult)]
        assert not products, f"{fn.__name__} line {products[0].lineno}: @"


def test_gramian_zero_field_infinite_cost():
    rep = evolution.observability_gramian(_const(value=0.0), 0.5, 0.7, 8.0)
    assert rep.lam_min == 0.0
    assert rep.kappa == math.inf


def test_gramian_validates_inputs():
    with pytest.raises(ValueError):
        evolution.observability_gramian(_const(), 1.5, 1.0, 8.0)
    with pytest.raises(ValueError):
        evolution.observability_gramian(_const(), 0.5, -1.0, 8.0)


def test_cost_decreases_with_time():
    f = fields.make_field("periodic-square", dim=1, period=2.0 * math.pi,
                          grid=128, delta=0.3)
    f = fields.mollify(f, 0.05)
    reps = evolution.cost_curve(f, 0.5, [0.2, 0.4, 0.8], 8.0)
    kappas = [r.kappa for r in reps]
    assert kappas[0] > kappas[1] > kappas[2]


def test_miller_cost_values():
    assert evolution.miller_cost(0.0, 3.0, 2.0, 0.1) == pytest.approx(1.5)
    T_low = math.sqrt(math.pi ** 2 + 0.1) - 1e-9
    assert evolution.miller_cost(1.0, 3.0, T_low, 0.1) is None
    T = 2.0 * math.sqrt(math.pi ** 2 + 0.1)
    got = evolution.miller_cost(1.0, 3.0, T, 0.1)
    assert got == pytest.approx(2.0 / math.sqrt(math.pi ** 2 + 0.1), rel=1e-12)


def test_miller_cost_validation():
    with pytest.raises(ValueError):
        evolution.miller_cost(1.0, 1.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        evolution.miller_cost(-1.0, 1.0, 1.0, 0.1)
    with pytest.raises(ValueError):
        evolution.miller_cost(1.0, 0.0, 1.0, 0.1)


def test_fit_log_cost_recovers_synthetic_curve():
    T = np.linspace(0.5, 2.0, 8)
    kappas = np.exp(3.0 * T ** 1.7 + 0.2)
    fit = evolution.fit_log_cost(T, kappas, 1.7)
    assert fit["slope"] == pytest.approx(3.0, abs=1e-9)
    assert fit["intercept"] == pytest.approx(0.2, abs=1e-9)
    assert fit["r2"] == pytest.approx(1.0, abs=1e-12)


def test_arb_time_shape_check_smoke():
    f = fields.make_field("periodic-square", dim=1, period=2.0 * math.pi,
                          grid=64, delta=0.3)
    f = fields.mollify(f, 0.1)
    T_list = [0.1, 0.12, 0.14, 0.16]
    out = evolution.arb_time_shape_check(f, 2.0 / 3.0, T_list, 8.0, beta=0.5,
                                         alt_exponents=(-8.0,))
    assert out["exponent"] == pytest.approx(-4.0)
    assert out["beta"] == 0.5
    assert "passed" in out and isinstance(out["passed"], bool)
    assert "-8.0" in out["alternatives"]
    assert len(out["kappa"]) == 4


def test_arb_time_shape_check_validation():
    f = _const()
    with pytest.raises(ValueError):
        evolution.arb_time_shape_check(f, 1.5, [0.1, 0.2], 8.0)
    with pytest.raises(ValueError, match="finite"):
        evolution.arb_time_shape_check(_const(value=0.0), 0.5, [0.1, 0.2], 8.0,
                                       beta=0.5)


@pytest.mark.parametrize("T_list", [[0.5], [0.5, 0.5]])
def test_envelope_check_needs_two_distinct_times(monkeypatch, T_list):
    calls = []
    monkeypatch.setattr(evolution, "cost_curve", lambda *a, **k: calls.append(a))
    with pytest.raises(ValueError, match="at least two distinct T"):
        evolution.arb_time_shape_check(_const(), 0.5, T_list, 8.0)
    assert calls == []


@pytest.mark.parametrize("eps, T_list, message", [
    (0.01, [0.05, 0.06, 0.07], "spans [inf, inf]"),
    (0.01, [500.0, 600.0], "spans [0, 0]"),
    # T^-2 is a subnormal near 1e-320, spaced 5e-4 apart: both round alike
    (1.0, [1e160, 1.00001e160], "spans [9.99989e-321, 9.99989e-321]"),
])
def test_envelope_check_refuses_abscissae_past_the_float_range(monkeypatch, eps, T_list,
                                                                message):
    """The fit's abscissa T^(2 - 4/eps) must be a positive finite float64
    at every T and take two distinct values, else SizeError naming
    envelope_eps before any Gramian."""
    calls = []
    monkeypatch.setattr(evolution, "cost_curve", lambda *a, **k: calls.append(a))
    with pytest.raises(fields.SizeError, match=re.escape(message)) as exc:
        evolution.arb_time_shape_check(_const(), eps, T_list, 8.0)
    assert exc.value.argument == "envelope_eps" and calls == []


def test_gramian_report_to_dict():
    rep = evolution.observability_gramian(_const(), 0.5, 0.5, 4.0)
    d = rep.to_dict()
    assert d["T"] == 0.5
    assert d["cost_class"].startswith("frequency-truncated")
    assert "field" in d


def _dense_gramian(field, beta, T, K):
    """(lam_min, kappa, residual, G) of the full rank x rank Gramian
    C_a * W_T, assembled and solved as one dense matrix."""
    n_nodes = max(evolution.nyquist_nodes(beta, T, K), 33)
    mask = spectral.build_mask(field.grid, field.dim, field.period, "ball", radius=K)
    C = spectral.compression_matrix(field, mask, weight="sqrt")
    omega = np.linalg.norm(mask.xi(), axis=1) ** (beta + 1.0)
    nodes = np.linspace(0.0, T, n_nodes)
    w = np.full(n_nodes, T / (n_nodes - 1))
    w[0] *= 0.5
    w[-1] *= 0.5
    E = np.exp(1j * np.outer(omega, nodes))
    G = C * ((E * w) @ E.conj().T)
    vals, vecs = scipy.linalg.eigh(G, subset_by_index=[0, 0])
    lam, v = float(vals[0]), vecs[:, 0]
    residual = float(np.linalg.norm(G @ v - lam * v))
    lam = max(lam, 0.0)
    kappa = float("inf") if lam <= evolution.KAPPA_FLOOR else 1.0 / lam
    return lam, kappa, residual, G


def _random_2d(grid, seed, mollify=0.0, symmetric=True):
    u = np.random.default_rng(seed).uniform(0.2, 1.0, size=(grid, grid))
    f = fields.make_field("custom-grid", dim=2, period=2.0 * math.pi, grid=grid,
                          values=(u + u.T) / 2.0 if symmetric else u)
    return fields.mollify(f, mollify) if mollify else f


def _real_basis(mask, block):
    """The columns (mask vectors) of the real basis that spectral._real_form
    puts on one block of _mask_blocks: (f_a + J f_a)/sqrt2 and
    i (f_a - J f_a)/sqrt2 for each representative a, then phase f_c for
    each self-paired c, with J e_k = e_-k found by matching lattice points."""
    i, alpha, j, beta = block
    idx = mask.indices()
    neg = np.array([np.flatnonzero((idx == (-k) % mask.grid).all(axis=1))[0] for k in idx])
    rep, own, phase = spectral._conjugate_pairs(neg, i, alpha, j, beta)

    def vectors(a, at):
        F = np.zeros((mask.rank, a.size), dtype=complex)
        np.add.at(F, (at[i[a]], np.arange(a.size)), alpha[a])
        np.add.at(F, (at[j[a]], np.arange(a.size)), beta[a])
        return F

    f, Jf = vectors(rep, np.arange(mask.rank)), vectors(rep, neg)
    return np.hstack([(f + Jf) / math.sqrt(2.0), 1j * (f - Jf) / math.sqrt(2.0),
                      vectors(own, np.arange(mask.rank)) * phase])


def _lift(mask, beta, T, block, x):
    """The real-basis eigenvector x of one block as an eigenvector of the
    full complex Gramian: through the basis, then D = diag(exp(i omega T/2))."""
    omega = np.linalg.norm(mask.xi(), axis=1) ** (beta + 1.0)
    return np.exp(0.5j * omega * T) * (_real_basis(mask, block) @ x)


def _no_eigsh(*args, **kwargs):
    raise AssertionError("scipy.sparse.linalg.eigsh called")


@contextlib.contextmanager
def _block_solver_hook(after):
    """Route the smallest eigenpair of every block from
    evolution._lowest_pair (eigh up to DENSE_EIGH_LIMIT and for the zero
    field, one Cholesky shift-invert Lanczos run above) through
    after(matrix, vals, vecs), vals the one eigenvalue and vecs its vector
    as a column, which returns the (vals, vecs) passed on. ARPACK's
    scipy.sparse.linalg.eigsh is made to raise."""
    lowest_pair = evolution._lowest_pair

    def hooked(G, *args):
        lam, v = lowest_pair(G, *args)
        vals, vecs = after(G, np.array([lam]), v[:, None])
        return float(vals[0]), vecs[:, 0]

    with mock.patch.object(evolution, "_lowest_pair", hooked), \
            mock.patch.object(scipy.sparse.linalg, "eigsh", _no_eigsh):
        yield


# DENSE_EIGH_LIMIT = 2 sends every block of order >= 3 to Lanczos, so the
# small fields below exercise both block solvers
LIMITS = [2, spectral.DENSE_EIGH_LIMIT]


@settings(max_examples=100, deadline=None)
@given(st.integers(12, 32), st.integers(0, 2 ** 32 - 1), st.booleans(), st.booleans(),
       st.sampled_from([0.0, 0.5, 1.0]), st.floats(2.0, 5.0), st.floats(0.05, 2.0),
       st.sampled_from(LIMITS))
def test_transpose_blocks_match_dense_gramian(grid, seed, symmetric, mollified, beta, K, T,
                                              limit):
    """Two transpose blocks on a transpose-invariant field, one identity
    block on a field without the transpose; either way, and with either
    block solver, lam_min matches the dense Gramian and the lifted
    eigenvector solves it."""
    f = _random_2d(grid, seed, mollify=2.0 * math.pi / grid if mollified else 0.0,
                   symmetric=symmetric)
    mask = spectral.build_mask(grid, 2, f.period, "ball", radius=K)
    blocks = spectral._mask_blocks(f, mask)
    assert len(blocks) == (2 if symmetric else 1)
    want, _, _, G = _dense_gramian(f, beta, T, K)
    solved = []

    def capture(a, vals, vecs):
        solved.append((float(vals[0]), vecs[:, 0]))
        return vals, vecs

    with _block_solver_hook(capture), mock.patch.object(spectral, "DENSE_EIGH_LIMIT", limit):
        rep = evolution.observability_gramian(f, beta, T, K)
    assert rep.rank == mask.rank
    assert rep.lam_min == pytest.approx(want, rel=1e-12)
    # lift each block's eigenvector to the mask and test the least on the full G
    assert len(solved) == len(blocks)
    lam, v = min(((lam, _lift(mask, beta, T, b, x)) for (lam, x), b in zip(solved, blocks)),
                 key=lambda pair: pair[0])
    assert rep.lam_min == max(lam, 0.0)
    assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)
    assert float(np.linalg.norm(G @ v - lam * v)) <= 1e-10


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([1, 2]), st.integers(12, 40), st.integers(0, 2 ** 32 - 1),
       st.booleans(), st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.1, 1.0),
       st.floats(0.05, 2.0), st.sampled_from(LIMITS))
def test_real_blocks_match_dense_complex_gramian(dim, grid, seed, symmetric, beta, reach, T,
                                                 limit):
    """Each block is solved as a real symmetric matrix: it is the complex
    Gramian, unrotated by D, on the block's cosine and sine basis, which
    is orthonormal. lam_min matches eigvalsh of the dense complex Gramian,
    and the least block's eigenvector, lifted back through the basis and
    D, solves it. 1d fields have one block; 2d ones two with the transpose
    and one without; LIMITS sends them to eigh and to Lanczos."""
    u = np.random.default_rng(seed).uniform(0.2, 1.0, size=(grid,) * dim)
    f = fields.make_field("custom-grid", dim=dim, period=2.0 * math.pi, grid=grid,
                          values=(u + u.T) / 2.0 if symmetric else u)
    # 1d balls reach up to the aliasing radius grid / 2; 2d ones to 5
    K = 1.0 + reach * (grid / 2.0 - 1.5 if dim == 1 else 4.0)
    mask = spectral.build_mask(grid, dim, f.period, "ball", radius=K)
    blocks = spectral._mask_blocks(f, mask)
    *_, G = _dense_gramian(f, beta, T, K)
    omega = np.linalg.norm(mask.xi(), axis=1) ** (beta + 1.0)
    D = np.exp(0.5j * omega * T)
    H = D.conj()[:, None] * G * D
    solved = []
    lowest_pair = evolution._lowest_pair

    def capture(A, *args):
        lam, x = lowest_pair(A, *args)
        solved.append((A, lam, x))
        return lam, x

    with mock.patch.object(evolution, "_lowest_pair", capture), \
            mock.patch.object(spectral, "DENSE_EIGH_LIMIT", limit):
        rep = evolution.observability_gramian(f, beta, T, K)
    assert len(solved) == len(blocks)
    for (A, _, _), block in zip(solved, blocks):
        Q = _real_basis(mask, block)
        assert A.dtype == np.float64 and A.shape == (Q.shape[1],) * 2
        assert np.allclose(Q.conj().T @ Q, np.eye(Q.shape[1]), rtol=0.0, atol=1e-14)
        assert np.allclose(Q.conj().T @ H @ Q, A, rtol=0.0, atol=1e-13 * T)
    want = max(float(np.linalg.eigvalsh(G)[0]), 0.0)
    assert rep.lam_min == pytest.approx(want, rel=1e-12, abs=1e-14 * T)
    lam, x, block = min(((lam, x, b) for (_, lam, x), b in zip(solved, blocks)),
                        key=lambda t: t[0])
    v = _lift(mask, beta, T, block, x)
    assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)
    assert float(np.linalg.norm(G @ v - lam * v)) <= 1e-10


def test_gramian_solves_two_transpose_blocks():
    """Two eigensolves per T on a transpose-invariant 2d field, of the two
    block orders; one on a 2d field without the transpose and on a 1d
    field, within rel 1e-12 of the dense Gramian through eigh and through
    Lanczos, with the lifted eigenvector solving the full Gramian. Calls
    are counted through evolution._lowest_pair."""
    T_list, K = [0.3, 0.9], 5.0
    sym = _random_2d(24, 5, mollify=0.3)
    mask = spectral.build_mask(24, 2, sym.period, "ball", radius=K)
    n_diag = int(np.count_nonzero(np.diag(mask.mask)))
    u = np.random.default_rng(8).uniform(0.2, 1.0, size=(24, 24))
    plain_2d = fields.make_field("custom-grid", dim=2, period=2.0 * math.pi, grid=24, values=u)
    assert fields.lattice_symmetries(plain_2d) == []
    plain_1d = fields.mollify(fields.make_field("periodic-square", dim=1, period=2.0 * math.pi,
                                                grid=128, delta=0.3), 0.05)
    want = {beta: [_dense_gramian(f, beta, T, K) for T in T_list]
            for f, beta in ((plain_2d, 1.0), (plain_1d, 0.5))}
    orders, vectors = [], []

    def count(a, vals, vecs):
        orders.append(a.shape[0])
        vectors.append(vecs[:, 0])
        return vals, vecs

    for limit in LIMITS:
        with _block_solver_hook(count), mock.patch.object(spectral, "DENSE_EIGH_LIMIT", limit):
            del orders[:]
            evolution.cost_curve(sym, 1.0, T_list, K)
            assert orders == [(mask.rank + n_diag) // 2, (mask.rank - n_diag) // 2] * len(T_list)
            for f, beta in ((plain_2d, 1.0), (plain_1d, 0.5)):
                del orders[:], vectors[:]
                reps = evolution.cost_curve(f, beta, T_list, K)
                assert orders == [reps[0].rank] * len(T_list)
                ball = spectral.build_mask(f.grid, f.dim, f.period, "ball", radius=K)
                (block,) = spectral._mask_blocks(f, ball)
                for rep, x, T, (lam0, kappa0, _, G) in zip(reps, vectors, T_list, want[beta]):
                    assert rep.lam_min == pytest.approx(lam0, rel=1e-12)
                    assert rep.kappa == pytest.approx(kappa0, rel=1e-12)
                    assert rep.residual <= 1e-10
                    v = _lift(ball, beta, T, block, x)
                    assert float(np.linalg.norm(G @ v - rep.lam_min * v)) <= 1e-10


def test_gramian_residual_is_checked(tmp_path, capsys):
    def perturbed(a, vals, vecs):
        vecs = vecs + 1e-3
        return vals, vecs / np.linalg.norm(vecs, axis=0)

    plain_1d = fields.mollify(fields.make_field("periodic-square", dim=1, period=2.0 * math.pi,
                                                grid=64, delta=0.3), 0.1)
    for limit in LIMITS:
        with _block_solver_hook(perturbed), mock.patch.object(spectral, "DENSE_EIGH_LIMIT", limit):
            for f in (plain_1d, _random_2d(16, 2)):
                with pytest.raises(RuntimeError, match="residual"):
                    evolution.observability_gramian(f, 0.5, 0.7, 4.0)
            code = cli.main(["observe", "--out", str(tmp_path), "--field-family",
                             "periodic-square", "--field-dim", "2", "--field-grid", "32",
                             "--field-period", "6.283185307179586", "--field-delta", "0.3",
                             "--beta", "1", "--cutoff", "4", "--T-list", "0.5"])
        assert code == 3
        assert "numerical failure" in capsys.readouterr().err


def _lanczos_case(kind, grid, seed):
    """A 2d field for the Lanczos path: zero on a strip (not transpose
    invariant, one block) or on a cross of two strips (two blocks), a
    random field with or without the transpose, the constant 1 or 0."""
    x = np.arange(grid) / grid
    band = (x >= 0.3) & (x < 0.55)
    if kind == "strip":
        u = np.where(band[:, None], 0.0, 1.0) * np.ones(grid)
    elif kind == "cross":
        u = np.where(band[:, None] | band[None, :], 0.0, 1.0)
    elif kind in ("constant", "zero"):
        u = np.full((grid, grid), 1.0 if kind == "constant" else 0.0)
    else:
        return _random_2d(grid, seed, symmetric=kind == "random-symmetric")
    return fields.make_field("custom-grid", dim=2, period=2.0 * math.pi, grid=grid, values=u)


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(["strip", "cross", "random", "random-symmetric", "constant", "zero"]),
       st.integers(24, 32), st.integers(0, 2 ** 32 - 1), st.sampled_from([0.5, 1.0]),
       st.floats(11.0, 11.9), st.floats(0.05, 2.0))
# eigvalsh of this Gramian (order 469, lam 1.07e-8) is 1.1e-14 T below its
# extended-precision Rayleigh quotient; the eigh of _dense_gramian is within 1e-15 T
@example(kind="strip", grid=24, seed=0, beta=0.5, K=11.5, T=0.05)
def test_lanczos_blocks_match_dense_eigenvalues(kind, grid, seed, beta, K, T):
    """Every block here is above DENSE_EIGH_LIMIT, so each is solved by one
    Cholesky shift-invert _top_lanczos run, capped at the block order (the
    zero field, with nothing to shift by, by eigh). lam_min matches the
    dense Gramian's smallest eigenvalue
    (_dense_gramian); the absolute term is the backward error of both
    solvers, with ||G|| <= T max a."""
    f = _lanczos_case(kind, grid, seed)
    mask = spectral.build_mask(grid, 2, f.period, "ball", radius=K)
    blocks = spectral._mask_blocks(f, mask)
    assert min(len(b[0]) for b in blocks) > spectral.DENSE_EIGH_LIMIT
    want, *_ = _dense_gramian(f, beta, T, K)
    lanczos = []
    top = spectral._top_lanczos

    def counted(matvec, start, cap, tol):
        lanczos.append(cap)
        return top(matvec, start, cap, tol)

    with mock.patch.object(spectral, "_top_lanczos", counted), \
            mock.patch.object(scipy.sparse.linalg, "eigsh", _no_eigsh):
        rep = evolution.observability_gramian(f, beta, T, K)
    assert lanczos == ([] if kind == "zero" else [len(b[0]) for b in blocks])
    assert rep.lam_min == pytest.approx(want, rel=1e-12, abs=1e-14 * T)
    assert rep.residual <= 1e-10
    if kind == "zero":
        assert rep.lam_min == 0.0 and rep.kappa == math.inf
    if kind == "constant":
        assert rep.lam_min == pytest.approx(T, abs=1e-10)
