import math
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

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


def test_gramian_zero_field_infinite_cost():
    rep = evolution.observability_gramian(_const(value=0.0), 0.5, 0.7, 8.0)
    assert rep.lam_min == 0.0
    assert rep.kappa == math.inf


def test_gramian_rejects_undersampling():
    required = evolution.nyquist_nodes(1.0, 10.0, 16.0)
    with pytest.raises(ValueError, match=str(required)):
        evolution.observability_gramian(_const(), 1.0, 10.0, 16.0, n_nodes=10)


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


def _symmetric_2d(grid, seed, mollify=0.0):
    u = np.random.default_rng(seed).uniform(0.2, 1.0, size=(grid, grid))
    f = fields.make_field("custom-grid", dim=2, period=2.0 * math.pi, grid=grid,
                          values=(u + u.T) / 2.0)
    return fields.mollify(f, mollify) if mollify else f


@settings(max_examples=100, deadline=None)
@given(st.integers(12, 32), st.integers(0, 2 ** 32 - 1), st.booleans(),
       st.sampled_from([0.0, 0.5, 1.0]), st.floats(2.0, 5.0), st.floats(0.05, 2.0))
def test_transpose_blocks_match_dense_gramian(grid, seed, mollified, beta, K, T):
    f = _symmetric_2d(grid, seed, mollify=2.0 * math.pi / grid if mollified else 0.0)
    mask = spectral.build_mask(grid, 2, f.period, "ball", radius=K)
    blocks = spectral._transpose_fold(f, mask)
    assert blocks is not None
    want, _, _, G = _dense_gramian(f, beta, T, K)
    solved = []
    eigh = scipy.linalg.eigh

    def capture(a, *args, **kwargs):
        vals, vecs = eigh(a, *args, **kwargs)
        solved.append((float(vals[0]), vecs[:, 0]))
        return vals, vecs

    with mock.patch.object(scipy.linalg, "eigh", capture):
        rep = evolution.observability_gramian(f, beta, T, K)
    assert rep.rank == mask.rank
    assert rep.lam_min == pytest.approx(want, rel=1e-12)
    # lift each block's eigenvector to the mask and test the least on the full G
    assert len(solved) == len(blocks)
    pos = np.zeros(mask.mask.shape, dtype=np.intp)
    pos[mask.mask] = np.arange(mask.rank)
    lifted = []
    for (lam, x), (pts, alpha, pts2, b) in zip(solved, blocks):
        v = np.zeros(mask.rank, dtype=complex)
        v[pos[tuple(pts.T)]] = alpha * x
        v[pos[tuple(pts2.T)]] += b * x
        lifted.append((lam, v))
    lam, v = min(lifted, key=lambda pair: pair[0])
    assert rep.lam_min == max(lam, 0.0)
    assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)
    assert float(np.linalg.norm(G @ v - lam * v)) <= 1e-10


def test_gramian_solves_two_transpose_blocks(monkeypatch):
    """Two eigensolves per T on a transpose-invariant 2d field, of the two
    block orders; one, bit-identical to the dense Gramian, on a 2d field
    without the transpose and on a 1d field. Calls are counted through the
    module attribute scipy.linalg.eigh."""
    T_list, K = [0.3, 0.9], 5.0
    sym = _symmetric_2d(24, 5, mollify=0.3)
    mask = spectral.build_mask(24, 2, sym.period, "ball", radius=K)
    n_diag = int(np.count_nonzero(np.diag(mask.mask)))
    orders = []
    eigh = scipy.linalg.eigh

    def counted(a, *args, **kwargs):
        orders.append(np.shape(a)[0])
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "eigh", counted)
    evolution.cost_curve(sym, 1.0, T_list, K)
    assert orders == [(mask.rank + n_diag) // 2, (mask.rank - n_diag) // 2] * len(T_list)
    u = np.random.default_rng(8).uniform(0.2, 1.0, size=(24, 24))
    plain_2d = fields.make_field("custom-grid", dim=2, period=2.0 * math.pi, grid=24, values=u)
    assert fields.lattice_symmetries(plain_2d) == []
    plain_1d = fields.mollify(fields.make_field("periodic-square", dim=1, period=2.0 * math.pi,
                                                grid=128, delta=0.3), 0.05)
    for f, beta in ((plain_2d, 1.0), (plain_1d, 0.5)):
        want = [_dense_gramian(f, beta, T, K)[:3] for T in T_list]
        del orders[:]
        reps = evolution.cost_curve(f, beta, T_list, K)
        assert orders == [reps[0].rank] * len(T_list)
        assert [(r.lam_min, r.kappa, r.residual) for r in reps] == want


def test_gramian_residual_is_checked(monkeypatch, tmp_path, capsys):
    eigh = scipy.linalg.eigh

    def perturbed(a, *args, **kwargs):
        vals, vecs = eigh(a, *args, **kwargs)
        vecs = vecs + 1e-3
        return vals, vecs / np.linalg.norm(vecs, axis=0)

    monkeypatch.setattr(scipy.linalg, "eigh", perturbed)
    plain_1d = fields.mollify(fields.make_field("periodic-square", dim=1, period=2.0 * math.pi,
                                                grid=64, delta=0.3), 0.1)
    for f in (plain_1d, _symmetric_2d(16, 2)):
        with pytest.raises(RuntimeError, match="residual"):
            evolution.observability_gramian(f, 0.5, 0.7, 4.0)
    code = cli.main(["observe", "--out", str(tmp_path), "--field-family", "periodic-square",
                     "--field-dim", "2", "--field-grid", "32", "--field-period",
                     "6.283185307179586", "--field-delta", "0.3", "--beta", "1",
                     "--cutoff", "4", "--T-list", "0.5"])
    assert code == 3
    assert "numerical failure" in capsys.readouterr().err
