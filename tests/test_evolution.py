import math

import numpy as np
import pytest

from obslab import evolution, fields


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
