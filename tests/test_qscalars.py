import cmath
import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qboson import DeformParams, ParameterError, half_index_product, q_number, q_power, qscalars
from qboson.qscalars import check_half_index_recursion


def test_params_derived_constants():
    p = DeformParams(q=1.3, kappa=0)
    assert abs(cmath.exp(p.gamma) - 1.3) < 1e-15
    assert p.alpha == pytest.approx(np.pi / 2)
    p2 = DeformParams(q=1.3, kappa=3)
    assert p2.alpha == pytest.approx(6 * np.pi + np.pi / 2)


def test_params_hash_is_fieldwise_and_hits_one_cache_entry():
    # the dataclass's hash and equality are fieldwise; equal parameters hash equal
    a, b = DeformParams(q=1.3), DeformParams(q=1.3 + 0j, kappa=0)
    assert a == b and hash(a) == hash(b)
    assert a != DeformParams(q=1.3, kappa=1)
    cached = functools.lru_cache(maxsize=None)(lambda p: object())
    assert cached(a) is cached(b)
    assert cached.cache_info().hits == 1 and cached.cache_info().currsize == 1


@pytest.mark.parametrize("bad", [0, 1, -1, -2.5, 1j, cmath.exp(2j * cmath.pi / 7)])
def test_params_rejects_degenerate_q(bad):
    # zero, roots of unity up to order 64, and the negative real axis
    with pytest.raises(ParameterError):
        DeformParams(q=bad)


def test_params_accepts_unit_modulus_non_root():
    p = DeformParams(q=cmath.exp(0.7j))
    assert p.on_unit_circle
    assert not DeformParams(q=1.3).on_unit_circle


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), complex(1.3, float("nan")),
                                 complex(float("-inf"), 1.0)])
def test_params_rejects_non_finite_q(bad):
    with pytest.raises(ParameterError):
        DeformParams(q=bad)


def test_q_number_values():
    p = DeformParams(q=2.0)
    assert q_number(0, p) == 0
    assert q_number(1, p) == pytest.approx(1.0)
    assert q_number(2, p) == pytest.approx(2.5)  # (4 - 1/4) / (2 - 1/2)


def test_q_number_half_simplification(params):
    # [1/2] = 1/(q^(1/2) + q^(-1/2))
    want = 1.0 / (q_power(0.5, params) + q_power(-0.5, params))
    assert q_number(0.5, params) == pytest.approx(want)


def test_half_index_product():
    p = DeformParams(q=2.0)
    assert half_index_product(0, p) == 1
    assert half_index_product(1, p) == pytest.approx(q_number(0.5, p))
    assert half_index_product(2, p) == pytest.approx(0.4714045, abs=1e-6)


def test_half_index_recursion(params):
    for k in range(1, 13):
        lhs = half_index_product(k, params)
        rhs = half_index_product(k - 1, params) * q_number(k / 2.0, params)
        assert lhs == pytest.approx(rhs, abs=1e-15, rel=1e-14)


@pytest.mark.parametrize("q", [1.3, 0.7 + 0.2j, 2.1, 0.9 - 0.3j, 1.05, 0.6 + 0.6j, 1.01, 1.001,
                               0.6 + 0.8j])
def test_half_index_recursion_check_passes(q):
    rpt = check_half_index_recursion(DeformParams(q=q))
    assert rpt.verdict == "pass" and rpt.normalized_residual <= 1e-12
    assert (rpt.dims, rpt.window) == ([12], 0)


def test_half_index_recursion_check_fails_on_a_wrong_q_number(params, monkeypatch):
    # the recursion's factor is written from q_power, so a q_number off by
    # 1e-6 relative shows at that size in every k
    q_number_right = qscalars.q_number
    monkeypatch.setattr(qscalars, "q_number", lambda x, p: q_number_right(x, p) * (1 + 1e-6))
    rpt = check_half_index_recursion(params)
    assert rpt.verdict == "fail"
    assert rpt.normalized_residual == pytest.approx(1e-6, rel=1e-3)


def test_q_power_basics(params):
    assert q_power(0, params) == 1
    assert q_power(1, params) == pytest.approx(params.q)


def test_q_power_branch_constant():
    # q**(-i*alpha/gamma) = exp(-i*alpha) = -i for every branch integer
    for kappa in (0, 1, -2):
        p = DeformParams(q=1.7, kappa=kappa)
        assert q_power(-p.ialpha_over_gamma, p) == pytest.approx(-1j, abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(st.complex_numbers(max_magnitude=3, allow_nan=False, allow_infinity=False),
       st.complex_numbers(max_magnitude=3, allow_nan=False, allow_infinity=False))
def test_q_power_additivity(z1, z2):
    p = DeformParams(q=1.3)
    assert abs(q_power(z1 + z2, p) - q_power(z1, p) * q_power(z2, p)) < 1e-12


@settings(max_examples=40, deadline=None)
@given(st.complex_numbers(max_magnitude=3, allow_nan=False, allow_infinity=False))
def test_q_number_invariant_under_inversion(x):
    # numerator and denominator both flip sign under q -> 1/q
    for q in (1.3, 0.7 + 0.2j):
        p = DeformParams(q=q)
        assert abs(q_number(x, p) - q_number(x, p.inverted())) < 1e-12


def test_q_number_shift_composition(params):
    # [x+1/2] - [x-1/2] evaluated through q_power matches direct evaluation
    rng = np.random.default_rng(7)
    for _ in range(20):
        x = complex(*rng.uniform(-2, 2, 2))
        direct = ((q_power(x + 0.5, params) - q_power(-x - 0.5, params))
                  - (q_power(x - 0.5, params) - q_power(-x + 0.5, params))) \
            / (params.q - 1 / params.q)
        assert abs(q_number(x + 0.5, params) - q_number(x - 0.5, params) - direct) < 1e-12


def test_q_number_array_input(params):
    xs = np.array([0.0, 1.0, 2.5])
    got = q_number(xs, params)
    assert np.allclose(got, [q_number(x, params) for x in xs])
