import cmath
import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qboson import DeformParams, ParameterError, Window, build_rep, q_power
from qboson import symalg
from qboson.fockrep import residual
from qboson.symalg import (BETA, EPS, NU, NU_PRIME, DegreeOverflowError,
                           DualElement, PlusElement, TensorPlusElement,
                           _coproduct_key, _mul_keys,
                           antipode_sym_inv, coproduct_sym, cross_terms_difference,
                           dual_basis_factors,
                           dual_bracket_check, dual_hopf_check, eval_atomic,
                           eval_functional, eval_word, multiply, pairing_check,
                           pairing_closed_form,
                           pairing_gram, qnu, quotient_cross_check,
                           straighten_cross)


def to_matrix(x: PlusElement, rep) -> np.ndarray:
    """Represent a symbolic element on a truncated Fock space."""
    p = rep.params
    nd = rep.n_diag()
    npr = np.diag(rep.nprime_diag())
    out = np.zeros((rep.dim, rep.dim), dtype=complex)
    for (k, m, t), c in x.terms.items():
        term = np.diag(q_power((t / 4.0) * nd, p))
        term = term @ np.linalg.matrix_power(npr, m)
        term = term @ np.linalg.matrix_power(rep.matAdag, k)
        out += c * term
    return out


NP = PlusElement.n_prime
A = PlusElement.a_dressed
E = PlusElement.basis


def assert_elements_close(x: PlusElement, y: PlusElement, tol=1e-12):
    assert (x - y).max_abs() <= tol, f"{x} != {y}"


# ---------------------------------------------------------------------------
# reference implementations: the coproduct as a chain of tensor products and
# the dual word evaluated on it leg by leg


def _tensor_multiply(xt: TensorPlusElement, yt: TensorPlusElement,
                     p: DeformParams, cap: int) -> TensorPlusElement:
    out: dict = {}
    for (a1, a2), ca in xt.terms.items():
        for (b1, b2), cb in yt.terms.items():
            left = _mul_keys(a1, b1, p, cap)
            right = _mul_keys(a2, b2, p, cap)
            for kl, cl in left.items():
                for kr, cr in right.items():
                    key = (kl, kr)
                    out[key] = out.get(key, 0.0) + ca * cb * cl * cr
    return TensorPlusElement(out)


def chain_coproduct_key(key, p: DeformParams, cap: int) -> TensorPlusElement:
    """Delta(E[k, m, s]) = Delta(q**(sN/2)) Delta(Np)**m Delta(adag)**k, one
    factor at a time."""
    k, m, t = key
    unit_key = (0, 0, 0)
    phase = complex(np.exp(-1j * (t / 4.0) * p.alpha))
    out = TensorPlusElement({((0, 0, t), (0, 0, t)): phase})
    dn = TensorPlusElement({((0, 1, 0), unit_key): 1.0, (unit_key, (0, 1, 0)): 1.0})
    for _ in range(m):
        out = _tensor_multiply(out, dn, p, cap)
    ph = complex(np.exp(-1j * p.alpha / 2.0))
    da = TensorPlusElement({((1, 0, 0), (0, 0, 2)): ph,
                            ((0, 0, -2), (1, 0, 0)): 1j * ph})
    for _ in range(k):
        out = _tensor_multiply(out, da, p, cap)
    return out


def word_oracle(p: DeformParams, cap: int):
    """The dual-word recursion that the key-grid engine replaced, kept as its
    oracle, on the product-chain coproduct instead of the closed form.

    A word splits off one functional at a time (the first for a left split,
    the last for a right one) and reads that functional's transfer row: the
    nonzero pairs (other-leg key, c * f(leg)) of the coproduct.  Returns
    word_value(factors, key, split) -> (value, term scale), the scale being
    the same recursion over the absolute values of the terms.
    """
    coproduct = functools.cache(lambda key: chain_coproduct_key(key, p, cap))

    @functools.cache
    def _transfer_row(f, key, side):
        degree = 1 if f == BETA else 0
        row = []
        for (k1, k2), c in coproduct(key).terms.items():
            leg, other = (k1, k2) if side == "left" else (k2, k1)
            if leg[0] == degree:
                v = eval_atomic(f, leg, p)
                if v != 0:
                    row.append((other, c * v))
        return tuple(row)

    @functools.cache
    def _eval_word_key(factors, key, split):
        if len(factors) <= 1:
            v = eval_atomic(factors[0] if factors else EPS, key, p)
            return v, abs(v)
        if split == "left":
            f, rest = factors[0], factors[1:]
        else:
            rest, f = factors[:-1], factors[-1]
        value, scale = 0.0 + 0.0j, 0.0
        for other, cv in _transfer_row(f, key, split):
            v, s = _eval_word_key(rest, other, split)
            value, scale = value + cv * v, scale + abs(cv) * s
        return value, scale

    return _eval_word_key


def recursive_gram(kmax: int, mmax: int, p: DeformParams, cap: int) -> np.ndarray:
    """The pairing table by left splitting over the chain coproduct, with
    every atomic value computed where it is used."""
    coproduct = functools.cache(lambda key: chain_coproduct_key(key, p, cap))

    @functools.cache
    def word_value(factors, key):
        if len(factors) == 1:
            return eval_atomic(factors[0], key, p)
        total = 0.0 + 0.0j
        for (k1, k2), c in coproduct(key).terms.items():
            v = eval_atomic(factors[0], k1, p)
            if v != 0:
                total += c * v * word_value(factors[1:], k2)
        return total

    pairs = [(k, m) for k in range(kmax + 1) for m in range(mmax + 1)]
    return np.array([[word_value(dual_basis_factors(k, m), (l, n, 2 * l)) for l, n in pairs]
                     for k, m in pairs])


# ---------------------------------------------------------------------------
# product


def test_basis_validation():
    E(2, 1, 0.5)
    with pytest.raises(ParameterError):
        E(-1, 0, 0)
    with pytest.raises(ParameterError):
        E(0, 0, 0.3)


def test_multiply_unit(params):
    x = E(2, 1, 1.5)
    assert_elements_close(multiply(PlusElement.unit(), x, params), x)
    assert_elements_close(multiply(x, PlusElement.unit(), params), x)


def test_multiply_nprime_with_raising(params):
    # Np * A is already normal-ordered: the commutator sits in A * Np
    assert_elements_close(multiply(NP(), A(), params), E(1, 1, 1))
    got = multiply(A(), NP(), params)
    assert_elements_close(got, E(1, 1, 1) - E(1, 0, 1))
    # hence [Np, A] = A
    bracket = multiply(NP(), A(), params) - multiply(A(), NP(), params)
    assert_elements_close(bracket, A())


def test_multiply_dressed_raising_square(params):
    got = multiply(A(), A(), params)
    assert_elements_close(got, E(2, 0, 2).scaled(q_power(-0.5, params)))


def test_multiply_qpower_passthrough(params):
    # q**(sN/2) adag = q**(s/2) adag q**(sN/2)
    lhs = multiply(E(0, 0, 2), E(1, 0, 0), params)
    assert_elements_close(lhs, E(1, 0, 2))
    rhs = multiply(E(1, 0, 0), E(0, 0, 2), params)
    assert_elements_close(rhs, E(1, 0, 2).scaled(q_power(-1.0, params)))


def test_qpower_commutes_with_number_shift(params):
    # q**(sN/2) and Np commute, so both orderings of the tie basis agree
    lhs = multiply(E(0, 0, 3), E(0, 2, 0), params)
    rhs = multiply(E(0, 2, 0), E(0, 0, 3), params)
    assert_elements_close(lhs, rhs)
    assert_elements_close(lhs, E(0, 2, 3))


def test_multiply_matches_representation(params):
    # faithfulness: symbolic products agree with matrix products on a window
    rep = build_rep(12, 0.5, params)
    rng = np.random.default_rng(11)
    win = Window(5, guard=6)
    keys = [(k, m, t) for k in range(3) for m in range(3) for t in (-1, 0, 1, 2 * k)]
    for _ in range(30):
        xk = keys[rng.integers(len(keys))]
        yk = keys[rng.integers(len(keys))]
        x, y = PlusElement({xk: 1.0}), PlusElement({yk: 1.0})
        sym = to_matrix(multiply(x, y, params), rep)
        mat = to_matrix(x, rep) @ to_matrix(y, rep)
        _, nrm = residual(sym, mat, (12,), win)
        assert nrm <= 1e-12, (xk, yk)


def test_multiply_associativity(params):
    rng = np.random.default_rng(23)
    keys = [(k, m, t) for k in range(3) for m in range(3) for t in (-2, 0, 1, 3)]

    def rand_elem():
        n = rng.integers(1, 3)
        return PlusElement({keys[rng.integers(len(keys))]:
                            complex(*rng.uniform(-1, 1, 2)) for _ in range(n)})

    for _ in range(30):
        x, y, z = rand_elem(), rand_elem(), rand_elem()
        lhs = multiply(multiply(x, y, params), z, params)
        rhs = multiply(x, multiply(y, z, params), params)
        assert (lhs - rhs).max_abs() <= 1e-12


def test_multiply_overflow():
    p = DeformParams(q=1.3)
    with pytest.raises(DegreeOverflowError):
        multiply(E(5, 0, 5), E(4, 0, 4), p)
    # the cap can be raised explicitly
    multiply(E(5, 0, 5), E(4, 0, 4), p, cap=16)


# ---------------------------------------------------------------------------
# coproduct


def test_coproduct_nprime(params):
    got = coproduct_sym(NP(), params)
    want = TensorPlusElement({((0, 1, 0), (0, 0, 0)): 1.0,
                              ((0, 0, 0), (0, 1, 0)): 1.0})
    assert (got - want).max_abs() <= 1e-14


def tensor_of(xe: PlusElement, ye: PlusElement, coeff=1.0) -> TensorPlusElement:
    out = {}
    for kx, cx in xe.terms.items():
        for ky, cy in ye.terms.items():
            out[(kx, ky)] = out.get((kx, ky), 0) + coeff * cx * cy
    return TensorPlusElement(out)


def test_coproduct_dressed_raising(params):
    # Delta(A) = 1 (x) A - i A (x) q**N for every branch integer
    got = coproduct_sym(A(), params)
    want = tensor_of(PlusElement.unit(), A()) + tensor_of(A(), E(0, 0, 2), -1j)
    assert (got - want).max_abs() <= 1e-13


def test_coproduct_dressed_raising_squared(params):
    # Delta(A**2) = 1 (x) A**2 - i(1+q) A (x) A q**N - A**2 (x) q**(2N)
    q = params.q
    a2 = multiply(A(), A(), params)
    got = coproduct_sym(a2, params)
    aqn = multiply(A(), E(0, 0, 2), params)  # A q^N, normal-ordered
    want = (tensor_of(PlusElement.unit(), a2)
            + tensor_of(A(), aqn, -1j * (1 + q))
            + tensor_of(a2, E(0, 0, 4), -1.0))
    assert (got - want).max_abs() <= 1e-12


def test_coproduct_powers_gaussian_binomial(params):
    # (X + Y)^k with YX = qXY expands with Gaussian binomial coefficients
    q = params.q

    def gauss(n, j):
        num = den = 1.0 + 0.0j
        for i in range(1, j + 1):
            num *= 1 - q ** (n - j + i)
            den *= 1 - q ** i
        return num / den

    def tensor_power(base, k):
        out = TensorPlusElement({((0, 0, 0), (0, 0, 0)): 1.0})
        for _ in range(k):
            out = _tensor_multiply(out, base, params, 8)
        return out

    X = tensor_of(PlusElement.unit(), A())
    Y = tensor_of(A(), E(0, 0, 2), -1j)
    for k in (2, 3):
        ak = PlusElement.unit()
        for _ in range(k):
            ak = multiply(ak, A(), params)
        got = coproduct_sym(ak, params)
        acc = TensorPlusElement()
        for j in range(k + 1):
            term = _tensor_multiply(tensor_power(X, j), tensor_power(Y, k - j),
                                    params, 8)
            acc = acc + term.scaled(gauss(k, j))
        assert (got - acc).max_abs() <= 1e-11


def test_coproduct_coassociativity(params):
    from qboson.symalg import _coproduct_key
    samples = [NP(), A(), multiply(A(), A(), params), multiply(NP(), A(), params)]
    for x in samples:
        left: dict = {}
        right: dict = {}
        for (k1, k2), c in coproduct_sym(x, params).terms.items():
            for (k1a, k1b), c1 in _coproduct_key(k1, params, 8).terms.items():
                key = (k1a, k1b, k2)
                left[key] = left.get(key, 0) + c * c1
            for (k2a, k2b), c2 in _coproduct_key(k2, params, 8).terms.items():
                key = (k1, k2a, k2b)
                right[key] = right.get(key, 0) + c * c2
        keys = set(left) | set(right)
        dev = max(abs(left.get(k, 0) - right.get(k, 0)) for k in keys)
        assert dev <= 1e-12


_moduli = st.floats(0.5, 0.9) | st.floats(1.1, 2.2)
_q_values = (st.sampled_from([1.05, 0.95]) | _moduli
             | st.builds(lambda r, t: r * cmath.exp(1j * t), _moduli, st.floats(0.05, 1.2)))


@settings(max_examples=60, deadline=None)
@given(q=_q_values, k=st.integers(0, 8), m=st.integers(0, 8), two_s=st.integers(-12, 20))
def test_closed_form_coproduct_matches_product_chain(q, k, m, two_s):
    # odd two_s is a half-integer s
    p = DeformParams(q=q)
    key = (k, m, two_s)
    got = _coproduct_key(key, p, 8).terms
    want = chain_coproduct_key(key, p, 8).terms
    assert set(got) == set(want)
    scale = max(abs(c) for c in want.values())
    assert max(abs(got[x] - want[x]) for x in want) <= 1e-13 * scale


def test_coproduct_matches_representation(params):
    # (pi (x) pi) Delta_sym(x) = Delta_op(x) for x in the tie family
    from qboson.hopfops import HopfFamily, coproduct_op, qpow, word
    rep = build_rep(10, 0.5, params)
    fam = HopfFamily.canonical(params)
    win = Window(4, guard=4)
    for k, m in ((1, 0), (0, 1), (1, 1), (2, 1)):
        x = PlusElement.tie_basis(k, m)
        sym = coproduct_sym(x, params)
        got = np.zeros((100, 100), dtype=complex)
        for (key1, key2), c in sym.terms.items():
            got += c * np.kron(to_matrix(PlusElement({key1: 1.0}), rep),
                               to_matrix(PlusElement({key2: 1.0}), rep))
        # independent route: Delta of the word q^{kN/2} Np^m adag^k via hopfops
        want = coproduct_op(word(qpow(k / 2.0)), rep, rep, fam)
        dnp = coproduct_op(word("N"), rep, rep, fam) \
            - params.ialpha_over_gamma * np.eye(100)
        want = want @ np.linalg.matrix_power(dnp, m)
        want = want @ np.linalg.matrix_power(coproduct_op(word("adag"), rep, rep, fam), k)
        _, nrm = residual(got, want, (10, 10), win)
        assert nrm <= 1e-12, (k, m)


# ---------------------------------------------------------------------------
# functionals: base values and the analytic extension


def test_atomic_values_on_generators(params):
    iag = params.ialpha_over_gamma
    assert eval_atomic(NU, (0, 1, 0), params) == pytest.approx(1 / params.gamma)
    assert eval_atomic(NU, (0, 0, 0), params) == pytest.approx(iag)
    e10 = (1, 0, 2)
    want = np.exp(-1j * params.alpha / 2) / (1 + 1 / params.q)
    assert eval_atomic(BETA, e10, params) == pytest.approx(want)
    assert eval_atomic(BETA, (0, 1, 0), params) == 0
    assert eval_atomic(NU, (1, 0, 2), params) == 0


def test_analytic_extension_matches_series(params):
    # truncated-series oracle (j <= 40) built from the raw tie values
    gamma, alpha, q = params.gamma, params.alpha, params.q

    def nu_tie(l, n):
        if l != 0:
            return 0.0
        return ((1.0 if n == 1 else 0.0) + 1j * alpha * (1.0 if n == 0 else 0.0)) / gamma

    def beta_tie(l, n):
        if l != 1:
            return 0.0
        return np.exp(-1j * alpha / 2) / (2 ** n * (1 + 1 / q))

    for k, tie in ((0, nu_tie), (1, beta_tie)):
        f = NU if k == 0 else BETA
        for m in (0, 1, 2):
            for two_s in (-2, -1, 0, 1, 3, 4):
                sigma = two_s / 2.0 - k
                series = sum((sigma * gamma / 2) ** j / math.factorial(j)
                             * tie(k, m + j) for j in range(41))
                want = np.exp(1j * sigma * alpha / 2) * series
                got = eval_atomic(f, (k, m, two_s), params)
                assert abs(got - want) <= 1e-12, (f, k, m, two_s)


def test_qnu_closed_form_matches_series(params):
    # q**(c nu) = e^{ic alpha} sum_j (c gamma)^j nu_prime^j / j!, evaluated
    # through dual words as the independent oracle
    for c in (0.5, -0.5, 1.0):
        for key in ((0, 0, 0), (0, 1, 0), (0, 2, 2), (0, 0, 3)):
            series = sum((c * params.gamma) ** j / math.factorial(j)
                         * eval_word((NU_PRIME,) * j, PlusElement({key: 1.0}), params)
                         for j in range(25))
            want = np.exp(1j * c * params.alpha) * series
            got = eval_atomic(qnu(c), key, params)
            assert abs(got - want) <= 1e-10, (c, key)


# beta drawn half the time: a word is nonzero only on raising degree k = its
# number of betas, and the Gaussian binomials show only from two betas on
_atomics = st.just(BETA) | st.sampled_from([EPS, NU, NU_PRIME] + [qnu(c) for c in
                                                                 (0.5, -0.5, 1.0, -1.0)])


@st.composite
def _word_and_element(draw):
    factors = draw(st.lists(_atomics, max_size=4).map(tuple))
    degree = st.just(sum(f == BETA for f in factors))
    # odd t is a half-integer s
    keys = st.tuples(degree | st.integers(0, 6), st.integers(0, 6), st.integers(-9, 15))
    coefficients = st.builds(complex, st.floats(-2, 2), st.floats(-2, 2))
    return factors, PlusElement(draw(st.dictionaries(keys, coefficients, min_size=1,
                                                     max_size=3)))


@settings(max_examples=60, deadline=None)
@given(q=_q_values, word_and_element=_word_and_element())
def test_eval_word_matches_recursion_oracle(q, word_and_element):
    factors, x = word_and_element
    p = DeformParams(q=q)
    word_value = word_oracle(p, 8)
    for split in ("left", "right"):
        terms = [(c, word_value(factors, key, split)) for key, c in x.terms.items()]
        want = sum(c * v for c, (v, _) in terms)
        scale = sum(abs(c) * s for c, (_, s) in terms)
        got = eval_word(factors, x, p, split=split)
        assert abs(got - want) <= 1e-13 * scale, (split, got, want, scale)


def test_eval_word_split_independence(params):
    # dual multiplication is associative: left and right splits agree
    for factors in ((NU, BETA, NU), (BETA, NU_PRIME, BETA), (qnu(0.5), BETA, NU)):
        for l in range(3):
            for n in range(3):
                x = PlusElement.tie_basis(l, n)
                left = eval_word(factors, x, params, split="left")
                right = eval_word(factors, x, params, split="right")
                assert abs(left - right) <= 1e-12


# ---------------------------------------------------------------------------
# pairing


def test_pairing_spot_values(params):
    gamma = params.gamma
    f10, e10 = DualElement.basis(1, 0), PlusElement.tie_basis(1, 0)
    got = eval_functional(f10, e10, params)
    want = -1j * q_power(0.5, params) * (1 / (q_power(0.5, params) + q_power(-0.5, params)))
    assert got == pytest.approx(want)
    assert eval_functional(DualElement.basis(0, 1),
                           PlusElement.tie_basis(0, 1), params) == pytest.approx(1 / gamma)
    assert eval_functional(DualElement.basis(0, 0),
                           PlusElement.tie_basis(0, 0), params) == pytest.approx(1.0)
    assert eval_functional(f10, PlusElement.tie_basis(0, 1), params) == pytest.approx(0.0)


def test_pairing_full_grid(params):
    report = pairing_check(3, 3, params)
    assert report.raw_residual <= 1e-9
    assert report.verdict == "pass"


@pytest.mark.parametrize("q", [1.05, 1.3, 2.1])
def test_pairing_normalized_by_table_scale(q):
    # entries grow like n!/gamma^n: at q = 1.05 the absolute deviation is
    # about 1e-5 while the relative one is at rounding level
    p = DeformParams(q=q)
    report = pairing_check(5, 5, p)
    scale = max(abs(pairing_closed_form(k, m, k, m, p)) for k in range(6) for m in range(6))
    assert report.normalized_residual == pytest.approx(report.raw_residual / max(1.0, scale))
    assert report.normalized_residual <= 1e-13
    assert report.verdict == "pass"


def test_pairing_gram_diagonal(params):
    G = pairing_gram(3, 3, params)
    diag = np.diag(G)
    assert np.all(np.abs(diag) > 1e-6)
    off = G - np.diag(diag)
    assert np.abs(off).max() <= 1e-10


@pytest.mark.parametrize("q", [1.3, 0.7 + 0.2j, 1.05, 0.6 + 0.6j])
def test_pairing_gram_matches_recursive_evaluator(q):
    p = DeformParams(q=q)
    want = recursive_gram(5, 5, p, 12)
    got = pairing_gram(5, 5, p, 12)
    assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


def test_dual_bracket(params):
    report = dual_bracket_check(params, lmax=4, nmax=4)
    assert report.raw_residual <= 1e-12


def test_dual_hopf(params):
    report = dual_hopf_check(params, deg=3)
    assert report.raw_residual <= 1e-12


def test_antipode_sym_inv_on_raising(params):
    # S^{-1}(adag) = -q**(-1/2) adag
    got = antipode_sym_inv(E(1, 0, 0), params)
    assert_elements_close(got, E(1, 0, 0).scaled(-q_power(-0.5, params)))
    # antihomomorphism spot check: S^{-1}(Np A) = S^{-1}(A) S^{-1}(Np)
    lhs = antipode_sym_inv(multiply(NP(), A(), params), params)
    rhs = multiply(antipode_sym_inv(A(), params), antipode_sym_inv(NP(), params), params)
    assert (lhs - rhs).max_abs() <= 1e-12


# ---------------------------------------------------------------------------
# straightening and the quotient


def test_straighten_cross_generators(params):
    akey, nkey, unit = (1, 0, 2), (0, 1, 0), (0, 0, 0)
    dw_nu, dw_eps, dw_beta = (0, 1, 0), (0, 0, 0), (0, 0, 1)
    cases = (
        ("nu", "araise", {(akey, dw_nu): 1.0, (akey, dw_eps): 1.0}),   # [nu, A] = A
        ("nu", "nprime", {(nkey, dw_nu): 1.0}),                        # [nu, Np] = 0
        ("beta", "nprime", {(nkey, dw_beta): 1.0, (unit, dw_beta): 1.0}),  # [beta,Np]=beta
    )
    for fname, xname, expected in cases:
        got = straighten_cross(fname, xname, params)
        assert cross_terms_difference(got, expected, params) <= 1e-12, (fname, xname)


def test_straighten_beta_raising_is_dressed(params):
    # (beta, A) leaves the polynomial dual basis: q**(+-nu/2) factors appear
    got = straighten_cross("beta", "araise", params)
    assert any(dw[0] != 0 for (_, dw) in got)
    # its content is verified in representations via the quotient check


def test_quotient_cross_check(params):
    rep = build_rep(12, 0.5, params)
    report = quotient_cross_check(rep)
    assert report.normalized_residual <= 1e-12
    with pytest.raises(ParameterError):
        quotient_cross_check(build_rep(6, 1.0, params))


@pytest.mark.parametrize("position", [0, 1, 2])
def test_quotient_cross_check_fails_on_nan(params, monkeypatch, position):
    # a NaN residual of any one check is the report's residual, and fails it
    calls = []

    def nan_at_position(*args):
        calls.append(args)
        return (math.nan, math.nan) if len(calls) - 1 == position else residual(*args)

    monkeypatch.setattr(symalg, "residual", nan_at_position)
    report = quotient_cross_check(build_rep(12, 0.5, params))
    assert len(calls) == 3
    assert report.verdict == "fail"
    assert math.isnan(report.raw_residual) and math.isnan(report.normalized_residual)


def test_dual_to_lowering_isomorphism(params):
    # nu -> N, beta -> a sends [nu, beta] = -beta to [N, a] = -a
    rep = build_rep(10, 0.5, params)
    lhs = rep.matN @ rep.matA - rep.matA @ rep.matN
    _, nrm = residual(lhs, -rep.matA, (10,), Window(8, guard=1))
    assert nrm <= 1e-12


def test_to_matrix_basis_element(params):
    # E[k, m, s] = q**(sN/2) Np^m adag^k with s = 3 here
    rep = build_rep(8, 0.5, params)
    got = to_matrix(E(1, 1, 3), rep)
    nd = rep.n_diag()
    want = (np.diag(q_power(1.5 * nd, params))
            @ np.diag(rep.nprime_diag()) @ rep.matAdag)
    assert np.abs(got - want).max() <= 1e-12
