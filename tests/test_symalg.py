import cmath
import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qboson import DeformParams, ParameterError, Window, build_rep, q_power
from qboson import symalg
from qboson.fockrep import check_relation
from qboson.report import residual
from qboson.symalg import (BETA, EPS, NU, NU_PRIME,
                           _coproduct_key, _mul_keys, _word_table,
                           antipode_sym_inv, coproduct_sym, cross_straighten_check,
                           cross_terms_difference,
                           dual_basis_factors,
                           dual_bracket_check, dual_hopf_check, eval_atomic,
                           multiply, pairing_check,
                           pairing_closed_form,
                           pairing_gram, qnu, quotient_cross_check,
                           straighten_cross)
from test_fockrep import windowed_residual


def to_matrix(x: dict, rep) -> np.ndarray:
    """Represent a symbolic element on a truncated Fock space."""
    p = rep.params
    nd = rep.n_diag()
    npr = np.diag(nd - p.ialpha_over_gamma)
    out = np.zeros((rep.dim, rep.dim), dtype=complex)
    for (k, m, t), c in x.items():
        term = np.diag(q_power((t / 4.0) * nd, p))
        term = term @ np.linalg.matrix_power(npr, m)
        term = term @ np.linalg.matrix_power(rep.matAdag, k)
        out += c * term
    return out


def E(k: int, m: int, s: float) -> dict:
    """E[k, m, s] = q**(sN/2) Np**m adag**k; s may be any half-integer."""
    return {(k, m, round(2 * s)): 1.0}


NP, A, UNIT = E(0, 1, 0), E(1, 0, 1), E(0, 0, 0)  # A = q**(N/2) adag


def combine(*terms) -> dict:
    """sum c x over the (c, x) pairs, of elements or of tensor elements."""
    out: dict = {}
    for c, x in terms:
        for key, cx in x.items():
            out[key] = out.get(key, 0.0) + c * cx
    return out


def max_abs_diff(x: dict, y: dict) -> float:
    return max((abs(x.get(key, 0.0) - y.get(key, 0.0)) for key in {*x, *y}), default=0.0)


def assert_elements_close(x: dict, y: dict, tol=1e-12):
    assert max_abs_diff(x, y) <= tol, f"{x} != {y}"


def eval_word(factors, x: dict, p: DeformParams) -> complex:
    """The dual word f1 ... fr on the combination x, through the one word
    evaluator; the empty combination has no keys to read and gives zero."""
    if not x:
        return 0.0 + 0.0j
    row = _word_table([factors], list(x), p)[0]
    return sum((c * v for c, v in zip(x.values(), row)), start=0.0 + 0.0j)


# ---------------------------------------------------------------------------
# reference implementations: the coproduct as a chain of tensor products and
# the dual word evaluated on it leg by leg


def _tensor_multiply(xt: dict, yt: dict, p: DeformParams) -> dict:
    out: dict = {}
    for (a1, a2), ca in xt.items():
        for (b1, b2), cb in yt.items():
            left = _mul_keys(a1, b1, p)
            right = _mul_keys(a2, b2, p)
            for kl, cl in left.items():
                for kr, cr in right.items():
                    key = (kl, kr)
                    out[key] = out.get(key, 0.0) + ca * cb * cl * cr
    return {key: c for key, c in out.items() if c != 0}


def chain_coproduct_key(key, p: DeformParams) -> dict:
    """Delta(E[k, m, s]) = Delta(q**(sN/2)) Delta(Np)**m Delta(adag)**k, one
    factor at a time."""
    k, m, t = key
    unit_key = (0, 0, 0)
    phase = complex(np.exp(-1j * (t / 4.0) * p.alpha))
    out = {((0, 0, t), (0, 0, t)): phase}
    dn = {((0, 1, 0), unit_key): 1.0, (unit_key, (0, 1, 0)): 1.0}
    for _ in range(m):
        out = _tensor_multiply(out, dn, p)
    ph = complex(np.exp(-1j * p.alpha / 2.0))
    da = {((1, 0, 0), (0, 0, 2)): ph, ((0, 0, -2), (1, 0, 0)): 1j * ph}
    for _ in range(k):
        out = _tensor_multiply(out, da, p)
    return out


def word_oracle(p: DeformParams):
    """The dual-word recursion that the key-grid engine replaced, kept as its
    oracle, on the product-chain coproduct instead of the closed form.

    A word splits off one functional at a time (the first for a left split,
    the last for a right one) and reads that functional's transfer row: the
    nonzero pairs (other-leg key, c * f(leg)) of the coproduct.  Returns
    word_value(factors, key, split) -> (value, term scale), the scale being
    the same recursion over the absolute values of the terms.
    """
    coproduct = functools.cache(lambda key: chain_coproduct_key(key, p))

    @functools.cache
    def _transfer_row(f, key, side):
        degree = 1 if f == BETA else 0
        row = []
        for (k1, k2), c in coproduct(key).items():
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


def recursive_gram(kmax: int, mmax: int, p: DeformParams) -> np.ndarray:
    """The pairing table by left splitting over the chain coproduct, with
    every atomic value computed where it is used."""
    coproduct = functools.cache(lambda key: chain_coproduct_key(key, p))

    @functools.cache
    def word_value(factors, key):
        if len(factors) == 1:
            return eval_atomic(factors[0], key, p)
        total = 0.0 + 0.0j
        for (k1, k2), c in coproduct(key).items():
            v = eval_atomic(factors[0], k1, p)
            if v != 0:
                total += c * v * word_value(factors[1:], k2)
        return total

    pairs = [(k, m) for k in range(kmax + 1) for m in range(mmax + 1)]
    return np.array([[word_value(dual_basis_factors(k, m), (l, n, 2 * l)) for l, n in pairs]
                     for k, m in pairs])


# ---------------------------------------------------------------------------
# product


def test_multiply_unit(params):
    x = E(2, 1, 1.5)
    assert_elements_close(multiply(UNIT, x, params), x)
    assert_elements_close(multiply(x, UNIT, params), x)


def test_multiply_nprime_with_raising(params):
    # Np * A is already normal-ordered: the commutator sits in A * Np
    assert_elements_close(multiply(NP, A, params), E(1, 1, 1))
    got = multiply(A, NP, params)
    assert_elements_close(got, combine((1, E(1, 1, 1)), (-1, E(1, 0, 1))))
    # hence [Np, A] = A
    bracket = combine((1, multiply(NP, A, params)), (-1, multiply(A, NP, params)))
    assert_elements_close(bracket, A)


def test_multiply_dressed_raising_square(params):
    got = multiply(A, A, params)
    assert_elements_close(got, combine((q_power(-0.5, params), E(2, 0, 2))))


def test_multiply_qpower_passthrough(params):
    # q**(sN/2) adag = q**(s/2) adag q**(sN/2)
    lhs = multiply(E(0, 0, 2), E(1, 0, 0), params)
    assert_elements_close(lhs, E(1, 0, 2))
    rhs = multiply(E(1, 0, 0), E(0, 0, 2), params)
    assert_elements_close(rhs, combine((q_power(-1.0, params), E(1, 0, 2))))


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
        x, y = {xk: 1.0}, {yk: 1.0}
        sym = to_matrix(multiply(x, y, params), rep)
        mat = to_matrix(x, rep) @ to_matrix(y, rep)
        _, nrm = windowed_residual(sym, mat, (12,), win)
        assert nrm <= 1e-12, (xk, yk)


def test_multiply_associativity(params):
    rng = np.random.default_rng(23)
    keys = [(k, m, t) for k in range(3) for m in range(3) for t in (-2, 0, 1, 3)]

    def rand_elem():
        n = rng.integers(1, 3)
        return {keys[rng.integers(len(keys))]: complex(*rng.uniform(-1, 1, 2))
                for _ in range(n)}

    for _ in range(30):
        x, y, z = rand_elem(), rand_elem(), rand_elem()
        lhs = multiply(multiply(x, y, params), z, params)
        rhs = multiply(x, multiply(y, z, params), params)
        assert max_abs_diff(lhs, rhs) <= 1e-12


# ---------------------------------------------------------------------------
# coproduct


def test_coproduct_nprime(params):
    got = coproduct_sym(NP, params)
    want = {((0, 1, 0), (0, 0, 0)): 1.0, ((0, 0, 0), (0, 1, 0)): 1.0}
    assert max_abs_diff(got, want) <= 1e-14


def tensor_of(xe: dict, ye: dict) -> dict:
    return {(kx, ky): cx * cy for kx, cx in xe.items() for ky, cy in ye.items()}


def test_coproduct_dressed_raising(params):
    # Delta(A) = 1 (x) A - i A (x) q**N for every branch integer
    got = coproduct_sym(A, params)
    want = combine((1, tensor_of(UNIT, A)), (-1j, tensor_of(A, E(0, 0, 2))))
    assert max_abs_diff(got, want) <= 1e-13


def test_coproduct_dressed_raising_squared(params):
    # Delta(A**2) = 1 (x) A**2 - i(1+q) A (x) A q**N - A**2 (x) q**(2N)
    q = params.q
    a2 = multiply(A, A, params)
    got = coproduct_sym(a2, params)
    aqn = multiply(A, E(0, 0, 2), params)  # A q^N, normal-ordered
    want = combine((1, tensor_of(UNIT, a2)), (-1j * (1 + q), tensor_of(A, aqn)),
                   (-1, tensor_of(a2, E(0, 0, 4))))
    assert max_abs_diff(got, want) <= 1e-12


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
        out = tensor_of(UNIT, UNIT)
        for _ in range(k):
            out = _tensor_multiply(out, base, params)
        return out

    X = tensor_of(UNIT, A)
    Y = combine((-1j, tensor_of(A, E(0, 0, 2))))
    for k in (2, 3):
        ak = UNIT
        for _ in range(k):
            ak = multiply(ak, A, params)
        got = coproduct_sym(ak, params)
        acc = combine(*((gauss(k, j), _tensor_multiply(tensor_power(X, j),
                                                       tensor_power(Y, k - j), params))
                        for j in range(k + 1)))
        assert max_abs_diff(got, acc) <= 1e-11


def test_coproduct_coassociativity(params):
    samples = [NP, A, multiply(A, A, params), multiply(NP, A, params)]
    for x in samples:
        left: dict = {}
        right: dict = {}
        for (k1, k2), c in coproduct_sym(x, params).items():
            for (k1a, k1b), c1 in _coproduct_key(k1, params).items():
                key = (k1a, k1b, k2)
                left[key] = left.get(key, 0) + c * c1
            for (k2a, k2b), c2 in _coproduct_key(k2, params).items():
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
    got = _coproduct_key(key, p)
    want = chain_coproduct_key(key, p)
    assert set(got) == set(want)
    scale = max(abs(c) for c in want.values())
    assert max(abs(got[x] - want[x]) for x in want) <= 1e-13 * scale


def test_coproduct_matches_representation(params):
    # (pi (x) pi) Delta_sym(x) = Delta_op(x) for x in the tie family
    from qboson.hopfops import HopfFamily, qpow, word
    from test_hopfops import coproduct_op
    rep = build_rep(10, 0.5, params)
    fam = HopfFamily.canonical(params)
    win = Window(4, guard=4)
    for k, m in ((1, 0), (0, 1), (1, 1), (2, 1)):
        sym = coproduct_sym(E(k, m, k), params)
        got = np.zeros((100, 100), dtype=complex)
        for (key1, key2), c in sym.items():
            got += c * np.kron(to_matrix({key1: 1.0}, rep), to_matrix({key2: 1.0}, rep))
        # independent route: Delta of the word q^{kN/2} Np^m adag^k, dense
        want = coproduct_op(word(qpow(k / 2.0)), rep, rep, fam)
        dnp = coproduct_op(word("N"), rep, rep, fam) \
            - params.ialpha_over_gamma * np.eye(100)
        want = want @ np.linalg.matrix_power(dnp, m)
        want = want @ np.linalg.matrix_power(coproduct_op(word("adag"), rep, rep, fam), k)
        _, nrm = windowed_residual(got, want, (10, 10), win)
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
                         * eval_word((NU_PRIME,) * j, {key: 1.0}, params)
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
    return factors, draw(st.dictionaries(keys, coefficients, min_size=1, max_size=3))


@settings(max_examples=60, deadline=None)
@given(q=_q_values, word_and_element=_word_and_element())
def test_eval_word_matches_recursion_oracle(q, word_and_element):
    factors, x = word_and_element
    p = DeformParams(q=q)
    word_value, got = word_oracle(p), eval_word(factors, x, p)
    for split in ("left", "right"):
        terms = [(c, word_value(factors, key, split)) for key, c in x.items()]
        want = sum(c * v for c, (v, _) in terms)
        scale = sum(abs(c) * s for c, (_, s) in terms)
        assert abs(got - want) <= 1e-13 * scale, (split, got, want, scale)


def test_eval_word_split_independence(params):
    # dual multiplication is associative: the engine's left split agrees with
    # the oracle's right split
    word_value = word_oracle(params)
    for factors in ((NU, BETA, NU), (BETA, NU_PRIME, BETA), (qnu(0.5), BETA, NU)):
        for l in range(3):
            for n in range(3):
                key = (l, n, 2 * l)
                right, _ = word_value(factors, key, "right")
                assert abs(eval_word(factors, {key: 1.0}, params) - right) <= 1e-12


# ---------------------------------------------------------------------------
# pairing


def test_pairing_spot_values(params):
    gamma = params.gamma
    f10, e10 = dual_basis_factors(1, 0), E(1, 0, 1)
    got = eval_word(f10, e10, params)
    want = -1j * q_power(0.5, params) * (1 / (q_power(0.5, params) + q_power(-0.5, params)))
    assert got == pytest.approx(want)
    assert eval_word(dual_basis_factors(0, 1), NP, params) == pytest.approx(1 / gamma)
    assert eval_word(dual_basis_factors(0, 0), UNIT, params) == pytest.approx(1.0)
    assert eval_word(f10, NP, params) == pytest.approx(0.0)
    assert eval_word(f10, {}, params) == 0


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
    scale = max(abs(pairing_closed_form(k, m, p)) for k in range(6) for m in range(6))
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
    want = recursive_gram(5, 5, p)
    got = pairing_gram(5, 5, p)
    assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


def test_word_table_builds_its_tables_once_per_call(monkeypatch):
    # one call builds the split rows once and each functional it splits off
    # (every factor but a word's last) one transfer-weight table; nothing is
    # kept for the next call
    p, rows, weights = DeformParams(q=1.3), [], []
    split_rows, transfer_weights = symalg._split_rows, symalg._transfer_weights
    monkeypatch.setattr(symalg, "_split_rows",
                        lambda kmax, p: rows.append(kmax) or split_rows(kmax, p))
    monkeypatch.setattr(symalg, "_transfer_weights",
                        lambda f, *args: weights.append(f) or transfer_weights(f, *args))
    split_off = {f for k in range(6) for m in range(6) for f in dual_basis_factors(k, m)[:-1]}
    assert len(split_off) == 7  # nu', beta and q**(-k nu/2) for k = 1..5
    for calls in (1, 2):
        pairing_gram(5, 5, p)
        assert rows == [5] * calls
        assert sorted(weights) == sorted(list(split_off) * calls)


def test_dual_bracket(params):
    report = dual_bracket_check(params)
    assert report.raw_residual <= 1e-12


def test_dual_hopf(params):
    report = dual_hopf_check(params, deg=3)
    assert report.raw_residual <= 1e-12


def test_dual_coproduct_table_is_coassociative(params):
    # the straightening iterates the table on the first leg; iterating on the
    # second gives the same three-leg terms
    def iterate(f, first):
        out: dict = {}
        for c, g1, g2 in symalg._dual_coproduct(f, params):
            for c1, h1, h2 in symalg._dual_coproduct(g1 if first else g2, params):
                legs = (h1, h2, g2) if first else (g1, h1, h2)
                out[legs] = out.get(legs, 0.0) + c * c1
        return out

    for f in (EPS, NU, BETA, qnu(0.5), qnu(-0.5)):
        left, right = iterate(f, True), iterate(f, False)
        assert max(abs(left.get(k, 0) - right.get(k, 0)) for k in {*left, *right}) <= 1e-15, f


# (table, functional, term index) of a planted 1.1x defect, and whether the
# straightening check must see it too: the three relations it compares never
# read the q**(c nu) coproduct row or the beta inverse-antipode row, so
# dual_hopf_check is their only certificate
@pytest.mark.parametrize("table, f, term, cross_sees_it", [
    ("_dual_coproduct", NU, 2, True),         # the constant term -i alpha/gamma
    ("_dual_coproduct", BETA, 0, True),       # the leading term beta (x) q**(nu/2)
    ("_dual_coproduct", qnu(-0.5), 0, False),
    ("_dual_coproduct", qnu(0.5), 0, False),
    ("_dual_coproduct", EPS, 0, True),
    ("_s0_inv_atomic", NU, 1, True),
    ("_s0_inv_atomic", BETA, 0, False),
])
def test_planted_dual_table_defect_fails(params, monkeypatch, table, f, term, cross_sees_it):
    rows = getattr(symalg, table)

    def planted(g, p):
        terms = rows(g, p)
        if g == f:
            terms[term] = (1.1 * terms[term][0], *terms[term][1:])
        return terms

    monkeypatch.setattr(symalg, table, planted)
    assert dual_hopf_check(params, deg=2).verdict == "fail"
    if cross_sees_it:
        assert cross_straighten_check(params).verdict == "fail"


def test_antipode_sym_inv_on_raising(params):
    # S^{-1}(adag) = -q**(-1/2) adag
    got = antipode_sym_inv(E(1, 0, 0), params)
    assert_elements_close(got, combine((-q_power(-0.5, params), E(1, 0, 0))))
    # antihomomorphism spot check: S^{-1}(Np A) = S^{-1}(A) S^{-1}(Np)
    lhs = antipode_sym_inv(multiply(NP, A, params), params)
    rhs = multiply(antipode_sym_inv(A, params), antipode_sym_inv(NP, params), params)
    assert max_abs_diff(lhs, rhs) <= 1e-12


# ---------------------------------------------------------------------------
# straightening and the quotient


def test_straighten_cross_generators(params):
    akey, nkey, unit = (1, 0, 2), (0, 1, 0), (0, 0, 0)
    cases = (
        ("nu", "araise", {(akey, NU): 1.0, (akey, EPS): 1.0}),   # [nu, A] = A
        ("nu", "nprime", {(nkey, NU): 1.0}),                     # [nu, Np] = 0
        ("beta", "nprime", {(nkey, BETA): 1.0, (unit, BETA): 1.0}),  # [beta,Np]=beta
    )
    for fname, xname, expected in cases:
        got = straighten_cross(fname, xname, params)
        assert residual(*cross_terms_difference(got, expected, params, 3))[0] <= 1e-12, \
            (fname, xname)
    # the suite's case compares these three on the tie basis up to degree 2
    report = cross_straighten_check(params)
    assert report.verdict == "pass" and (report.dims, report.window) == ([3, 3], 2)


def test_straighten_beta_raising_is_dressed(params):
    # (beta, A) leaves the polynomial dual basis: q**(+-nu/2) factors appear
    got = straighten_cross("beta", "araise", params)
    assert any(f[0] == "qnu" for (_, f) in got)
    # straightening gives single atomic dual legs only
    assert {f for (_, f) in got} <= {NU, EPS, BETA, qnu(0.5), qnu(-0.5)}
    # no check compares this pair with a closed form; its terms come from the
    # dual tables, which dual_hopf_check certifies row by row


def test_quotient_cross_check(params):
    rep = build_rep(12, 0.5, params)
    report = quotient_cross_check(rep)
    assert report.normalized_residual <= 1e-12
    with pytest.raises(ParameterError):
        quotient_cross_check(build_rep(6, 1.0, params))


def test_quotient_cross_is_the_worst_of_its_three_relations(params):
    # nu -> N, beta -> a sends the cross relations to the relation table's R0,
    # R1 and Ry, read on the same c = 1/2 representation and window
    rep = build_rep(12, 0.5, params)
    report = quotient_cross_check(rep)
    rows = [check_relation(rep, rel, Window(10, guard=1)) for rel in ("R0", "R1", "Ry")]
    assert (report.dims, report.window) == ([12], 10)
    assert [(r.dims, r.window) for r in rows] == [([12], 10)] * 3
    assert report.raw_residual == max(r.raw_residual for r in rows)
    assert report.normalized_residual == max(r.normalized_residual for r in rows)


@pytest.mark.parametrize("position", [0, 1, 2])
def test_quotient_cross_check_fails_on_nan(params, monkeypatch, position):
    # a NaN residual of any one check is the report's residual, and fails it
    calls = []

    def nan_at_position(*args):
        calls.append(args)
        return (math.nan, math.nan) if len(calls) - 1 == position else residual(*args)

    monkeypatch.setattr("qboson.report.residual", nan_at_position)
    report = quotient_cross_check(build_rep(12, 0.5, params))
    assert len(calls) == 3
    assert report.verdict == "fail"
    assert math.isnan(report.raw_residual) and math.isnan(report.normalized_residual)


def test_dual_to_lowering_isomorphism(params):
    # nu -> N, beta -> a sends [nu, beta] = -beta to [N, a] = -a
    rep = build_rep(10, 0.5, params)
    lhs = rep.matN @ rep.matA - rep.matA @ rep.matN
    _, nrm = windowed_residual(lhs, -rep.matA, (10,), Window(8, guard=1))
    assert nrm <= 1e-12


def test_to_matrix_basis_element(params):
    # E[k, m, s] = q**(sN/2) Np^m adag^k with s = 3 here
    rep = build_rep(8, 0.5, params)
    got = to_matrix(E(1, 1, 3), rep)
    nd = rep.n_diag()
    want = (np.diag(q_power(1.5 * nd, params))
            @ np.diag(nd - params.ialpha_over_gamma) @ rep.matAdag)
    assert np.abs(got - want).max() <= 1e-12


def test_dual_hopf_fails_on_a_nan(params, monkeypatch):
    # one NaN value of nu makes some deviations NaN; the report must not
    # keep only the finite ones
    evaluate = symalg.eval_atomic
    monkeypatch.setattr(symalg, "eval_atomic", lambda f, key, p: (
        np.nan if (f, key) == (NU, (0, 0, 0)) else evaluate(f, key, p)))
    report = dual_hopf_check(params, deg=2)
    assert np.isnan(report.normalized_residual) and report.verdict == "fail"


def test_cross_terms_difference_keeps_a_nan_group(params, monkeypatch):
    # the first primal group cancels, the second is NaN: both sides keep one
    # row per primal key, on the 3 x 3 tie grid
    lhs = {((1, 0, 2), NU): 1.0, ((0, 1, 0), NU): np.nan}
    rhs = {((1, 0, 2), NU): 1.0}
    left, right = cross_terms_difference(lhs, rhs, params, grid=2)
    assert left.shape == right.shape == (2, 9)
    np.testing.assert_array_equal(left[0], right[0])
    assert np.isnan(left[1]).all() and not right[1].any()
    # so a NaN term in one straightened relation is cross_straighten's residual
    straighten = symalg.straighten_cross
    monkeypatch.setattr(symalg, "straighten_cross", lambda f, x, p: (
        {**straighten(f, x, p), ((0, 1, 0), NU): np.nan} if f == "beta" else straighten(f, x, p)))
    report = cross_straighten_check(params)
    assert np.isnan(report.normalized_residual) and report.verdict == "fail"
