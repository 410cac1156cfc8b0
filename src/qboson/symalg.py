"""Symbolic Borel half of the deformed boson algebra and its dual.

Basis conventions
-----------------
The raising half is spanned by ordered monomials

    E[k, m, s] = q**(s*N/2) * Np**m * adag**k,     Np = N - (i*alpha/gamma) I,

with k, m non-negative integers and s a half-integer (stored as the
integer 2s).  The sub-family s = k is the natural basis of the algebra
generated by Np and the dressed raising element A = q**(N/2) adag; the
independent s is the minimal completion closed under both the product
and the coproduct (whose legs carry q**N factors that break the tie).

The dual is generated by the functionals nu and beta.  On tie elements
their values are the defining ones; on off-tie elements the values come
from the unique linear extension obtained by expanding

    q**(sigma*N/2) = exp(i*sigma*alpha/2) * sum_j (sigma*gamma/2)**j Np**j / j!

and applying the defining values termwise.  The sums collapse:

    nu (q**(sigma*N/2))          = exp(i*sigma*alpha/2) * (i*alpha/gamma + sigma/2)
    beta(q**(sigma*N/2) A-words) picks up exp(i*sigma*alpha/2) * q**(sigma/4).

Both closed forms are validated against the truncated series in the
test suite before anything else relies on them.

Products of functionals are evaluated through the coproduct: a word
f1 f2 ... fr applied to x is (f1 (x) ... (x) fr)(Delta_{r-1}(x)),
computed by splitting off one functional at a time.  The coproduct of a
basis monomial has a closed form (q-binomial expansion of
Delta(adag)**k, see _coproduct_key).  A word is held as its vector of
values on a grid of basis keys (k, m, t), sized by the keys asked about;
splitting off f is one batched product of that vector with f's transfer
weights, a lower-triangular (m, m') matrix per (k, t).  Vectors are
memoized by suffix, so the words of one table share their tails.  The
pairing table, the dual bracket and the cross straightening evaluate
through this path; clear_caches() empties its caches.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .fockrep import FockRep, Window, residual
from .qscalars import DeformParams, ParameterError, half_index_product, q_number, q_power
from .report import IdentityReport, make_report, worst

DEGREE_CAP = 8

Key = tuple  # (k, m, two_s)


class DegreeOverflowError(RuntimeError):
    """Raised when a product or coproduct would exceed the degree cap."""


def _check_cap(k: int, m: int, cap: int) -> None:
    if k > cap or m > cap:
        raise DegreeOverflowError(
            f"degree (k={k}, m={m}) exceeds cap {cap}; raise the cap explicitly")


class _Combination:
    """Finite linear combination of basis keys, dropping zero coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict | None = None):
        self.terms = {key: complex(c) for key, c in (terms or {}).items() if c != 0}

    def items(self):
        return self.terms.items()

    def __add__(self, other):
        out = dict(self.terms)
        for key, c in other.terms.items():
            out[key] = out.get(key, 0.0) + c
        return type(self)(out)

    def __sub__(self, other):
        return self + other.scaled(-1.0)

    def scaled(self, z: complex):
        return type(self)({key: z * c for key, c in self.terms.items()})

    def max_abs(self) -> float:
        return max((abs(c) for c in self.terms.values()), default=0.0)


class PlusElement(_Combination):
    """Finite linear combination of E[k, m, s] basis monomials."""

    __slots__ = ()

    @classmethod
    def unit(cls) -> "PlusElement":
        return cls({(0, 0, 0): 1.0})

    @classmethod
    def basis(cls, k: int, m: int, s: float) -> "PlusElement":
        """E[k, m, s]; s may be any half-integer."""
        two_s = round(2 * s)
        if k < 0 or m < 0 or abs(2 * s - two_s) > 1e-12:
            raise ParameterError("basis indices must be k, m >= 0 and s a half-integer")
        return cls({(k, m, int(two_s)): 1.0})

    @classmethod
    def tie_basis(cls, k: int, m: int) -> "PlusElement":
        """The tie-family basis element with s = k."""
        return cls.basis(k, m, k)

    @classmethod
    def n_prime(cls) -> "PlusElement":
        return cls.basis(0, 1, 0)

    @classmethod
    def a_dressed(cls) -> "PlusElement":
        """A = q**(N/2) adag."""
        return cls.basis(1, 0, 1)

    def __repr__(self):
        body = " + ".join(f"({c:.4g})*E[{k},{m},{t / 2:g}]"
                          for (k, m, t), c in sorted(self.terms.items()))
        return body or "0"


class TensorPlusElement(_Combination):
    """Element of the tensor square, keyed by pairs of basis keys."""

    __slots__ = ()


# ---------------------------------------------------------------------------
# normal-ordered product


def _mul_keys(key1: Key, key2: Key, p: DeformParams, cap: int) -> dict:
    """Product of two basis monomials in normal order.

    Moving adag**k1 through the q-power contributes q**(-s2*k1/2);
    moving it through Np**m2 shifts Np -> Np - k1, expanded binomially.
    """
    k1, m1, t1 = key1
    k2, m2, t2 = key2
    _check_cap(k1 + k2, m1 + m2, cap)
    scale = q_power(-t2 * k1 / 4.0, p)  # exponent -(s2/2)*k1 with s2 = t2/2
    out: dict = {}
    for j in range(m2 + 1):
        coeff = scale * math.comb(m2, j) * ((-k1) ** (m2 - j))
        key = (k1 + k2, m1 + j, t1 + t2)
        out[key] = out.get(key, 0.0) + coeff
    return out


def multiply(x: PlusElement, y: PlusElement, p: DeformParams,
             cap: int = DEGREE_CAP) -> PlusElement:
    out: dict = {}
    for key1, c1 in x.terms.items():
        for key2, c2 in y.terms.items():
            for key, c in _mul_keys(key1, key2, p, cap).items():
                out[key] = out.get(key, 0.0) + c1 * c2 * c
    return PlusElement(out)


# ---------------------------------------------------------------------------
# coproduct


@functools.lru_cache(maxsize=None)
def _split_row(k: int, p: DeformParams) -> tuple:
    """c_r(k, 0) = e^{-i k alpha/2} [k r]_w i**(k-r) q**(r(k-r)/2), r = 0..k.

    The Gaussian binomials [k r]_w in w = 1/q come from the Pascal rule
    [n r] = [n-1 r-1] + w**r [n-1 r], which divides by nothing: the product
    formula's 1 - w**j factors lose digits for q near 1.
    """
    w_pow = [q_power(-r, p) for r in range(k + 1)]
    gauss = [1.0 + 0.0j]
    for n in range(1, k + 1):
        gauss = [(gauss[r - 1] if r else 0.0) + (w_pow[r] * gauss[r] if r < n else 0.0)
                 for r in range(n + 1)]
    # the phase of Delta(adag), once per factor
    phase = complex(np.exp(-1j * p.alpha / 2.0)) ** k
    return tuple(phase * gauss[r] * 1j ** (k - r) * q_power(r * (k - r) / 2.0, p)
                 for r in range(k + 1))


def _cexp(z):
    """exp(z), elementwise on arrays; a Python complex for a scalar z, so that
    scalar products round as the complex type's do, not as numpy's."""
    return np.exp(z) if isinstance(z, np.ndarray) else complex(np.exp(z))


def _coproduct_coeff(k: int, r: int, t, p: DeformParams):
    """c_r(k, t) = e^{-i t alpha/4} c_r(k, 0), the phase of Delta(q**(sN/2))
    put on; elementwise when t is an integer array."""
    return _cexp(-1j * (t / 4.0) * p.alpha) * _split_row(k, p)[r]


@functools.lru_cache(maxsize=None)
def _coproduct_key(key: Key, p: DeformParams, cap: int) -> TensorPlusElement:
    """Delta(E[k, m, s]) expanded in the tensor basis, in closed form.

    Legs: Delta(q**(sN/2)) = e^{-is alpha/2} q**(sN/2) (x) q**(sN/2),
    Delta(Np) = Np (x) 1 + 1 (x) Np, and
    Delta(adag) = (X + Y) e^{-i alpha/2} with X = adag (x) q**(N/2) and
    Y = i q**(-N/2) (x) adag.  Since YX = q**(-1) XY, (X + Y)**k expands
    with the Gaussian binomials [k r]_w in w = 1/q; with t = 2s,

        Delta(E[k, m, t]) = sum_{r<=k} sum_{j<=m} C(m, j) c_r(k, t)
            E[r, j, t - 2(k-r)] (x) E[k-r, m-j, t + 2r],
        c_r(k, t) = e^{-i t alpha/4} e^{-i k alpha/2} [k r]_w i**(k-r) q**(r(k-r)/2).
    """
    k, m, t = key
    _check_cap(k, m, cap)
    out: dict = {}
    for r in range(k + 1):
        c_r = _coproduct_coeff(k, r, t, p)
        for j in range(m + 1):
            out[((r, j, t - 2 * (k - r)), (k - r, m - j, t + 2 * r))] = c_r * math.comb(m, j)
    return TensorPlusElement(out)


def coproduct_sym(x: PlusElement, p: DeformParams, cap: int = DEGREE_CAP) -> TensorPlusElement:
    out = TensorPlusElement()
    for key, c in x.terms.items():
        out = out + _coproduct_key(key, p, cap).scaled(c)
    return out


def antipode_sym_inv(x: PlusElement, p: DeformParams, cap: int = DEGREE_CAP) -> PlusElement:
    """Inverse antipode: S^{-1}(adag) = -q**(-1/2) adag, S^{-1}(Np) = -Np,
    S^{-1}(q**(sN/2)) = e^{is alpha} q**(-sN/2); antihomomorphic order."""
    out = PlusElement()
    for (k, m, t), c in x.terms.items():
        coeff = c * ((-1.0) ** (k + m)) * q_power(-k / 2.0, p) \
            * complex(np.exp(1j * (t / 2.0) * p.alpha))
        elem = PlusElement({(k, 0, 0): coeff})
        elem = multiply(elem, PlusElement({(0, m, 0): 1.0}), p, cap)
        elem = multiply(elem, PlusElement({(0, 0, -t): 1.0}), p, cap)
        out = out + elem
    return out


# ---------------------------------------------------------------------------
# dual functionals
#
# atomic functionals: ("eps",), ("nu",), ("nu_prime",), ("beta",), ("qnu", c)
# with ("qnu", c) denoting q**(c*nu).

EPS = ("eps",)
NU = ("nu",)
NU_PRIME = ("nu_prime",)
BETA = ("beta",)


def qnu(c: float) -> tuple:
    return ("qnu", float(c))


def eval_atomic(f: tuple, key: Key, p: DeformParams):
    """Closed-form value of one atomic functional on one basis monomial.

    t = 2s may be an integer array: the value is then elementwise, or a
    scalar zero where the functional vanishes for every t."""
    k, m, t = key
    s = t / 2.0
    iag = p.ialpha_over_gamma
    half_phase = _cexp(1j * s * p.alpha / 2.0)
    name = f[0]
    if name == "eps":
        return half_phase if (k == 0 and m == 0) else 0.0
    if name in ("nu", "nu_prime"):  # nu' = nu - i alpha/gamma eps
        if k != 0 or m > 1:
            return 0.0
        if m == 1:
            return half_phase / p.gamma
        return half_phase * ((iag if name == "nu" else 0.0) + s / 2.0)
    if name == "beta":
        if k != 1:
            return 0.0
        sigma = s - 1.0  # off-tie deviation relative to the tie s = k = 1
        ext = _cexp(1j * sigma * p.alpha / 2.0) * q_power(sigma / 4.0, p)
        return ext * complex(np.exp(-1j * p.alpha / 2.0)) / (2.0 ** m) / (1.0 + 1.0 / p.q)
    if name == "qnu":
        c = f[1]
        if k != 0:
            return 0.0
        return complex(np.exp(1j * c * p.alpha)) * half_phase * (c ** m if m else 1.0) \
            * q_power(c * s / 2.0, p)
    raise ParameterError(f"unknown atomic functional {f!r}")


# ---------------------------------------------------------------------------
# dual words on the (k, m, t) key grid
#
# A grid box (K, M, t0, nt) holds the keys k <= K, m <= M, t0 <= t < t0 + nt;
# a word vector v_w[k, t - t0, m] is the word's value on E[k, m, t].


def _degree(f: tuple) -> int:
    """The one raising degree of a leg off which f vanishes: 1 for beta, 0 else."""
    return 1 if f == BETA else 0


def _grid_box(keys, cap: int, split: str) -> tuple:
    """The smallest box holding every key a word splits the given keys into:
    the rest of a word is read at (k - d, ., t + 2d) after a left split, at
    (k - d, ., t - 2d) after a right one, and the degrees d add up to <= k."""
    kmax, mmax = max(k for k, _, _ in keys), max(m for _, m, _ in keys)
    _check_cap(kmax, mmax, cap)
    tmin, tmax = min(t for _, _, t in keys), max(t for _, _, t in keys)
    t0 = tmin if split == "left" else tmin - 2 * kmax
    return kmax, mmax, t0, tmax - tmin + 2 * kmax + 1


def _atomic_vector(f: tuple, box: tuple, p: DeformParams) -> np.ndarray:
    K, M, t0, nt = box
    v = np.zeros((K + 1, nt, M + 1), dtype=complex)
    d, t = _degree(f), np.arange(t0, t0 + nt)
    for m in range(M + 1):
        v[d:d + 1, :, m] = eval_atomic(f, (d, m, t), p)  # empty when d > K
    return v


@functools.lru_cache(maxsize=None)
def _transfer_weights(f: tuple, box: tuple, p: DeformParams, split: str) -> np.ndarray:
    """W[k, t, m, m'] with (f . w)[k, m, t] = sum_m' W[k, t, m, m'] w[k-d, m', t+2d].

    Left: f takes the leg E[d, m-m', t-2(k-d)] of Delta(E[k, m, t]) with
    coefficient C(m, m') c_d(k, t).  Right, the mirror: (w . f) has f on
    E[d, m-m', t+2(k-d)] with c_{k-d}(k, t), and w read at t - 2d.
    """
    K, M, t0, nt = box
    d, left = _degree(f), split == "left"
    W = np.zeros((K + 1, nt, M + 1, M + 1), dtype=complex)
    ks, t = np.arange(d, K + 1), np.arange(t0, t0 + nt)
    c = np.array([_coproduct_coeff(k, d if left else k - d, t, p) for k in ks]).reshape(-1, nt)
    leg_t = t - 2 * (ks[:, None] - d) if left else t + 2 * (ks[:, None] - d)
    for j in range(M + 1):  # the Np power of f's leg; m' = m - j
        c_leg = c * eval_atomic(f, (d, j, leg_t), p)
        for m in range(j, M + 1):
            W[d:, :, m, m - j] = math.comb(m, j) * c_leg
    W.flags.writeable = False
    return W


def _word_vector(factors: tuple, box: tuple, p: DeformParams, split: str,
                 memo: dict) -> np.ndarray:
    """The word's values on every key of the box, memoized by suffix in memo.

    The rest is read at (k - d, t +- 2d) by rolling its vector; what rolls
    in across the box's edges lands on keys no asked-for key splits into.
    """
    if factors not in memo:
        if len(factors) <= 1:
            memo[factors] = _atomic_vector(factors[0] if factors else EPS, box, p)
        else:
            f, rest = (factors[0], factors[1:]) if split == "left" else (factors[-1], factors[:-1])
            d = _degree(f)
            w = np.roll(_word_vector(rest, box, p, split, memo),
                        (d, -2 * d if split == "left" else 2 * d), axis=(0, 1))
            memo[factors] = np.einsum("ktab,ktb->kta", _transfer_weights(f, box, p, split), w)
    return memo[factors]


def _word_table(words, keys, p: DeformParams, cap: int, split: str = "left") -> np.ndarray:
    """Values of the dual words on the basis keys, shape (len(words), len(keys))."""
    box = _grid_box(keys, cap, split)
    k, m, t = (np.array(axis) for axis in zip(*keys))
    memo: dict = {}
    return np.array([_word_vector(tuple(w), box, p, split, memo)[k, t - box[2], m]
                     for w in words])


def clear_caches() -> None:
    """Empty the coproduct, split-coefficient and transfer-weight caches.

    Their keys hold DeformParams, so entries made at one q are never
    reused at another; a sweep over q clears them after each point.
    """
    for cache in (_coproduct_key, _split_row, _transfer_weights):
        cache.cache_clear()


def eval_word(factors, x: PlusElement, p: DeformParams, cap: int = DEGREE_CAP,
              split: str = "left") -> complex:
    """Evaluate the dual product f1 f2 ... fr on x via iterated coproducts.

    'split' chooses the recursion side; coassociativity makes the result
    independent of it, which the tests exercise directly.
    """
    if not x.terms:
        return 0.0 + 0.0j
    row = _word_table([factors], list(x.terms), p, cap, split)[0]
    return sum((c * v for c, v in zip(x.terms.values(), row)), start=0.0 + 0.0j)


@dataclass(frozen=True)
class DualElement:
    """Finite combination of dual basis monomials (Np*)^m q**(-k nu/2) beta^k."""

    terms: tuple  # ordered tuple of ((k, m), coeff)

    @classmethod
    def basis(cls, k: int, m: int) -> "DualElement":
        if k < 0 or m < 0:
            raise ParameterError("dual basis indices must be non-negative")
        return cls((((k, m), 1.0 + 0.0j),))


def dual_basis_factors(k: int, m: int) -> tuple:
    """Atomic factor list of (nu - i alpha/gamma)^m q**(-k nu/2) beta^k."""
    return (NU_PRIME,) * m + (qnu(-k / 2.0),) + (BETA,) * k


def eval_functional(f: DualElement, x: PlusElement, p: DeformParams,
                    cap: int = DEGREE_CAP) -> complex:
    out = 0.0 + 0.0j
    for (k, m), c in f.terms:
        _check_cap(k, m, cap)
        out += c * eval_word(dual_basis_factors(k, m), x, p, cap)
    return out


# ---------------------------------------------------------------------------
# pairing against the closed form


def pairing_closed_form(k: int, m: int, l: int, n: int, p: DeformParams) -> complex:
    """delta_{kl} delta_{mn} n! (-i)^k q^{k(k+1)/4} / gamma^n * prod_j [j/2]."""
    if k != l or m != n:
        return 0.0 + 0.0j
    return (math.factorial(n) * ((-1j) ** k) * q_power(k * (k + 1) / 4.0, p)
            / (p.gamma ** n) * half_index_product(k, p))


def pairing_gram(kmax: int, mmax: int, p: DeformParams,
                 cap: int = DEGREE_CAP) -> np.ndarray:
    """Gram matrix of the pairing over (k, m), (l, n) up to the caps, as one
    pass over the key grid: every dual basis word on every tie key (l, n, 2l)."""
    pairs = [(k, m) for k in range(kmax + 1) for m in range(mmax + 1)]
    return _word_table([dual_basis_factors(k, m) for k, m in pairs],
                       [(l, n, 2 * l) for l, n in pairs], p, cap)


def pairing_check(kmax: int, mmax: int, p: DeformParams, cap: int = DEGREE_CAP,
                  tol: float | None = None, gram: np.ndarray | None = None) -> IdentityReport:
    """Compare the dual-multiplication pairing with the closed form.

    The table compared is 'gram' when the caller already holds
    pairing_gram(kmax, mmax, p, cap), and is evaluated here otherwise.
    The raw residual is the largest absolute deviation; the normalized one
    divides it by max(1, largest |closed form|) over the table, because the
    entries grow like n!/gamma^n and an absolute test would fail on
    rounding alone for q near 1.
    """
    tol = tol if tol is not None else p.tol
    pairs = [(k, m) for k in range(kmax + 1) for m in range(mmax + 1)]
    G = pairing_gram(kmax, mmax, p, cap) if gram is None else gram
    if G.shape != (len(pairs), len(pairs)):
        raise ParameterError(f"pairing table has shape {G.shape}, expected "
                             f"{(len(pairs), len(pairs))} for kmax={kmax}, mmax={mmax}")
    # the closed form vanishes off the diagonal
    want = np.diag([pairing_closed_form(k, m, k, m, p) for k, m in pairs])
    dev = float(np.abs(G - want).max())
    scale = float(np.abs(want).max())
    return make_report("pairing_eqn", {"kmax": kmax, "mmax": mmax, "q": str(p.q)},
                       [kmax + 1, mmax + 1], kmax, dev, dev / max(1.0, scale), tol)


def dual_bracket_check(p: DeformParams, lmax: int = 4, nmax: int = 4,
                       cap: int = DEGREE_CAP, tol: float | None = None) -> IdentityReport:
    """[nu, beta] + beta evaluates to zero on every tie basis element."""
    tol = tol if tol is not None else p.tol
    keys = [(l, n, 2 * l) for l in range(lmax + 1) for n in range(nmax + 1)]
    nu_beta, beta_nu, beta = _word_table([(NU, BETA), (BETA, NU), (BETA,)], keys, p, cap)
    dev = float(np.abs(nu_beta - beta_nu + beta).max())
    return make_report("dual_bracket", {"lmax": lmax, "nmax": nmax, "q": str(p.q)},
                       [lmax + 1, nmax + 1], lmax, dev, dev, tol)


def dual_hopf_check(p: DeformParams, deg: int = 3, cap: int = DEGREE_CAP,
                    tol: float | None = None) -> IdentityReport:
    """Duality of the opposite dual coproduct and inverse antipode.

    (T Delta0(f), x (x) y) = (f, y x) for f in {nu, beta}, and
    ((S0)^{-1}(f), x) = (f, S^{-1}(x)).
    """
    tol = tol if tol is not None else p.tol
    iag = p.ialpha_over_gamma
    ph = complex(np.exp(-1j * p.alpha / 2.0))
    keys = [(l, n, 2 * l) for l in range(deg + 1) for n in range(deg + 1)]
    sxs = {x: antipode_sym_inv(PlusElement({x: 1.0}), p, cap) for x in keys}
    yxs = {(x, y): multiply(PlusElement({y: 1.0}), PlusElement({x: 1.0}), p, cap)
           for x in keys for y in keys}
    # each generator's value on each key met, computed once
    met = set(keys).union(*(z.terms for z in (*sxs.values(), *yxs.values())))
    nu, eps, beta, up, dn = ({key: eval_atomic(f, key, p) for key in met}
                             for f in (NU, EPS, BETA, qnu(0.5), qnu(-0.5)))
    ev = lambda values, z: sum((c * values[key] for key, c in z.items()), start=0j)
    dev = 0.0
    for x in keys:
        sx = sxs[x]
        dev = max(dev, abs(-nu[x] + 2 * iag * eps[x] - ev(nu, sx)))
        dev = max(dev, abs(-q_power(-0.5, p) * beta[x] - ev(beta, sx)))
        for y in keys:
            yx = yxs[x, y]
            lhs_nu = nu[x] * eps[y] + eps[x] * nu[y] - iag * eps[x] * eps[y]
            dev = max(dev, abs(lhs_nu - ev(nu, yx)))
            lhs_beta = ph * (beta[x] * up[y] + 1j * dn[x] * beta[y])
            dev = max(dev, abs(lhs_beta - ev(beta, yx)))
    return make_report("dual_hopf", {"deg": deg, "q": str(p.q)},
                       [deg + 1, deg + 1], deg, dev, dev, tol)


# ---------------------------------------------------------------------------
# quantum-double straightening


def _s0_inv_atomic(f: tuple, p: DeformParams) -> list[tuple[complex, tuple]]:
    """(S0)^{-1} on atomic dual functionals, as a linear combination."""
    name = f[0]
    if name == "eps":
        return [(1.0, EPS)]
    if name == "nu":
        return [(-1.0, NU), (2.0 * p.ialpha_over_gamma, EPS)]
    if name == "beta":
        return [(-q_power(-0.5, p), BETA)]
    if name == "qnu":
        c = f[1]
        return [(complex(np.exp(2j * c * p.alpha)), qnu(-c))]
    raise ParameterError(f"no inverse-antipode rule for {f!r}")


def _dual_triple(fname: str, p: DeformParams) -> list[tuple[complex, tuple, tuple, tuple]]:
    """(T Delta0)_2 of a dual generator as explicit three-leg terms."""
    iag = p.ialpha_over_gamma
    if fname == "nu":
        return [(1.0, NU, EPS, EPS), (1.0, EPS, NU, EPS), (1.0, EPS, EPS, NU),
                (-2.0 * iag, EPS, EPS, EPS)]
    if fname == "beta":
        em = complex(np.exp(-1j * p.alpha))
        up, dn = qnu(0.5), qnu(-0.5)
        return [(em, BETA, up, up), (em * 1j, dn, BETA, up), (1j, dn, dn, BETA)]
    raise ParameterError("straightening is defined for the generators nu, beta")


def _coproduct3(x: PlusElement, p: DeformParams, cap: int) -> dict:
    """(Delta (x) id) Delta(x) as a dict of key triples."""
    out: dict = {}
    for (key1, key2), c in coproduct_sym(x, p, cap).terms.items():
        for (key1a, key1b), c1 in _coproduct_key(key1, p, cap).terms.items():
            key = (key1a, key1b, key2)
            out[key] = out.get(key, 0.0) + c * c1
    return out


DUAL_WORD_GENS = {EPS: (0, 0, 0), NU: (0, 1, 0), BETA: (0, 0, 1)}


def _dual_word_key(f: tuple) -> tuple:
    """Encode an atomic dual leg as (2c, nu-power, beta-power) of q^{c nu} nu^a beta^b."""
    if f[0] == "qnu":
        return (round(2 * f[1]), 0, 0)
    return DUAL_WORD_GENS[f]


def dual_word_factors(dword: tuple) -> tuple:
    two_c, npow, bpow = dword
    return (qnu(two_c / 2.0),) * bool(two_c) + (NU,) * npow + (BETA,) * bpow


def straighten_cross(fname: str, xname: str, p: DeformParams,
                     cap: int = DEGREE_CAP) -> dict:
    """Normal-order the cross product (dual generator) * (algebra generator).

    Returns a dict keyed by (primal basis key, dual word key) mapping to
    coefficients, representing sum_i x_i * f_i in the double.  The dual
    word keys encode q**(c nu) nu^a beta^b; for the pair (beta, A) the
    q**(+-nu/2)-dressed legs leave the polynomial dual basis and are
    returned in this dressed form.
    """
    x = {"nprime": PlusElement.n_prime(), "araise": PlusElement.a_dressed()}[xname]
    legs3 = _coproduct3(x, p, cap)
    duals3 = _dual_triple(fname, p)
    out: dict = {}
    for (x1, x2, x3), cx in legs3.items():
        for cf, f1, f2, f3 in duals3:
            v3 = eval_atomic(f3, x3, p)
            if v3 == 0:
                continue
            v1 = sum(ci * eval_atomic(fi, x1, p) for ci, fi in _s0_inv_atomic(f1, p))
            if v1 == 0:
                continue
            key = (x2, _dual_word_key(f2))
            out[key] = out.get(key, 0.0) + cx * cf * v1 * v3
    return {key: c for key, c in out.items() if abs(c) > 0.0}


def cross_terms_difference(lhs: dict, rhs: dict, p: DeformParams,
                           grid: int = 3, cap: int = DEGREE_CAP) -> float:
    """Max deviation between two x*f term dicts, as elements of the double.

    Terms are grouped by primal key and the dual parts compared by
    evaluating on all tie basis elements up to the grid degree.
    """
    duals: dict = {}  # primal key -> {dual word key: coefficient}
    for sign, terms in ((1.0, lhs), (-1.0, rhs)):
        for (xk, dw), c in terms.items():
            group = duals.setdefault(xk, {})
            group[dw] = group.get(dw, 0.0) + sign * c
    dwords = list(dict.fromkeys(dw for terms in duals.values() for dw in terms))
    keys = [(l, n, 2 * l) for l in range(grid + 1) for n in range(grid + 1)]
    table = dict(zip(dwords, _word_table([dual_word_factors(dw) for dw in dwords],
                                         keys, p, cap)))
    return max((float(np.abs(sum(c * table[dw] for dw, c in terms.items())).max())
                for terms in duals.values()), default=0.0)


# ---------------------------------------------------------------------------
# representation bridge


def quotient_cross_check(rep: FockRep, window: Window | None = None,
                         tol: float | None = None) -> IdentityReport:
    """Cross relations of the double under nu -> N, beta -> a.

    With nu = N the mixed bracket reduces to the symmetrized defining
    relation, so this requires the Hopf-compatible shift c = 1/2.
    """
    if rep.c != 0.5:
        raise ParameterError("quotient identification requires c = 1/2")
    p = rep.params
    tol = tol if tol is not None else p.tol
    D = rep.dim
    win = window or Window(D - 2, guard=1)
    N, a, ad = rep.matN, rep.matA, rep.matAdag
    nd = rep.n_diag()
    # [N, nu] = 0 holds by definition under nu -> N, so it is not checked
    checks = {
        "comm_N_beta": (N @ a - a @ N, -a),
        "comm_nu_adag": (N @ ad - ad @ N, ad),
        "mixed_bracket": (a @ ad - ad @ a,
                          np.diag(q_number((2 * nd + 1) / 2.0, p)
                                  - q_number((2 * nd - 1) / 2.0, p))),
    }
    raws, nrms = zip(*(residual(lhs, rhs, (D,), win) for lhs, rhs in checks.values()))
    return make_report("quotient_cross", {"q": str(p.q), "c": str(rep.c)},
                       [D], win.max_index, worst(raws), worst(nrms), tol)
