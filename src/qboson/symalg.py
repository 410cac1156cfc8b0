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
An element is a plain dict {(k, m, 2s): coefficient}, and an element of
the tensor square a dict {(key1, key2): coefficient}.

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
pairing table and the dual bracket evaluate through this path,
_word_table; its split rows, transfer weights and suffix vectors live for
that one call, so the module holds no state.

The dual's Hopf structure is written once, as two tables on the atomic
functionals: the opposite dual coproduct (_dual_coproduct) and the dual
inverse antipode (_s0_inv_atomic).  The quantum-double straightening
reads them, iterating the coproduct table on the first leg for three legs,
and dual_hopf_check compares every row it reads with the primal structure.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .fockrep import FockRep, Window, relation_sides
from .qscalars import DeformParams, ParameterError, half_index_product, q_power
from .report import IdentityReport, compare

Key = tuple  # (k, m, two_s)


def _nonzero(terms: dict) -> dict:
    """The terms with exact-zero coefficients dropped, as Python complex numbers."""
    return {key: complex(c) for key, c in terms.items() if c != 0}


# ---------------------------------------------------------------------------
# normal-ordered product


def _mul_keys(key1: Key, key2: Key, p: DeformParams) -> dict:
    """Product of two basis monomials in normal order.

    Moving adag**k1 through the q-power contributes q**(-s2*k1/2);
    moving it through Np**m2 shifts Np -> Np - k1, expanded binomially.
    """
    k1, m1, t1 = key1
    k2, m2, t2 = key2
    scale = q_power(-t2 * k1 / 4.0, p)  # exponent -(s2/2)*k1 with s2 = t2/2
    out: dict = {}
    for j in range(m2 + 1):
        coeff = scale * math.comb(m2, j) * ((-k1) ** (m2 - j))
        key = (k1 + k2, m1 + j, t1 + t2)
        out[key] = out.get(key, 0.0) + coeff
    return out


def multiply(x: dict, y: dict, p: DeformParams) -> dict:
    out: dict = {}
    for key1, c1 in x.items():
        for key2, c2 in y.items():
            for key, c in _mul_keys(key1, key2, p).items():
                out[key] = out.get(key, 0.0) + c1 * c2 * c
    return _nonzero(out)


# ---------------------------------------------------------------------------
# coproduct


def _split_rows(kmax: int, p: DeformParams) -> list[tuple]:
    """Rows k = 0..kmax of c_r(k, 0) = e^{-i k alpha/2} [k r]_w i**(k-r) q**(r(k-r)/2).

    The Gaussian binomials [k r]_w in w = 1/q come from the Pascal rule
    [n r] = [n-1 r-1] + w**r [n-1 r], which divides by nothing: the product
    formula's 1 - w**j factors lose digits for q near 1.
    """
    w_pow = [q_power(-r, p) for r in range(kmax + 1)]
    phase = complex(np.exp(-1j * p.alpha / 2.0))  # the phase of Delta(adag), once per factor
    gauss, rows = [1.0 + 0.0j], []
    for n in range(kmax + 1):
        if n:
            gauss = [(gauss[r - 1] if r else 0.0) + (w_pow[r] * gauss[r] if r < n else 0.0)
                     for r in range(n + 1)]
        rows.append(tuple(phase ** n * gauss[r] * 1j ** (n - r) * q_power(r * (n - r) / 2.0, p)
                          for r in range(n + 1)))
    return rows


def _cexp(z):
    """exp(z), elementwise on arrays; a Python complex for a scalar z, so that
    scalar products round as the complex type's do, not as numpy's."""
    return np.exp(z) if isinstance(z, np.ndarray) else complex(np.exp(z))


def _coproduct_coeff(c0: complex, t, p: DeformParams):
    """c_r(k, t) = e^{-i t alpha/4} c_r(k, 0), the phase of Delta(q**(sN/2))
    put on c0 = c_r(k, 0); elementwise when t is an integer array."""
    return _cexp(-1j * (t / 4.0) * p.alpha) * c0


def _coproduct_key(key: Key, p: DeformParams) -> dict:
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
    row = _split_rows(k, p)[k]
    out: dict = {}
    for r in range(k + 1):
        c_r = _coproduct_coeff(row[r], t, p)
        for j in range(m + 1):
            out[((r, j, t - 2 * (k - r)), (k - r, m - j, t + 2 * r))] = c_r * math.comb(m, j)
    return _nonzero(out)


def coproduct_sym(x: dict, p: DeformParams) -> dict:
    out: dict = {}
    for key, c in x.items():
        for pair, c2 in _coproduct_key(key, p).items():
            out[pair] = out.get(pair, 0.0) + c * c2
    return _nonzero(out)


def antipode_sym_inv(x: dict, p: DeformParams) -> dict:
    """Inverse antipode: S^{-1}(adag) = -q**(-1/2) adag, S^{-1}(Np) = -Np,
    S^{-1}(q**(sN/2)) = e^{is alpha} q**(-sN/2); antihomomorphic order."""
    out: dict = {}
    for (k, m, t), c in x.items():
        coeff = c * ((-1.0) ** (k + m)) * q_power(-k / 2.0, p) \
            * complex(np.exp(1j * (t / 2.0) * p.alpha))
        elem = multiply({(k, 0, 0): coeff}, {(0, m, 0): 1.0}, p)
        for key, c2 in multiply(elem, {(0, 0, -t): 1.0}, p).items():
            out[key] = out.get(key, 0.0) + c2
    return _nonzero(out)


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


def _grid_box(keys) -> tuple:
    """The smallest box holding every key a word splits the given keys into:
    the rest of a word is read at (k - d, ., t + 2d) after its first
    functional is split off, and the degrees d add up to <= k."""
    kmax, mmax = max(k for k, _, _ in keys), max(m for _, m, _ in keys)
    tmin, tmax = min(t for _, _, t in keys), max(t for _, _, t in keys)
    return kmax, mmax, tmin, tmax - tmin + 2 * kmax + 1


def _atomic_vector(f: tuple, box: tuple, p: DeformParams) -> np.ndarray:
    K, M, t0, nt = box
    v = np.zeros((K + 1, nt, M + 1), dtype=complex)
    d, t = _degree(f), np.arange(t0, t0 + nt)
    for m in range(M + 1):
        v[d:d + 1, :, m] = eval_atomic(f, (d, m, t), p)  # empty when d > K
    return v


def _transfer_weights(f: tuple, box: tuple, rows: list, p: DeformParams) -> np.ndarray:
    """W[k, t, m, m'] with (f . w)[k, m, t] = sum_m' W[k, t, m, m'] w[k-d, m', t+2d]:
    f takes the leg E[d, m-m', t-2(k-d)] of Delta(E[k, m, t]) with
    coefficient C(m, m') c_d(k, t), read from the split rows up to the box's K."""
    K, M, t0, nt = box
    d = _degree(f)
    W = np.zeros((K + 1, nt, M + 1, M + 1), dtype=complex)
    ks, t = np.arange(d, K + 1), np.arange(t0, t0 + nt)
    c = np.array([_coproduct_coeff(rows[k][d], t, p) for k in ks]).reshape(-1, nt)
    leg_t = t - 2 * (ks[:, None] - d)
    for j in range(M + 1):  # the Np power of f's leg; m' = m - j
        c_leg = c * eval_atomic(f, (d, j, leg_t), p)
        for m in range(j, M + 1):
            W[d:, :, m, m - j] = math.comb(m, j) * c_leg
    return W


def _word_vector(factors: tuple, box: tuple, p: DeformParams, memo: dict,
                 weights) -> np.ndarray:
    """The word's values on every key of the box, memoized by suffix in memo;
    weights(f) is f's transfer weights on the box.

    The rest is read at (k - d, t + 2d) by rolling its vector; what rolls
    in across the box's edges lands on keys no asked-for key splits into.
    """
    if factors not in memo:
        if len(factors) <= 1:
            memo[factors] = _atomic_vector(factors[0] if factors else EPS, box, p)
        else:
            f, rest = factors[0], factors[1:]
            d = _degree(f)
            w = np.roll(_word_vector(rest, box, p, memo, weights), (d, -2 * d), axis=(0, 1))
            memo[factors] = np.einsum("ktab,ktb->kta", weights(f), w)
    return memo[factors]


def _word_table(words, keys, p: DeformParams) -> np.ndarray:
    """Values of the dual words on the basis keys, shape (len(words), len(keys)).
    The split rows, each functional's transfer weights and the suffix vectors
    are built once for this call and dropped with it."""
    box = _grid_box(keys)
    k, m, t = (np.array(axis) for axis in zip(*keys))
    rows = _split_rows(box[0], p)
    weights = functools.cache(lambda f: _transfer_weights(f, box, rows, p))
    memo: dict = {}
    return np.array([_word_vector(tuple(w), box, p, memo, weights)[k, t - box[2], m]
                     for w in words])


def dual_basis_factors(k: int, m: int) -> tuple:
    """Atomic factor list of (nu - i alpha/gamma)^m q**(-k nu/2) beta^k."""
    return (NU_PRIME,) * m + (qnu(-k / 2.0),) + (BETA,) * k


# ---------------------------------------------------------------------------
# pairing against the closed form


def pairing_closed_form(k: int, m: int, p: DeformParams) -> complex:
    """The diagonal entry m! (-i)^k q^{k(k+1)/4} / gamma^m * prod_j [j/2] of
    the pairing table at (k, m); the table vanishes off the diagonal."""
    return (math.factorial(m) * ((-1j) ** k) * q_power(k * (k + 1) / 4.0, p)
            / (p.gamma ** m) * half_index_product(k, p))


def pairing_gram(kmax: int, mmax: int, p: DeformParams) -> np.ndarray:
    """Gram matrix of the pairing over (k, m), (l, n) up to kmax, mmax, as one
    pass over the key grid: every dual basis word on every tie key (l, n, 2l)."""
    pairs = [(k, m) for k in range(kmax + 1) for m in range(mmax + 1)]
    return _word_table([dual_basis_factors(k, m) for k, m in pairs],
                       [(l, n, 2 * l) for l, n in pairs], p)


def pairing_check(kmax: int, mmax: int, p: DeformParams) -> IdentityReport:
    """Compare the dual-multiplication pairing table with the closed form.
    The entries grow like n!/gamma^n, so for q near 1 only the normalized
    residual can pass."""
    pairs = [(k, m) for k in range(kmax + 1) for m in range(mmax + 1)]
    want = np.diag([pairing_closed_form(k, m, p) for k, m in pairs])
    return compare("pairing_eqn", {"kmax": kmax, "mmax": mmax, "q": str(p.q)},
                   [kmax + 1, mmax + 1], kmax, [(pairing_gram(kmax, mmax, p), want)])


def dual_bracket_check(p: DeformParams) -> IdentityReport:
    """[nu, beta] = -beta on every tie basis element up to degree 4."""
    lmax = nmax = 4
    keys = [(l, n, 2 * l) for l in range(lmax + 1) for n in range(nmax + 1)]
    nu_beta, beta_nu, beta = _word_table([(NU, BETA), (BETA, NU), (BETA,)], keys, p)
    return compare("dual_bracket", {"lmax": lmax, "nmax": nmax, "q": str(p.q)},
                   [lmax + 1, nmax + 1], lmax, [(nu_beta - beta_nu, -beta)])


# ---------------------------------------------------------------------------
# the dual's Hopf structure: one row per atomic functional in each table


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


def _dual_coproduct(f: tuple, p: DeformParams) -> list[tuple[complex, tuple, tuple]]:
    """T Delta0 on atomic dual functionals, as (coefficient, leg 1, leg 2) terms."""
    name = f[0]
    if name == "eps":
        return [(1.0, EPS, EPS)]
    if name == "nu":
        return [(1.0, NU, EPS), (1.0, EPS, NU), (-p.ialpha_over_gamma, EPS, EPS)]
    if name == "beta":
        ph = complex(np.exp(-1j * p.alpha / 2.0))
        return [(ph, BETA, qnu(0.5)), (1j * ph, qnu(-0.5), BETA)]
    if name == "qnu":
        return [(complex(np.exp(-1j * f[1] * p.alpha)), f, f)]
    raise ParameterError(f"no dual coproduct rule for {f!r}")


def dual_hopf_check(p: DeformParams, deg: int) -> IdentityReport:
    """Both dual tables against the primal structure, on every row that the
    straightening reads (eps, nu, beta, q**(+-nu/2)) and the tie keys up to
    deg: (T Delta0(f), x (x) y) = (f, y x) and ((S0)^{-1}(f), x) = (f, S^{-1}(x)).
    """
    functionals = (EPS, NU, BETA, qnu(0.5), qnu(-0.5))
    keys = [(l, n, 2 * l) for l in range(deg + 1) for n in range(deg + 1)]
    sxs = {x: antipode_sym_inv({x: 1.0}, p) for x in keys}
    yxs = {(x, y): multiply({y: 1.0}, {x: 1.0}, p) for x in keys for y in keys}
    # each functional's value on each key met, computed once
    met = set(keys).union(*sxs.values(), *yxs.values())
    val = {f: {key: eval_atomic(f, key, p) for key in met} for f in functionals}
    ev = lambda f, z: sum((c * val[f][key] for key, c in z.items()), start=0j)
    rows = []  # (the table's value, the primal one) per functional and row key
    for f in functionals:
        s0_inv, coproduct = _s0_inv_atomic(f, p), _dual_coproduct(f, p)
        for x in keys:
            rows.append((sum(c * val[g][x] for c, g in s0_inv), ev(f, sxs[x])))
            rows += [(sum(c * val[g1][x] * val[g2][y] for c, g1, g2 in coproduct),
                      ev(f, yxs[x, y])) for y in keys]
    return compare("dual_hopf", {"deg": deg, "q": str(p.q)}, [deg + 1, deg + 1], deg,
                   [np.array(rows, dtype=complex).T])


# ---------------------------------------------------------------------------
# quantum-double straightening


def _coproduct3(x: dict, p: DeformParams) -> dict:
    """(Delta (x) id) Delta(x) as a dict of key triples."""
    out: dict = {}
    for (key1, key2), c in coproduct_sym(x, p).items():
        for (key1a, key1b), c1 in _coproduct_key(key1, p).items():
            key = (key1a, key1b, key2)
            out[key] = out.get(key, 0.0) + c * c1
    return out


def straighten_cross(fname: str, xname: str, p: DeformParams) -> dict:
    """Normal-order the cross product (dual generator) * (algebra generator).

    Returns a dict keyed by (primal basis key, atomic dual functional)
    mapping to coefficients, representing sum_i x_i * f_i in the double:
    each dual part is a single atomic leg.  For the pair (beta, A) the
    legs q**(+-nu/2) leave the polynomial dual basis and are returned as
    those functionals.
    """
    if fname not in ("nu", "beta"):
        raise ParameterError("straightening is defined for the generators nu, beta")
    # Np = E[0, 1, 0] and A = q**(N/2) adag = E[1, 0, 1]
    x = {"nprime": {(0, 1, 0): 1.0}, "araise": {(1, 0, 2): 1.0}}[xname]
    legs3 = _coproduct3(x, p)
    # (T Delta0 (x) id) T Delta0: the table applied again to the first leg
    duals3 = [(c * c1, f1a, f1b, f2) for c, f1, f2 in _dual_coproduct((fname,), p)
              for c1, f1a, f1b in _dual_coproduct(f1, p)]
    out: dict = {}
    for (x1, x2, x3), cx in legs3.items():
        for cf, f1, f2, f3 in duals3:
            v3 = eval_atomic(f3, x3, p)
            if v3 == 0:
                continue
            v1 = sum(ci * eval_atomic(fi, x1, p) for ci, fi in _s0_inv_atomic(f1, p))
            if v1 == 0:
                continue
            key = (x2, f2)
            out[key] = out.get(key, 0.0) + cx * cf * v1 * v3
    return {key: c for key, c in out.items() if abs(c) > 0.0}


def cross_terms_difference(lhs: dict, rhs: dict, p: DeformParams,
                           grid: int) -> tuple[np.ndarray, np.ndarray]:
    """Two x*f term dicts as elements of the double, side by side: terms are
    grouped by primal key, and each group's dual part is evaluated on all tie
    basis elements up to the grid degree.  Returns both sides' values, one
    row per primal key of either side, for report.compare."""
    row = {xk: n for n, xk in enumerate(dict.fromkeys(xk for xk, _ in (*lhs, *rhs)))}
    functionals = list(dict.fromkeys(f for _, f in (*lhs, *rhs)))
    keys = [(l, n, 2 * l) for l in range(grid + 1) for n in range(grid + 1)]
    table = {f: np.array([eval_atomic(f, k, p) for k in keys], complex) for f in functionals}
    sides = np.zeros((2, len(row), len(keys)), dtype=complex)
    for side, terms in zip(sides, (lhs, rhs)):
        for (xk, f), c in terms.items():
            side[row[xk]] += c * table[f]
    return sides[0], sides[1]


def cross_straighten_check(p: DeformParams) -> IdentityReport:
    """Three cross relations of the double, straightened and compared with
    their closed forms on the tie basis up to degree 2:
    nu * A = A nu + A, nu * Np = Np nu, beta * Np = Np beta + beta."""
    akey, nkey, unit, grid = (1, 0, 2), (0, 1, 0), (0, 0, 0), 2
    return compare("cross_straighten", {"q": str(p.q)}, [grid + 1, grid + 1], grid, (
        cross_terms_difference(straighten_cross(fname, xname, p), expected, p, grid)
        for fname, xname, expected in (
            ("nu", "araise", {(akey, NU): 1.0, (akey, EPS): 1.0}),
            ("nu", "nprime", {(nkey, NU): 1.0}),
            ("beta", "nprime", {(nkey, BETA): 1.0, (unit, BETA): 1.0}))))


# ---------------------------------------------------------------------------
# representation bridge


def quotient_cross_check(rep: FockRep) -> IdentityReport:
    """Cross relations of the double under nu -> N, beta -> a: the relation
    table's R0 ([nu, beta] = -beta), R1 ([nu, adag] = adag) and Ry (the mixed
    bracket, the symmetrized defining relation), so this requires the
    Hopf-compatible shift c = 1/2.  [N, nu] = 0 holds by definition."""
    if rep.c != 0.5:
        raise ParameterError("quotient identification requires c = 1/2")
    p, D = rep.params, rep.dim
    win = Window(D - 2, guard=1)
    return compare("quotient_cross", {"q": str(p.q), "c": str(rep.c)}, [D], win.max_index,
                   (win.cut(*relation_sides(rel, rep.letters(), p)) for rel in ("R0", "R1", "Ry")))
