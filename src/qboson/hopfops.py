"""Coproduct, counit and antipode as concrete operators on tensor products.

The coproduct is defined once, on the generators, as an explicit sum of
tensor products of generator words (the Sweedler summands of
sweedler_letter); its matrix multiplies the matrixized images of a
word's letters (Delta is an algebra homomorphism).  The multiplication
map in the antipode axiom and the leg-wise counit contractions act on
the Sweedler expansion itself.  The axiom suite forms no tensor-product
operator: coassociativity is compared on the window entries of the
word's total-number degree only, from D x D leg-word matrices.

The general structure family is parameterized by a half-integer m, an
integer K and a sign choice; the canonical structure is the point
(m = 1/2, K = -2*kappa - 1, lower).  The phase multiplying the raising
coproduct is exp(-i*pi*(2K+1)*(m +- 1)/2): with the opposite sign the
counit axiom fails and the canonical point does not reproduce the
canonical coproducts, so that sign is fixed by consistency.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache, reduce
from itertools import product

import numpy as np

from .fockrep import FockRep, Window, frobenius, residual
from .qscalars import DeformParams, ParameterError, q_power
from .report import IdentityReport, make_report

# a word letter is "N" | "a" | "adag" | ("qpow", s) with s the exponent in q^{sN}


def qpow(s: float) -> tuple[str, float]:
    """Word letter for q**(s*N)."""
    return ("qpow", float(s))


@dataclass(frozen=True)
class GenWord:
    """Ordered product of generator letters with a scalar prefactor."""

    letters: tuple = ()
    prefactor: complex = 1.0 + 0.0j

    def __post_init__(self):
        for ltr in self.letters:
            ok = ltr in ("N", "a", "adag") or (
                isinstance(ltr, tuple) and len(ltr) == 2 and ltr[0] == "qpow")
            if not ok:
                raise ParameterError(f"unknown word letter {ltr!r}")

    def __mul__(self, other: "GenWord") -> "GenWord":
        return GenWord(self.letters + other.letters, self.prefactor * other.prefactor)

    @property
    def name(self) -> str:
        return ".".join(l if isinstance(l, str) else f"q^{l[1]}N" for l in self.letters) or "1"


def word(*letters) -> GenWord:
    return GenWord(tuple(letters))


@dataclass(frozen=True)
class HopfFamily:
    """One member of the coproduct family, with its deformation parameters.

    beta_const = i*pi*(2K+1)/(2*gamma) is the constant entering
    Delta(N) = N(x)I + I(x)N + beta_const; at the canonical point it
    equals -i*alpha/gamma.
    """

    m: float
    K: int
    sign: str
    params: DeformParams
    beta_const: complex = field(init=False)

    def __post_init__(self):
        if self.sign not in ("upper", "lower"):
            raise ParameterError("sign must be 'upper' or 'lower'")
        if abs(2 * self.m - round(2 * self.m)) > 1e-12:
            raise ParameterError("m must be an integer or half-integer")
        object.__setattr__(self, "beta_const",
                           1j * math.pi * (2 * self.K + 1) / (2 * self.params.gamma))

    @classmethod
    def canonical(cls, p: DeformParams) -> "HopfFamily":
        return cls(m=0.5, K=-2 * p.kappa - 1, sign="lower", params=p)

    def is_canonical(self) -> bool:
        return (self.m == 0.5 and self.K == -2 * self.params.kappa - 1
                and self.sign == "lower")

    # sign-resolved constants -------------------------------------------------
    @property
    def pm(self) -> float:
        return 1.0 if self.sign == "upper" else -1.0

    @property
    def r(self) -> float:
        """The exponent m +- 1."""
        return self.m + self.pm

    @property
    def sg(self) -> complex:
        """+-(-1)^K, the sign on the second coproduct summand."""
        return self.pm * (-1.0) ** self.K

    @property
    def phase_lower_gen(self) -> complex:
        """Phase of the coproduct of the lowering generator."""
        return complex(np.exp(1j * math.pi * (2 * self.K + 1) * self.m / 2))

    @property
    def phase_raise_gen(self) -> complex:
        """Phase of the coproduct of the raising generator (consistency-fixed sign)."""
        return complex(np.exp(-1j * math.pi * (2 * self.K + 1) * self.r / 2))

    def counit_N(self) -> complex:
        return -self.beta_const

    def antipode_N_shift(self) -> complex:
        """S(N) = -N + shift, with shift = -2*beta_const."""
        return -2.0 * self.beta_const


# ---------------------------------------------------------------------------
# representation of abstract words


def _letter_product(prefactor: complex, letters, dim: int, image) -> np.ndarray:
    """prefactor times the product of image(letter) over letters, in order:
    the matrix of a word under a (anti)homomorphism given on its letters."""
    images = [image(ltr) for ltr in letters]  # none is built beside a partial product
    if not images:
        return np.eye(dim, dtype=complex) * prefactor
    out = images[0] * complex(prefactor)
    for img in images[1:]:
        out = out @ img
    return out


def rep_word(w: GenWord, rep: FockRep, p: DeformParams | None = None) -> np.ndarray:
    """Matrix of a word; q-powers use p (defaults to the rep's parameters)."""
    p = p or rep.params
    mats = {"N": rep.matN, "a": rep.matA, "adag": rep.matAdag}
    qdiag = lambda s: np.diag(q_power(s * rep.n_diag(), p))
    return _letter_product(w.prefactor, w.letters, rep.dim,
                           lambda ltr: mats[ltr] if isinstance(ltr, str) else qdiag(ltr[1]))


# ---------------------------------------------------------------------------
# coproduct / counit / antipode on letters and words


def coproduct_op(w: GenWord, rep1: FockRep, rep2: FockRep, fam: HopfFamily) -> np.ndarray:
    """Delta(w) on the tensor square: the two-leg iterated coproduct."""
    if not rep1.params.q == rep2.params.q == fam.params.q:
        raise ParameterError("representations and family must share DeformParams")
    return iterated_coproduct(w, (rep1, rep2), fam)


def counit(w: GenWord, fam: HopfFamily) -> complex:
    """Multiplicative extension of the generator counits."""
    out = complex(w.prefactor)
    for ltr in w.letters:
        if ltr in ("a", "adag"):
            return 0.0 + 0.0j
        if ltr == "N":
            out *= fam.counit_N()
        else:
            out *= complex(np.exp(ltr[1] * fam.counit_N() * fam.params.gamma))
    return out


def antipode_letter(letter, rep: FockRep, fam: HopfFamily) -> np.ndarray:
    p = fam.params
    shift = fam.antipode_N_shift()
    sn_diag = -rep.n_diag() + shift  # diagonal of S(N)
    if letter == "N":
        return np.diag(sn_diag)
    if isinstance(letter, tuple):
        return np.diag(q_power(letter[1] * sn_diag, p))
    qd = lambda s: np.diag(q_power(s * rep.n_diag(), p))
    qds = lambda s: np.diag(q_power(s * sn_diag, p))
    if letter == "a":
        return fam.sg * 1j * qd(-fam.r) @ rep.matA @ qds(fam.m)
    return fam.sg * 1j * qd(fam.m) @ rep.matAdag @ qds(-fam.r)


def antipode_op(w: GenWord, rep: FockRep, fam: HopfFamily) -> np.ndarray:
    """Antihomomorphism: letters mapped by S, product order reversed."""
    return _letter_product(w.prefactor, reversed(w.letters), rep.dim,
                           lambda ltr: antipode_letter(ltr, rep, fam))


def qbar_family(fam: HopfFamily, kappa_override: int | None = None) -> HopfFamily:
    """The family with DeformParams rebuilt at 1/q; gamma negates, so the
    constant i*alpha/gamma flips sign.  The branch integer is held fixed
    unless overridden, which re-chooses the canonical branch (for a
    canonical family it enters through K = -2*kappa - 1)."""
    p = fam.params
    kappa = p.kappa if kappa_override is None else kappa_override
    pbar = DeformParams(q=1.0 / p.q, kappa=kappa, tol=p.tol)
    if fam.is_canonical():
        return HopfFamily.canonical(pbar)
    return HopfFamily(m=fam.m, K=fam.K, sign=fam.sign, params=pbar)


# ---------------------------------------------------------------------------
# symbolic Sweedler expansion


def sweedler_letter(letter, fam: HopfFamily) -> list[tuple[complex, GenWord, GenWord]]:
    """Delta(letter) as an explicit sum of two-leg tensor words."""
    if letter == "N":
        return [(1.0, word("N"), word()), (1.0, word(), word("N")),
                (fam.beta_const, word(), word())]
    if isinstance(letter, tuple):
        s = letter[1]
        scale = complex(np.exp(s * fam.beta_const * fam.params.gamma))
        return [(scale, word(qpow(s)), word(qpow(s)))]
    if letter == "a":
        ph = fam.phase_lower_gen
        return [(ph, word("a"), word(qpow(fam.m))),
                (ph * fam.sg * 1j, word(qpow(fam.r)), word("a"))]
    ph = fam.phase_raise_gen
    return [(ph, word("adag"), word(qpow(-fam.r))),
            (ph * fam.sg * 1j, word(qpow(-fam.m)), word("adag"))]


def sweedler_expand(w: GenWord, fam: HopfFamily) -> list[tuple[complex, GenWord, GenWord]]:
    """Delta(w) as a sum of tensor products of generator words."""
    terms = [(complex(w.prefactor), word(), word())]
    for ltr in w.letters:
        expansion = sweedler_letter(ltr, fam)
        terms = [(c0 * c1, u0 * u1, v0 * v1)
                 for (c0, u0, v0) in terms for (c1, u1, v1) in expansion]
    return terms


def sweedler_expand_n(w: GenWord, fam: HopfFamily, nlegs: int,
                      iterate: str = "left") -> list[tuple[complex, tuple[GenWord, ...]]]:
    """n-leg expansion; 'left' iterates Delta on the first leg as in
    Delta_n = (Delta (x) id^(n-1)) Delta_(n-1), 'right' on the last leg."""
    if nlegs < 1:
        raise ParameterError("need at least one leg")
    terms: list[tuple[complex, tuple[GenWord, ...]]] = [(complex(1.0), (w,))]
    while len(terms[0][1]) < nlegs:
        new_terms = []
        for coeff, legs in terms:
            pos = 0 if iterate == "left" else len(legs) - 1
            for c, u, v in sweedler_expand(legs[pos], fam):
                new_legs = legs[:pos] + (u, v) + legs[pos + 1:]
                new_terms.append((coeff * c, new_legs))
        terms = new_terms
    return terms


def matrixize(terms, reps: tuple[FockRep, ...], fam: HopfFamily) -> np.ndarray:
    total = int(np.prod([r.dim for r in reps]))
    out = np.zeros((total, total), dtype=complex)
    for coeff, legs in terms:
        out += coeff * reduce(np.kron, (rep_word(u, r, fam.params) for u, r in zip(legs, reps)))
    return out


def multileg_coproduct_letter(letter, reps: tuple[FockRep, ...], fam: HopfFamily,
                              iterate: str = "left") -> np.ndarray:
    """Image of one generator under the iterated coproduct, matrixized."""
    return matrixize(sweedler_expand_n(word(letter), fam, len(reps), iterate),
                     reps, fam)


def iterated_coproduct(w: GenWord, reps: tuple[FockRep, ...], fam: HopfFamily,
                       dim_cap: int = 1 << 16, iterate: str = "left") -> np.ndarray:
    """Iterated coproduct Delta_n on n+1 representation factors; Delta_n is an
    algebra homomorphism, so only single letters need the Sweedler expansion."""
    total = int(np.prod([r.dim for r in reps]))
    if total > dim_cap:
        raise ParameterError(f"tensor dimension {total} exceeds cap {dim_cap}")
    if len(reps) == 1:
        return rep_word(w, reps[0], fam.params)
    return _letter_product(w.prefactor, w.letters, total, cache(
        lambda ltr: multileg_coproduct_letter(ltr, reps, fam, iterate)))


# ---------------------------------------------------------------------------
# Hopf axiom suite


def default_axiom_words(max_len: int = 3) -> list[GenWord]:
    return [word(*combo) for n in range(1, max_len + 1)
            for combo in product(("N", "a", "adag"), repeat=n)]


def check_hopf_axioms(fam: HopfFamily, rep: FockRep,
                      sample: list[GenWord] | None = None,
                      window: Window | None = None,
                      tol: float | None = None) -> list[IdentityReport]:
    """Residuals of the coassociativity, counit and antipode axioms.

    The multiplication map in the antipode axiom maps the (finite)
    Sweedler summands X (x) Y to X*Y.  Delta_2(w) moves the total
    n1 + n2 + n3 by deg(w), so coassociativity compares only the window
    entries (r, c) with total(r) = total(c) + deg(w), each the Sweedler
    sum coeff * U[i1, j1] * V[i2, j2] * X[i3, j3] of D x D leg-word
    matrices; every other entry is an exact zero on both sides.
    """
    if sample is None:
        sample = default_axiom_words()
    tol = tol if tol is not None else fam.params.tol
    D = rep.dim
    reports = []
    fam_tag = {"m": fam.m, "K": fam.K, "sign": fam.sign, "q": str(fam.params.q)}
    # leg-word matrices and their antipode images, shared by every axiom and word
    leg = cache(lambda u: rep_word(u, rep, fam.params))
    s_leg = cache(lambda u: antipode_op(u, rep, fam))
    states = np.indices((D, D, D)).reshape(3, -1)

    for w in sample:
        guard = max(1, len(w.letters))
        win = window or Window(max(0, D - 1 - guard), guard=guard)
        wname = w.name
        win.validate(D, D, D)
        inside = states[:, (states <= win.max_index).all(axis=0)]
        total = inside.sum(axis=0)
        degree = w.letters.count("adag") - w.letters.count("a")
        ir, ic = np.nonzero(total[:, None] == total + degree)
        rows, cols = inside[:, ir], inside[:, ic]
        entries = cache(lambda u, f: leg(u)[rows[f], cols[f]])

        def delta2(side: str) -> np.ndarray:
            out = np.zeros(len(ir), dtype=complex)
            for coeff, legs in sweedler_expand_n(w, fam, 3, side):
                out += coeff * entries(legs[0], 0) * entries(legs[1], 1) * entries(legs[2], 2)
            return out

        lhs, rhs = delta2("left"), delta2("right")
        raw = frobenius(lhs - rhs)
        reports.append(make_report(f"hopf_coassoc_{wname}", fam_tag, [D, D, D],
                                   win.max_index, raw, raw / max(1.0, frobenius(rhs)),
                                   tol))

        target = leg(w)
        expansion = sweedler_expand(w, fam)
        eps_id = sum(c * counit(u, fam) * leg(v) for c, u, v in expansion)
        id_eps = sum(c * leg(u) * counit(v, fam) for c, u, v in expansion)
        for tag, got in (("counit_left", eps_id), ("counit_right", id_eps)):
            raw, nrm = residual(got, target, (D,), win)
            reports.append(make_report(f"hopf_{tag}_{wname}", fam_tag, [D],
                                       win.max_index, raw, nrm, tol))

        eps_scalar = counit(w, fam) * np.eye(D, dtype=complex)
        s_id = sum(c * s_leg(u) @ leg(v) for c, u, v in expansion)
        id_s = sum(c * leg(u) @ s_leg(v) for c, u, v in expansion)
        for tag, got in (("antipode_left", s_id), ("antipode_right", id_s)):
            raw, nrm = residual(got, eps_scalar, (D,), win)
            reports.append(make_report(f"hopf_{tag}_{wname}", fam_tag, [D],
                                       win.max_index, raw, nrm, tol))
    return reports
