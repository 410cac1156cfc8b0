"""Coproduct, counit and antipode as concrete operators on tensor products.

The coproduct is defined once, on the generators, as an explicit sum of
tensor products of generator words (sweedler_letter).  That rule is read in
two layouts.  A two-leg operator of pair-number degree deg maps the pair
sector n1 + n2 = s to s + deg, so it is held as a stack of pair-sector
blocks (_pair_sectors): _coproduct_blocks gathers one letter's stack from
its Sweedler terms, _word_blocks multiplies a word's letter stacks, and
every two-leg check reads Delta only through them.  check_hopf_axioms acts
with both Delta_2 iterations letter by letter on the window columns, a
letter's three-leg image held as one weight per leg displacement, the
counit and antipode sides being recursions over D x D letter images.
check_coproduct_relations reads fockrep's relation table on two legs:
whether Delta is an algebra map of each presentation.  Each check
reports through report.compare: a stack's window is its entries under
_mask, an axiom side's is its window block.

The general structure family is parameterized by a half-integer m, an
integer K and a sign choice; the canonical structure is the point
(m = 1/2, K = -2*kappa - 1, lower).  The phase multiplying the raising
coproduct is exp(-i*pi*(2K+1)*(m +- 1)/2): with the opposite sign the
counit axiom fails and the canonical point does not reproduce the
canonical coproducts, so that sign is fixed by consistency.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cache
from itertools import product

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .fockrep import RELATIONS, FockRep, Window, shared_params
from .qscalars import MAX_EXACT_INT, DeformParams, ParameterError, q_power
from .report import IdentityReport, compare

# a word letter is "N" | "a" | "adag" | ("qpow", s) with s the exponent in q^{sN}


def qpow(s: float) -> tuple[str, float]:
    """Word letter for q**(s*N)."""
    return ("qpow", float(s))


@dataclass(frozen=True)
class GenWord:
    """Ordered product of generator letters."""

    letters: tuple = ()

    def __post_init__(self):
        for ltr in self.letters:
            ok = ltr in ("N", "a", "adag") or (
                isinstance(ltr, tuple) and len(ltr) == 2 and ltr[0] == "qpow")
            if not ok:
                raise ParameterError(f"unknown word letter {ltr!r}")

    def __mul__(self, other: "GenWord") -> "GenWord":
        return GenWord(self.letters + other.letters)

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
        if not math.isfinite(self.m):
            raise ParameterError("m must be finite")
        if abs(self.K) > MAX_EXACT_INT:
            raise ParameterError("|K| must be at most 2**53, where integers are exact as floats")
        if abs(2 * self.m - round(2 * self.m)) > 1e-12:
            raise ParameterError("m must be an integer or half-integer")
        object.__setattr__(self, "beta_const",
                           1j * math.pi * (2 * self.K + 1) / (2 * self.params.gamma))

    @classmethod
    def canonical(cls, p: DeformParams) -> "HopfFamily":
        return cls(m=0.5, K=-2 * p.kappa - 1, sign="lower", params=p)

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


def _letter_product(letters, dim: int, image) -> np.ndarray:
    """The product of image(letter) over letters, in order: the matrix of a
    word under a (anti)homomorphism given on its letters."""
    images = [image(ltr) for ltr in letters]  # none is built beside a partial product
    if not images:
        return np.eye(dim, dtype=complex)
    out = images[0]
    for img in images[1:]:
        out = out @ img
    return out


def rep_word(w: GenWord, rep: FockRep, p: DeformParams | None = None) -> np.ndarray:
    """Matrix of a word; q-powers use p (defaults to the rep's parameters)."""
    p, mats = p or rep.params, rep.letters()
    qdiag = lambda s: np.diag(q_power(s * rep.n_diag(), p))
    return _letter_product(w.letters, rep.dim,
                           lambda ltr: mats[ltr] if isinstance(ltr, str) else qdiag(ltr[1]))


# ---------------------------------------------------------------------------
# two-leg operators as pair-sector block stacks: an operator of pair-number
# degree deg is held as a stack, block s mapping sector s to s + deg in the
# slots of _pair_sectors


_DEG = {"a": -1, "adag": 1}  # number displacement of a ladder letter
_unit = lambda ir, jr, ic, jc: (ir == ic) & (jr == jc)  # the identity's entries, for _pair_op


@cache
def _pair_sectors(D1: int, D2: int):
    """The pair sectors n1 + n2 = s of a D1 x D2 tensor, padded to one size:
    (i, j, valid, slot), slot a of sector s holding the state (i[s, a],
    j[s, a]) in order of i, state (n1, n2) in slot[n1, n2] of its sector,
    padding slots clipped into range with valid False."""
    s = np.arange(D1 + D2 - 1)[:, None]
    i = np.maximum(0, s - D2 + 1) + np.arange(min(D1, D2))
    valid = i <= np.minimum(s, D1 - 1)
    i = np.minimum(i, D1 - 1)
    n1, n2 = np.indices((D1, D2))
    return i, np.clip(s - i, 0, D2 - 1), valid, n1 - np.maximum(0, n1 + n2 - D2 + 1)


def _shift(blocks: np.ndarray, deg: int) -> np.ndarray:
    """blocks[s + deg] for every sector s, zero where s + deg is no sector."""
    pad = np.zeros((abs(deg), *blocks.shape[1:]), dtype=blocks.dtype)
    return np.concatenate((blocks[deg:], pad) if deg >= 0 else (pad, blocks[:deg]))


def _mask(dims: tuple[int, int], deg: int = 0, W: int | None = None) -> np.ndarray:
    """The entries of a degree-deg stack that join two states (two window
    states n1, n2 <= W when W is given)."""
    i, j, valid, _ = _pair_sectors(*dims)
    if W is not None:
        valid = valid & (i <= W) & (j <= W)
    return _shift(valid, deg)[:, :, None] & valid[:, None, :]


def _pair_op(dims: tuple[int, int], deg: int, entries) -> np.ndarray:
    """The block stack of a degree-deg operator whose entries at rows
    (ir, jr) and columns (ic, jc) are entries(ir, jr, ic, jc)."""
    i, j, _, _ = _pair_sectors(*dims)
    rows = np.clip(np.arange(len(i)) + deg, 0, len(i) - 1)  # the mask drops the rest
    return np.where(_mask(dims, deg), entries(i[rows][:, :, None], j[rows][:, :, None],
                                              i[:, None, :], j[:, None, :]), 0)


def _word_blocks(w: GenWord, dims: tuple[int, int], letter_blocks) -> np.ndarray:
    """w's block stack under a homomorphism given by letter_blocks(letter):
    the product of its letters' stacks, a stack A of degree dA applied after
    a stack B of degree dB being _shift(A, dB) @ B; the identity stack for
    the empty word."""
    if not w.letters:
        return _pair_op(dims, 0, _unit).astype(complex)
    out = letter_blocks(w.letters[0])
    for ltr in w.letters[1:]:
        out = _shift(out, _DEG.get(ltr, 0)) @ letter_blocks(ltr)
    return out


def _coproduct_blocks(letter, fam: HopfFamily, rep1: FockRep, rep2: FockRep,
                      opposite: bool = False) -> np.ndarray:
    """Delta(letter), or T.Delta(letter) with the tensor swap, as a block stack
    gathered from the letter's Sweedler terms c u (x) v, entries sum
    c u[i, i'] v[j, j'] (a word's stack is _word_blocks over these).  The
    family may carry other DeformParams than the representations (the 1/q
    coproduct of the Yan relation acts on the q representations)."""
    shared_params(rep1, rep2)
    if opposite and rep1.dim != rep2.dim:
        raise ParameterError("opposite coproduct needs equal factor dimensions")
    p = fam.params
    legs = [(c, rep_word(u, rep1, p), rep_word(v, rep2, p))
            for c, u, v in sweedler_letter(letter, fam)]
    legs = [(c, v, u) for c, u, v in legs] if opposite else legs
    return _pair_op((rep1.dim, rep2.dim), _DEG.get(letter, 0), lambda ir, jr, ic, jc:
                    sum(c * (u[ir, ic] * v[jr, jc]) for c, u, v in legs))


def check_coproduct_relations(fam: HopfFamily, rep: FockRep, names,
                              window: Window) -> list[IdentityReport]:
    """The relations RELATIONS[name] on rep (x) rep through Delta, on the window
    pair states: a left-side word is the product of its letters' Delta stacks,
    each built once per call, and the right side is the relation's function at
    Delta(N)'s eigenvalues n1 + n2 + beta_const (for R0 and R1, its letter's stack)."""
    dims, p, n, W = (rep.dim, rep.dim), fam.params, rep.n_diag(), window.max_index
    window.validate(*dims)
    blocks = cache(lambda ltr: _coproduct_blocks(ltr, fam, rep, rep))
    diagonal = lambda f: _pair_op(dims, 0, lambda ir, jr, ic, jc: _unit(ir, jr, ic, jc)
                                  * f(n[ir] + n[jr] + fam.beta_const, p))
    tag = {"q": str(p.q), "c": str(rep.c), "m": fam.m, "K": fam.K, "sign": fam.sign}
    reports = []
    for name in names:
        rel, terms = RELATIONS[name], RELATIONS[name].terms(p)
        lhs = sum(c * _word_blocks(word(*letters), dims, blocks) for c, letters in terms)
        rhs = blocks(rel.rhs) if isinstance(rel.rhs, str) else diagonal(rel.rhs)
        cut = _mask(dims, sum(_DEG.get(ltr, 0) for ltr in terms[0][1]), W)
        reports.append(compare(f"coproduct_relation_{name}", tag, list(dims), W,
                               [(lhs[cut], rhs[cut])]))
    return reports


# ---------------------------------------------------------------------------
# counit / antipode on letters and words


def counit(w: GenWord, fam: HopfFamily) -> complex:
    """Multiplicative extension of the generator counits."""
    out = 1.0 + 0.0j
    for ltr in w.letters:
        if ltr in ("a", "adag"):
            return 0.0 + 0.0j
        if ltr == "N":
            out *= fam.counit_N()
        else:
            out *= complex(np.exp(ltr[1] * fam.counit_N() * fam.params.gamma))
    return out


def counit_leg(letter, fam: HopfFamily, leg, left: bool) -> np.ndarray:
    """(eps (x) id) Delta(letter), sum c eps(u) leg(v) over its Sweedler terms
    (c, u, v), with leg the operator of a word; (id (x) eps) Delta(letter),
    sum c leg(u) eps(v), when left is False."""
    return sum(c * (counit(u, fam) * leg(v) if left else leg(u) * counit(v, fam))
               for c, u, v in sweedler_letter(letter, fam))


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
    return _letter_product(reversed(w.letters), rep.dim,
                           lambda ltr: antipode_letter(ltr, rep, fam))


def qbar_family(fam: HopfFamily) -> HopfFamily:
    """The same family (m, K, sign) at 1/q; see DeformParams.inverted."""
    return replace(fam, params=fam.params.inverted())


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


# ---------------------------------------------------------------------------
# Hopf axiom suite


def default_axiom_words(max_len: int = 3) -> list[GenWord]:
    return [word(*combo) for n in range(1, max_len + 1)
            for combo in product(("N", "a", "adag"), repeat=n)]


def _delta2_on_columns(w: GenWord, images, W: int, pad: int) -> tuple[np.ndarray, int]:
    """Both Delta_2(w) on the window columns, letters applied right to left: entry
    [side, e1, e2, e3, c1, c2, c3] is row c + e, column c, e counted from lo."""
    X, lo, hi = np.ones((2, 1, 1, 1) + (W + 1,) * 3, dtype=complex), 0, 0
    for ltr in reversed(w.letters):
        deg, n = _DEG.get(ltr, 0), hi - lo + 1
        out = np.zeros((2,) + (n + abs(deg),) * 3 + (W + 1,) * 3, dtype=complex)
        src = (slice(None),) + (slice(lo + pad, hi + pad + 1),) * 3 + (slice(0, W + 1),) * 3
        for d, view in images(ltr):
            o0, o1, o2 = (di - min(deg, 0) for di in d)
            out[:, o0:o0 + n, o1:o1 + n, o2:o2 + n] += view[src] * X
        X, lo, hi = out, lo + min(deg, 0), hi + max(deg, 0)
    return X, lo


def check_hopf_axioms(fam: HopfFamily, rep: FockRep,
                      sample: list[GenWord] | None = None) -> list[IdentityReport]:
    """Residuals of the coassociativity, counit and antipode axioms, every side
    built letter by letter from letter images made once per call: Delta_2 on the
    window columns (_delta2_on_columns), the counit sides as products of the
    images (eps (x) id)Delta(l) and (id (x) eps)Delta(l), the antipode sides by
    A(x l) = sum S(l_(1)) A(x) l_(2) and B(l y) = sum l_(1) B(y) S(l_(2)), all
    memoized; residuals on the window, normalized by max(1, ||rhs||_F) there."""
    sample = default_axiom_words() if sample is None else sample
    D, reports, eye = rep.dim, [], np.eye(rep.dim, dtype=complex)
    fam_tag = {"m": fam.m, "K": fam.K, "sign": fam.sign, "q": str(fam.params.q)}
    pad = max((len(w.letters) for w in sample), default=0)
    leg = cache(lambda u: rep_word(u, rep, fam.params))
    s_leg = cache(lambda u: antipode_op(u, rep, fam))
    terms = cache(lambda ltr: sweedler_letter(ltr, fam))
    counit_image = cache(lambda ltr, left: counit_leg(ltr, fam, leg, left))
    eps_side = cache(lambda x, left: eye if not x else eps_side(x[:-1], left)
                     @ counit_image(x[-1], left))
    s_id = cache(lambda x: eye if not x else sum(
        c * s_leg(u) @ s_id(x[:-1]) @ leg(v) for c, u, v in terms(x[-1])))
    id_s = cache(lambda y: eye if not y else sum(
        c * leg(u) @ id_s(y[1:]) @ s_leg(v) for c, u, v in terms(y[0])))
    leg_diag = cache(lambda u, d: np.pad(  # leg(u)[j + d, j] at [pad + j], u of displacement d
        np.diagonal(leg(u), -d), (pad + max(0, -d), pad + max(0, d))))

    @cache
    def images(ltr) -> list[tuple[tuple, np.ndarray]]:
        """(d, view) per leg displacement d of Delta_2(ltr), both iterations stacked:
        view[side, e + pad, c] is the weight at state c + e, terms of one d summed."""
        summed: dict = {}
        for side in (0, 1):  # Delta applied again to the first leg (left) or the last
            for c, u, v in terms(ltr):
                again = (u, v)[side]  # a one-letter word or the unit, Delta(1) = 1 (x) 1
                for c2, x, y in terms(again.letters[0]) if again.letters else [(1.0, again, again)]:
                    legs = (x, y, v) if side == 0 else (u, x, y)
                    d = tuple(_DEG.get(l.letters[0], 0) if l.letters else 0 for l in legs)
                    f0, f1, f2 = map(leg_diag, legs, d)
                    wt = summed.setdefault(d, np.zeros((2,) + f0.shape * 3, dtype=complex))
                    wt[side] += c * c2 * np.multiply.outer(np.multiply.outer(f0, f1), f2)
        return [(d, sliding_window_view(wt, (D,) * 3, axis=(1, 2, 3))) for d, wt in summed.items()]

    for w in sample:
        guard = max(1, len(w.letters))
        win = Window(max(0, D - 1 - guard), guard=guard)
        W, cut = win.max_index, (slice(0, win.max_index + 1),) * 2
        win.validate(D, D, D)
        both, lo = _delta2_on_columns(w, images, W, pad)
        rows = lo + np.arange(both.shape[1])[:, None] + np.arange(W + 1)
        ok = (rows >= 0) & (rows <= W)  # [e, c]: the leg's row c + e is in the window
        both = both[:, np.einsum("ax,by,cz->abcxyz", ok, ok, ok)]
        x, eps = w.letters, counit(w, fam) * eye[cut]
        for tag, dims, lhs, rhs in (("coassoc", [D, D, D], both[0], both[1]),
                                    ("counit_left", [D], eps_side(x, True)[cut], leg(w)[cut]),
                                    ("counit_right", [D], eps_side(x, False)[cut], leg(w)[cut]),
                                    ("antipode_left", [D], s_id(x)[cut], eps),
                                    ("antipode_right", [D], id_s(x)[cut], eps)):
            reports.append(compare(f"hopf_{tag}_{w.name}", fam_tag, dims, W, [(lhs, rhs)]))
    return reports
