"""R-matrix candidates on tensor products of truncated representations.

Three candidates share one series shape

    R = q**(quadratic form in N (x) N) * sum_k c_k u_k (x) v_k,

the q-power being R's diagonal factor, with u_k a dressed raising word and
v_k a dressed lowering word:

* quantum double:  c_k = i^k q^{-k(k+1)/4} / prod_j [j/2],
  u_k = q^{kN/2} adag^k, v_k = q^{-kN/2} a^k, diagonal-factor exponent
  (N - i alpha/gamma)(x)(N - i alpha/gamma);
* the previously published candidate: same but with the extra factor
  (1 + q^{-1})^k, an undressed raising word, and -N(x)N/2 added to the
  diagonal-factor exponent;
* the general family, parameterized like the coproduct family.

_series holds each candidate's series data.  family_for maps a candidate
to the coproduct family it is checked against; the checks take only the
candidate, and the general family's series reads that family's constants.
A term u_k (x) v_k has leg degrees (+k, -k), so an entry of a series sum
takes its value from the one k read off its indices (k = i - i' = j' - j
for R at row (i, j), column (i', j')): _series_sum gathers it from the
legs' stacked ladder powers.  The lowering power annihilates the
truncated second factor beyond k = D2 - 1, so the series termination is
exact.

R conserves n1 + n2; it is held as pair-sector blocks, once per (spec,
rep pair) until clear_caches(), in the one two-leg layout of hopfops,
whose _coproduct_blocks gives Delta's letter stacks.  Delta(a) maps pair
sector s to s - 1, Delta(adag) to s + 1 and Delta(N) keeps it, so the
pairwise residuals are small (s + deg, s) block products.  The triple products are
block-diagonal in n1 + n2 + n3; in each triple sector, R12, R13 and R23 are
one dense block each, gathered from R's pair-sector stack: Yang-Baxter and
fusion multiply those blocks (_r_chains), and fusion's Delta ladders are
pair-sector stacks (_ladder).
Verdicts hold on a leak-free window; the triple products raise the
middle factor by up to the window size, so there 2W <= D - 1 rather
than the pairwise W + 1 <= D - 1.  Every report goes through
report.compare (finite where R's entries reach 1e250 or 1e-200 near
q = 1), pairwise on the entries under hopfops._mask, triple on every
window-block entry; all but the counit and antipode checks divide by their
right side's norm alone (floor 1e-300), since R's absolute scale is moot.
"""

from __future__ import annotations

import functools
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .fockrep import FockRep, Window, shared_params
from .hopfops import (_DEG, HopfFamily, _coproduct_blocks, _mask, _pair_op, _pair_sectors,
                      _shift, _word_blocks, antipode_op, qbar_family, word)
from .qscalars import DeformParams, ParameterError, half_index_product, q_power
from .report import IdentityReport, compare

KINDS = ("quantum_double", "yan_claimed", "general_family")


@dataclass(frozen=True)
class RSpec:
    """Which R-matrix to build; family fields apply only to general_family."""

    kind: str
    m: float | None = None
    K: int | None = None
    sign: str | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ParameterError(f"unknown R-matrix kind {self.kind!r}")
        has_fam = self.m is not None and self.K is not None and self.sign is not None
        if self.kind == "general_family" and not has_fam:
            raise ParameterError("general_family requires m, K and sign")
        if self.kind != "general_family" and (self.m is not None or self.K is not None
                                              or self.sign is not None):
            raise ParameterError("m, K, sign are only meaningful for general_family")

    def label(self) -> str:
        if self.kind == "general_family":
            return f"general_family(m={self.m},K={self.K},{self.sign})"
        return self.kind


def family_for(spec: RSpec, p: DeformParams) -> HopfFamily:
    """The coproduct family an R-matrix candidate is checked against."""
    if spec.kind == "general_family":
        return HopfFamily(m=spec.m, K=spec.K, sign=spec.sign, params=p)
    return HopfFamily.canonical(p)


@dataclass(frozen=True)
class RSeries:
    """One candidate's series data: c_k = coefficient(k), the words
    u_k = q^{k su N} adag^k and v_k = q^{k sv N} a^k, and the diagonal
    factor's exponent as an outer function of two N-eigenvalue arrays
    (polynomial in N legwise, so it also takes N's image under any leg map)."""

    coefficient: Callable[[int], complex]
    su: float
    sv: float
    exponent: Callable[[np.ndarray, np.ndarray], np.ndarray]


def _series(spec: RSpec, p: DeformParams) -> RSeries:
    """A candidate's series data: the one place its kind is read."""
    outer = np.multiply.outer
    iag = p.ialpha_over_gamma
    hip = lambda k: half_index_product(k, p)
    if spec.kind == "quantum_double":
        return RSeries(lambda k: (1j ** k) * q_power(-k * (k + 1) / 4.0, p) / hip(k),
                       0.5, -0.5, lambda X, Y: outer(X - iag, Y - iag))
    if spec.kind == "yan_claimed":
        return RSeries(lambda k: ((1j ** k) * (1.0 + 1.0 / p.q) ** k
                                  * q_power(-k * (k + 1) / 4.0, p) / hip(k)),
                       0.0, -0.5, lambda X, Y: outer(X - iag, Y - iag) - 0.5 * outer(X, Y))
    fam = family_for(spec, p)
    m, K, pm, beta = fam.m, fam.K, fam.pm, fam.beta_const
    return RSeries(lambda k: (((pm * 1j) ** k) * ((-1.0) ** (K * k))
                              * q_power(-m * k * k - pm * k * (k - 1) / 4.0, p) / hip(k)),
                   m, -m, lambda X, Y: -pm * outer(X + beta, Y + beta))


def _series_sum(series: RSeries, pref, raising: np.ndarray, lowering: np.ndarray,
                k, up, low) -> np.ndarray:
    """pref * c_k * raising[k][up] * lowering[k][low] at every entry, with k
    the entry's one series term and up, low its (sector of a block stack,
    row, column) indices into each leg's stack; zero where k is not 0..K-1."""
    K = len(raising)
    inside = (k >= 0) & (k < K)
    k = np.where(inside, k, 0)
    c = np.array([series.coefficient(n) for n in range(K)], dtype=complex)
    return np.where(inside, pref * (c[k] * (raising[(k, *up)] * lowering[(k, *low)])), 0)


def _dressed_powers(step: np.ndarray, s: float, ndiag: np.ndarray, kmax: int,
                    p: DeformParams, deg: int = 0) -> np.ndarray:
    """The stack of q^{k s N} step^k for k < kmax, one product per k, step a
    matrix or a block stack of degree deg (power k maps sector t to t + k deg);
    N's eigenvalues ndiag are laid out like step's rows: a row scale."""
    powers = np.empty((kmax, *step.shape), dtype=complex)
    power = np.broadcast_to(np.eye(step.shape[-1], dtype=complex), step.shape)
    for k in range(kmax):
        if k:
            power = _shift(power, deg) @ step
        powers[k] = q_power(k * s * _shift(ndiag, k * deg), p)[..., None] * power
    return powers


_HELD_R: dict = {}  # (spec, contents of both reps) -> R's block stack


def clear_caches() -> None:
    """Drop the held R-matrices (keyed by q among other things)."""
    _HELD_R.clear()


def _held_r(spec: RSpec, rep1: FockRep, rep2: FockRep) -> np.ndarray:
    """R's block stack, entries pref[i, j] c_k U[k, i, i'] V[k, j, j'] at
    k = i - i', built once per (spec, rep pair) until clear_caches()."""
    key = (spec, *((r.params, r.matN.tobytes(), r.matA.tobytes(), r.matAdag.tobytes())
                   for r in (rep1, rep2)))
    if (held := _HELD_R.get(key)) is None:
        p, N1, N2, D2 = shared_params(rep1, rep2), rep1.n_diag(), rep2.n_diag(), rep2.dim
        series = _series(spec, p)
        pref = q_power(series.exponent(N1, N2), p)
        U = _dressed_powers(rep1.matAdag, series.su, N1, D2, p)
        V = _dressed_powers(rep2.matA, series.sv, N2, D2, p)
        held = _HELD_R.setdefault(key, _pair_op((rep1.dim, D2), 0, lambda ir, jr, ic, jc:
                                                _series_sum(series, pref[ir, jr], U, V, ir - ic,
                                                            (ir, ic), (jr, jc))))
    return held


def build_r(spec: RSpec, rep1: FockRep, rep2: FockRep) -> np.ndarray:
    """The candidate on the tensor square (k runs 0..D2-1), as a dense
    matrix scattered from its held blocks, (n1, n2) at n1 * D2 + n2."""
    dims = rep1.dim, rep2.dim
    i, j, _, _ = _pair_sectors(*dims)
    rows, cols = np.broadcast_arrays((i * dims[1] + j)[:, :, None], (i * dims[1] + j)[:, None, :])
    mask, out = _mask(dims), np.zeros((dims[0] * dims[1],) * 2, dtype=complex)
    out[rows[mask], cols[mask]] = _held_r(spec, rep1, rep2)[mask]
    return out


def _echo(spec: RSpec, p: DeformParams, extra: dict | None = None) -> dict:
    unit = {"unit_modulus_q": True} if p.on_unit_circle else {}
    return {"rspec": spec.label(), "q": str(p.q), "kappa": p.kappa, **unit, **(extra or {})}


def _pair_setup(spec: RSpec, rep1: FockRep, rep2: FockRep, window: Window, gen: str = ""):
    """(the candidate's family, held R, Delta(gen) blocks or without gen the
    identity's), once the window is validated."""
    if gen not in ("", "N", "a", "adag"):
        raise ParameterError(f"generator must be N, a or adag, not {gen!r}")
    window.validate(rep1.dim, rep2.dim)
    R, fam = _held_r(spec, rep1, rep2), family_for(spec, rep1.params)
    return fam, R, (_coproduct_blocks(gen, fam, rep1, rep2) if gen
                    else _word_blocks(word(), (rep1.dim, rep2.dim), None))


def _twisted_report(name: str, spec: RSpec, fam: HopfFamily, gen: str, left: np.ndarray,
                    R: np.ndarray, right: np.ndarray, dims: tuple[int, int],
                    W: int) -> IdentityReport:
    """left R against R right, block stacks of gen's degree, on the window; over
    ||R right||_F, which scales with R, so a scalar rescaling of R cancels out."""
    deg = _DEG.get(gen, 0)
    win = _mask(dims, deg, W)
    return compare(f"{name}_{gen}", _echo(spec, fam.params, {"gen": gen}), list(dims), W,
                   [((left @ R)[win], (_shift(R, deg) @ right)[win])], floor=1e-300)


def check_intertwiner(spec: RSpec, rep1: FockRep, rep2: FockRep, gen: str,
                      window: Window) -> IdentityReport:
    """(T Delta(gen)) R = R Delta(gen) on the window, over ||R Delta(gen)||_F."""
    fam, R, dg = _pair_setup(spec, rep1, rep2, window, gen)
    tdg = _coproduct_blocks(gen, fam, rep1, rep2, opposite=True)
    return _twisted_report("intertwiner", spec, fam, gen, tdg, R, dg, (rep1.dim, rep2.dim),
                           window.max_index)


@functools.cache
def _triple_layout(dims: tuple[int, int, int], wmax: int) -> tuple:
    """The triple sectors n1 + n2 + n3 = s <= 3 wmax, independent of q.  R_ab
    raises n_a and lowers n_b by the same k, so along a product of R-legs n1
    only rises, n3 only falls and n2 rises by at most what n3 falls: between
    window states (every n_i <= wmax) it passes only through states with n1, n3
    <= wmax and n2 <= 2 wmax.  Orders those states by sector, window states
    first, and returns the row and column states of every window-block entry;
    per sector the number of states and of window states; and for R12, R13,
    R23 an index into R_ab's flattened block stack with a zero appended, at
    each entry of each sector's block in turn, the zero where the leg's
    untouched factor differs."""
    n = np.indices((wmax + 1, min(2 * wmax + 1, dims[1]), wmax + 1)).reshape(3, -1)
    n = n[:, n.sum(axis=0) <= 3 * wmax]
    n = n[:, np.lexsort(((n > wmax).any(axis=0), n.sum(axis=0)))]
    total, window = n.sum(axis=0), (n <= wmax).all(axis=0)
    size = np.bincount(total)
    m, first = size[total], np.repeat(np.cumsum(size) - size, size)  # of each state's sector
    u = np.repeat(np.arange(len(m)), m)  # u, v: every block entry's states, row-major
    v = np.arange(len(u)) + np.repeat(first - np.cumsum(m) + m, m)
    legs = []
    for a, b, f in ((0, 1, 2), (0, 2, 1), (1, 2, 0)):  # R_ab leaves leg f alone
        i, _, _, slot = _pair_sectors(dims[a], dims[b])
        P, at = i.shape[1], slot[n[a], n[b]]
        row = (n[a] + n[b]) * P + at  # each state's (pair sector, slot) in R_ab's stack
        legs.append(np.where(n[f][u] == n[f][v], row[u] * P + at[v], i.size * P))
    r, c = (x[window[u] & window[v]] for x in (u, v))
    return n[:, r], n[:, c], list(zip(size.tolist(), np.bincount(total[window]).tolist())), legs


def _r_chains(spec: RSpec, reps: tuple[FockRep, FockRep, FockRep], wmax: int, *chains):
    """Every window-block entry of products of R-legs: (row states, column
    states, per chain of legs 0, 1, 2 for R12, R13, R23 the entries of their
    product).  Per sector each leg is one dense block gathered from R's block
    stack, and a chain is plain products from its window rows to its window
    columns."""
    rows, cols, sizes, legs = _triple_layout(tuple(x.dim for x in reps), wmax)
    flat = [np.append(_held_r(spec, reps[a], reps[b]), 0)[index]
            for (a, b), index in zip(((0, 1), (0, 2), (1, 2)), legs)]
    out, start, end = np.empty((len(chains), rows.shape[1]), dtype=complex), 0, 0
    for m, w in sizes:
        blocks = [g[start:start + m * m].reshape(m, m) for g in flat]
        start, end = start + m * m, end + w * w
        for prod, (first, *middle, last) in zip(out, chains):
            z = blocks[last][:, :w]
            for leg in middle[::-1]:
                z = blocks[leg] @ z
            np.matmul(blocks[first][:w], z, out=prod[end - w * w:end].reshape(w, w))
    return rows, cols, out


def check_yang_baxter(spec: RSpec, rep1: FockRep, rep2: FockRep, rep3: FockRep) -> IdentityReport:
    """R12 R13 R23 = R23 R13 R12 on the windowed triple tensor, per sector."""
    p, dims = rep1.params, (rep1.dim, rep2.dim, rep3.dim)
    W = (min(dims) - 1) // 2  # the middle factor rises by up to W
    _, _, sides = _r_chains(spec, (rep1, rep2, rep3), W, (0, 1, 2), (2, 1, 0))
    return compare("yang_baxter", _echo(spec, p), list(dims), W, [sides], floor=1e-300)


def _ladder(gen: str, s: float, fam: HopfFamily, rep1: FockRep, rep2: FockRep,
            W: int) -> np.ndarray:
    """q^{k s Delta(N)} Delta(gen)^k for k <= W, gen a or adag, as block stacks
    on the window pair states (n1, n2 <= W) of sectors up to 2W: a ladder
    between window states passes only through states between them."""
    dims, deg = (rep1.dim, rep2.dim), _DEG[gen]
    i, j, _, _ = _pair_sectors(*dims)
    dn = rep1.n_diag()[i] + rep2.n_diag()[j] + fam.beta_const  # Delta(N) in the slots
    step = np.where(_mask(dims, deg, W), _coproduct_blocks(gen, fam, rep1, rep2), 0)
    return _dressed_powers(step[:2 * W + 1], s, dn[:2 * W + 1], W + 1, fam.params, deg)


def check_fusion(spec: RSpec, rep1: FockRep, rep2: FockRep,
                 rep3: FockRep) -> list[IdentityReport]:
    """(Delta (x) I)R = R13 R23 and (I (x) Delta)R = R13 R12, per sector.

    Delta acts on the explicit series summands, its ladder powers _ladder
    stacks; the series side gathers each sector-block entry at
    k = n3(col) - n3(row) on the left, n1(row) - n1(col) on the right."""
    p, reps, dims = rep1.params, (rep1, rep2, rep3), (rep1.dim, rep2.dim, rep3.dim)
    fam, W = family_for(spec, p), (min(dims) - 1) // 2  # the middle factor rises by up to W
    (n1, n2, n3), (m1, m2, m3), (left, right) = _r_chains(spec, reps, W, (1, 2), (1, 0))
    series, (N1, N2, N3) = _series(spec, p), (x.n_diag() for x in reps)
    slot12, slot23 = _pair_sectors(*dims[:2])[3], _pair_sectors(*dims[1:])[3]
    dn12, dn23 = (np.add.outer(a, b).reshape(-1) + fam.beta_const for a, b in ((N1, N2), (N2, N3)))
    sides = (
        ("fusion_left", q_power(series.exponent(dn12, N3), p), m3 - n3, left,
         _ladder("adag", series.su, fam, rep1, rep2, W),
         _dressed_powers(rep3.matA, series.sv, N3, W + 1, p),
         (m1 + m2, slot12[n1, n2], slot12[m1, m2]), (n3, m3)),
        ("fusion_right", q_power(series.exponent(N1, dn23), p), n1 - m1, right,
         _dressed_powers(rep1.matAdag, series.su, N1, W + 1, p),
         _ladder("a", series.sv, fam, rep2, rep3, W),
         (n1, m1), (m2 + m3, slot23[n2, n3], slot23[m2, m3])))
    return [compare(name, _echo(spec, p), list(dims), W, [(_series_sum(
        series, pref.reshape(dims)[n1, n2, n3], raising, lowering, k, up, low), rhs)],
        floor=1e-300) for name, pref, k, rhs, raising, lowering, up, low in sides]


def _antipode_blocks(spec: RSpec, fam: HopfFamily, rep1: FockRep, rep2: FockRep) -> np.ndarray:
    """(S (x) I)R as sector blocks: each series term (S(u_k) (x) I)
    q**exponent(S(N), N) (I (x) v_k) is S(u_k) (x) v_k times pref[i', j],
    and S(u_k) = S(adag)^k S(q^{k su N}) is a transposed dressed power."""
    p = fam.params
    series = _series(spec, p)
    sn = -rep1.n_diag() + fam.antipode_N_shift()  # diagonal of S(N)
    pref = q_power(series.exponent(sn, rep2.n_diag()), p)
    SU = _dressed_powers(antipode_op(word("adag"), rep1, fam).T, series.su, sn, rep2.dim,
                         p).transpose(0, 2, 1)
    V = _dressed_powers(rep2.matA, series.sv, rep2.n_diag(), rep2.dim, p)
    return _pair_op((rep1.dim, rep2.dim), 0, lambda ir, jr, ic, jc: _series_sum(
        series, pref[ic, jr], SU, V, ir - ic, (ir, ic), (jr, jc)))


def check_antipode_inverse(spec: RSpec, rep1: FockRep, rep2: FockRep,
                           window: Window) -> IdentityReport:
    """R ((S (x) I)R) = ((S (x) I)R) R = I on the window, per pair sector;
    normalized by max(1, ||I||_F) on the window."""
    fam, R, eye = _pair_setup(spec, rep1, rep2, window)
    p, dims = fam.params, (rep1.dim, rep2.dim)
    Rinv, cut = _antipode_blocks(spec, fam, rep1, rep2), _mask(dims, 0, window.max_index)
    return compare("antipode_inverse", _echo(spec, p), list(dims), window.max_index,
                   ((prod[cut], eye[cut]) for prod in (R @ Rinv, Rinv @ R)))


def check_counit(spec: RSpec, rep1: FockRep, rep2: FockRep) -> list[IdentityReport]:
    """(eps (x) id)R = I and (id (x) eps)R = I.

    The counit kills every series term with k >= 1 (u_k holds adag^k, v_k
    holds a^k, and c_0 = 1), so each side is R's diagonal factor with eps(N)
    on one leg.  Both hold only because that factor pairs counit-shifted
    number operators: the counit image of the exponent vanishes identically.
    """
    p = shared_params(rep1, rep2)
    exponent, eps_n = _series(spec, p).exponent, np.array([family_for(spec, p).counit_N()])
    return [compare(name, _echo(spec, p), [rep1.dim, rep2.dim], len(diag) - 1,
                    [(np.diag(diag), np.eye(len(diag), dtype=complex))])
            for name, diag in (("counit_left", q_power(exponent(eps_n, rep2.n_diag()), p)[0]),
                               ("counit_right", q_power(exponent(rep1.n_diag(), eps_n), p)[:, 0]))]


def check_yan_relation(spec: RSpec, rep1: FockRep, rep2: FockRep, gen: str,
                       window: Window) -> IdentityReport:
    """Residual of R Delta(gen) - Deltabar(gen) R, with Deltabar built at 1/q."""
    fam, R, dg = _pair_setup(spec, rep1, rep2, window, gen)
    dbar = _coproduct_blocks(gen, qbar_family(fam), rep1, rep2)
    return _twisted_report("yan_relation", spec, fam, gen, dbar, R, dg, (rep1.dim, rep2.dim),
                           window.max_index)
