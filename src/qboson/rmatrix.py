"""R-matrix candidates on tensor products of truncated representations.

Three candidates share one series shape

    R = q**(quadratic prefactor in N (x) N) * sum_k c_k u_k (x) v_k,

with u_k a dressed raising word and v_k a dressed lowering word:

* quantum double:  c_k = i^k q^{-k(k+1)/4} / prod_j [j/2],
  u_k = q^{kN/2} adag^k, v_k = q^{-kN/2} a^k, prefactor exponent
  (N - i alpha/gamma)(x)(N - i alpha/gamma);
* the previously published candidate: same but with the extra factor
  (1 + q^{-1})^k, an undressed raising word, and -N(x)N/2 added to the
  prefactor exponent;
* the general family, parameterized like the coproduct family.

_series holds each candidate's series data; it is the only place the
kind is read.  R and the leg maps applied to it (coproduct, antipode,
counit) are all one sum, pref * sum_k c_k L_k (x) R_k (_series_sum).

The lowering power annihilates the whole truncated second factor beyond
k = D2 - 1, so the series termination is exact, not approximate.  Every
verdict applies to a leak-free window only; the Yang-Baxter and fusion
products raise the middle factor by up to the window size, so their
windows obey 2W <= D - 1 rather than the pairwise W + 1 <= D - 1.

Every series term u_k (x) v_k has total-number degree zero, so R and
every product of its leg embeddings is block-diagonal in the total
n1 + n2 + n3 of the triple tensor.  The Yang-Baxter and fusion checks
therefore evaluate the same truncated products one total-number sector
at a time, gathering each sector block of a tensor product straight from
its factors; no triple-tensor operator is ever formed.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .fockrep import FockRep, Window, frobenius, residual, window_block
from .hopfops import (GenWord, HopfFamily, antipode_op, coproduct_op, counit,
                      opposite_coproduct_op, qbar_coproduct_op, qpow, word)
from .qscalars import DeformParams, ParameterError, half_index_product, q_power
from .report import IdentityReport, make_report

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
    """One candidate's series data: c_k = coefficient(k), the raising word
    u_k = q^{k su N} adag^k, the lowering word v_k = q^{k sv N} a^k, and the
    prefactor exponent as an outer function of two N-eigenvalue arrays.  The
    exponent is polynomial in N legwise, so it also takes N's image under
    any leg map."""

    coefficient: Callable[[int], complex]
    su: float
    sv: float
    exponent: Callable[[np.ndarray, np.ndarray], np.ndarray]

    def words(self, k: int) -> tuple[GenWord, GenWord]:
        """(raising word, lowering word) of the k-th series term."""
        return (word(qpow(self.su * k), *(("adag",) * k)),
                word(qpow(self.sv * k), *(("a",) * k)))


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
    pm = 1.0 if spec.sign == "upper" else -1.0
    beta = 1j * np.pi * (2 * spec.K + 1) / (2 * p.gamma)
    return RSeries(lambda k: (((pm * 1j) ** k) * ((-1.0) ** (spec.K * k))
                              * q_power(-spec.m * k * k - pm * k * (k - 1) / 4.0, p)
                              / hip(k)),
                   spec.m, -spec.m, lambda X, Y: -pm * outer(X + beta, Y + beta))


def _series_sum(series: RSeries, pref, raising, lowering, kron) -> np.ndarray:
    """pref * sum_k c_k kron(raising_k, lowering_k), k running as far as the legs.

    pref multiplies entrywise and broadcasts (the prefactor diagonal is a
    row scale); kron is np.kron or gathers some entries of its product.
    """
    return pref * sum(series.coefficient(k) * kron(A, B)
                      for k, (A, B) in enumerate(zip(raising, lowering)))


def _dressed_powers(step: np.ndarray, s: float, ndiag: np.ndarray, kmax: int,
                    p: DeformParams):
    """q^{k s N} step^k for k < kmax, one matrix product per k.

    N enters through its eigenvalues ndiag (a coproduct image for a
    two-factor step), so the dressing is a row scale.
    """
    power = np.eye(step.shape[0], dtype=complex)
    for k in range(kmax):
        if k:
            power = power @ step
        yield q_power(k * s * ndiag, p)[:, None] * power


def build_r(spec: RSpec, rep1: FockRep, rep2: FockRep) -> np.ndarray:
    """Assemble the candidate on the tensor square; k runs 0..D2-1."""
    if rep1.params.q != rep2.params.q:
        raise ParameterError("representations must share DeformParams")
    p = rep1.params
    series = _series(spec, p)
    N1, N2, D2 = rep1.n_diag(), rep2.n_diag(), rep2.dim
    return _series_sum(series, q_power(series.exponent(N1, N2), p).reshape(-1, 1),
                       _dressed_powers(rep1.matAdag, series.su, N1, D2, p),
                       _dressed_powers(rep2.matA, series.sv, N2, D2, p), np.kron)


def _embed_r13(Rpair: np.ndarray, D1: int, D2: int, D3: int) -> np.ndarray:
    """Embed an operator on factors (1, 3) into the triple product."""
    M = np.kron(Rpair, np.eye(D2, dtype=complex))  # acts on ordering (1, 3, 2)
    M = M.reshape(D1, D3, D2, D1, D3, D2).transpose(0, 2, 1, 3, 5, 4)
    return M.reshape(D1 * D2 * D3, D1 * D2 * D3)


def _gen_word(gen: str) -> GenWord:
    if gen not in ("N", "a", "adag"):
        raise ParameterError(f"generator must be N, a or adag, not {gen!r}")
    return word(gen)


def _echo(spec: RSpec, p: DeformParams, extra: dict | None = None) -> dict:
    out = {"rspec": spec.label(), "q": str(p.q), "kappa": p.kappa}
    if p.on_unit_circle:
        out["unit_modulus_q"] = True
    if extra:
        out.update(extra)
    return out


def _pair_residual(lhs: np.ndarray, rhs: np.ndarray, R: np.ndarray, dg: np.ndarray,
                   dims: tuple[int, int], win: Window) -> tuple[float, float]:
    """Windowed ||lhs - rhs||_F, raw and over ||R||_F ||Delta(gen)||_F."""
    raw = frobenius(window_block(lhs - rhs, dims, win))
    den = max(frobenius(window_block(R, dims, win))
              * frobenius(window_block(dg, dims, win)), 1e-300)
    return raw, raw / den


def check_intertwiner(spec: RSpec, fam: HopfFamily, rep1: FockRep, rep2: FockRep,
                      gen: str, window: Window | None = None,
                      tol: float | None = None) -> IdentityReport:
    """Residual of (T Delta(gen)) R - R Delta(gen) on the window,
    normalized by ||R||_F ||Delta(gen)||_F so scalar rescalings of R drop out."""
    p = fam.params
    tol = tol if tol is not None else p.tol
    D1, D2 = rep1.dim, rep2.dim
    win = window or Window(min(D1, D2) - 2, guard=1)
    R = build_r(spec, rep1, rep2)
    w = _gen_word(gen)
    dg = coproduct_op(w, rep1, rep2, fam)
    tdg = opposite_coproduct_op(w, rep1, rep2, fam)
    raw, nrm = _pair_residual(tdg @ R, R @ dg, R, dg, (D1, D2), win)
    return make_report(f"intertwiner_{gen}", _echo(spec, p, {"gen": gen}),
                       [D1, D2], win.max_index, raw, nrm, tol)


def _triple_window(dims: tuple[int, int, int]) -> Window:
    wmax = (min(dims) - 1) // 2  # the middle factor rises by up to W
    return Window(wmax, guard=wmax)


def _kron_block(A: np.ndarray, ia: np.ndarray, ib: np.ndarray) -> np.ndarray:
    """Block of A (x) I on a set of states, gathered from A.

    ia are the states' indices into A and ib into the identity leg, which
    becomes an equality mask.
    """
    return A[ia[:, None], ia] * (ib[:, None] == ib)


def _r_leg_sectors(spec: RSpec, rep1: FockRep, rep2: FockRep, rep3: FockRep,
                   wmax: int):
    """R12, R13 and R23 one total-number sector s <= 3*wmax at a time.

    Sector s of the truncated triple tensor holds the states with
    n_i <= D_i - 1 and n1 + n2 + n3 = s.  Yields the sector's states as
    index arrays (n1, n2, n3), the positions w among them of the window
    states (every n_i <= wmax), and the three R-leg blocks, gathered from
    R on each factor pair (built once per distinct pair of reps).
    """
    D1, D2, D3 = dims = rep1.dim, rep2.dim, rep3.dim
    R12 = build_r(spec, rep1, rep2)
    R13 = R12 if rep3 is rep2 else build_r(spec, rep1, rep3)
    R23 = R13 if rep2 is rep1 else build_r(spec, rep2, rep3)
    states = np.indices(dims).reshape(3, -1)
    total = states.sum(axis=0)
    for s in range(3 * wmax + 1):
        n1, n2, n3 = sector = states[:, total == s]
        w = np.flatnonzero((sector <= wmax).all(axis=0))
        yield (n1, n2, n3), w, (_kron_block(R12, n1 * D2 + n2, n3),
                                _kron_block(R13, n1 * D3 + n3, n2),
                                _kron_block(R23, n2 * D3 + n3, n1))


def _sector_residual(sides) -> tuple[float, float]:
    """(raw, normalized) residual from window blocks (lhs, rhs), one pair per
    sector or every sector's entries in one pair.

    Numerator and denominator are square roots of the summed per-sector
    sums of squares, i.e. Frobenius norms over the whole window.  The
    normalization is by ||rhs||_F with no unit floor: for identities
    between products of R-matrices the absolute scale is meaningless (R
    carries an overall exp(-alpha**2/gamma)-type factor), so a unit floor
    would mask genuine failures.
    """
    num = den = 0.0
    for lhs, rhs in sides:
        diff = lhs - rhs
        num += np.vdot(diff, diff).real
        den += np.vdot(rhs, rhs).real
    raw = math.sqrt(num)
    return raw, raw / max(math.sqrt(den), 1e-300)


def check_yang_baxter(spec: RSpec, rep1: FockRep, rep2: FockRep, rep3: FockRep,
                      window: Window | None = None, tol: float | None = None,
                      dim_cap: int = 1 << 16) -> IdentityReport:
    """R12 R13 R23 = R23 R13 R12 on the windowed triple tensor, per sector."""
    p = rep1.params
    tol = tol if tol is not None else p.tol
    dims = D1, D2, D3 = rep1.dim, rep2.dim, rep3.dim
    if D1 * D2 * D3 > dim_cap:
        raise ParameterError(f"triple tensor dimension {D1 * D2 * D3} exceeds cap")
    window = window or _triple_window(dims)
    window.validate(*dims)
    raw, nrm = _sector_residual(
        (b12[w] @ b13 @ b23[:, w], b23[w] @ b13 @ b12[:, w])
        for _, w, (b12, b13, b23) in _r_leg_sectors(spec, rep1, rep2, rep3,
                                                    window.max_index))
    return make_report("yang_baxter", _echo(spec, p), [D1, D2, D3],
                       window.max_index, raw, nrm, tol)


def check_fusion(spec: RSpec, fam: HopfFamily, rep1: FockRep, rep2: FockRep,
                 rep3: FockRep, window: Window | None = None,
                 tol: float | None = None) -> list[IdentityReport]:
    """(Delta (x) I)R = R13 R23 and (I (x) Delta)R = R13 R12, per sector.

    Delta acts on the explicit series summands (it is not a conjugation
    of the representation): Delta(u_k) and Delta(v_k) are built one
    ladder product per k, and their q^{sN} dressing and the diagonal
    prefactor legs go through exponents evaluated on coproduct-image N
    eigenvalues.
    """
    p = fam.params
    tol = tol if tol is not None else p.tol
    dims = D1, D2, D3 = rep1.dim, rep2.dim, rep3.dim
    window = window or _triple_window(dims)
    window.validate(*dims)
    states, left, right = [], [], []
    for sector, w, (b12, b13, b23) in _r_leg_sectors(spec, rep1, rep2, rep3,
                                                     window.max_index):
        states.append(np.array(sector)[:, w])  # the window states
        left.append((b13[w] @ b23[:, w]).ravel())
        right.append((b13[w] @ b12[:, w]).ravel())
    n1, n2, n3 = np.concatenate(states, axis=1)
    # (r, c): every entry of the sector blocks, in the order of the raveled
    # blocks; the series side has no products, so only these are gathered
    total = n1 + n2 + n3
    r, c = np.nonzero(total[:, None] == total)
    series = _series(spec, p)
    N1, N3 = rep1.n_diag(), rep3.n_diag()
    dn12 = (np.add.outer(N1, rep2.n_diag()).reshape(-1) + fam.beta_const)
    dn23 = (np.add.outer(rep2.n_diag(), N3).reshape(-1) + fam.beta_const)
    kmax = min(D2, D3)
    sides = (
        ("fusion_left", n1 * D2 + n2, n3, left, q_power(series.exponent(dn12, N3), p),
         _dressed_powers(coproduct_op(word("adag"), rep1, rep2, fam), series.su, dn12, D3, p),
         _dressed_powers(rep3.matA, series.sv, N3, D3, p)),
        ("fusion_right", n1, n2 * D3 + n3, right, q_power(series.exponent(N1, dn23), p),
         _dressed_powers(rep1.matAdag, series.su, N1, kmax, p),
         _dressed_powers(coproduct_op(word("a"), rep2, rep3, fam), series.sv, dn23, kmax, p)))
    reports = []
    for name, ia, ib, rhs, pref, raising, lowering in sides:
        lhs = _series_sum(series, pref[ia[r], ib[r]], raising, lowering,
                          lambda A, B: A[ia[r], ia[c]] * B[ib[r], ib[c]])
        raw, nrm = _sector_residual([(lhs, np.concatenate(rhs))])
        reports.append(make_report(name, _echo(spec, p), [D1, D2, D3],
                                   window.max_index, raw, nrm, tol))
    return reports


def antipode_leg(spec: RSpec, fam: HopfFamily, rep1: FockRep, rep2: FockRep) -> np.ndarray:
    """(S (x) I)R computed term-by-term on the explicit series.

    S reverses the first leg's products, so each term is (S(u_k) (x) I)
    q**exponent(S(N), N) (I (x) v_k): entrywise, S(u_k) (x) v_k times
    pref[i', j] at row (i, j) and column (i', j').
    """
    p = fam.params
    D1, D2 = rep1.dim, rep2.dim
    series = _series(spec, p)
    sn = -rep1.n_diag() + fam.antipode_N_shift()  # diagonal of S(N)
    pref = q_power(series.exponent(sn, rep2.n_diag()), p)
    between = np.broadcast_to(pref.T[None, :, :, None], (D1, D2, D1, D2))
    return _series_sum(series, between.reshape(D1 * D2, -1),
                       (antipode_op(series.words(k)[0], rep1, fam) for k in range(D2)),
                       _dressed_powers(rep2.matA, series.sv, rep2.n_diag(), D2, p), np.kron)


def check_antipode_inverse(spec: RSpec, fam: HopfFamily, rep1: FockRep,
                           rep2: FockRep, window: Window | None = None,
                           tol: float | None = None,
                           verdict_override: str | None = None) -> IdentityReport:
    """R ((S (x) I)R) = ((S (x) I)R) R = I on the window."""
    p = fam.params
    tol = tol if tol is not None else p.tol
    D1, D2 = rep1.dim, rep2.dim
    win = window or Window(min(D1, D2) - 2, guard=1)
    R = build_r(spec, rep1, rep2)
    Rinv = antipode_leg(spec, fam, rep1, rep2)
    eye = np.eye(D1 * D2, dtype=complex)
    raw1, nrm1 = residual(R @ Rinv, eye, (D1, D2), win)
    raw2, nrm2 = residual(Rinv @ R, eye, (D1, D2), win)
    return make_report("antipode_inverse", _echo(spec, p), [D1, D2], win.max_index,
                       max(raw1, raw2), max(nrm1, nrm2), tol,
                       verdict=verdict_override)


def check_counit(spec: RSpec, fam: HopfFamily, rep1: FockRep, rep2: FockRep,
                 tol: float | None = None,
                 verdict_override: str | None = None) -> list[IdentityReport]:
    """(eps (x) id)R = I and (id (x) eps)R = I.

    Both hold only because the prefactor pairs counit-shifted number
    operators: the counit image of the exponent vanishes identically.
    The counit leg of each term is its scalar counit, a 1 x 1 factor.
    """
    p = fam.params
    tol = tol if tol is not None else p.tol
    D1, D2 = rep1.dim, rep2.dim
    series = _series(spec, p)
    words = [series.words(k) for k in range(D2)]
    eps = [[np.array([[counit(w, fam)]]) for w in leg] for leg in zip(*words)]
    eps_n, N1, N2 = np.array([fam.counit_N()]), rep1.n_diag(), rep2.n_diag()
    sides = (("counit_left", D2, q_power(series.exponent(eps_n, N2), p), eps[0],
              _dressed_powers(rep2.matA, series.sv, N2, D2, p)),
             ("counit_right", D1, q_power(series.exponent(N1, eps_n), p),
              _dressed_powers(rep1.matAdag, series.su, N1, D2, p), eps[1]))
    reports = []
    for name, D, pref, raising, lowering in sides:
        got = _series_sum(series, pref.reshape(-1, 1), raising, lowering, np.kron)
        raw, nrm = residual(got, np.eye(D, dtype=complex), (D,), Window(D - 1))
        reports.append(make_report(name, _echo(spec, p), [D1, D2], D - 1,
                                   raw, nrm, tol, verdict=verdict_override))
    return reports


def check_yan_relation(spec: RSpec, fam: HopfFamily, rep1: FockRep, rep2: FockRep,
                       gen: str, window: Window | None = None,
                       tol: float | None = None,
                       kappa_override: int | None = None,
                       strip_constant: bool = False,
                       verdict_override: str | None = None) -> IdentityReport:
    """Residual of R Delta(gen) - Deltabar(gen) R, with Deltabar built at 1/q.

    strip_constant is a diagnostic for gen = N: it removes the scalar
    structure constant from both coproduct images, isolating how much of
    the failure is carried by that constant alone (for the number
    operator, all of it: both series commute with N (x) I + I (x) N).
    """
    p = fam.params
    tol = tol if tol is not None else p.tol
    D1, D2 = rep1.dim, rep2.dim
    win = window or Window(min(D1, D2) - 2, guard=1)
    R = build_r(spec, rep1, rep2)
    w = _gen_word(gen)
    dg = coproduct_op(w, rep1, rep2, fam)
    dbar = qbar_coproduct_op(w, rep1, rep2, fam, kappa_override=kappa_override)
    if strip_constant:
        if gen != "N":
            raise ParameterError("strip_constant applies to the number operator only")
        eye = np.eye(D1 * D2, dtype=complex)
        dg = dg - fam.beta_const * eye
        dbar = dbar + fam.beta_const * eye  # the rebuilt constant is negated
    raw, nrm = _pair_residual(R @ dg, dbar @ R, R, dg, (D1, D2), win)
    return make_report(f"yan_relation_{gen}", _echo(spec, p, {"gen": gen}),
                       [D1, D2], win.max_index, raw, nrm, tol, verdict=verdict_override)
