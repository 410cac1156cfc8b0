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
import time
from dataclasses import dataclass

import numpy as np

from .fockrep import FockRep, Window, frobenius, residual, window_block
from .hopfops import (GenWord, HopfFamily, antipode_op, coproduct_op, counit,
                      opposite_coproduct_op, qbar_coproduct_op, qpow, rep_word,
                      word)
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


def _series_coefficient(spec: RSpec, k: int, p: DeformParams) -> complex:
    hip = half_index_product(k, p)
    if spec.kind == "quantum_double":
        return (1j ** k) * q_power(-k * (k + 1) / 4.0, p) / hip
    if spec.kind == "yan_claimed":
        return (1j ** k) * (1.0 + 1.0 / p.q) ** k * q_power(-k * (k + 1) / 4.0, p) / hip
    pm = 1.0 if spec.sign == "upper" else -1.0
    return (((pm * 1j) ** k) * ((-1.0) ** (spec.K * k))
            * q_power(-spec.m * k * k - pm * k * (k - 1) / 4.0, p) / hip)


def _series_dressing(spec: RSpec) -> tuple[float, float]:
    """(s_u, s_v): the k-th raising word is q^{k s_u N} adag^k, the lowering
    word q^{k s_v N} a^k."""
    if spec.kind == "quantum_double":
        return 0.5, -0.5
    if spec.kind == "yan_claimed":
        return 0.0, -0.5
    return spec.m, -spec.m


def _series_words(spec: RSpec, k: int) -> tuple[GenWord, GenWord]:
    """(raising word, lowering word) of the k-th series term."""
    su, sv = _series_dressing(spec)
    return (word(qpow(su * k), *(("adag",) * k)),
            word(qpow(sv * k), *(("a",) * k)))


def _prefactor_exponent(spec: RSpec, xvals: np.ndarray, yvals: np.ndarray,
                        p: DeformParams) -> np.ndarray:
    """Exponent array of the diagonal prefactor, from N-eigenvalue arrays.

    Taking the arguments as (possibly coproduct-image) N eigenvalues
    makes the same formula serve build_r, the fusion legs and the
    antipode leg: the exponent is polynomial in N legwise.
    """
    X, Y = np.asarray(xvals, dtype=complex), np.asarray(yvals, dtype=complex)
    if spec.kind == "quantum_double":
        iag = p.ialpha_over_gamma
        return np.multiply.outer(X - iag, Y - iag)
    if spec.kind == "yan_claimed":
        iag = p.ialpha_over_gamma
        return (np.multiply.outer(X - iag, Y - iag)
                - 0.5 * np.multiply.outer(X, Y))
    beta = 1j * np.pi * (2 * spec.K + 1) / (2 * p.gamma)
    sgn = -1.0 if spec.sign == "upper" else 1.0
    return sgn * np.multiply.outer(X + beta, Y + beta)


def build_r(spec: RSpec, rep1: FockRep, rep2: FockRep) -> np.ndarray:
    """Assemble the candidate on the tensor square; k runs 0..D2-1."""
    if rep1.params.q != rep2.params.q:
        raise ParameterError("representations must share DeformParams")
    p = rep1.params
    pref = q_power(_prefactor_exponent(spec, rep1.n_diag(), rep2.n_diag(), p).reshape(-1), p)
    total = np.zeros((rep1.dim * rep2.dim,) * 2, dtype=complex)
    for k in range(rep2.dim):
        u, v = _series_words(spec, k)
        total += _series_coefficient(spec, k, p) * np.kron(
            rep_word(u, rep1), rep_word(v, rep2))
    return pref[:, None] * total


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


def check_intertwiner(spec: RSpec, fam: HopfFamily, rep1: FockRep, rep2: FockRep,
                      gen: str, window: Window | None = None,
                      tol: float | None = None) -> IdentityReport:
    """Residual of (T Delta(gen)) R - R Delta(gen) on the window,
    normalized by ||R||_F ||Delta(gen)||_F so scalar rescalings of R drop out."""
    started = time.perf_counter()
    p = fam.params
    tol = tol if tol is not None else p.tol
    D1, D2 = rep1.dim, rep2.dim
    win = window or Window(min(D1, D2) - 2, guard=1)
    R = build_r(spec, rep1, rep2)
    w = _gen_word(gen)
    dg = coproduct_op(w, rep1, rep2, fam)
    tdg = opposite_coproduct_op(w, rep1, rep2, fam)
    diff = window_block(tdg @ R - R @ dg, (D1, D2), win)
    raw = frobenius(diff)
    den = max(frobenius(window_block(R, (D1, D2), win))
              * frobenius(window_block(dg, (D1, D2), win)), 1e-300)
    return make_report(f"intertwiner_{gen}", _echo(spec, p, {"gen": gen}),
                       [D1, D2], win.max_index, raw, raw / den, tol, started)


def _triple_window(dims: tuple[int, int, int]) -> Window:
    wmax = (min(dims) - 1) // 2  # the middle factor rises by up to W
    return Window(wmax, guard=wmax)


def _kron_block(A: np.ndarray, ia: np.ndarray, B: np.ndarray | None,
                ib: np.ndarray) -> np.ndarray:
    """Block of A (x) B on a set of states, gathered from the factors.

    ia and ib are the states' row/column indices into A and B; B = None
    stands for an identity leg, which becomes an equality mask.
    """
    block = A[ia[:, None], ia]
    if B is None:
        return block * (ib[:, None] == ib)
    return block * B[ib[:, None], ib]


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
        yield (n1, n2, n3), w, (_kron_block(R12, n1 * D2 + n2, None, n3),
                                _kron_block(R13, n1 * D3 + n3, None, n2),
                                _kron_block(R23, n2 * D3 + n3, None, n1))


def _sector_residual(sides) -> tuple[float, float]:
    """(raw, normalized) residual from per-sector window blocks (lhs, rhs).

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


def check_yang_baxter(spec: RSpec, rep1: FockRep, rep2: FockRep, rep3: FockRep,
                      window: Window | None = None, tol: float | None = None,
                      dim_cap: int = 1 << 16) -> IdentityReport:
    """R12 R13 R23 = R23 R13 R12 on the windowed triple tensor, per sector."""
    started = time.perf_counter()
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
                       window.max_index, raw, nrm, tol, started)


def _series_residual(spec: RSpec, p: DeformParams, pref: np.ndarray, raising,
                     lowering, blocks) -> tuple[float, float]:
    """Residual of pref * sum_k c_k raising_k (x) lowering_k against per-sector
    right-hand sides.

    blocks holds (ia, ib, rhs) per sector: the window states' indices into
    the raising and lowering legs and the rhs window block.  pref is the
    prefactor diagonal as a (raising leg) x (lowering leg) array.  The
    series side has no products, so only its window entries are gathered.
    """
    series = [0.0] * len(blocks)
    for k, (A, B) in enumerate(zip(raising, lowering)):
        c = _series_coefficient(spec, k, p)
        series = [acc + c * _kron_block(A, ia, B, ib)
                  for acc, (ia, ib, _) in zip(series, blocks)]
    return _sector_residual((pref[ia, ib][:, None] * acc, rhs)
                            for acc, (ia, ib, rhs) in zip(series, blocks))


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
    started = time.perf_counter()
    p = fam.params
    tol = tol if tol is not None else p.tol
    dims = D1, D2, D3 = rep1.dim, rep2.dim, rep3.dim
    window = window or _triple_window(dims)
    window.validate(*dims)
    left, right = [], []
    for sector, w, (b12, b13, b23) in _r_leg_sectors(spec, rep1, rep2, rep3,
                                                     window.max_index):
        n1, n2, n3 = (n[w] for n in sector)  # the window states
        left.append((n1 * D2 + n2, n3, b13[w] @ b23[:, w]))
        right.append((n1, n2 * D3 + n3, b13[w] @ b12[:, w]))
    su, sv = _series_dressing(spec)
    N1, N3 = rep1.n_diag(), rep3.n_diag()
    dn12 = (np.add.outer(N1, rep2.n_diag()).reshape(-1) + fam.beta_const)
    dn23 = (np.add.outer(rep2.n_diag(), N3).reshape(-1) + fam.beta_const)

    raw, nrm = _series_residual(
        spec, p, q_power(_prefactor_exponent(spec, dn12, N3, p), p),
        _dressed_powers(coproduct_op(word("adag"), rep1, rep2, fam), su, dn12, D3, p),
        _dressed_powers(rep3.matA, sv, N3, D3, p), left)
    reports = [make_report("fusion_left", _echo(spec, p), [D1, D2, D3],
                           window.max_index, raw, nrm, tol, started)]

    started = time.perf_counter()
    kmax = min(D2, D3)
    raw, nrm = _series_residual(
        spec, p, q_power(_prefactor_exponent(spec, N1, dn23, p), p),
        _dressed_powers(rep1.matAdag, su, N1, kmax, p),
        _dressed_powers(coproduct_op(word("a"), rep2, rep3, fam), sv, dn23, kmax, p), right)
    reports.append(make_report("fusion_right", _echo(spec, p), [D1, D2, D3],
                               window.max_index, raw, nrm, tol, started))
    return reports


def antipode_leg(spec: RSpec, fam: HopfFamily, rep1: FockRep, rep2: FockRep) -> np.ndarray:
    """(S (x) I)R computed term-by-term on the explicit series."""
    p = fam.params
    D1, D2 = rep1.dim, rep2.dim
    sn = -rep1.n_diag() + fam.antipode_N_shift()  # diagonal of S(N)
    pref = q_power(_prefactor_exponent(spec, sn, rep2.n_diag(), p).reshape(-1), p)
    out = np.zeros((D1 * D2,) * 2, dtype=complex)
    for k in range(D2):
        u, v = _series_words(spec, k)
        out += _series_coefficient(spec, k, p) * (
            np.kron(antipode_op(u, rep1, fam), np.eye(D2, dtype=complex))
            @ (pref[:, None] * np.kron(np.eye(D1, dtype=complex), rep_word(v, rep2))))
    return out


def check_antipode_inverse(spec: RSpec, fam: HopfFamily, rep1: FockRep,
                           rep2: FockRep, window: Window | None = None,
                           tol: float | None = None,
                           verdict_override: str | None = None) -> IdentityReport:
    """R ((S (x) I)R) = ((S (x) I)R) R = I on the window."""
    started = time.perf_counter()
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
                       max(raw1, raw2), max(nrm1, nrm2), tol, started,
                       verdict=verdict_override)


def check_counit(spec: RSpec, fam: HopfFamily, rep1: FockRep, rep2: FockRep,
                 tol: float | None = None,
                 verdict_override: str | None = None) -> list[IdentityReport]:
    """(eps (x) id)R = I and (id (x) eps)R = I.

    Both hold only because the prefactor pairs counit-shifted number
    operators: the counit image of the exponent vanishes identically.
    """
    p = fam.params
    tol = tol if tol is not None else p.tol
    D1, D2 = rep1.dim, rep2.dim
    eps_n = np.array([fam.counit_N()])
    reports = []
    started = time.perf_counter()
    got = np.zeros((D2, D2), dtype=complex)
    for k in range(D2):
        u, v = _series_words(spec, k)
        scale = counit(u, fam) * q_power(
            _prefactor_exponent(spec, eps_n, rep2.n_diag(), p).reshape(-1), p)
        got += _series_coefficient(spec, k, p) * scale[:, None] * rep_word(v, rep2)
    raw, nrm = residual(got, np.eye(D2, dtype=complex), (D2,), Window(D2 - 1))
    reports.append(make_report("counit_left", _echo(spec, p), [D1, D2], D2 - 1,
                               raw, nrm, tol, started, verdict=verdict_override))
    started = time.perf_counter()
    got = np.zeros((D1, D1), dtype=complex)
    for k in range(D2):
        u, v = _series_words(spec, k)
        scale = counit(v, fam) * q_power(
            _prefactor_exponent(spec, rep1.n_diag(), eps_n, p).reshape(-1), p)
        got += _series_coefficient(spec, k, p) * scale[:, None] * rep_word(u, rep1)
    raw, nrm = residual(got, np.eye(D1, dtype=complex), (D1,), Window(D1 - 1))
    reports.append(make_report("counit_right", _echo(spec, p), [D1, D2], D1 - 1,
                               raw, nrm, tol, started, verdict=verdict_override))
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
    started = time.perf_counter()
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
    diff = window_block(R @ dg - dbar @ R, (D1, D2), win)
    raw = frobenius(diff)
    den = max(frobenius(window_block(R, (D1, D2), win))
              * frobenius(window_block(dg, (D1, D2), win)), 1e-300)
    return make_report(f"yan_relation_{gen}", _echo(spec, p, {"gen": gen}),
                       [D1, D2], win.max_index, raw, raw / den, tol, started,
                       verdict=verdict_override)
