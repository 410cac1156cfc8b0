"""Quantized sl(2) realized from boson matrices, and the Casimir witness's premises.

The deformation base switches twice on this bridge (q, its square root,
its square), so every triple records the base its bracket is checked at.
The witness itself is the relation table's C row on two legs
(hopfops.check_coproduct_relations at c = 1/2): pi(C) = 0 there, so the
would-be Hopf ideal of C maps to zero under pi (x) pi, and a norm of
Delta(C) away from zero puts Delta(C) outside it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fockrep import FockRep, Window, build_rep, casimir, relation_sides
from .hopfops import HopfFamily, counit_leg, qpow, rep_word
from .qscalars import DeformParams, ParameterError, q_number, q_power
from .report import IdentityReport, compare


@dataclass(frozen=True)
class Sl2Triple:
    """Matrices h, e, f with the DeformParams of the bracket base."""

    h: np.ndarray
    e: np.ndarray
    f: np.ndarray
    base_params: DeformParams


def realize_sl2(rep: FockRep, lam: complex) -> Sl2Triple:
    """h = 2N - 2i alpha/gamma, e = lam adag, f ~ a; bracket base q**(1/2).

    Works in the generalized representation family (the standard-Fock
    preset c = 0 satisfies a different relation set and is rejected).
    """
    if lam == 0:
        raise ParameterError("lambda must be nonzero")
    if rep.c == 0:
        raise ParameterError("sl(2) realization needs the generalized family (c != 0)")
    p = rep.params
    iag = p.ialpha_over_gamma
    h = 2.0 * rep.matN - 2.0 * iag * np.eye(rep.dim, dtype=complex)
    e = lam * rep.matAdag
    qh, qmh = q_power(0.5, p), q_power(-0.5, p)
    f = 1j * (qh + qmh) / (lam * (qh - qmh)) * rep.matA
    base = DeformParams(q=complex(np.exp(p.gamma / 2.0)), kappa=p.kappa)
    return Sl2Triple(h=h, e=e, f=f, base_params=base)


def check_sl2(triple: Sl2Triple) -> IdentityReport:
    """Max windowed residual of [h,e] = 2e, [h,f] = -2f, [e,f] = [h] at the base."""
    pb = triple.base_params
    D = triple.h.shape[0]
    win = Window(D - 2, guard=1)
    h, e, f = triple.h, triple.e, triple.f
    bracket_h = np.diag(q_number(np.diag(h), pb))  # h is diagonal in the Fock basis
    return compare("sl2_relations", {"base_q": str(pb.q)}, [D], win.max_index,
                   (win.cut(lhs, rhs) for lhs, rhs in (((h @ e - e @ h), 2.0 * e),
                                                       ((h @ f - f @ h), -2.0 * f),
                                                       ((e @ f - f @ e), bracket_h))))


def inverse_realization(triple: Sl2Triple, mu: complex,
                        shift: str = "published") -> tuple[np.ndarray, np.ndarray, np.ndarray, DeformParams]:
    """Boson matrices from an sl(2) triple; they target the symmetrized
    relation at the square of the triple's base.

    shift = "published" uses the constant i*alpha/(4 ln q) as printed;
    "matched" uses i*alpha/(2 ln q), the value the forward realization
    implies.  The published constant leaves a residual in the target
    relation, which callers are expected to surface rather than hide.
    """
    if mu == 0:
        raise ParameterError("mu must be nonzero")
    if shift not in ("published", "matched"):
        raise ParameterError("shift must be 'published' or 'matched'")
    pb = triple.base_params
    D = triple.h.shape[0]
    denom = 4.0 if shift == "published" else 2.0
    matN = 0.5 * triple.h + (1j * pb.alpha / (denom * pb.gamma)) * np.eye(D, dtype=complex)
    matA = mu * triple.f
    qb, qbi = q_power(1.0, pb), q_power(-1.0, pb)
    matAdag = -1j * (qb - qbi) / (mu * (qb + qbi)) * triple.e
    target = DeformParams(q=complex(np.exp(2.0 * pb.gamma)), kappa=pb.kappa)
    return matN, matA, matAdag, target


def inverse_round_trip(rep: FockRep) -> IdentityReport:
    """[a, a+] = [N + 1/2] - [N - 1/2] on the window n <= D - 2, for the boson
    matrices that inverse_realization recovers with the published shift from
    realize_sl2(rep, 1), at the base they target (it leaves a residual)."""
    matN, matA, matAdag, target = inverse_realization(realize_sl2(rep, 1.0), 1.0)
    win = Window(rep.dim - 2, guard=1)
    sides = relation_sides("Ry", {"N": matN, "a": matA, "adag": matAdag}, target)
    return compare("inverse_realization_y", {"q": str(rep.params.q), "shift": "published"},
                   [rep.dim], win.max_index, [win.cut(*sides)])


def casimir_centrality(D: int, p: DeformParams) -> IdentityReport:
    """Max windowed residual of [C, x] for x in {N, a, adag}, at the shifts
    c = 1/2 and 1."""
    win = Window(D - 2, guard=1)
    pairs = []
    for c in (0.5, 1.0):
        rep = build_rep(D, c, p)
        C = casimir(rep)
        pairs += [win.cut(C @ x, x @ C) for x in (rep.matN, rep.matA, rep.matAdag)]
    return compare("sl2_casimir_central", {"q": str(p.q)}, [D], win.max_index, pairs)


def witness_consistency(D: int, fam: HopfFamily) -> IdentityReport:
    """The witness's two premises on the whole D x D matrices, in the c = 1/2
    representation: pi(C) = 0, and (eps (x) id) Delta(C) represents like C.

    The counit leg's raising/lowering parts contract through the explicit
    Sweedler sums (hopfops.counit_leg, as in the counit axioms); the
    bracket part goes through the exponentials of Delta(N), whose counit
    legs collapse exactly.
    """
    p = fam.params
    rep = build_rep(D, 0.5, p)
    eps_contract = lambda letter: counit_leg(letter, fam, lambda v: rep_word(v, rep, p), True)
    bracket = (eps_contract(qpow(1.0)) * q_power(-0.5, p)
               - eps_contract(qpow(-1.0)) * q_power(0.5, p)) / (p.q - 1.0 / p.q)
    C = casimir(rep)
    return compare("witness_consistency", {"q": str(p.q)}, [D], D - 1,
                   [(C, np.zeros_like(C)), (eps_contract("adag") @ eps_contract("a") - bracket, C)])
