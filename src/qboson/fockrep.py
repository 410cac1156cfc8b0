"""Truncated number-basis representations of the deformed boson algebra.

Matrices are exact where they can be exact: the top Fock state is never
discarded, and every assertion is restricted to a leak-free window of
row/column indices whose entries agree with the untruncated operator.
A :class:`Window` records the window size W together with the guard g
(the largest intermediate raising degree of the operator word under
test); feasibility means W + g <= D - 1 in every tensor factor.
Window.cut takes a D x D matrix's window block for report.compare; the
two-leg checks cut theirs from pair-sector stacks (hopfops._mask).  Each
check here reports the window it cut.  RELATIONS, the paper's list of
defining-relation variants as data, is read on one leg by check_relation
and on two by hopfops.check_coproduct_relations.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .qscalars import DeformParams, ParameterError, q_number, q_power
from .report import IdentityReport, compare


class DimensionError(ValueError):
    """Raised when a truncation dimension is too small."""


class WindowError(ValueError):
    """Raised when a leak-free window does not fit into the truncation."""


@dataclass(frozen=True)
class Window:
    """Leak-free window: indices <= max_index per tensor factor, guard g."""

    max_index: int
    guard: int = 0

    def __post_init__(self):
        if self.max_index < 0 or self.guard < 0:
            raise WindowError("window size and guard must be non-negative")

    def validate(self, *dims: int) -> None:
        for d in dims:
            if self.max_index + self.guard > d - 1:
                raise WindowError(
                    f"window {self.max_index} + guard {self.guard} exceeds "
                    f"top index {d - 1} of a factor")

    def cut(self, *mats: np.ndarray) -> tuple[np.ndarray, ...]:
        """The window blocks [:W+1, :W+1] of single-factor D x D matrices,
        after validate(D)."""
        self.validate(*(m.shape[0] for m in mats))
        return tuple(m[:self.max_index + 1, :self.max_index + 1] for m in mats)


@dataclass(frozen=True)
class FockRep:
    """Truncated D-dimensional representation of N, a, a-dagger.

    The shift convention is the parameter c itself: matN = diag(n + c).
    c = 0 is the standard Fock space (ladder amplitude [n+1]**(1/2)),
    any other c uses the generalized amplitude
    ([n+c-1/2] - [c-1/2])**(1/2) with the principal square root.
    c = 1/2 is the convention compatible with the Hopf structure.
    """

    dim: int
    c: complex
    matN: np.ndarray
    matA: np.ndarray
    matAdag: np.ndarray
    params: DeformParams

    def n_diag(self) -> np.ndarray:
        return np.diag(self.matN)

    def letters(self) -> dict:
        """The matrices of the letters N, a and adag."""
        return {"N": self.matN, "a": self.matA, "adag": self.matAdag}


def shared_params(rep1: FockRep, rep2: FockRep) -> DeformParams:
    """The DeformParams (q and kappa) of two representations on one tensor product."""
    if rep1.params != rep2.params:
        raise ParameterError("representations must share DeformParams")
    return rep1.params


def build_rep(D: int, c: complex, p: DeformParams) -> FockRep:
    """Build the truncated representation at dimension D and shift c.

    c = 0 reproduces the standard Fock ladder exactly (which is what
    satisfies the whole family of defining-relation variants); the
    generalized amplitude at c = 0 is a different operator that only
    satisfies the symmetrized relation, so it is not used there.
    """
    if D < 2:
        raise DimensionError("representation dimension must be at least 2")
    c = complex(c)
    n = np.arange(D)
    matN = np.diag((n + c).astype(complex))
    amp = np.zeros(D, dtype=complex)
    if c == 0:
        amp[1:] = np.sqrt(q_number(n[1:].astype(complex), p))
    else:
        base = q_number(c - 0.5, p)
        amp[1:] = np.sqrt(q_number(n[1:] + c - 0.5, p) - base)
    matA = np.zeros((D, D), dtype=complex)
    matAdag = np.zeros((D, D), dtype=complex)
    for k in range(1, D):
        matA[k - 1, k] = amp[k]
        matAdag[k, k - 1] = amp[k]
    for m in (matN, matA, matAdag):
        m.setflags(write=False)
    return FockRep(dim=D, c=c, matN=matN, matA=matA, matAdag=matAdag, params=p)


# ---------------------------------------------------------------------------
# defining relations


@dataclass(frozen=True)
class Relation:
    """lhs = rhs: lhs the sum of sign q^e (the word of letters) over its
    (sign, e, letters) terms, rhs a function rhs(n, p) of N's eigenvalues n
    (a diagonal) or one letter."""

    lhs: tuple
    rhs: Callable | str

    def terms(self, p: DeformParams) -> list[tuple[complex, tuple]]:
        return [(sign * p.q ** e, letters) for sign, e, letters in self.lhs]


_BRACKET = ((1, 0, ("a", "adag")), (-1, 0, ("adag", "a")))  # [a, a+]
#: the paper's presentations (R0 and R1 hold in every one; R0, [N, a] = -a, is
#: written a N - N a = a, as a letter right side takes no coefficient) and
#: the Casimir C = a+ a - [N - 1/2] set to zero
RELATIONS = {
    "R0": Relation(((1, 0, ("a", "N")), (-1, 0, ("N", "a"))), "a"),
    "R1": Relation(((1, 0, ("N", "adag")), (-1, 0, ("adag", "N"))), "adag"),
    "R2": Relation(_BRACKET, lambda n, p: q_number(n + 1, p) - q_number(n, p)),
    "R3": Relation(((1, 0, ("a", "adag")), (-1, -1, ("adag", "a"))), lambda n, p: q_power(n, p)),
    "R4": Relation(((1, 0, ("a", "adag")), (-1, 1, ("adag", "a"))), lambda n, p: q_power(-n, p)),
    "R5": Relation(((1, 0, ("adag", "a")),), lambda n, p: q_number(n, p)),
    "Ry": Relation(_BRACKET, lambda n, p: q_number(n + 0.5, p) - q_number(n - 0.5, p)),
    "C": Relation(((1, 0, ("adag", "a")),), lambda n, p: q_number(n - 0.5, p)),
}


def relation_sides(rel: str, letters: dict, p: DeformParams) -> tuple[np.ndarray, np.ndarray]:
    """Both sides of RELATIONS[rel] on one leg, letters[name] the matrix of
    each letter (N diagonal), q at p; a coefficient scales a word's first letter."""
    if rel not in RELATIONS:
        raise ParameterError(f"unknown relation {rel!r}")
    lhs = sum(reduce(np.matmul, (letters[ltr] for ltr in word[1:]), c * letters[word[0]])
              for c, word in RELATIONS[rel].terms(p))
    rhs = RELATIONS[rel].rhs
    return lhs, letters[rhs] if isinstance(rhs, str) else np.diag(rhs(np.diag(letters["N"]), p))


def check_relation(rep: FockRep, rel: str, window: Window | None = None) -> IdentityReport:
    """Windowed residual of the relation RELATIONS[rel] in the representation."""
    window = window or Window(rep.dim - 2, guard=1)
    return compare(f"relation_{rel}", {"q": str(rep.params.q), "c": str(rep.c)}, [rep.dim],
                   window.max_index, [window.cut(*relation_sides(rel, rep.letters(), rep.params))])


def casimir(rep: FockRep) -> np.ndarray:
    """a+ a - [N - 1/2], a scalar matrix -[c-1/2] I in the generalized family."""
    return np.subtract(*relation_sides("C", rep.letters(), rep.params))


def check_casimir_scalar(D: int, p: DeformParams) -> IdentityReport:
    """casimir = -[c - 1/2] I on the window n <= min(8, D - 2), at five shifts c."""
    win = Window(min(8, D - 2), guard=1)
    return compare("casimir_scalar", {"q": str(p.q)}, [D], win.max_index, (
        win.cut(casimir(build_rep(D, c, p)),
                -q_number(complex(c) - 0.5, p) * np.eye(D, dtype=complex))
        for c in (0.5, 1.0, 0.3, 2.0 + 0.5j, -0.7)))


def classical_limit_residual(D: int = 8, eps: float = 1e-6, kappa: int = 0) -> IdentityReport:
    """Windowed residual of [a, a+] = I at q = 1 + eps, c = 0, the bracket
    R2's left side.

    The symmetric bracket has even-order corrections in gamma, so this
    shrinks quadratically in eps (halving eps quarters the residual).
    """
    if eps == 0:
        raise ParameterError("eps must be nonzero (q = 1 is excluded)")
    rep = build_rep(D, 0.0, DeformParams(q=1.0 + eps, kappa=kappa))
    window = Window(D - 2, guard=1)
    lhs = relation_sides("R2", rep.letters(), rep.params)[0]
    return compare("classical_limit", {"eps": eps}, [D], window.max_index,
                   [window.cut(lhs, np.eye(D, dtype=complex))])
