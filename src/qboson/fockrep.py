"""Truncated number-basis representations of the deformed boson algebra.

Matrices are exact where they can be exact: the top Fock state is never
discarded, and every assertion is restricted to a leak-free window of
row/column indices whose entries agree with the untruncated operator.
A :class:`Window` records the window size W together with the guard g
(the largest intermediate raising degree of the operator word under
test); feasibility means W + g <= D - 1 in every tensor factor.
Window.cut takes a D x D matrix's window block for report.compare; the
two-leg checks cut theirs from pair-sector stacks (hopfops._mask).  Each check here reports the window it cut.
"""

from __future__ import annotations

from dataclasses import dataclass

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

RELATIONS = ("R1", "R2", "R3", "R4", "R5", "Ry")


def check_relation(rep: FockRep, rel: str, window: Window | None = None) -> IdentityReport:
    """Windowed residual of one defining-relation variant.

    R1: [N, a+] = a+          R2: [a, a+] = [N+1] - [N]
    R3: a a+ - q^-1 a+ a = q^N   R4: a a+ - q a+ a = q^-N
    R5: a+ a = [N]            Ry: [a, a+] = [N+1/2] - [N-1/2]
    """
    if rel not in RELATIONS:
        raise ParameterError(f"unknown relation {rel!r}")
    if window is None:
        window = Window(rep.dim - 2, guard=1)
    p = rep.params
    N, a, ad = rep.matN, rep.matA, rep.matAdag
    nd = rep.n_diag()
    if rel == "R1":
        lhs, rhs = N @ ad - ad @ N, ad
    elif rel == "R2":
        lhs = a @ ad - ad @ a
        rhs = np.diag(q_number(nd + 1, p) - q_number(nd, p))
    elif rel == "R3":
        lhs = a @ ad - (1.0 / p.q) * ad @ a
        rhs = np.diag(q_power(nd, p))
    elif rel == "R4":
        lhs = a @ ad - p.q * ad @ a
        rhs = np.diag(q_power(-nd, p))
    elif rel == "R5":
        lhs, rhs = ad @ a, np.diag(q_number(nd, p))
    else:  # Ry
        lhs = a @ ad - ad @ a
        rhs = np.diag(q_number(nd + 0.5, p) - q_number(nd - 0.5, p))
    return compare(f"relation_{rel}", {"q": str(p.q), "c": str(rep.c)}, [rep.dim],
                   window.max_index, [window.cut(lhs, rhs)])


def casimir(rep: FockRep) -> np.ndarray:
    """a+ a - [N - 1/2], a scalar matrix -[c-1/2] I in the generalized family."""
    return rep.matAdag @ rep.matA - np.diag(q_number(rep.n_diag() - 0.5, rep.params))


def check_casimir_scalar(D: int, p: DeformParams) -> IdentityReport:
    """casimir = -[c - 1/2] I on the window n <= min(8, D - 2), at five shifts c."""
    win = Window(min(8, D - 2), guard=1)
    return compare("casimir_scalar", {"q": str(p.q)}, [D], win.max_index, (
        win.cut(casimir(build_rep(D, c, p)),
                -q_number(complex(c) - 0.5, p) * np.eye(D, dtype=complex))
        for c in (0.5, 1.0, 0.3, 2.0 + 0.5j, -0.7)))


def classical_limit_residual(D: int = 8, eps: float = 1e-6, kappa: int = 0) -> IdentityReport:
    """Windowed residual of [a, a+] = I at q = 1 + eps, c = 0.

    The symmetric bracket has even-order corrections in gamma, so this
    shrinks quadratically in eps (halving eps quarters the residual).
    """
    if eps == 0:
        raise ParameterError("eps must be nonzero (q = 1 is excluded)")
    rep = build_rep(D, 0.0, DeformParams(q=1.0 + eps, kappa=kappa))
    window = Window(D - 2, guard=1)
    lhs = rep.matA @ rep.matAdag - rep.matAdag @ rep.matA
    return compare("classical_limit", {"eps": eps}, [D], window.max_index,
                   [window.cut(lhs, np.eye(D, dtype=complex))])
