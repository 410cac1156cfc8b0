"""Complex q-arithmetic: symmetric q-numbers, half-index products and
branch-consistent complex powers of q, and the three identities the suite
checks them by.

Every power of q in this package is exp(z * gamma) for one fixed
gamma = Log(q) (principal branch), recorded in :class:`DeformParams`.
Mixing branches would silently break the exp(-i*alpha) = -i identities
the Hopf structure relies on, so gamma is chosen exactly once.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .report import IdentityReport, compare

#: largest n probed by the root-of-unity exclusion check
_ROOT_OF_UNITY_PROBE = 64
_ROOT_OF_UNITY_TOL = 1e-12
#: the integers kappa and K enter float arithmetic, exact only up to this size
MAX_EXACT_INT = 2 ** 53


class ParameterError(ValueError):
    """Raised for invalid deformation parameters or representation inputs."""


@dataclass(frozen=True)
class DeformParams:
    """Deformation parameter q with its fixed logarithm branch.

    gamma = Log(q) (principal) and alpha = 2*kappa*pi + pi/2 are derived
    once at construction; every q**z in the package is exp(z * gamma).
    q on the negative real axis is rejected (the principal log is
    discontinuous there), as are q = 0, near-roots of unity up to
    order 64 (finite float proxy for the exact exclusion) and a kappa
    beyond MAX_EXACT_INT.
    """

    q: complex
    kappa: int = 0
    gamma: complex = field(init=False)
    alpha: float = field(init=False)

    def __post_init__(self):
        q = complex(self.q)
        if not cmath.isfinite(q):
            raise ParameterError("q must be finite")
        if abs(self.kappa) > MAX_EXACT_INT:
            raise ParameterError("|kappa| must be at most 2**53, "
                                 "where integers are exact as floats")
        if q == 0:
            raise ParameterError("q must be nonzero")
        if q.imag == 0 and q.real < 0:
            raise ParameterError("q on the negative real axis is rejected "
                                 "(principal-log branch ambiguity)")
        w = 1.0 + 0.0j
        for n in range(1, _ROOT_OF_UNITY_PROBE + 1):
            w *= q
            if abs(w - 1.0) <= _ROOT_OF_UNITY_TOL:
                raise ParameterError(
                    f"q is (numerically) a root of unity of order {n}")
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "gamma", complex(np.log(q)))
        object.__setattr__(self, "alpha", 2.0 * self.kappa * math.pi + math.pi / 2.0)

    @property
    def ialpha_over_gamma(self) -> complex:
        """The constant i*alpha/gamma appearing throughout the Hopf structure."""
        return 1j * self.alpha / self.gamma

    @property
    def on_unit_circle(self) -> bool:
        """True when |q| = 1 (permitted, but flagged in reports)."""
        return abs(abs(self.q) - 1.0) <= 1e-12

    def inverted(self) -> "DeformParams":
        """Parameters rebuilt at 1/q with the same branch integer kappa.

        gamma negates exactly (principal log of the reciprocal), so the
        constant i*alpha/gamma flips sign.
        """
        return DeformParams(q=1.0 / self.q, kappa=self.kappa)


def q_power(z, p: DeformParams):
    """q**z := exp(z * gamma), elementwise on arrays."""
    return np.exp(np.asarray(z, dtype=complex) * p.gamma) if isinstance(z, np.ndarray) \
        else complex(np.exp(complex(z) * p.gamma))


def q_number(x, p: DeformParams):
    """Symmetric q-number [x] = (q**x - q**-x) / (q - 1/q), elementwise on arrays.

    Evaluated as sinh(x*gamma)/sinh(gamma): identical by definition of
    q**z = exp(z*gamma), but free of the exponential-difference
    cancellation that would otherwise drown the q -> 1 limit in noise.
    """
    if isinstance(x, np.ndarray):
        return np.sinh(x.astype(complex) * p.gamma) / np.sinh(p.gamma)
    return complex(np.sinh(complex(x) * p.gamma) / np.sinh(p.gamma))


def half_index_product(k: int, p: DeformParams) -> complex:
    """prod_{j=1..k} [j/2]; the empty product (k = 0) is 1.

    This is the denominator of the k-th term of the R-matrix series.
    """
    if k < 0:
        raise ParameterError("half_index_product requires k >= 0")
    out = 1.0 + 0.0j
    for j in range(1, k + 1):
        out *= q_number(j / 2.0, p)
    return out


# ---------------------------------------------------------------------------
# scalar identities: each compares its two sides over all of its inputs


def check_qpower_additivity(pairs, p: DeformParams) -> IdentityReport:
    """q**(z1 + z2) = q**z1 q**z2 at each pair (z1, z2)."""
    lhs = np.array([q_power(z1 + z2, p) for z1, z2 in pairs])
    rhs = np.array([q_power(z1, p) * q_power(z2, p) for z1, z2 in pairs])
    return compare("qscalars_qpower_additivity", {"q": str(p.q)}, [len(lhs)], 0, [(lhs, rhs)])


def check_qnum_inversion(points, p: DeformParams) -> IdentityReport:
    """[x] is the same at q and at 1/q, at each point x."""
    x = np.array(points, dtype=complex)
    return compare("qscalars_qnum_inversion", {"q": str(p.q)}, [len(x)], 0,
                   [(q_number(x, p), q_number(x, p.inverted()))])


def check_half_index_recursion(p: DeformParams) -> IdentityReport:
    """prod_{j<=k} [j/2] = prod_{j<k} [j/2] (q^{k/2} - q^{-k/2}) / (q - 1/q) at each
    k = 1..12, over the right side; the factor is q_power's, not q_number's sinh form."""
    k, prod = np.arange(1, 13), np.array([half_index_product(j, p) for j in range(13)])
    step = (q_power(k / 2.0, p) - q_power(-k / 2.0, p)) / (p.q - 1.0 / p.q)
    return compare("qscalars_half_index_recursion", {"q": str(p.q)}, [12], 0,
                   zip(prod[1:, None], (prod[:-1] * step)[:, None]), floor=1e-300)
