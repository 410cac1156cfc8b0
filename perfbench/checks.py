"""Correctness checks on what the qboson CLI wrote, made apart from the package.

Nothing here imports qboson and nothing is compared against a stored copy
of earlier output.  The checks recompute the quantum-double R-matrix and
the dual-pairing closed form from the paper's formulas with plain numpy,
and test the properties the method must have on the JSON reports.
Every check returns a list of problems; an empty list means it passed.
"""

from __future__ import annotations

import math
import re
from pathlib import Path

import numpy as np

#: tolerance of entrywise comparisons against the plain-numpy recomputations
RTOL = 1e-12
#: the published candidate must miss these identities by more than this
YAN_FAIL_FLOOR = 1e-7
YAN_MUST_FAIL = ("intertwiner_a", "intertwiner_adag", "yang_baxter",
                 "fusion_left", "fusion_right")
#: reports whose verdict the suite overrides to info for the two valid candidates
PASSING_EXEMPT = ("yan_relation_N", "yan_relation_a")

_TIMING_LINE = re.compile(r'^\s*"wall_time": [^\n]*\n', re.MULTILINE)


def strip_timing(text: str) -> str:
    """Report JSON text with its wall_time lines removed."""
    return _TIMING_LINE.sub("", text)


def load_matrix(path: Path) -> np.ndarray:
    """Read the package's '# rows cols' / 'row col re im' matrix dump."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    rows, cols = (int(v) for v in lines[0][1:].split())
    mat = np.zeros((rows, cols), dtype=complex)
    for line in lines[1:]:
        i, j, re_, im = line.split()
        mat[int(i), int(j)] = float(re_) + 1j * float(im)
    return mat


# ---------------------------------------------------------------------------
# the paper's scalars, written out from their definitions


class Scalars:
    """q**z = exp(z Log q) on the principal branch; alpha = 2 kappa pi + pi/2."""

    def __init__(self, q: complex, kappa: int = 0):
        self.q = complex(q)
        self.gamma = complex(np.log(self.q))
        self.alpha = 2.0 * kappa * math.pi + math.pi / 2.0

    def pow(self, z) -> complex:
        return complex(np.exp(complex(z) * self.gamma))

    def qnum(self, x) -> complex:
        """[x] = (q^x - q^-x) / (q - q^-1)."""
        return (self.pow(x) - self.pow(-x)) / (self.q - 1.0 / self.q)

    def half_index_product(self, k: int) -> complex:
        out = 1.0 + 0.0j
        for j in range(1, k + 1):
            out *= self.qnum(j / 2.0)
        return out


def quantum_double_r(q: complex, D: int, W: int, kappa: int = 0) -> np.ndarray:
    """The quantum-double R on factor indices <= W, from the series

        R = q^{(N - i alpha/gamma) (x) (N - i alpha/gamma)}
            sum_k c_k q^{kN/2} adag^k (x) q^{-kN/2} a^k,
        c_k = i^k q^{-k(k+1)/4} / prod_{j<=k} [j/2],

    in the representation N|n> = (n + 1/2)|n>, a|n> = [n]^{1/2} |n-1>.
    Rows and columns are (n1, n2) flattened with stride D, restricted to
    the window, so the block lines up with the dumped D^2 x D^2 matrix.
    """
    s = Scalars(q, kappa)
    iag = 1j * s.alpha / s.gamma
    root = [complex(np.sqrt(s.qnum(n))) for n in range(D)]
    size = (W + 1) ** 2
    R = np.zeros((size, size), dtype=complex)
    for j1 in range(W + 1):
        for j2 in range(W + 1):
            for k in range(0, min(j2, W - j1) + 1):
                i1, i2 = j1 + k, j2 - k
                c_k = (1j ** k) * s.pow(-k * (k + 1) / 4.0) / s.half_index_product(k)
                raise_amp = s.pow(k * (i1 + 0.5) / 2.0) * math.prod(root[j1 + 1:i1 + 1])
                lower_amp = s.pow(-k * (i2 + 0.5) / 2.0) * math.prod(root[i2 + 1:j2 + 1])
                pref = s.pow((i1 + 0.5 - iag) * (i2 + 0.5 - iag))
                R[i1 * (W + 1) + i2, j1 * (W + 1) + j2] = pref * c_k * raise_amp * lower_amp
    return R


def window_of(mat: np.ndarray, D: int, W: int) -> np.ndarray:
    idx = [n1 * D + n2 for n1 in range(W + 1) for n2 in range(W + 1)]
    return mat[np.ix_(idx, idx)]


def check_r_window(R: np.ndarray, q: complex, D: int, kappa: int = 0) -> list[str]:
    """The dumped quantum-double R against the recomputed series on the
    window n1, n2 <= (D-1)//2, whose total-number sectors fit whole."""
    W = (D - 1) // 2
    want = quantum_double_r(q, D, W, kappa)
    got = window_of(R, D, W)
    err = np.abs(got - want)
    allowed = RTOL * np.abs(want) + 1e-14 * np.abs(want).max()
    if not np.all(np.isfinite(got)) or np.any(err > allowed):
        worst = float(np.max(err / np.maximum(np.abs(want), 1e-300)))
        return [f"quantum-double R at q={q}, D={D}: window differs from the series "
                f"(worst relative deviation {worst:.3e})"]
    return []


def check_specialization(general: np.ndarray, double: np.ndarray, q: complex) -> list[str]:
    """The general family at m=1/2, K=-2kappa-1, lower is the quantum double."""
    dev = float(np.max(np.abs(general - double)))
    scale = float(np.max(np.abs(double)))
    if general.shape != double.shape or not dev <= 1e-12 * scale:
        return [f"general family at the canonical point differs from the quantum "
                f"double at q={q}: max deviation {dev:.3e} of scale {scale:.3e}"]
    return []


def pairing_closed_form(q: complex, kmax: int, mmax: int, kappa: int = 0) -> np.ndarray:
    """<(k,m), (l,n)> = d_kl d_mn n! (-i)^k q^{k(k+1)/4} gamma^-n prod_{j<=k} [j/2],
    ordered like the package's Gram table: (k, m) with m running fastest."""
    s = Scalars(q, kappa)
    pairs = [(k, m) for k in range(kmax + 1) for m in range(mmax + 1)]
    C = np.zeros((len(pairs), len(pairs)), dtype=complex)
    for i, (k, m) in enumerate(pairs):
        C[i, i] = (math.factorial(m) * (-1j) ** k * s.pow(k * (k + 1) / 4.0)
                   / s.gamma ** m * s.half_index_product(k))
    return C


def check_pairing(G: np.ndarray, q: complex, kmax: int, mmax: int,
                  kappa: int = 0) -> list[str]:
    C = pairing_closed_form(q, kmax, mmax, kappa)
    if G.shape != C.shape:
        return [f"pairing Gram at q={q} has shape {G.shape}, expected {C.shape}"]
    rel = float(np.max(np.abs(G - C)) / np.max(np.abs(C)))
    if not rel <= RTOL:
        return [f"pairing Gram at q={q} misses the closed form: relative "
                f"deviation {rel:.3e} > {RTOL:g}"]
    return []


# ---------------------------------------------------------------------------
# properties of one verify report


def check_property_split(doc: dict) -> list[str]:
    """Valid candidates pass, the published candidate fails where it must."""
    problems = []
    q = doc["config"].get("q")
    seen_yan, seen_kinds = set(), set()
    for rep in doc["results"]:
        rspec = rep["params"].get("rspec")
        ident, verdict = rep["identity"], rep["verdict"]
        if rspec is None:
            continue
        seen_kinds.add(rspec.split("(")[0])
        if rspec == "yan_claimed":
            if ident in YAN_MUST_FAIL:
                seen_yan.add(ident)
                if not rep["normalized_residual"] > YAN_FAIL_FLOOR:
                    problems.append(f"q={q}: yan_claimed {ident} residual "
                                    f"{rep['normalized_residual']:.3e} <= {YAN_FAIL_FLOOR:g}")
            elif ident == "intertwiner_N" and verdict != "pass":
                problems.append(f"q={q}: yan_claimed intertwiner_N is {verdict}")
        elif ident not in PASSING_EXEMPT and verdict != "pass":
            problems.append(f"q={q}: {rspec} {ident} is {verdict}")
    missing = set(YAN_MUST_FAIL) - seen_yan
    if missing:
        problems.append(f"q={q}: no yan_claimed report for {sorted(missing)}")
    for kind in {"quantum_double", "general_family"} - seen_kinds:
        problems.append(f"q={q}: no {kind} report")
    return problems
