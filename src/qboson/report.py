"""Identity reports, the one verdict policy and the one residual every check
reports through (compare), and the shared matrix dump format."""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

#: a residual at most TOL passes; (TOL, FAIL_FACTOR*TOL] is a gray zone, reported, never classified
TOL, FAIL_FACTOR = 1e-9, 100.0


def verdict_of(normalized: float) -> str:
    """pass, fail or the gray-zone info; a non-finite residual proves nothing
    and fails."""
    if not math.isfinite(normalized) or normalized > FAIL_FACTOR * TOL:
        return "fail"
    return "pass" if normalized <= TOL else "info"


def worst(values) -> float:
    """The largest of values, 0.0 when there are none; NaN when any is NaN,
    so a NaN residual is never dropped from a check's verdict."""
    return float(np.max(np.fromiter(values, dtype=float), initial=0.0))


def frobenius(x: np.ndarray) -> float:
    """||x||_F. Near q = 1 R's entries reach 1e250 or 1e-200, where their
    squares overflow or underflow, so when max|x| is a normal double outside
    (1e-150, 1e150) the sum runs over |x| / max|x|. Subnormal entries keep
    the plain sum: they carry too few digits to scale."""
    mag = np.abs(x)
    scale = float(mag.max(initial=0.0))
    if np.finfo(float).tiny <= scale < math.inf and not 1e-150 < scale < 1e150:
        mag /= scale
        return scale * math.sqrt(np.vdot(mag, mag))
    return math.sqrt(np.vdot(x, x).real)


def residual(lhs: np.ndarray, rhs: np.ndarray, floor: float = 1.0) -> tuple[float, float]:
    """(raw, normalized) residual of lhs - rhs, both already cut to the
    window: ||lhs - rhs||_F, and that over max(floor, ||rhs||_F).  The
    default floor keeps identities against zero matrices absolute; 1e-300
    lets a check whose absolute scale is moot divide by ||rhs||_F alone.
    A comparison with no entries proves nothing, so it raises; so does a
    relative one (floor below 1) whose ||rhs||_F is zero or subnormal: a
    right side that underflowed makes any left side that did too pass."""
    if np.size(diff := lhs - rhs) == 0:
        raise ValueError("the comparison has no entries (an empty window?)")
    raw, scale = frobenius(diff), frobenius(rhs)
    if floor < 1.0 and scale < np.finfo(float).tiny:
        raise ValueError(f"the right side's norm {scale:.3g} is zero or subnormal, "
                         "so the relative residual proves nothing (an underflowed R?)")
    return raw, raw / max(floor, scale)


@dataclass
class IdentityReport:
    """One record per checked identity."""

    identity: str
    params: dict
    dims: list
    window: int
    raw_residual: float
    normalized_residual: float
    verdict: str
    wall_time: float = 0.0
    error: str | None = None
    expected: str | None = None

    def as_dict(self) -> dict:
        """The report's fields, error and expected only when set."""
        return {key: value for key, value in vars(self).items() if value is not None}


def compare(identity: str, params: dict, dims, window: int, pairs,
            floor: float = 1.0) -> IdentityReport:
    """The report of (lhs, rhs) pairs already cut to the window: the largest
    raw and the largest normalized residual, each taken separately.  This is
    the one place a residual is measured; a check that compared nothing
    raises, so its case becomes an error report, never a pass."""
    res = [residual(lhs, rhs, floor) for lhs, rhs in pairs]
    if not res:
        raise ValueError(f"{identity}: no pair to compare")
    raw, nrm = (worst(col) for col in zip(*res))
    return IdentityReport(identity=identity, params=params, dims=list(dims), window=window,
                          raw_residual=raw, normalized_residual=nrm, verdict=verdict_of(nrm))


# ---------------------------------------------------------------------------
# matrix dump format (shared repo-wide): header "# rows cols", then one line
# per nonzero entry "row col re im" with 17 significant digits.


def dump_matrix(matrix: np.ndarray, path: str | Path) -> Path:
    path = Path(path)
    mat = np.atleast_2d(np.asarray(matrix, dtype=complex))
    rows, cols = mat.shape
    lines = [f"# {rows} {cols}"]
    for i in range(rows):
        for j in range(cols):
            v = mat[i, j]
            if v != 0:
                lines.append(f"{i} {j} {v.real:.16e} {v.imag:.16e}")
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path

