"""Identity reports, verdict classification and the shared matrix dump format."""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

#: residuals in (tol, 100*tol] are a gray zone and are reported, never classified
FAIL_FACTOR = 100.0


def verdict_of(normalized: float, tol: float) -> str:
    """pass, fail or the gray-zone info; a non-finite residual proves nothing
    and fails."""
    if not math.isfinite(normalized):
        return "fail"
    if normalized <= tol:
        return "pass"
    if normalized > FAIL_FACTOR * tol:
        return "fail"
    return "info"


def worst(values) -> float:
    """The largest of values, 0.0 when there are none; NaN when any is NaN,
    so a NaN residual is never dropped from a check's verdict."""
    return float(np.max(np.fromiter(values, dtype=float), initial=0.0))


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

    def as_dict(self, include_timing: bool = True) -> dict:
        out = {
            "identity": self.identity,
            "params": self.params,
            "dims": list(self.dims),
            "window": self.window,
            "raw_residual": self.raw_residual,
            "normalized_residual": self.normalized_residual,
            "verdict": self.verdict,
        }
        if include_timing:
            out["wall_time"] = self.wall_time
        if self.error is not None:
            out["error"] = self.error
        if self.expected is not None:
            out["expected"] = self.expected
        return out


def make_report(identity: str, params: dict, dims, window: int, raw: float,
                normalized: float, tol: float,
                verdict: str | None = None) -> IdentityReport:
    """A report with no wall time yet; the suite runner times each case."""
    return IdentityReport(
        identity=identity,
        params=params,
        dims=list(dims),
        window=window,
        raw_residual=float(raw),
        normalized_residual=float(normalized),
        verdict=verdict if verdict is not None else verdict_of(normalized, tol),
    )


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


def load_matrix(path: str | Path) -> np.ndarray:
    path = Path(path)
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines or not lines[0].startswith("#"):
        raise ValueError(f"{path}: missing '# rows cols' header")
    head = lines[0][1:].split()
    if len(head) != 2:
        raise ValueError(f"{path}: malformed header {lines[0]!r}")
    rows, cols = int(head[0]), int(head[1])
    mat = np.zeros((rows, cols), dtype=complex)
    for ln, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split()
        if len(parts) != 4:
            raise ValueError(f"{path}:{ln}: expected 'row col re im'")
        i, j = int(parts[0]), int(parts[1])
        mat[i, j] = float(parts[2]) + 1j * float(parts[3])
    return mat
