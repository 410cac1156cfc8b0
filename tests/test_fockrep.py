import functools
import itertools

import numpy as np
import pytest

from qboson import DeformParams, ParameterError, Window, build_rep, casimir, q_number
from qboson.fockrep import DimensionError, WindowError, check_relation, classical_limit_residual
from qboson.report import residual


# ---------------------------------------------------------------------------
# dense n-leg windowing, an oracle: the package cuts only D x D windows
# (Window.cut) and pair-sector stacks (hopfops._mask)


@functools.cache
def window_indices(dims: tuple[int, ...], max_index: int) -> np.ndarray:
    """Flat indices of the tensor-product basis with every factor <= max_index.

    Built once per (dims, max_index) and shared, so the array is read-only."""
    keep = []
    for tup in itertools.product(*(range(min(d, max_index + 1)) for d in dims)):
        flat = 0
        for t, d in zip(tup, dims):
            flat = flat * d + t
        keep.append(flat)
    idx = np.array(sorted(keep), dtype=int)
    idx.setflags(write=False)
    return idx


def window_block(mat: np.ndarray, dims: tuple[int, ...], window: Window) -> np.ndarray:
    window.validate(*dims)
    idx = window_indices(dims, window.max_index)
    return mat[np.ix_(idx, idx)]


def windowed_residual(lhs: np.ndarray, rhs: np.ndarray, dims: tuple[int, ...],
                      window: Window) -> tuple[float, float]:
    """report.residual of the window blocks of two dense n-leg operators."""
    return residual(window_block(lhs, dims, window), window_block(rhs, dims, window))


ZONES = ("pass", "info", "fail")  # verdicts in order of the normalized residual


def test_build_rep_fock_preset():
    p = DeformParams(q=1.3)
    rep = build_rep(2, 0.0, p)
    assert rep.matAdag[1, 0] == pytest.approx(1.0)  # [1]**(1/2)
    assert np.allclose(np.diag(rep.matN), [0.0, 1.0])


def test_build_rep_half_shift():
    p = DeformParams(q=1.3)
    rep = build_rep(2, 0.5, p)
    assert np.allclose(np.diag(rep.matN), [0.5, 1.5])
    # c = 1/2 ladder coincides with the standard Fock ladder
    rep0 = build_rep(6, 0.0, p)
    rep5 = build_rep(6, 0.5, p)
    assert np.allclose(rep0.matA, rep5.matA, atol=1e-14)


def test_build_rep_generalized_amplitude():
    p = DeformParams(q=2.0)
    rep = build_rep(2, 1.0, p)
    want = np.sqrt(q_number(1.5, p) - q_number(0.5, p))
    assert rep.matAdag[1, 0] == pytest.approx(want)
    assert abs(rep.matAdag[1, 0] - 1.08561) < 1e-4


def test_build_rep_band_structure(params):
    rep = build_rep(7, 0.5, params)
    assert np.allclose(rep.matA, np.triu(rep.matA, 1))
    assert np.count_nonzero(rep.matA - np.diag(np.diag(rep.matA, 1), 1)) == 0
    assert np.allclose(rep.matAdag, rep.matA.T)  # same amplitudes, transposed band


def test_build_rep_rejects_small_dim():
    with pytest.raises(DimensionError):
        build_rep(1, 0.0, DeformParams(q=1.3))


def test_matrices_are_frozen():
    rep = build_rep(4, 0.0, DeformParams(q=1.3))
    with pytest.raises(ValueError):
        rep.matA[0, 0] = 1.0


@pytest.mark.parametrize("rel", ["R2", "R3", "R4", "R5"])
def test_fock_preset_satisfies_all_variants(params, rel):
    rep = build_rep(12, 0.0, params)
    assert check_relation(rep, rel, Window(8, guard=1)).normalized_residual <= 1e-12


@pytest.mark.parametrize("rel", ["R1", "Ry"])
def test_half_shift_satisfies_symmetrized(params, rel):
    rep = build_rep(12, 0.5, params)
    assert check_relation(rep, rel, Window(8, guard=1)).normalized_residual <= 1e-12


def test_generalized_rep_fails_r5(params_real):
    # a+ a = [N - 1/2] - [c - 1/2] differs from [N] once c != 1/2
    rep = build_rep(12, 1.0, params_real)
    assert check_relation(rep, "R5", Window(10, guard=1)).normalized_residual > 1e-3


def test_relation_r1_any_shift(params):
    for c in (0.0, 0.5, 1.0, 0.3 + 0.1j):
        rep = build_rep(10, c, params)
        assert check_relation(rep, "R1", Window(8, guard=1)).normalized_residual <= 1e-12


def test_check_relation_rejects_unknown(params_real):
    rep = build_rep(6, 0.0, params_real)
    with pytest.raises(ParameterError):
        check_relation(rep, "R9", Window(4, guard=1))


def test_casimir_scalar(params):
    D = 10
    for c in (0.5, 1.0, 0.3, 2.0 + 0.5j, -0.7):
        rep = build_rep(D, c, params)
        want = -q_number(complex(c) - 0.5, params) * np.eye(D)
        assert np.linalg.norm(casimir(rep) - want) <= 1e-12
    # c = 1/2 kills it on the whole truncation
    assert np.linalg.norm(casimir(build_rep(D, 0.5, params))) <= 1e-13


def test_classical_limit_absolute():
    assert classical_limit_residual(8, 1e-3).normalized_residual < 1e-2
    report = classical_limit_residual()  # the suite's case: D = 8, eps = 1e-6
    assert (report.dims, report.window, report.params) == ([8], 6, {"eps": 1e-6})
    assert report.normalized_residual < 1e-5 and report.verdict == "pass"


def test_classical_limit_rate_is_quadratic():
    # frozen from the halving oracle: the symmetric bracket has even-order
    # corrections, so halving eps quarters the residual
    r1, r2, r3 = (classical_limit_residual(8, eps).normalized_residual
                  for eps in (1e-3, 5e-4, 2.5e-4))
    assert 0.2 < r2 / r1 < 0.3
    assert 0.2 < r3 / r2 < 0.3


def test_classical_limit_d2_window_is_exact():
    # the only windowed entry is [1] - 1 = 0
    report = classical_limit_residual(2, 1e-3)
    assert report.window == 0 and report.normalized_residual <= 1e-15


def test_classical_limit_rejects_zero_eps():
    with pytest.raises(ParameterError):
        classical_limit_residual(8, 0.0)


def test_window_validation():
    Window(3, guard=2).validate(6)
    with pytest.raises(WindowError):
        Window(4, guard=2).validate(6)
    with pytest.raises(WindowError):
        Window(-1)


def test_window_indices_tensor():
    idx = window_indices((3, 3), 1)
    assert list(idx) == [0, 1, 3, 4]  # (0,0), (0,1), (1,0), (1,1)


@pytest.mark.parametrize("dims, max_index", [((6,), 3), ((5, 5, 5), 2), ((4, 7), 5), ((3, 2, 4), 9)])
def test_window_indices_cached_and_read_only(dims, max_index):
    # the flat indices of every basis tuple with all factors <= max_index
    want = sorted(int(np.ravel_multi_index(t, dims)) for t in np.ndindex(*dims)
                  if max(t) <= max_index)
    idx = window_indices(dims, max_index)
    assert idx.tolist() == want
    assert window_indices(dims, max_index) is idx  # one array per (dims, max_index)
    with pytest.raises(ValueError):
        idx[0] = 1


def test_residual_normalization():
    lhs = np.eye(4) * 2.0
    rhs = np.eye(4)
    raw, nrm = windowed_residual(lhs, rhs, (4,), Window(3))
    assert raw == pytest.approx(2.0)
    assert nrm == pytest.approx(1.0)


def test_leak_free_window_words(params):
    # any word computed at D and 2D agrees on the guarded window
    D = 6
    rep1, rep2 = build_rep(D, 0.5, params), build_rep(2 * D, 0.5, params)
    words = [("adag", "a"), ("a", "adag"), ("adag", "adag", "a", "a"),
             ("a", "a", "adag", "adag"), ("N", "adag", "a", "N")]
    mats1 = {"N": rep1.matN, "a": rep1.matA, "adag": rep1.matAdag}
    mats2 = {"N": rep2.matN, "a": rep2.matA, "adag": rep2.matAdag}
    for letters in words:
        raising = np.cumsum([{"adag": 1, "a": -1, "N": 0}[l] for l in letters[::-1]])
        guard = max(0, int(raising.max()))
        win = Window(D - 1 - guard, guard=guard)
        m1 = np.eye(D, dtype=complex)
        m2 = np.eye(2 * D, dtype=complex)
        for l in letters:
            m1 = m1 @ mats1[l]
            m2 = m2 @ mats2[l]
        b1 = window_block(m1, (D,), win)
        b2 = window_block(m2, (2 * D,), win)
        # 1e-14 absolute, graded to relative for entries above unit size
        # (BLAS summation order differs between truncations by one ulp)
        assert np.abs(b1 - b2).max() <= 1e-14 * max(1.0, np.abs(b1).max())
