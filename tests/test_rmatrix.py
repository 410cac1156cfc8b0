import cmath
import math
import sys
from concurrent.futures import ThreadPoolExecutor
from functools import reduce

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qboson import DeformParams, ParameterError, Window, build_rep, q_power, rmatrix
from qboson.hopfops import (HopfFamily, _coproduct_blocks, _pair_sectors, _word_blocks,
                            antipode_op, counit, qpow, rep_word, word)
from qboson.report import TOL, verdict_of
from qboson.rmatrix import (RSpec, _antipode_blocks, _dressed_powers, _ladder, _r_chains, _series,
                            build_r, check_antipode_inverse, check_counit, check_fusion,
                            check_intertwiner, check_yan_relation, check_yang_baxter,
                            family_for)
from test_hopfops import coproduct_op, opposite_coproduct_op, qbar_coproduct_op, scatter
from test_fockrep import window_block, window_indices, windowed_residual

QD = RSpec(kind="quantum_double")
YAN = RSpec(kind="yan_claimed")


def _embed_r13(Rpair: np.ndarray, D1: int, D2: int, D3: int) -> np.ndarray:
    """Embed an operator on factors (1, 3) into the triple product."""
    M = np.kron(Rpair, np.eye(D2, dtype=complex))  # acts on ordering (1, 3, 2)
    M = M.reshape(D1, D3, D2, D1, D3, D2).transpose(0, 2, 1, 3, 5, 4)
    return M.reshape(D1 * D2 * D3, D1 * D2 * D3)


def test_rspec_validation():
    with pytest.raises(ParameterError):
        RSpec(kind="mystery")
    with pytest.raises(ParameterError):
        RSpec(kind="general_family", m=0.5)  # missing K, sign
    with pytest.raises(ParameterError):
        RSpec(kind="quantum_double", m=0.5, K=0, sign="lower")
    spec = RSpec(kind="general_family", m=1.0, K=0, sign="upper")
    assert "general_family" in spec.label()


def test_family_for(params):
    assert family_for(QD, params) == HopfFamily.canonical(params)
    fam = family_for(RSpec(kind="general_family", m=1.0, K=0, sign="upper"), params)
    assert fam.m == 1.0 and fam != HopfFamily.canonical(params)


def test_build_r_diagonal_prefactor(params):
    # the k = 0 term puts q**((n1 + c - ia/g)(n2 + c - ia/g)) on the diagonal
    rep = build_rep(6, 0.5, params)
    R = build_r(QD, rep, rep)
    iag = params.ialpha_over_gamma
    n = rep.n_diag()
    want = q_power(np.multiply.outer(n - iag, n - iag).reshape(-1), params)
    assert np.allclose(np.diag(R), want)


GF = RSpec(kind="general_family", m=1.0, K=0, sign="upper")


def series_words(series, k):
    """(u_k, v_k) of the k-th series term: the raising word q^{k su N} adag^k
    and the lowering word q^{k sv N} a^k."""
    return (word(qpow(series.su * k), *(("adag",) * k)),
            word(qpow(series.sv * k), *(("a",) * k)))


def word_by_word_r(spec, rep1, rep2):
    """pref * sum_k c_k kron(u_k, v_k), each word's matrix formed letter by letter."""
    p = rep1.params
    series = _series(spec, p)
    pref = q_power(series.exponent(rep1.n_diag(), rep2.n_diag()), p).reshape(-1)
    total = np.zeros((rep1.dim * rep2.dim,) * 2, dtype=complex)
    for k in range(rep2.dim):
        u, v = series_words(series, k)
        total += series.coefficient(k) * np.kron(rep_word(u, rep1), rep_word(v, rep2))
    return pref[:, None] * total


@pytest.mark.parametrize("q", [1.3, 0.7 + 0.2j, 0.8])
@pytest.mark.parametrize("D", [6, 9])
@pytest.mark.parametrize("spec", [QD, YAN, GF], ids=lambda s: s.kind)
def test_build_r_matches_word_by_word(q, D, spec):
    # build_r takes its legs from one ladder product per k
    rep = build_rep(D, 0.5, DeformParams(q=q))
    got = build_r(spec, rep, rep)
    want = word_by_word_r(spec, rep, rep)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def antipode_leg(spec, fam, rep1, rep2):
    """(S (x) I)R as a dense matrix, scattered from its sector blocks."""
    return scatter(_antipode_blocks(spec, fam, rep1, rep2), (rep1.dim, rep2.dim), 0)


@pytest.mark.parametrize("spec", [QD, YAN, GF], ids=lambda s: s.kind)
def test_antipode_leg_matches_products(params, spec):
    # (S (x) I)R term by term as (S(u_k) (x) I) diag(pref) (I (x) v_k)
    rep1, rep2 = build_rep(7, 0.5, params), build_rep(6, 0.5, params)
    fam = family_for(spec, params)
    series = _series(spec, params)
    sn = -rep1.n_diag() + fam.antipode_N_shift()
    pref = q_power(series.exponent(sn, rep2.n_diag()), params).reshape(-1)
    I1, I2 = np.eye(7, dtype=complex), np.eye(6, dtype=complex)
    want = sum(series.coefficient(k) * (
        np.kron(antipode_op(series_words(series, k)[0], rep1, fam), I2)
        @ (pref[:, None] * np.kron(I1, rep_word(series_words(series, k)[1], rep2))))
        for k in range(6))
    got = antipode_leg(spec, fam, rep1, rep2)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_build_r_requires_shared_params():
    rep1 = build_rep(4, 0.5, DeformParams(q=1.3))
    rep2 = build_rep(4, 0.5, DeformParams(q=1.4))
    with pytest.raises(ParameterError):
        build_r(QD, rep1, rep2)


def test_counit_rejects_mismatched_params():
    # as every other pairwise check does
    rep1 = build_rep(6, 0.5, DeformParams(q=1.3))
    rep2 = build_rep(6, 0.5, DeformParams(q=0.7))
    with pytest.raises(ParameterError, match="share DeformParams"):
        check_counit(QD, rep1, rep2)


def test_counit_reads_the_counit_of_n(params, monkeypatch):
    # each counit side is R's diagonal factor with eps(N) on one leg: an eps(N)
    # 1e-3 off fails both sides, for the double and for a family point off it
    rep = build_rep(8, 0.5, params)
    assert {r.verdict for spec in (QD, GF) for r in check_counit(spec, rep, rep)} == {"pass"}
    counit_n = HopfFamily.counit_N
    monkeypatch.setattr(HopfFamily, "counit_N", lambda fam: counit_n(fam) + 1e-3)
    for spec in (QD, GF):
        assert [(r.identity, r.verdict) for r in check_counit(spec, rep, rep)] == [
            ("counit_left", "fail"), ("counit_right", "fail")], spec.kind


def test_pairwise_checks_reject_mismatched_kappa():
    # DeformParams is q and kappa: R carries rep1's kappa, so reps that share
    # only q are rejected by the R-matrix and by Delta in every order
    rep0 = build_rep(6, 0.5, DeformParams(q=1.3, kappa=0))
    rep1 = build_rep(6, 0.5, DeformParams(q=1.3, kappa=1))
    for a, b in ((rep0, rep1), (rep1, rep0)):
        for call in (lambda: build_r(QD, a, b), lambda: check_counit(QD, a, b),
                     lambda: check_intertwiner(QD, a, b, "N"),
                     lambda: check_antipode_inverse(QD, a, b),
                     lambda: check_yan_relation(YAN, a, b, "a")):
            with pytest.raises(ParameterError, match="share DeformParams"):
                call()


def test_series_termination_exact(params):
    # the k-sum is exactly finite: doubling the second factor changes
    # nothing on the common window
    rep1 = build_rep(8, 0.5, params)
    rep2a = build_rep(8, 0.5, params)
    rep2b = build_rep(16, 0.5, params)
    win = Window(5, guard=2)
    Ra = window_block(build_r(QD, rep1, rep2a), (8, 8), win)
    idx1 = window_indices((8,), win.max_index)
    idx2 = window_indices((16,), win.max_index)
    Rb_full = build_r(QD, rep1, rep2b)
    flat = [i1 * 16 + i2 for i1 in idx1 for i2 in idx2]
    Rb = Rb_full[np.ix_(flat, flat)]
    assert np.abs(Ra - Rb).max() <= 1e-14 * max(1.0, np.abs(Ra).max())


def test_specialization_matches_quantum_double():
    # the canonical grid point of the general family IS the double's R
    for kappa in (0, 1):
        p = DeformParams(q=1.3, kappa=kappa)
        rep = build_rep(10, 0.5, p)
        spec = RSpec(kind="general_family", m=0.5, K=-2 * kappa - 1, sign="lower")
        Rg = build_r(spec, rep, rep)
        Rq = build_r(QD, rep, rep)
        assert np.abs(Rg - Rq).max() <= 1e-12 * max(1.0, np.abs(Rq).max())


@pytest.mark.parametrize("gen", ["N", "a", "adag"])
def test_quantum_double_intertwiner(params, gen):
    rep = build_rep(12, 0.5, params)
    rpt = check_intertwiner(QD, rep, rep, gen, Window(4, guard=1))
    assert rpt.normalized_residual <= 1e-9
    assert rpt.verdict == "pass"


def test_intertwiner_monotone_in_dimension(params_real):
    # fixed window, every admissible D: exactness is not a lucky truncation
    for D in (6, 8, 10, 12):
        rep = build_rep(D, 0.5, params_real)
        rpt = check_intertwiner(QD, rep, rep, "a", Window(4, guard=1))
        assert rpt.normalized_residual <= 1e-9, D


def test_yan_intertwiner_fails_robustly():
    # the failure must survive truncation growth and both q branches
    for q in (1.3, 0.7 + 0.2j):
        p = DeformParams(q=q)
        for D in (8, 12):
            rep = build_rep(D, 0.5, p)
            rpt = check_intertwiner(YAN, rep, rep, "a", Window(4, guard=1))
            assert rpt.normalized_residual > 100 * TOL, (q, D)
            assert rpt.verdict == "fail"


def test_yan_intertwiner_n_holds_trivially(params):
    # both candidates commute with N (x) I + I (x) N, so the N-intertwiner
    # cannot distinguish them; the lowering generator does
    rep = build_rep(10, 0.5, params)
    rpt = check_intertwiner(YAN, rep, rep, "N", Window(4, guard=1))
    assert rpt.normalized_residual <= 1e-12


def test_yang_baxter(params):
    rep = build_rep(8, 0.5, params)
    rpt = check_yang_baxter(QD, rep, rep, rep)
    assert rpt.normalized_residual <= 1e-8
    assert rpt.window == 3  # auto window obeys 2W <= D - 1
    bad = check_yang_baxter(YAN, rep, rep, rep)
    assert bad.normalized_residual > 100 * TOL
    assert bad.verdict == "fail"


def test_yang_baxter_near_classical():
    p = DeformParams(q=1.0 + 1e-6)
    rep = build_rep(8, 0.5, p)
    rpt = check_yang_baxter(QD, rep, rep, rep)
    assert rpt.normalized_residual <= 1e-8


def test_intertwiners_near_classical_do_not_overflow():
    # at q = 1.005 the general family's R reaches 1e200 on the window, so its
    # squared entries overflow; the residual and its ||R|| ||Delta|| scale
    # must still be finite, and the true identity must pass at rounding level
    p = DeformParams(q=1.005)
    spec = RSpec("general_family", m=1.0, K=0, sign="upper")
    rep = build_rep(8, 0.5, p)
    for gen in ("N", "a", "adag"):
        rpt = check_intertwiner(spec, rep, rep, gen)
        assert math.isfinite(rpt.raw_residual), gen
        assert rpt.normalized_residual <= 1e-13, gen
        assert rpt.verdict == "pass", gen


def test_fusion(params):
    rep = build_rep(8, 0.5, params)
    for rpt in check_fusion(QD, rep, rep, rep):
        assert rpt.normalized_residual <= 1e-8, rpt.identity
    bad = check_fusion(YAN, rep, rep, rep)
    assert max(r.normalized_residual for r in bad) > 100 * TOL


def test_general_family_grid_point(params):
    # a non-canonical family member passes its whole identity suite
    spec = RSpec(kind="general_family", m=1.0, K=0, sign="upper")
    rep = build_rep(10, 0.5, params)
    rep8 = build_rep(8, 0.5, params)
    for gen in ("N", "a", "adag"):
        assert check_intertwiner(spec, rep, rep, gen,
                                 Window(4, guard=1)).normalized_residual <= 1e-9
    assert check_yang_baxter(spec, rep8, rep8, rep8).normalized_residual <= 1e-8
    for rpt in check_fusion(spec, rep8, rep8, rep8):
        assert rpt.normalized_residual <= 1e-8
    for rpt in check_counit(spec, rep, rep):
        assert rpt.normalized_residual <= 1e-12


def test_antipode_inverse(params):
    rep = build_rep(12, 0.5, params)
    fam = HopfFamily.canonical(params)
    rpt = check_antipode_inverse(QD, rep, rep, Window(4, guard=1))
    assert rpt.normalized_residual <= 1e-9
    # explicit two-sided check of the leg construction
    R = build_r(QD, rep, rep)
    Rinv = antipode_leg(QD, fam, rep, rep)
    eye = np.eye(144)
    win = Window(4, guard=1)
    assert np.abs(window_block(R @ Rinv - eye, (12, 12), win)).max() <= 1e-9
    assert np.abs(window_block(Rinv @ R - eye, (12, 12), win)).max() <= 1e-9


def test_counit_normalization(params):
    rep = build_rep(10, 0.5, params)
    for rpt in check_counit(QD, rep, rep):
        assert rpt.normalized_residual <= 1e-12
    # the published candidate does not pass counit normalization
    worst = max(r.normalized_residual for r in check_counit(YAN, rep, rep))
    assert worst > 1e-3


def test_yan_relation(params):
    rep = build_rep(12, 0.5, params)
    # the candidate named after the relation does not satisfy it
    rpt = check_yan_relation(YAN, rep, rep, "N", Window(4, guard=1))
    assert rpt.normalized_residual > 100 * TOL
    # the double's R does not satisfy it either, so the suite runs it for the
    # published candidate only
    rpt2 = check_yan_relation(QD, rep, rep, "N", Window(4, guard=1))
    assert rpt2.normalized_residual > 100 * TOL


def test_yan_relation_constant_diagnostic(params_real):
    # the scalar structure constant carries the whole N-relation failure:
    # both series commute with N (x) I + I (x) N, so removing the constant
    # from both coproduct images (the dense oracle's stripped entry) kills
    # the residual entirely
    rep, window = build_rep(10, 0.5, params_real), Window(4, guard=1)
    for spec in (QD, YAN):
        with_const = check_yan_relation(spec, rep, rep, "N", window)
        raw, den, _ = dense_pair_checks(spec, family_for(spec, params_real), rep,
                                        window)["yan_relation_N_stripped"]
        assert with_const.normalized_residual > 1e-2
        assert raw / den <= 1e-12


def test_yan_relation_failure_stable_across_truncations():
    for q in (1.3, 0.7 + 0.2j):
        p = DeformParams(q=q)
        values = []
        for D in (8, 12):
            rep = build_rep(D, 0.5, p)
            rpt = check_yan_relation(YAN, rep, rep, "N", Window(4, guard=1))
            values.append(rpt.normalized_residual)
        assert min(values) > 100 * TOL
        assert values[0] == pytest.approx(values[1], rel=0.5)  # no truncation artifact


def test_r_build_windowed_agreement_across_dims(params):
    # D vs 2D: windowed entries of R agree (leak-free construction)
    win = Window(3, guard=2)
    repA = build_rep(6, 0.5, params)
    repB = build_rep(12, 0.5, params)
    RA = window_block(build_r(QD, repA, repA), (6, 6), win)
    RB = window_block(build_r(QD, repB, repB), (12, 12), win)
    assert np.abs(RA - RB).max() <= 1e-14 * max(1.0, np.abs(RA).max())


# ---------------------------------------------------------------------------
# the per-sector Yang-Baxter and fusion checks against the dense products


def _scaled_norm(x):
    """||x||_F over |x| / max|x| when max|x| is a normal double, so entries
    of any normal size neither overflow nor underflow when squared."""
    scale = np.max(np.abs(x))
    if np.finfo(float).tiny <= scale < np.inf:
        return scale * np.linalg.norm(np.abs(x) / scale)
    return np.linalg.norm(x)


def _dense_windowed(lhs, rhs, D, window):
    """Windowed ||lhs - rhs||_F / ||rhs||_F with the 1e-300 floor."""
    raw = _scaled_norm(window_block(lhs - rhs, (D, D, D), window))
    return raw / max(_scaled_norm(window_block(rhs, (D, D, D), window)), 1e-300)


def _dense_legs(spec, rep):
    D = rep.dim
    R = build_r(spec, rep, rep)
    eye = np.eye(D, dtype=complex)
    return np.kron(R, eye), _embed_r13(R, D, D, D), np.kron(eye, R)


def dense_yang_baxter(spec, rep, window):
    R12, R13, R23 = _dense_legs(spec, rep)
    return _dense_windowed(R12 @ R13 @ R23, R23 @ R13 @ R12, rep.dim, window)


def dense_fusion(spec, fam, rep, window):
    """(left, right) fusion residuals from D^3 x D^3 Kronecker products."""
    p, D = fam.params, rep.dim
    n = rep.n_diag()
    dn = np.add.outer(n, n).reshape(-1) + fam.beta_const
    R12, R13, R23 = _dense_legs(spec, rep)
    series = _series(spec, p)
    left = right = 0.0
    for k in range(D):
        u, v = series_words(series, k)
        c = series.coefficient(k)
        left = left + c * np.kron(coproduct_op(u, rep, rep, fam), rep_word(v, rep))
        right = right + c * np.kron(rep_word(u, rep), coproduct_op(v, rep, rep, fam))
    left = q_power(series.exponent(dn, n).reshape(-1), p)[:, None] * left
    right = q_power(series.exponent(n, dn).reshape(-1), p)[:, None] * right
    return (_dense_windowed(left, R13 @ R23, D, window),
            _dense_windowed(right, R13 @ R12, D, window))


def _agrees(sector, dense):
    if not math.isfinite(dense):  # the general family overflows near q = 1
        return not math.isfinite(sector)
    return abs(sector - dense) <= 1e-12 * max(1.0, dense)


_moduli = st.floats(0.5, 0.9) | st.floats(1.1, 2.2)
_q_values = (
    _moduli
    | st.builds(lambda r, t: r * cmath.exp(1j * t), _moduli, st.floats(0.05, 1.2))
    | st.floats(1e-6, 5e-2).map(lambda eps: 1.0 + eps))


@settings(max_examples=25, deadline=None)
@given(q=_q_values, D=st.integers(4, 9), spec=st.sampled_from([QD, YAN, GF]))
@example(q=1.0131156636588128, D=4, spec=GF)  # entries ~1e247: squared norms overflow
@example(q=1.015625, D=4, spec=YAN)  # the published R's entries underflow when squared
def test_sector_checks_match_dense_oracle(q, D, spec):
    p = DeformParams(q=q)
    rep = build_rep(D, 0.5, p)
    fam = family_for(spec, p)
    wmax = (D - 1) // 2
    window = Window(wmax, guard=wmax)
    with np.errstate(all="ignore"):
        yb = check_yang_baxter(spec, rep, rep, rep)
        fusion = check_fusion(spec, rep, rep, rep)
        dense = [dense_yang_baxter(spec, rep, window), *dense_fusion(spec, fam, rep, window)]
    for rpt, want in zip([yb, *fusion], dense):
        assert rpt.window == wmax
        assert _agrees(rpt.normalized_residual, want), (rpt.identity, rpt.normalized_residual, want)
        assert rpt.verdict == verdict_of(want), rpt.identity


@pytest.mark.parametrize("spec", [QD, YAN, GF], ids=lambda s: s.kind)
def test_r_conserves_pair_number(params, spec):
    # the sector engine relies on R being exactly block-diagonal in n1 + n2
    D = 7
    R = build_r(spec, build_rep(D, 0.5, params), build_rep(D, 0.5, params))
    n1, n2 = np.divmod(np.arange(D * D), D)
    total = n1 + n2
    assert np.all(R[total[:, None] != total[None, :]] == 0.0)


def test_three_way_split_at_large_triple_dimension(params):
    # D = 14: a dense check would multiply 2744 x 2744 complex operators
    rep = build_rep(14, 0.5, params)
    for spec in (QD, GF, YAN):
        reports = [check_yang_baxter(spec, rep, rep, rep), *check_fusion(spec, rep, rep, rep)]
        for rpt in reports:
            assert rpt.window == 6
            if spec is YAN:
                assert rpt.normalized_residual > 1e-7, rpt.identity
                assert rpt.verdict == "fail"
            else:
                assert rpt.verdict == "pass", (spec.kind, rpt.identity, rpt.normalized_residual)


# ---------------------------------------------------------------------------
# the pair-sector checks against the dense D^2 x D^2 products they replaced


def dense_r(spec, rep1, rep2):
    """pref * sum_k c_k kron(U_k, V_k) over the dressed ladder powers."""
    p = rep1.params
    series = _series(spec, p)
    N1, N2, D2 = rep1.n_diag(), rep2.n_diag(), rep2.dim
    U = _dressed_powers(rep1.matAdag, series.su, N1, D2, p)
    V = _dressed_powers(rep2.matA, series.sv, N2, D2, p)
    pref = q_power(series.exponent(N1, N2), p).reshape(-1, 1)
    return pref * sum(series.coefficient(k) * np.kron(U[k], V[k]) for k in range(D2))


def dense_antipode_leg(spec, fam, rep1, rep2):
    """(S (x) I)R as sum_k c_k kron(S(u_k), v_k), times pref[i', j] entrywise."""
    p, D1, D2 = fam.params, rep1.dim, rep2.dim
    series = _series(spec, p)
    sn = -rep1.n_diag() + fam.antipode_N_shift()
    pref = q_power(series.exponent(sn, rep2.n_diag()), p)
    between = np.broadcast_to(pref.T[None, :, :, None], (D1, D2, D1, D2)).reshape(D1 * D2, -1)
    V = _dressed_powers(rep2.matA, series.sv, rep2.n_diag(), D2, p)
    return between * sum(series.coefficient(k)
                         * np.kron(antipode_op(series_words(series, k)[0], rep1, fam), V[k])
                         for k in range(D2))


def dense_pair_checks(spec, fam, rep, window):
    """{identity: (raw, normalization, rounding scale)} of the pairwise checks
    from dense D^2 x D^2 products.  The rounding scale bounds the products'
    rounding error over u: ||A||_F ||B||_F summed over the products formed."""
    D = rep.dim
    win = window or Window(D - 2, guard=1)
    R = dense_r(spec, rep, rep)
    norm = np.linalg.norm

    def twisted(left, right, dg, right_is_r=False):
        lhs, rhs = (R @ dg, right @ R) if right_is_r else (left @ R, R @ dg)
        den = norm(window_block(R @ dg, (D, D), win))  # ||R Delta(gen)||_F on the window
        return (norm(window_block(lhs - rhs, (D, D), win)), max(den, 1e-300),
                norm(R) * (norm(left) + norm(right)))

    out, eye = {}, np.eye(D * D, dtype=complex)
    for gen in ("N", "a", "adag"):
        dg = coproduct_op(word(gen), rep, rep, fam)
        out[f"intertwiner_{gen}"] = twisted(opposite_coproduct_op(word(gen), rep, rep, fam),
                                            dg, dg)
        if gen != "adag":
            dbar = qbar_coproduct_op(word(gen), rep, rep, fam)
            out[f"yan_relation_{gen}"] = twisted(dg, dbar, dg, right_is_r=True)
    dg = coproduct_op(word("N"), rep, rep, fam) - fam.beta_const * eye
    dbar = qbar_coproduct_op(word("N"), rep, rep, fam) + fam.beta_const * eye
    out["yan_relation_N_stripped"] = twisted(dg, dbar, dg, right_is_r=True)
    Rinv = dense_antipode_leg(spec, fam, rep, rep)
    raws = [windowed_residual(prod, eye, (D, D), win)[0] for prod in (R @ Rinv, Rinv @ R)]
    out["antipode_inverse"] = (max(raws), max(1.0, norm(window_block(eye, (D, D), win))),
                               2 * norm(R) * norm(Rinv))
    series, n = _series(spec, fam.params), rep.n_diag()
    eps_n = np.array([fam.counit_N()])
    words = [series_words(series, k) for k in range(D)]
    for name, pref, leg_k in (
            ("counit_left", series.exponent(eps_n, n),
             lambda u, v: counit(u, fam) * rep_word(v, rep)),
            ("counit_right", series.exponent(n, eps_n),
             lambda u, v: rep_word(u, rep) * counit(v, fam))):
        got = q_power(pref, fam.params).reshape(-1, 1) * sum(
            series.coefficient(k) * leg_k(*words[k]) for k in range(D))
        raw = windowed_residual(got, np.eye(D, dtype=complex), (D,), Window(D - 1))[0]
        out[name] = (raw, max(1.0, math.sqrt(D)), norm(got) + math.sqrt(D))
    return out


ZONES = ("pass", "info", "fail")  # verdicts in order of the normalized residual
_pair_q = (st.floats(0.5, 0.9) | st.floats(1.1, 2.2)
           | st.builds(lambda r, t: r * cmath.exp(1j * t), st.floats(0.5, 2.2), st.floats(0.05, 1.2))
           | st.just(0.8))


@settings(max_examples=30, deadline=None)
@given(q=_pair_q, D=st.integers(4, 12), spec=st.sampled_from([QD, YAN, GF]),
       W=st.none() | st.integers(0, 10))
def test_pair_sector_checks_match_dense_oracle(q, D, spec, W):
    # the sector blocks change only the summation order: raw residuals agree
    # to 1e-13 of the larger of the residual and the products' rounding
    # scale, normalized ones likewise over the same normalization, and the
    # verdict is the dense one up to that difference
    p = DeformParams(q=q)
    rep = build_rep(D, 0.5, p)
    fam = family_for(spec, p)
    window = None if W is None else Window(min(W, D - 2), guard=1)
    dense = dense_pair_checks(spec, fam, rep, window)
    del dense["yan_relation_N_stripped"]  # a diagnostic the checks do not report
    reports = []
    for check, name, gens in ((check_intertwiner, "intertwiner", ("N", "a", "adag")),
                              (check_yan_relation, "yan_relation", ("N", "a"))):
        for g in gens:
            if g != "N" and window is not None and window.max_index == 0:
                # the one window state (0, 0) joins no two states a ladder connects
                with pytest.raises(ValueError, match="no entries"):
                    check(spec, rep, rep, g, window)
                del dense[f"{name}_{g}"]
            else:
                reports.append(check(spec, rep, rep, g, window))
    reports += [check_antipode_inverse(spec, rep, rep, window), *check_counit(spec, rep, rep)]
    names = [r.identity for r in reports]
    assert sorted(names) == sorted(dense)
    for name, rpt in zip(names, reports):
        raw, den, scale = (float(x) for x in dense[name])
        allowed = 1e-13 * max(raw, scale)
        assert abs(rpt.raw_residual - raw) <= allowed, (name, rpt.raw_residual, raw)
        # (a zero R Delta(gen) has the 1e-300 floor: these bounds may be inf)
        assert abs(rpt.normalized_residual - raw / den) <= allowed / den, name
        lo, hi = (ZONES.index(verdict_of(max(raw + d, 0.0) / den))
                  for d in (-allowed, allowed))
        assert lo <= ZONES.index(rpt.verdict) <= hi, name


def test_coproduct_blocks_match_coproduct_op(params):
    # one Delta in two layouts: the pair-sector stacks, scattered to dense, are
    # the dense letter-image product, and with opposite=True its tensor swap;
    # a word's stack is _word_blocks over its letters' stacks
    fams = (HopfFamily.canonical(params), family_for(GF, params))
    words = [(word(), 0), (word("N"), 0), (word("a"), -1), (word("adag"), 1),
             (word(qpow(0.5)), 0), (word("a", "adag"), 0), (word("adag", "N", "adag"), 2),
             (word(qpow(-0.5), "a", "N", "a"), -2), (word("a", "adag", "adag", qpow(1.0)), 1)]
    for fam in fams:
        for (D1, D2), opposite in (((5, 3), False), ((3, 5), False), ((4, 4), True)):
            rep1, rep2 = build_rep(D1, 0.5, params), build_rep(D2, 0.5, params)
            for w, deg in words:
                letter = lambda ltr: _coproduct_blocks(ltr, fam, rep1, rep2, opposite)
                got = scatter(_word_blocks(w, (D1, D2), letter), (D1, D2), deg)
                want = (opposite_coproduct_op if opposite else coproduct_op)(w, rep1, rep2, fam)
                assert np.abs(want).max() > 0.1
                assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max(), (w.name, D1, D2)


def test_build_r_is_the_dense_series(params):
    # the dense R a dump writes is the scatter of the held blocks
    for spec in (QD, YAN, GF):
        for D1, D2 in ((7, 7), (5, 8), (8, 5)):
            rep1, rep2 = build_rep(D1, 0.5, params), build_rep(D2, 0.5, params)
            want = dense_r(spec, rep1, rep2)
            assert np.abs(build_r(spec, rep1, rep2) - want).max() <= 1e-15 * np.abs(want).max()


def test_held_r_is_shared_across_threads(params):
    # threads racing on a first use may each build R, but all get the held copy
    rep = build_rep(8, 0.5, params)
    rmatrix.clear_caches()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            held = list(pool.map(lambda _: rmatrix._held_r(QD, rep, rep), range(32), timeout=60))
    finally:
        sys.setswitchinterval(interval)
        rmatrix.clear_caches()
    assert len(held) == 32 and all(h is held[0] for h in held)


# ---------------------------------------------------------------------------
# the ladder stacks and the sector R-leg products against their dense
# predecessors, at fixed q (the hypothesis test above also draws q near 1)

ORACLE_Q = (1.3, 0.7 + 0.2j)


@pytest.mark.parametrize("q", ORACLE_Q)
@pytest.mark.parametrize("D", range(4, 10))
@pytest.mark.parametrize("spec", [QD, YAN, GF], ids=lambda s: s.kind)
def test_ladder_stacks_match_dense_powers(q, D, spec):
    # the window blocks of the ladder stacks are the dressed powers of the
    # dense Delta(adag) and Delta(a), restricted to the window pair states
    p = DeformParams(q=q)
    rep, fam, series = build_rep(D, 0.5, p), family_for(spec, p), _series(spec, p)
    W = (D - 1) // 2
    n1, n2 = (a.ravel() for a in np.indices((W + 1, W + 1)))  # the window pair states
    win, slot, n = n1 * D + n2, _pair_sectors(D, D)[3], rep.n_diag()
    dn = np.add.outer(n, n).reshape(-1) + fam.beta_const
    row, col = np.indices((len(win), len(win)))
    for gen, s, deg in (("adag", series.su, 1), ("a", series.sv, -1)):
        got = _ladder(gen, s, fam, rep, rep, W)
        want = _dressed_powers(coproduct_op(word(gen), rep, rep, fam), s, dn, W + 1, p)
        for k in range(W + 1):
            sector = n1[col] + n2[col]
            joined = n1[row] + n2[row] == sector + k * deg
            dense = np.where(joined, got[k][sector, slot[n1[row], n2[row]], slot[n1[col], n2[col]]],
                             0)
            want_k = want[k][np.ix_(win, win)]
            assert np.abs(dense - want_k).max() <= 1e-13 * np.abs(want_k).max(), (gen, k)


def dense_leg_sectors(spec, rep, wmax):
    """Per triple sector s <= 3 wmax, over every state with n1 + n2 + n3 = s:
    s, the states, the window positions and the whole R12, R13, R23 blocks
    read from the dense R, an identity leg as an equality mask."""
    D = rep.dim
    R = build_r(spec, rep, rep)
    leg = lambda i, j, other: R[(i * D + j)[:, None], i * D + j] * (other[:, None] == other)
    states = np.indices((D, D, D)).reshape(3, -1)
    total = states.sum(axis=0)
    for s in range(3 * wmax + 1):
        n1, n2, n3 = sector = states[:, total == s]
        w = np.flatnonzero((sector <= wmax).all(axis=0))
        yield s, sector, w, (leg(n1, n2, n3), leg(n1, n3, n2), leg(n2, n3, n1))


@pytest.mark.parametrize("q", ORACLE_Q)
@pytest.mark.parametrize("D", range(4, 10))
@pytest.mark.parametrize("spec", [QD, YAN, GF], ids=lambda s: s.kind)
def test_sector_products_match_dense_blocks(q, D, spec):
    # the products through the pair-sector blocks on the restricted states are
    # the window blocks of the whole triple-sector block products
    p = DeformParams(q=q)
    rep = build_rep(D, 0.5, p)
    wmax = (D - 1) // 2
    chains = ((0, 1, 2), (2, 1, 0), (1, 2), (1, 0))
    rows, cols, products = _r_chains(spec, (rep,) * 3, wmax, *chains)
    sizes = []
    for s, sector, w, blocks in dense_leg_sectors(spec, rep, wmax):
        mine, window = np.flatnonzero(rows.sum(axis=0) == s), sector[:, w]
        assert np.array_equal(rows[:, mine], np.repeat(window, len(w), axis=1))
        assert np.array_equal(cols[:, mine], np.tile(window, len(w)))
        sizes.append(len(w) ** 2)
        for chain, prod in zip(chains, products):
            dense = reduce(np.matmul, [blocks[leg] for leg in chain])[np.ix_(w, w)].ravel()
            assert np.abs(prod[mine] - dense).max() <= 1e-13 * np.abs(dense).max(), chain
    assert len(sizes) == 3 * wmax + 1 and rows.shape[1] == sum(sizes)


def test_antipode_inverse_fails_on_a_nan_in_one_product(monkeypatch):
    # a NaN at row (0, 0) and a padding column of sector 0 of (S (x) I)R reaches
    # the window only through ((S (x) I)R) R, the second product
    p = DeformParams(q=1.3)
    rep = build_rep(8, 0.5, p)
    blocks = rmatrix._antipode_blocks

    def planted(*args):
        out = blocks(*args).copy()
        out[0, 0, 1] = np.nan
        return out

    monkeypatch.setattr(rmatrix, "_antipode_blocks", planted)
    rpt = check_antipode_inverse(QD, rep, rep, Window(4, guard=1))
    rmatrix.clear_caches()
    assert np.isnan(rpt.normalized_residual) and rpt.verdict == "fail"
