from dataclasses import replace

import numpy as np
import pytest

from qboson import DeformParams, ParameterError, Window, build_rep, q_number, sl2bridge
from qboson.hopfops import HopfFamily, check_coproduct_relations, word
from qboson.sl2bridge import (casimir_centrality, check_sl2, inverse_realization,
                              inverse_round_trip, realize_sl2, witness_consistency)
from qboson.report import TOL, residual
from test_hopfops import coproduct_op
from test_fockrep import windowed_residual


def hopf_ideal_witness(D, fam):
    """The relation table's Casimir row on two legs, Delta(adag) Delta(a)
    against [Delta(N) - 1/2] in the c = 1/2 representation that kills C, on
    the window n1, n2 <= min(3, D - 2)."""
    rep = build_rep(D, 0.5, fam.params)
    [report] = check_coproduct_relations(fam, rep, ("C",), Window(min(3, D - 2), guard=1))
    return report


def test_realize_validation(params_real):
    rep = build_rep(8, 0.5, params_real)
    with pytest.raises(ParameterError):
        realize_sl2(rep, 0.0)
    with pytest.raises(ParameterError):
        realize_sl2(build_rep(8, 0.0, params_real), 1.0)


def test_sl2_relations(params):
    rep = build_rep(12, 0.5, params)
    rpt = check_sl2(realize_sl2(rep, 1.0))
    assert rpt.normalized_residual <= 1e-12
    # the bracket base is the square root of the deformation parameter
    triple = realize_sl2(rep, 1.0)
    assert triple.base_params.q == pytest.approx(np.sqrt(complex(params.q)))


def test_sl2_lambda_independence(params):
    rep = build_rep(12, 0.5, params)
    r1 = check_sl2(realize_sl2(rep, 1.0))
    r2 = check_sl2(realize_sl2(rep, 3.0 + 1.0j))
    assert r1.normalized_residual <= 1e-12
    assert abs(r1.normalized_residual - r2.normalized_residual) <= 1e-12


def test_sl2_relations_any_generalized_shift(params_real):
    # the realization only needs the symmetrized relation, so any c != 0 works
    rep = build_rep(10, 1.0, params_real)
    assert check_sl2(realize_sl2(rep, 1.0)).normalized_residual <= 1e-12


def symmetrized_residual(matN, matA, matAdag, p):
    """report.residual of [a, a+] = [N + 1/2] - [N - 1/2] at base p.q on the
    window n <= D - 2."""
    cut, nd = (slice(0, matN.shape[0] - 1),) * 2, np.diag(matN)
    rhs = np.diag(q_number(nd + 0.5, p) - q_number(nd - 0.5, p))
    return residual((matA @ matAdag - matAdag @ matA)[cut], rhs[cut])


def test_inverse_round_trip_matched_shift(params):
    # realize at base sqrt(q) from a rep at q, invert with the matched
    # constant: the symmetrized relation at base q is recovered exactly
    rep = build_rep(12, 0.5, params)
    triple = realize_sl2(rep, 2.0)
    matN, matA, matAdag, target = inverse_realization(triple, 1.5, shift="matched")
    assert target.q == pytest.approx(complex(params.q))
    assert symmetrized_residual(matN, matA, matAdag, target)[1] <= 1e-12
    # and the recovered number operator is the original one
    assert np.abs(matN - rep.matN).max() <= 1e-12


def test_inverse_published_shift_leaves_residual(params):
    # the printed quarter constant does not satisfy the target relation;
    # the residual is surfaced, not silently corrected
    rep = build_rep(12, 0.5, params)
    report = inverse_round_trip(rep)
    assert report.normalized_residual > 0.1
    assert (report.dims, report.window, report.params["shift"]) == ([12], 10, "published")
    # it is report.residual's pair on the window n <= 10, at the target base
    triple = realize_sl2(rep, 1.0)
    pair = symmetrized_residual(*inverse_realization(triple, 1.0))
    assert (report.raw_residual, report.normalized_residual) == pair
    with pytest.raises(ParameterError):
        inverse_realization(triple, 0.0)
    with pytest.raises(ParameterError):
        inverse_realization(triple, 1.0, shift="half")


def test_inverse_preserves_grading(params):
    # [N, a+] = a+ holds for either shift (scalar shifts drop from brackets)
    rep = build_rep(10, 0.5, params)
    triple = realize_sl2(rep, 1.0)
    for shift in ("published", "matched"):
        matN, matA, matAdag, _ = inverse_realization(triple, 1.0, shift=shift)
        assert np.abs(matN @ matAdag - matAdag @ matN - matAdag).max() <= 1e-10


def test_casimir_centrality(params):
    report = casimir_centrality(12, params)
    assert report.normalized_residual <= 1e-12
    assert (report.dims, report.window) == ([12], 10)


def test_hopf_ideal_witness(params):
    fam = HopfFamily.canonical(params)
    rpt = hopf_ideal_witness(8, fam)
    assert rpt.normalized_residual > 100 * TOL
    assert rpt.verdict == "fail"  # expected failure = successful witness


def test_witness_stable_across_truncations(params_real):
    fam = HopfFamily.canonical(params_real)
    values = [hopf_ideal_witness(D, fam).raw_residual for D in (6, 8, 12)]
    assert max(values) <= 2 * min(values)


def test_witness_consistency_legs(params):
    fam = HopfFamily.canonical(params)
    report = witness_consistency(8, fam)
    assert report.normalized_residual <= 1e-12 and report.raw_residual <= 1e-12


def test_witness_near_classical_diverges():
    # oracle-frozen behavior: the structure constant i*alpha/gamma blows
    # up as q -> 1, and the witness norm grows like 1/(q - 1/q) with it
    fam13 = HopfFamily.canonical(DeformParams(q=1.3))
    base = hopf_ideal_witness(8, fam13).raw_residual
    p = DeformParams(q=1.0 + 1e-6)
    fam = HopfFamily.canonical(p)
    near = hopf_ideal_witness(8, fam).raw_residual
    assert near > 1e3 * base


@pytest.mark.parametrize("q", (1.3, 0.7 + 0.2j))
@pytest.mark.parametrize("D", range(4, 10))
def test_witness_matches_dense_oracle(q, D):
    # Delta(adag) Delta(a) as a product of pair-sector stacks, against the
    # product of the dense D^2 x D^2 coproduct images
    p = DeformParams(q=q)
    fam, rep = HopfFamily.canonical(p), build_rep(D, 0.5, p)
    lhs = coproduct_op(word("adag"), rep, rep, fam) @ coproduct_op(word("a"), rep, rep, fam)
    dn = np.add.outer(rep.n_diag(), rep.n_diag()).reshape(-1) + fam.beta_const
    win = Window(min(3, D - 2), guard=1)
    raw, nrm = windowed_residual(lhs, np.diag(q_number(dn - 0.5, p)), (D, D), win)
    rpt = hopf_ideal_witness(D, fam)
    assert rpt.window == win.max_index and rpt.verdict == "fail"
    assert abs(rpt.raw_residual - raw) <= 1e-13 * raw
    assert abs(rpt.normalized_residual - nrm) <= 1e-13 * nrm


def test_check_sl2_fails_on_a_nan_bracket():
    # a NaN in e makes two of the three bracket residuals NaN; the report
    # must not keep only the finite one
    triple = realize_sl2(build_rep(8, 0.5, DeformParams(q=1.3)), 1.0)
    e = triple.e.copy()
    e[1, 0] = np.nan
    rpt = check_sl2(replace(triple, e=e))
    assert np.isnan(rpt.normalized_residual) and rpt.verdict == "fail"


def test_casimir_centrality_keeps_a_nan(monkeypatch):
    def with_nan(D, c, p):
        rep = build_rep(D, c, p)
        a = rep.matA.copy()
        if c == 1.0:  # the second of the two shifts
            a[0, 1] = np.nan
        return replace(rep, matA=a)

    monkeypatch.setattr(sl2bridge, "build_rep", with_nan)
    report = casimir_centrality(8, DeformParams(q=1.3))
    assert np.isnan(report.normalized_residual) and report.verdict == "fail"
