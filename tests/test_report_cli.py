import argparse
import fnmatch
import gc
import json
import math
import os
import re
import subprocess
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from qboson import (DeformParams, build_rep, cli, fockrep, hopfops, q_number, qscalars, rmatrix,
                    symalg)
from qboson.cli import (CLAIMS, ConfigError, SuiteConfig, _cases, _claim_matcher, _run_case,
                        emit_report, exit_code_for, main, parse_config, parse_rspec, run_suite)
from qboson.qscalars import check_qnum_inversion
from qboson.report import (IdentityReport, compare, dump_matrix, frobenius, load_matrix, residual,
                           verdict_of, worst)

FAST_CONFIG = """
# desk-scale smoke configuration
q = 0.7+0.2i
kappa = 0
seed = 7
window = 3
dims.pair = 6
dims.triple = 4
reps.dims = [6, 6]
reps.shifts = [0, 0.5]
families.m = [0.5]
families.k = [-1]
families.signs = [lower]
rspecs = [quantum_double, yan_claimed, "general:m=0.5,K=-1,sign=lower"]
axioms.dim = 5
axioms.max_word_len = 1
pairing.kmax = 1
pairing.mmax = 1
"""


@pytest.fixture
def fast_config(tmp_path):
    path = tmp_path / "suite.cfg"
    path.write_text(FAST_CONFIG, encoding="utf-8")
    return parse_config(path)


# ---------------------------------------------------------------------------
# verdicts, residuals and matrix dumps


def test_verdict_zones():
    assert verdict_of(5e-10) == "pass"
    assert verdict_of(1e-9) == "pass"
    assert verdict_of(5e-8) == "info"   # gray zone, never classified
    assert verdict_of(1e-7) == "info"
    assert verdict_of(2e-7) == "fail"


def test_verdict_non_finite_fails():
    # a NaN residual proves nothing; it must not land in the gray zone
    for bad in (float("nan"), float("inf")):
        assert verdict_of(bad) == "fail"


def _residual_pair():
    rng = np.random.default_rng(3)
    rhs = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    return rhs + 1e-3 * rng.normal(size=(5, 5)), rhs


@pytest.mark.parametrize("scale", [1e200, 1e-200])
def test_residual_is_scale_free_beyond_the_square_range(scale):
    # squared entries of 1e200 overflow and of 1e-200 underflow; the
    # residual scales raw and leaves normalized as it was
    lhs, rhs = _residual_pair()
    raw, nrm = residual(lhs, rhs, floor=1e-300)
    raw_s, nrm_s = residual(scale * lhs, scale * rhs, floor=1e-300)
    assert raw_s == pytest.approx(scale * raw, rel=1e-14)
    assert nrm_s == pytest.approx(nrm, rel=1e-14)
    assert frobenius(scale * rhs) == pytest.approx(scale * np.linalg.norm(rhs), rel=1e-14)


@pytest.mark.parametrize("side", [0, 1])
def test_residual_nan_entry_fails(side):
    pair = list(_residual_pair())
    pair[side][2, 3] = np.nan
    raw, nrm = residual(*pair)
    assert math.isnan(raw) and math.isnan(nrm)
    assert verdict_of(nrm) == "fail"


def test_residual_floor_bounds_the_denominator():
    small, zero = np.full((2, 2), 1e-3), np.zeros((2, 2))
    # the unit floor keeps a residual against a small or zero rhs absolute
    assert residual(2 * small, small) == (pytest.approx(2e-3), pytest.approx(2e-3))
    assert residual(small, zero) == (pytest.approx(2e-3), pytest.approx(2e-3))
    # the 1e-300 floor divides by ||rhs||_F, and by 1e-300 when rhs is zero
    assert residual(2 * small, small, floor=1e-300)[1] == pytest.approx(1.0)
    assert residual(small, zero, floor=1e-300)[1] == pytest.approx(2e297)


def test_dump_matrix_format(tmp_path):
    path = tmp_path / "eye.mtx"
    dump_matrix(np.eye(2), path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "# 2 2"
    assert len(lines) == 3  # header + two nonzero entries
    assert lines[1].split()[:2] == ["0", "0"]
    assert float(lines[1].split()[2]) == 1.0


def test_dump_matrix_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    mat = rng.normal(size=(5, 4)) + 1j * rng.normal(size=(5, 4))
    mat[1, 2] = 0.0
    path = dump_matrix(mat, tmp_path / "m.mtx")
    back = load_matrix(path)
    assert back.shape == (5, 4)
    assert np.abs(back - mat).max() <= 1e-16  # 17 significant digits round-trip


def test_load_matrix_rejects_malformed(tmp_path):
    bad = tmp_path / "bad.mtx"
    bad.write_text("0 0 1.0 0.0\n")
    with pytest.raises(ValueError):
        load_matrix(bad)
    bad.write_text("# 2 2\n0 0 1.0\n")
    with pytest.raises(ValueError):
        load_matrix(bad)


# ---------------------------------------------------------------------------
# configuration grammar


def test_parse_config_values(fast_config):
    assert fast_config.q == pytest.approx(0.7 + 0.2j)
    assert fast_config.dim_pair == 6
    assert fast_config.rep_shifts == (0.0 + 0.0j, 0.5 + 0.0j)
    assert fast_config.family_signs == ("lower",)
    assert fast_config.rspecs[2] == "general:m=0.5,K=-1,sign=lower"


def test_parse_config_missing_q(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text("kappa = 0\n")
    with pytest.raises(ConfigError, match="must set q"):
        parse_config(path)


def test_parse_config_unknown_key(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text("q = 1.3\nwibble = 3\n")
    with pytest.raises(ConfigError, match="line 2"):
        parse_config(path)


def test_parse_config_malformed_line(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text("q = 1.3\njust words\n")
    with pytest.raises(ConfigError, match="line 2"):
        parse_config(path)


def test_parse_config_bad_value(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text("q = 1.3\nkappa = 1.5\n")
    with pytest.raises(ConfigError, match="line 2"):
        parse_config(path)


def test_parse_config_string_keeps_its_text(tmp_path):
    # a string value is read as written, not through a number
    path = tmp_path / "c.cfg"
    path.write_text('q = 1.3\nout.report = 1e3\nexpect_fail = [007, 1i]\n')
    config = parse_config(path)
    assert (config.out_report, config.expect_fail) == ("1e3", ("007", "1i"))


def test_parse_config_int_overflow_names_the_line(tmp_path):
    # 1e400 reads as an infinite float, which is no integer
    path = tmp_path / "c.cfg"
    path.write_text("q = 1.3\nkappa = 1e400\n")
    with pytest.raises(ConfigError, match="line 2"):
        parse_config(path)
    path.write_text("q = 1.3\nkappa = 2.0\nseed = 1e3\n")
    assert (parse_config(path).kappa, parse_config(path).seed) == (2, 1000)


def test_parse_config_unterminated_list(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text("q = 1.3\nrspecs = [quantum_double\n")
    with pytest.raises(ConfigError, match="line 2"):
        parse_config(path)


def test_parse_config_cap_violation(tmp_path):
    # rejected before any computation
    path = tmp_path / "c.cfg"
    path.write_text("q = 1.3\ncaps.tensor = 10\n")
    with pytest.raises(ConfigError, match="cap"):
        parse_config(path)


def test_parse_config_window_violation(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text("q = 1.3\nwindow = 11\ndims.pair = 12\n")
    with pytest.raises(ConfigError, match="window"):
        parse_config(path)


def test_parse_config_repeated_key_takes_the_later_line(tmp_path):
    # a config is extended by appending lines: a repeated key keeps its last value
    path = tmp_path / "c.cfg"
    path.write_text("q = 1.3\ndims.pair = 12\nq = 2.1\ndims.pair = 10\n")
    config = parse_config(path)
    assert (config.q, config.dim_pair) == (2.1, 10)


def test_parse_config_alpha_from_kappa(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text('q = 1.3\nkappa = 0\n')
    config = parse_config(path)
    assert config.params().alpha == pytest.approx(np.pi / 2)


def test_parse_rspec():
    assert parse_rspec("quantum_double").kind == "quantum_double"
    spec = parse_rspec("general:m=0.5,K=-1,sign=lower")
    assert (spec.m, spec.K, spec.sign) == (0.5, -1, "lower")
    spec = parse_rspec(" general: m = 0.5 , K=-1 ,sign = lower ")  # whitespace around fields
    assert (spec.m, spec.K, spec.sign) == (0.5, -1, "lower")
    with pytest.raises(ConfigError):
        parse_rspec("general:m=0.5")
    with pytest.raises(ConfigError):
        parse_rspec("mystery")


# ---------------------------------------------------------------------------
# suite orchestration


def test_run_suite_fast(fast_config):
    reports = run_suite(fast_config)
    assert exit_code_for(reports) == 0
    names = {r.identity for r in reports}
    assert "pairing_eqn" in names and "yang_baxter" in names
    # expected failures are present and marked
    yan_fail = [r for r in reports
                if r.params.get("rspec") == "yan_claimed" and r.identity == "intertwiner_a"]
    assert yan_fail and yan_fail[0].verdict == "fail" and yan_fail[0].expected == "fail"
    # no error entries
    assert not [r for r in reports if r.error]
    # every row's window is bound when the table is built
    assert [r.window for r in reports if r.identity == "casimir_scalar"] == [4]
    # verdict policy: the published candidate's antipode and counit legs are
    # claimed failures, and only that candidate runs its Yan relation
    by_spec = {}
    for r in reports:
        by_spec.setdefault(r.params.get("rspec"), {})[r.identity] = r
    yan = by_spec.pop("yan_claimed")
    for name in ("antipode_inverse", "counit_left", "counit_right",
                 "yan_relation_N", "yan_relation_a"):
        assert yan[name].verdict == verdict_of(yan[name].normalized_residual) == "fail"
        assert yan[name].expected == "fail"
    assert {"quantum_double", "general_family(m=0.5,K=-1,lower)"} <= set(by_spec)
    for spec, named in by_spec.items():
        if spec is not None:
            assert not [name for name in named if name.startswith("yan_relation")], spec
            assert {r.verdict for r in named.values()} == {"pass"}, spec


def window_too_small(*args, **kwargs):
    raise fockrep.WindowError("window 4 + guard 1 exceeds top index 3 of a factor")


def test_runner_times_every_report(fast_config):
    # the runner times each case and splits the time over its reports, so
    # every report carries a time, errored cases included
    from dataclasses import replace
    reports = run_suite(fast_config)
    assert all(r.wall_time > 0 for r in reports)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fockrep, "check_casimir_scalar", window_too_small)
        crashed = run_suite(fast_config)
    assert [r for r in crashed if r.error]
    assert all(r.wall_time > 0 for r in crashed)


def test_run_suite_empty_rspecs(fast_config):
    from dataclasses import replace
    config = replace(fast_config, rspecs=())
    reports = run_suite(config)
    assert not [r for r in reports if "rspec" in r.params]
    assert [r for r in reports if r.identity == "pairing_eqn"]


def _untimed(reports):
    """The reports with their wall times zeroed, so two runs render alike."""
    for rep in reports:
        rep.wall_time = 0.0
    return reports


def test_determinism_byte_output(fast_config):
    a, b = (emit_report(_untimed(run_suite(fast_config)), None, fast_config.echo())
            for _ in range(2))
    assert a == b


def test_emit_report_roundtrip(tmp_path, fast_config):
    reports = run_suite(fast_config)
    path = tmp_path / "report.json"
    emit_report(reports, path, fast_config.echo())
    doc = json.loads(path.read_text())
    assert set(doc) == {"config", "results"}
    assert len(doc["results"]) == len(reports)
    entry = doc["results"][0]
    for key in ("identity", "params", "dims", "window", "raw_residual",
                "normalized_residual", "verdict", "wall_time"):
        assert key in entry
    back = [IdentityReport(**{k: v for k, v in r.items()
                              if k in IdentityReport.__dataclass_fields__})
            for r in doc["results"]]
    assert [r.identity for r in back] == [r.identity for r in reports]
    assert [r.normalized_residual for r in back] == \
        [r.normalized_residual for r in reports]


def _deviation_report(identity: str, dev: float) -> IdentityReport:
    """A report whose raw and normalized residuals are both dev."""
    return compare(identity, {}, [2], 1, [(np.array([dev, 0.0]), np.zeros(2))])


def test_exit_code_semantics():
    ok = _deviation_report("x", 0.0)
    ok.expected = "pass"
    bad = _deviation_report("y", 1.0)
    bad.expected = "pass"
    info = _deviation_report("z", 5e-8)
    assert (ok.verdict, bad.verdict, info.verdict) == ("pass", "fail", "info")
    assert exit_code_for([ok]) == 0
    assert exit_code_for([ok, info]) == 0  # info entries never block
    assert exit_code_for([ok, bad]) == 1
    bad.expected = "fail"
    assert exit_code_for([ok, bad]) == 0  # expected failure


def test_exit_code_errored_case():
    ok = _deviation_report("x", 0.0)
    ok.expected = "pass"
    crashed = IdentityReport(identity="y", params={}, dims=[], window=0,
                             raw_residual=float("nan"), normalized_residual=float("nan"),
                             verdict="fail", error="WindowError: too small")
    assert exit_code_for([ok, crashed]) == 1


def test_worst_fails_on_nan():
    # a NaN deviation is the largest, wherever it falls among the samples
    for devs in ([math.nan, 1e-12], [1e-12, math.nan], [math.nan]):
        assert math.isnan(worst(iter(devs))), devs
    assert worst([1e-12, 0.0]) == 1e-12
    assert worst([]) == 0.0
    # so a check that reports the largest deviation fails on a NaN sample
    p = DeformParams(q=1.3)
    rep = check_qnum_inversion([1.0, math.nan, 2.0], p)
    assert rep.verdict == "fail" and math.isnan(rep.raw_residual)
    assert check_qnum_inversion([1.0, 2.0], p).verdict == "pass"


def test_compare_takes_each_largest_separately():
    # the largest raw residual comes from the large pair and the largest
    # normalized one from the small pair; a NaN pair is the worst of both
    big, small = (np.full(4, 100.0), np.full(4, 99.0)), (np.full(4, 0.5), np.zeros(4))
    rpt = compare("c", {}, [4], 3, [big, small])
    assert rpt.raw_residual == residual(*big)[0] and rpt.normalized_residual == residual(*small)[1]
    assert (rpt.identity, rpt.dims, rpt.window, rpt.verdict) == ("c", [4], 3, "fail")
    assert compare("c", {}, [4], 3, iter([small]), floor=1e-300).normalized_residual == \
        residual(*small, floor=1e-300)[1]
    nan = compare("c", {}, [4], 3, [small, (np.full(4, math.nan), np.zeros(4))])
    assert nan.verdict == "fail" and math.isnan(nan.raw_residual)


@pytest.mark.parametrize("module, check", [
    (qscalars, lambda p: qscalars.check_qpower_additivity(
        [(0.3 + 0.2j, -1.1 + 0.5j), (1.7, -0.4j), (-1.9 - 1.2j, 0.8)], p)),
    (symalg, lambda p: symalg.pairing_check(3, 3, p)),
    (symalg, symalg.dual_bracket_check),
    (symalg, lambda p: symalg.dual_hopf_check(p, deg=2)),
], ids=["qpower_additivity", "pairing_eqn", "dual_bracket", "dual_hopf"])
def test_planted_relative_error_fails(monkeypatch, module, check):
    # a relative 1e-6 error on one side is far above the fail threshold for
    # each of these checks, whatever the scale of its values
    p = DeformParams(q=1.3)
    assert check(p).verdict == "pass"

    def planted(identity, params, dims, window, pairs, floor=1.0):
        return compare(identity, params, dims, window,
                       [((1 + 1e-6) * lhs, rhs) for lhs, rhs in pairs], floor)

    monkeypatch.setattr(module, "compare", planted)
    assert check(p).verdict == "fail"


def test_compare_raises_on_an_empty_comparison():
    # a check that compared nothing proves nothing: no pair, or a pair cut to
    # no entry (an empty window), raises instead of reading 0.0 and passing
    empty, some = np.zeros((0, 3)), (np.ones(3), np.ones(3))
    for pairs in ([], [(empty, empty)], [some, (empty, empty)]):
        with pytest.raises(ValueError):
            compare("c", {}, [4], 0, pairs)
    with pytest.raises(ValueError):
        residual(empty, empty)


def _case_report(config, case_id):
    rows = dict(_cases(config, config.params()))
    [report] = _run_case(case_id, rows[case_id])
    return report


def test_relation_case_reports_the_residual_pair(fast_config):
    # raw is ||lhs - rhs||_F on the window, the normalized residual times
    # max(1, ||rhs||_F), not a copy of the normalized value
    report = _case_report(fast_config, "relation_R1_c(0.5+0j)")
    D, p = fast_config.rep_dims[1], fast_config.params()
    rhs = build_rep(D, 0.5, p).matAdag[:report.window + 1, :report.window + 1]
    assert report.normalized_residual > 0 and frobenius(rhs) > 1
    assert report.raw_residual == pytest.approx(report.normalized_residual * frobenius(rhs),
                                                rel=1e-12, abs=0)


def test_witness_consistency_reports_the_whole_matrix(fast_config):
    # both premises are measured on the whole D x D matrices
    report = _case_report(fast_config, "witness_consistency")
    assert (report.dims, report.window) == ([fast_config.dim_triple], fast_config.dim_triple - 1)


def test_expected_for_patterns():
    # the suite passes a report's rspec:identity key and its bare identity
    claim_of = _claim_matcher(("yan_claimed:intertwiner_a",))
    assert claim_of("yan_claimed:intertwiner_a", "intertwiner_a") == "fail"
    assert claim_of("quantum_double:intertwiner_a", "intertwiner_a") == "pass"
    claim_of = _claim_matcher(("*:coproduct_relation_C", "intertwiner_N"))
    assert claim_of("-:coproduct_relation_C", "coproduct_relation_C") == "fail"
    assert claim_of("quantum_double:intertwiner_N", "intertwiner_N") == "fail"
    # a claim is fail or pass: CLAIMS has no other kind, and a key no
    # expect_fail pattern matches must pass
    claim_of = _claim_matcher(CLAIMS)
    assert claim_of("yan_claimed:counit_left", "counit_left") == "fail"
    assert claim_of("-:inverse_realization_y", "inverse_realization_y") == "fail"
    assert claim_of("quantum_double:counit_left", "counit_left") == "pass"
    assert claim_of("quantum_double:antipode_inverse", "antipode_inverse") == "pass"
    assert _claim_matcher(())("-:inverse_realization_y", "inverse_realization_y") == "pass"


EXPECT_KEYS = (
    "yan_claimed:intertwiner_a", "yan_claimed:intertwiner_N", "yan_claimed:intertwiner_adag",
    "quantum_double:intertwiner_a", "quantum_double:intertwiner_ab", "yan_claimed:yang_baxter",
    "yan_claimed:yang_baxter\n", "yan_claimed:fusion_left", "quantum_double:fusion_right",
    "general_family(m=0.5,K=-1,lower):yan_relation_a", "yan_claimed:yan_relation_N",
    "-:coproduct_relation_C", "coproduct_relation_R3", "coproduct_relation_Ry",
    "coproduct_relation_C_x", "-:casimir_scalar",
    "abc", "cab", "a.b", "", "*", "[x]")


@pytest.mark.parametrize("patterns", [
    SuiteConfig().expect_fail,
    (*SuiteConfig().expect_fail, "quantum_double:intertwiner_?", "*:fusion_[lr]*"),
    ("general*:yan_relation_[!N]", "*a*b*", "a.b", "[[]x]", "?"),
    ()], ids=("default", "with_marks", "classes", "none"))
def test_expect_fail_regex_matches_like_fnmatch(patterns):
    # one compiled alternation decides as the patterns one by one would
    claim_of = _claim_matcher(patterns)
    for key in EXPECT_KEYS:
        want = "fail" if any(fnmatch.fnmatch(key, pattern) for pattern in patterns) else "pass"
        assert claim_of(key) == want, (key, patterns)


def test_every_claims_row_matches_a_report(fast_config):
    # a row that matches no report of the reduced suite claims nothing
    keys = [(f"{r.params.get('rspec', '-')}:{r.identity}", r.identity)
            for r in run_suite(fast_config)]
    for pattern in CLAIMS:
        assert any(fnmatch.fnmatch(k, pattern) for pair in keys for k in pair), pattern


def test_empty_expect_fail_makes_every_failure_unexpected(tmp_path):
    # expect_fail replaces the whole table: with no pattern, each of the 16
    # failures the table claims by default is unexpected, and nothing is info
    cfg, out = tmp_path / "suite.cfg", tmp_path / "report.json"
    cfg.write_text(FAST_CONFIG + "expect_fail = []\n", encoding="utf-8")
    assert main(["--config", str(cfg), "--out", str(out), "verify"]) == 1
    results = json.loads(out.read_text())["results"]
    unexpected = {f"{r['params'].get('rspec', '-')}:{r['identity']}" for r in results
                  if r.get("expected") == "pass" and r["verdict"] == "fail"}
    assert unexpected == {"yan_claimed:intertwiner_a", "yan_claimed:intertwiner_adag",
                          "yan_claimed:yang_baxter", "yan_claimed:fusion_left",
                          "yan_claimed:fusion_right", "yan_claimed:yan_relation_N",
                          "yan_claimed:yan_relation_a", "yan_claimed:antipode_inverse",
                          "yan_claimed:counit_left", "yan_claimed:counit_right",
                          "-:coproduct_relation_R2", "-:coproduct_relation_R3",
                          "-:coproduct_relation_R4", "-:coproduct_relation_R5",
                          "-:coproduct_relation_C", "-:inverse_realization_y"}
    assert all(r["expected"] == r["verdict"] == "pass" for r in results
               if f"{r['params'].get('rspec', '-')}:{r['identity']}" not in unexpected)


def test_yan_relation_rows_run_for_the_published_candidate_only(fast_config):
    # an invertible R that passes the intertwiners meets the Yan relation iff
    # Deltabar = T Delta, so the row sorts no candidate but the one that claims it
    yan_rows = [case_id for case_id, _ in _cases(fast_config, fast_config.params())
                if "yan_relation" in case_id]
    assert yan_rows == ["yan_claimed:yan_relation_N", "yan_claimed:yan_relation_a"]
    config = replace(fast_config, rspecs=("quantum_double", "general:m=1,K=0,sign=upper"))
    assert not [case_id for case_id, _ in _cases(config, config.params())
                if "yan_relation" in case_id]


def test_former_info_row_that_passes_exits_1(tmp_path, monkeypatch):
    # the published candidate's counit read with the double's exponent passes,
    # against its claim: the run must not exit 0
    series = rmatrix._series

    def double_exponent(spec, p):
        own = series(spec, p)
        if spec.kind != "yan_claimed":
            return own
        return replace(own, exponent=series(rmatrix.RSpec("quantum_double"), p).exponent)

    monkeypatch.setattr(rmatrix, "_series", double_exponent)
    out = tmp_path / "report.json"
    assert main(["--q", "1.3", "--out", str(out), "verify"]) == 1
    unexpected = {f"{r['params'].get('rspec', '-')}:{r['identity']}": r["verdict"]
                  for r in json.loads(out.read_text())["results"]
                  if r["verdict"] != r["expected"]}
    # at the default dims its other claimed failures still fail: its
    # coefficient and raising word differ from the double's too
    assert unexpected == {"yan_claimed:counit_left": "pass", "yan_claimed:counit_right": "pass"}


# ---------------------------------------------------------------------------
# command line


def test_cli_verify_writes_report(tmp_path):
    cfg = tmp_path / "suite.cfg"
    cfg.write_text(FAST_CONFIG, encoding="utf-8")
    out = tmp_path / "report.json"
    code = main(["--config", str(cfg), "--out", str(out), "verify"])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["results"]


def test_cli_bad_config_exits_2(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("q = 1.3\nnope = 1\n")
    assert main(["--config", str(cfg), "verify"]) == 2
    assert main(["--config", str(tmp_path / "missing.cfg"), "verify"]) == 2


def test_cli_non_finite_q_exits_2(tmp_path):
    assert main(["--q", "nan", "verify"]) == 2
    cfg = tmp_path / "scan.cfg"
    cfg.write_text(FAST_CONFIG + "scan.q_values = [1.2, nan]\n", encoding="utf-8")
    assert main(["--config", str(cfg), "scan"]) == 2


def test_cli_errored_cases_exit_1(tmp_path, monkeypatch, capsys):
    # a case that raises (here a check whose window does not fit) proved
    # nothing, and the run must not exit 0
    monkeypatch.setattr(fockrep, "check_casimir_scalar", window_too_small)
    cfg = tmp_path / "suite.cfg"
    cfg.write_text(FAST_CONFIG, encoding="utf-8")
    out = tmp_path / "report.json"
    assert main(["--config", str(cfg), "--out", str(out), "verify"]) == 1
    errors = [r for r in json.loads(out.read_text())["results"] if "error" in r]
    assert errors and all(r["error"].startswith("WindowError") for r in errors)
    assert all(r["verdict"] == "fail" for r in errors)  # it proved nothing: never info
    # the summary line counts them as errors, not as informational verdicts
    line = capsys.readouterr().out.strip().splitlines()[-1]
    counts = {k: int(v) for v, k in re.findall(r"(\d+) (\w+)", line)}
    assert counts.get("error") == len(errors)
    assert sum(counts.values()) == len(json.loads(out.read_text())["results"])


def assert_config_error(argv, capsys):
    """argv is rejected as configuration input: exit 2, an 'error:' line on
    stderr, nothing on stdout."""
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")


def test_cli_q_values_validated_up_front(capsys):
    # before any q point runs: a bad last point must not let the first one print
    assert_config_error(["scan", "--q-list", "1.3,nan"], capsys)
    assert_config_error(["scan", "--q-list", "1.3,x"], capsys)
    assert_config_error(["--q", "x", "verify"], capsys)


def test_cli_q_flags_read_the_config_grammar(tmp_path, capsys):
    # --q and --q-list values parse as a config's q and scan.q_values do, so a
    # non-finite one gives the config's message
    finite, scan = "q must be finite", "scan.q_values entry (inf+0j): q must be finite"
    (tmp_path / "q.cfg").write_text("q = Infinity\n", encoding="utf-8")
    (tmp_path / "scan.cfg").write_text("q = 1.3\nscan.q_values = [1.2, Infinity]\n",
                                       encoding="utf-8")
    for argv, want in ((["--config", str(tmp_path / "q.cfg"), "verify"], finite),
                       (["--q", "Infinity", "verify"], finite),
                       (["--config", str(tmp_path / "scan.cfg"), "scan"], scan),
                       (["scan", "--q-list", "1.3, Infinity"], scan)):
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {want}\n", argv


def test_config_error_names_the_faulty_value(tmp_path, capsys):
    # a kappa out of range is named as kappa, never tagged with q; a bad scan
    # point is named as that scan.q_values entry
    assert main(["--q", "1.3", "--kappa", "100000000000000000000", "verify"]) == 2
    assert capsys.readouterr().err == \
        "error: |kappa| must be at most 2**53, where integers are exact as floats\n"
    cfg = tmp_path / "scan.cfg"
    cfg.write_text("q = 1.3\nscan.q_values = [1.2, 0, 1.4]\n", encoding="utf-8")
    assert main(["--config", str(cfg), "scan"]) == 2
    assert capsys.readouterr().err == "error: scan.q_values entry 0j: q must be nonzero\n"


def test_parse_config_tensor_cap_bounds_every_dimension(tmp_path):
    # reps.dims entries are bounded by their square, axioms.dim by its cube
    path = tmp_path / "c.cfg"
    for lines, ok in (("reps.dims = [256, 256]", True), ("reps.dims = [12, 257]", False),
                      ("axioms.dim = 40", True), ("axioms.dim = 41", False),
                      ("caps.tensor = 1000\naxioms.dim = 11", False)):
        path.write_text(f"q = 1.3\n{lines}\n")
        if ok:
            parse_config(path)
        else:
            with pytest.raises(ConfigError, match="caps.tensor"):
                parse_config(path)


def test_cli_negative_window_is_config_error(capsys):
    assert_config_error(["--window", "-1", "verify"], capsys)


def test_cli_window_zero_is_config_error(capsys):
    # at window 0 the ladder intertwiners and Yan relations would compare no entry
    assert_config_error(["--window", "0", "verify"], capsys)


def test_cli_negative_seed_is_config_error(capsys):
    # random.Random seeds with |seed|, so -7 would silently repeat seed 7
    assert_config_error(["--seed", "-7", "verify"], capsys)


def test_cli_negative_pairing_degree_is_config_error(tmp_path, capsys):
    assert_config_error(["pairing", "--kmax", "-1"], capsys)
    assert_config_error(["pairing", "--mmax", "-1"], capsys)
    cfg = tmp_path / "suite.cfg"
    cfg.write_text(FAST_CONFIG + "pairing.mmax = -1\n", encoding="utf-8")
    assert_config_error(["--config", str(cfg), "verify"], capsys)


@pytest.mark.parametrize("line", ["pairing.kmax = 9", "pairing.mmax = 9", "caps.degree = 2"])
def test_parse_config_degree_cap_violation(tmp_path, line):
    # the pairing table's kmax and mmax (3 by default) are the only degrees a config sets
    path = tmp_path / "c.cfg"
    path.write_text(f"q = 1.3\n{line}\n")
    with pytest.raises(ConfigError, match="caps.degree"):
        parse_config(path)


def no_work(*args, **kwargs):
    raise AssertionError("work started")  # would print 'runtime error:'


@pytest.mark.parametrize("line", ["pairing.kmax = 9", "caps.degree = -1", "dims.triple = 1",
                                  "axioms.max_word_len = 0", "axioms.max_word_len = -1",
                                  "reps.dims = [300, 300]", "axioms.dim = 41"])
def test_cli_size_errors_exit_2_before_any_case(tmp_path, monkeypatch, capsys, line):
    monkeypatch.setattr(cli, "_cases", no_work)
    monkeypatch.setattr(symalg, "pairing_gram", no_work)
    cfg = tmp_path / "suite.cfg"
    cfg.write_text(FAST_CONFIG + line + "\n", encoding="utf-8")
    for command in ("verify", "pairing"):
        assert_config_error(["--config", str(cfg), command], capsys)


def test_cli_tol_key_is_a_config_error(tmp_path, monkeypatch, capsys):
    # the verdict tolerance is report.TOL alone: no config can widen it until
    # the published candidate's claimed failures read as gray-zone info
    monkeypatch.setattr(cli, "_cases", no_work)
    cfg = tmp_path / "suite.cfg"
    cfg.write_text("q = 1.3\ntol = 1e-2\n", encoding="utf-8")
    assert main(["--config", str(cfg), "verify"]) == 2
    assert capsys.readouterr().err.startswith("error: line 2: unknown key 'tol'")


def test_readme_config_example_parses(tmp_path):
    # the fenced example of README's "Configuration file" section names only
    # keys the grammar knows, each with a value of its kind
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    example = readme.split("### Configuration file", 1)[1].split("```", 2)[1]
    cfg = tmp_path / "example.cfg"
    cfg.write_text(example, encoding="utf-8")
    config = parse_config(cfg)
    assert config.q == 0.7 + 0.2j and config.out_report == "report.json"


@pytest.mark.parametrize("lines",
                         ["families.m = [0.3]\nfamilies.k = [0]\nfamilies.signs = [lower]",
                          'rspecs = ["general:m=0.3,K=0,sign=upper"]',
                          'rspecs = ["general:m=0.5,K=-1,sign=sideways"]'],
                         ids=["grid_m", "rspec_m", "rspec_sign"])
def test_cli_invalid_family_point_exits_2_before_any_case(tmp_path, monkeypatch, capsys, lines):
    # the config check builds every family point of the grid and of the rspecs
    # by HopfFamily's rules, so a point they reject never reaches a case
    monkeypatch.setattr(cli, "_cases", no_work)
    cfg = tmp_path / "suite.cfg"
    cfg.write_text(FAST_CONFIG + lines + "\n", encoding="utf-8")
    for command in (["verify"], ["scan", "--q-list", "1.3,1.2"]):
        assert_config_error(["--config", str(cfg), *command], capsys)


_HUGE = "9" * 400


@pytest.mark.parametrize("lines, flags",
                         [("families.m = [nan]\nfamilies.k = [0]\nfamilies.signs = [lower]", []),
                          ("families.m = [inf]\nfamilies.k = [0]\nfamilies.signs = [lower]", []),
                          ('rspecs = ["general:m=nan,K=0,sign=lower"]', []),
                          (f"families.m = [0.5]\nfamilies.k = [{_HUGE}]\n"
                           "families.signs = [lower]", []),
                          ("kappa = 1e300", []),
                          ("kappa = 4503599627370496", []),
                          ("", ["--kappa", "100000000000000000000"]),
                          ("", ["--kappa", _HUGE]),
                          ("reps.shifts = [0, nan]", [])],
                         ids=["grid_m_nan", "grid_m_inf", "rspec_m_nan", "grid_huge_K",
                              "kappa_1e300", "kappa_2p52_canonical_K", "kappa_flag_1e20",
                              "kappa_flag_huge", "shift_nan"])
def test_cli_unrepresentable_inputs_exit_2_before_any_case(tmp_path, monkeypatch, capsys,
                                                           lines, flags):
    # a non-finite number, or an integer that float arithmetic cannot hold
    # exactly (|kappa| or |K| above 2**53, the canonical K = -2 kappa - 1
    # included), is a config error, never a run of failed identities or a
    # runtime error
    monkeypatch.setattr(cli, "_cases", no_work)
    cfg = tmp_path / "suite.cfg"
    cfg.write_text(FAST_CONFIG + lines + "\n", encoding="utf-8")
    assert_config_error(["--config", str(cfg), *flags, "verify"], capsys)
    if lines.startswith("rspecs"):
        spec = lines.split('"')[1]
        assert_config_error(["--q", "1.3", "--dump-dir", str(tmp_path / "r"), "rmatrix",
                             "--rspec", spec], capsys)
        assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("rspec", ["general:m=0.5,K=-1,sign=lower,m=1",
                                   "general:m=0.5,K=-1,sign=lower,extra=1",
                                   "general:m=0.5,K=-1,sign=lower,",
                                   "general:m=0.5,,K=-1,sign=lower",
                                   "general:m=,K=-1,sign=lower"],
                         ids=["repeated", "unknown", "trailing_empty", "inner_empty",
                              "empty_value"])
def test_malformed_general_rspec_is_config_error(tmp_path, monkeypatch, capsys, rspec):
    # a repeated, unknown or empty field is rejected, never overwritten or
    # dropped: by parse_rspec, in the rspecs key and by the --rspec flag
    with pytest.raises(ConfigError, match="malformed general rspec"):
        parse_rspec(rspec)
    cfg = tmp_path / "suite.cfg"
    cfg.write_text(FAST_CONFIG + f'rspecs = ["{rspec}"]\n', encoding="utf-8")
    dump = tmp_path / "dump"
    assert_config_error(["--q", "1.3", "--dump-dir", str(dump), "rmatrix", "--rspec", rspec],
                        capsys)
    assert not dump.exists()
    monkeypatch.setattr(cli, "_cases", no_work)
    assert_config_error(["--config", str(cfg), "verify"], capsys)


def test_cli_rmatrix_invalid_family_point_is_config_error(tmp_path, capsys):
    # the --rspec flag passes the rules the rspecs key does, and nothing is dumped
    for rspec in ("general:m=0.3,K=0,sign=upper", "general:m=0.5,K=-1,sign=sideways"):
        assert_config_error(["--q", "1.3", "--dump-dir", str(tmp_path), "rmatrix",
                             "--rspec", rspec], capsys)
    assert not any(tmp_path.iterdir())


def test_cli_oversize_pairing_flag_is_config_error(capsys):
    assert_config_error(["--q", "1.3", "pairing", "--kmax", "9"], capsys)
    assert_config_error(["--q", "1.3", "pairing", "--mmax", "9"], capsys)


def test_degree_cap_leaves_fixed_degree_checks_alone(tmp_path):
    # dual_bracket and dual_hopf evaluate up to degree 4, fixed by the checks
    # themselves; caps.degree bounds only the pairing table
    cfg = tmp_path / "suite.cfg"
    cfg.write_text(FAST_CONFIG + "caps.degree = 3\n", encoding="utf-8")
    config = parse_config(cfg)
    rows = dict(_cases(config, config.params()))
    for case_id in ("dual_bracket", "dual_hopf"):
        [report] = _run_case(case_id, rows[case_id])
        assert report.error is None and report.verdict == "pass", case_id


def test_cli_rmatrix_dump(tmp_path):
    code = main(["--q", "1.3", "--dim", "6", "--dump-dir", str(tmp_path), "rmatrix",
                 "--rspec", "quantum_double"])
    assert code == 0
    mat = load_matrix(tmp_path / "rmatrix_quantum_double.mtx")
    assert mat.shape == (36, 36)


def test_cli_pairing(tmp_path, capsys):
    code = main(["--q", "1.3", "--dump-dir", str(tmp_path), "pairing",
                 "--kmax", "1", "--mmax", "1"])
    assert code == 0
    assert "pairing deviation" in capsys.readouterr().out
    assert load_matrix(tmp_path / "pairing_gram.mtx").shape == (4, 4)


def test_flags_override_config_fields(tmp_path):
    cfg = tmp_path / "suite.cfg"
    cfg.write_text(FAST_CONFIG, encoding="utf-8")
    # a flag that is absent or None leaves the config's value
    assert cli._load_config(argparse.Namespace(config=str(cfg), q=None)) == parse_config(cfg)
    config = cli._load_config(argparse.Namespace(
        config=str(cfg), q="1.2", kappa=1, dim=7, window=2, seed=3, out="r.json",
        dump_dir="d", kmax=2, mmax=0))
    assert (config.q, config.kappa, config.dim_pair, config.rep_dims, config.window,
            config.seed, config.out_report, config.dump_dir, config.pairing_kmax,
            config.pairing_mmax) == (1.2, 1, 7, (7, 7), 2, 3, "r.json", "d", 2, 0)


def test_cli_pairing_reads_config_degrees(tmp_path):
    # pairing.kmax and pairing.mmax size the table; --kmax overrides one of them
    cfg = tmp_path / "pairing.cfg"
    cfg.write_text("q = 1.3\npairing.kmax = 1\npairing.mmax = 1\n", encoding="utf-8")
    assert main(["--config", str(cfg), "--dump-dir", str(tmp_path / "a"), "pairing"]) == 0
    assert load_matrix(tmp_path / "a" / "pairing_gram.mtx").shape == (4, 4)
    assert main(["--config", str(cfg), "--dump-dir", str(tmp_path / "b"), "pairing",
                 "--kmax", "2"]) == 0
    assert load_matrix(tmp_path / "b" / "pairing_gram.mtx").shape == (6, 6)


def test_cli_pairing_near_one_prints_both_residuals(monkeypatch, capsys):
    # at q = 1.05 the table entries reach about 2e9, so the absolute deviation
    # is far above tol while the normalized one, which decides, is not
    pairing_gram, calls = symalg.pairing_gram, []

    def counted_gram(*args, **kwargs):
        calls.append(args)
        return pairing_gram(*args, **kwargs)

    monkeypatch.setattr(symalg, "pairing_gram", counted_gram)
    assert main(["--q", "1.05", "pairing", "--kmax", "5", "--mmax", "5"]) == 0
    line = capsys.readouterr().out.strip().splitlines()[-1]
    match = re.fullmatch(r"pairing deviation: (\S+), normalized (\S+) \[pass\]", line)
    assert match, line
    raw, normalized = float(match[1]), float(match[2])
    assert raw > 1e-9 and normalized <= 1e-13
    assert len(calls) == 1


def test_cli_scan(tmp_path):
    cfg = tmp_path / "suite.cfg"
    cfg.write_text(FAST_CONFIG + 'scan.q_values = [1.2, 1.4]\n', encoding="utf-8")
    out = tmp_path / "scan.json"
    code = main(["--config", str(cfg), "--out", str(out), "scan"])
    assert code == 0
    assert (tmp_path / "scan_0.json").exists()
    assert (tmp_path / "scan_1.json").exists()


def test_cli_scan_without_values_errors(tmp_path):
    cfg = tmp_path / "suite.cfg"
    cfg.write_text(FAST_CONFIG, encoding="utf-8")
    assert main(["--config", str(cfg), "scan"]) == 2


def test_sampled_cases_do_not_depend_on_run_order(fast_config):
    # each row binds its inputs when the table is built, so the cases may run
    # in any order
    p = fast_config.params()

    def run(rows):
        rmatrix.clear_caches()
        symalg.clear_caches()
        return [(case_id, [r.as_dict() for r in _untimed(_run_case(case_id, fn))])
                for case_id, fn in rows]

    forward = run(_cases(fast_config, p))
    backward = run(reversed(_cases(fast_config, p)))[::-1]
    rmatrix.clear_caches()
    assert len(forward) == len(backward) == 49
    assert len({case_id for case_id, _ in forward}) == 49  # each case runs once
    assert not [case for case, reps in forward if any("error" in r for r in reps)]
    for (case_id, reports), (_, again) in zip(forward, backward):
        assert again == reports, case_id


SAMPLED_CASES = ("qscalars_qpower_additivity", "qscalars_qnum_inversion")


def _sampled_reports(config):
    rows = {row[0]: row for row in _cases(config, config.params())}
    return {case_id: _untimed(_run_case(*rows[case_id]))[0].as_dict()
            for case_id in SAMPLED_CASES}


def test_sampled_inputs_follow_the_seed(fast_config):
    # the same seed draws the same inputs; another seed draws others, and the
    # identities hold for every input
    seven = _sampled_reports(fast_config)
    assert _sampled_reports(fast_config) == seven
    eight = _sampled_reports(replace(fast_config, seed=8))
    assert any(eight[c]["raw_residual"] != seven[c]["raw_residual"] for c in SAMPLED_CASES)
    assert {rep["verdict"] for rep in (*seven.values(), *eight.values())} == {"pass"}


def _relation_reports(config, case_id):
    rows = dict(_cases(config, config.params()))
    return {r.identity: r for r in _run_case(case_id, rows[case_id])}


def _planted_second_term(factor):
    """A Sweedler table whose Delta(a) second term, the sg * 1j one, is scaled
    by factor(fam)."""
    sweedler_letter = hopfops.sweedler_letter

    def planted(letter, fam):
        terms = sweedler_letter(letter, fam)
        if letter == "a":
            (c0, u0, v0), (c1, u1, v1) = terms
            terms = [(c0, u0, v0), (c1 * factor(fam), u1, v1)]
        return terms
    return planted


def _assert_ry_row_catches(config, monkeypatch, factor):
    # Delta is an algebra map of the Ry relation on two legs, so a wrong term
    # of the Sweedler table fails coproduct_relation_Ry; the one-leg row reads
    # no coproduct and still passes
    case = "coproduct_relations_c0.5"
    assert _relation_reports(config, case)["coproduct_relation_Ry"].verdict == "pass"
    monkeypatch.setattr(hopfops, "sweedler_letter", _planted_second_term(factor))
    assert _relation_reports(config, case)["coproduct_relation_Ry"].verdict == "fail"
    assert _relation_reports(config, "relation_Ry_c(0.5+0j)")["relation_Ry"].verdict == "pass"


def test_homomorphism_case_catches_a_wrong_coproduct(fast_config, monkeypatch):
    # the planted table drops the sg * 1j factor of Delta(a)'s second term
    _assert_ry_row_catches(fast_config, monkeypatch, lambda fam: 1 / (fam.sg * 1j))


@pytest.mark.parametrize("q", (None, 1.3, 0.7 + 0.2j), ids=("fast", "q1.3", "q0.7+0.2i"))
def test_coproduct_relation_catches_a_one_percent_term(fast_config, monkeypatch, q):
    # the same term 1% too large, at the reduced config and at full dims.pair
    config = fast_config if q is None else replace(SuiteConfig(), q=q)
    _assert_ry_row_catches(config, monkeypatch, lambda fam: 1.01)


def test_planted_relation_table_defect_fails_on_both_legs(fast_config, monkeypatch):
    # one table feeds the one-leg and the two-leg rows: a right side of Ry
    # 1% off fails both
    wrong = replace(fockrep.RELATIONS["Ry"],
                    rhs=lambda n, p: 1.01 * (q_number(n + 0.5, p) - q_number(n - 0.5, p)))
    case = "coproduct_relations_c0.5"
    before = (_relation_reports(fast_config, "relation_Ry_c(0.5+0j)")["relation_Ry"],
              _relation_reports(fast_config, case)["coproduct_relation_Ry"])
    assert [r.verdict for r in before] == ["pass", "pass"]
    monkeypatch.setitem(fockrep.RELATIONS, "Ry", wrong)
    after = (_relation_reports(fast_config, "relation_Ry_c(0.5+0j)")["relation_Ry"],
             _relation_reports(fast_config, case)["coproduct_relation_Ry"])
    assert [r.verdict for r in after] == ["fail", "fail"]


def test_planted_r0_defect_fails_every_row_that_reads_it(fast_config, monkeypatch):
    # R0 read as a N - N a = 1.01 a (its left side over 1.01: a letter right
    # side takes no coefficient) fails the one-leg row at both shifts, the
    # two-leg row and the quotient cross, which all read the table's R0
    rows = {"relation_R0_c0j": "relation_R0", "relation_R0_c(0.5+0j)": "relation_R0",
            "coproduct_relations_c0.5": "coproduct_relation_R0",
            "quotient_cross": "quotient_cross"}
    verdicts = lambda: [_relation_reports(fast_config, case)[name].verdict
                        for case, name in rows.items()]
    assert verdicts() == ["pass"] * 4
    r0 = fockrep.RELATIONS["R0"]
    monkeypatch.setitem(fockrep.RELATIONS, "R0", replace(r0, lhs=tuple(
        (sign / 1.01, e, letters) for sign, e, letters in r0.lhs)))
    assert verdicts() == ["fail"] * 4


def test_axiom_dim_below_the_word_length_is_config_error(tmp_path, monkeypatch, capsys):
    # the longest axiom word needs a leak-free window, so axioms.dim must be at
    # least axioms.max_word_len + 1 (2 is too small at the default length 2);
    # the config check says so before any case runs
    monkeypatch.setattr(cli, "_cases", no_work)
    cfg = tmp_path / "suite.cfg"
    for text in ("q = 1.3\naxioms.dim = 2\n", FAST_CONFIG + "axioms.max_word_len = 5\n"):
        cfg.write_text(text, encoding="utf-8")
        assert_config_error(["--config", str(cfg), "verify"], capsys)


@pytest.mark.parametrize("dim, word_len", [(2, 1), (3, 2)])
def test_smallest_axiom_dim_runs_without_error(fast_config, dim, word_len):
    # axioms.dim = axioms.max_word_len + 1 is the smallest feasible sweep
    reports = run_suite(replace(fast_config, axiom_dim=dim, axiom_max_word_len=word_len))
    assert reports and not [r for r in reports if r.error]
    assert exit_code_for(reports) == 0


@pytest.mark.parametrize("command", [["verify"], ["scan", "--q-list", "0.7+0.2i,1.3"]],
                         ids=["verify", "scan"])
def test_cli_run_loads_no_numpy_random(tmp_path, command):
    # the sampled checks draw from the standard library's generator; numpy.random
    # would load nine extension modules and libcrypto into every run
    cfg = tmp_path / "suite.cfg"
    cfg.write_text(FAST_CONFIG, encoding="utf-8")
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-X", "importtime", "-m", "qboson.cli",
                           "--config", str(cfg), "--out", str(tmp_path / "r.json"), *command],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr[-2000:]
    assert "import time:" in done.stderr
    assert [ln for ln in done.stderr.splitlines() if "numpy.random" in ln] == []


def _symalg_cache_sizes():
    return (symalg._split_row.cache_info().currsize,
            symalg._transfer_weights.cache_info().currsize)


def test_scan_scopes_symalg_caches_to_one_q(tmp_path, monkeypatch):
    # the caches are keyed by q; a scan must not carry one point's entries
    # into the next: each suite run starts with them empty and clears them
    # when it ends, as it clears rmatrix's held R
    starts, ends = [], []
    clear, suite = symalg.clear_caches, run_suite

    def traced_clear():
        ends.append(_symalg_cache_sizes())
        clear()

    def traced_run_suite(config):
        starts.append(_symalg_cache_sizes())
        return suite(config)

    monkeypatch.setattr(symalg, "clear_caches", traced_clear)
    monkeypatch.setattr(cli, "run_suite", traced_run_suite)
    # a forked child's cache sizes cannot be seen here: run every point in
    # this process
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})

    def scan(values):
        cfg = tmp_path / "suite.cfg"
        cfg.write_text(FAST_CONFIG + f"scan.q_values = [{values}]\n", encoding="utf-8")
        clear()
        starts.clear()
        ends.clear()
        assert main(["--config", str(cfg), "--out", str(tmp_path / "s.json"), "scan"]) == 0
        return list(starts), list(ends), _symalg_cache_sizes()

    (_, (one_point,), after_one) = scan("1.4")
    (started, (_, last_point), after_two) = scan("1.2, 1.4")
    assert all(size > 0 for size in one_point)
    assert last_point == one_point
    assert started == [(0, 0)] * 2 and after_one == after_two == (0, 0)


def test_run_suite_builds_each_r_once(fast_config, monkeypatch):
    # every rmatrix case of a suite reads the same held R per (spec, rep pair)
    builds = Counter()

    class CountingDict(dict):
        def setdefault(self, key, value):
            builds[key] += 1
            return super().setdefault(key, value)

    monkeypatch.setattr(rmatrix, "_HELD_R", CountingDict())
    run_suite(fast_config)
    # the pair checks use dims.pair, Yang-Baxter and fusion dims.triple
    assert len(builds) == 2 * len(fast_config.rspecs)
    assert set(builds.values()) == {1}
    assert not rmatrix._HELD_R  # nothing outlives the suite run


def test_scan_points_match_separate_verify_runs(tmp_path):
    # a held R keyed without q would leak from one scan point into the next
    cfg = tmp_path / "suite.cfg"
    cfg.write_text(FAST_CONFIG + "scan.q_values = [1.3, 0.7+0.2i]\n", encoding="utf-8")

    def results(path):
        doc = json.loads(path.read_text(encoding="utf-8"))
        for rep in doc["results"]:
            rep.pop("wall_time")
        return doc["results"]

    assert main(["--config", str(cfg), "--out", str(tmp_path / "s.json"), "scan"]) == 0
    for idx, q in enumerate(("1.3", "0.7+0.2i")):
        out = tmp_path / f"v{idx}.json"
        assert main(["--config", str(cfg), "--q", q, "--out", str(out), "verify"]) == 0
        assert results(tmp_path / f"s_{idx}.json") == results(out)


# the scan runs its points w::n in n processes, one per CPU of the affinity
# mask; these tests set the mask, so they fork on a one-CPU machine too
SCAN_POINTS = "scan.q_values = [1.2, 0.7+0.2i, 1.4]\n"


@pytest.mark.parametrize("values, cpus", [
    ("1.2, 0.7+0.2i, 1.4", {0, 1}),
    ("1.2, 0.7+0.2i, 1.4, 0.9-0.3i, 1.3", {0, 1, 2}),
], ids=["3_points_2_cpus", "5_points_3_cpus"])
def test_forked_scan_matches_one_process(tmp_path, monkeypatch, capsys, values, cpus):
    # uneven shares: with two CPUs, points 0 and 2 run here and point 1 in a
    # child; with three, the children run points 1, 4 and 2.  The child's
    # unexpected verdict at point 1 must decide the exit code.
    cfg = tmp_path / "suite.cfg"
    cfg.write_text(FAST_CONFIG + f"scan.q_values = [{values}]\n", encoding="utf-8")
    n_points = len(values.split(","))

    def planted_run_suite(config):
        reports = run_suite(config)
        if config.q == 0.7 + 0.2j:
            reports[0].verdict = "fail"
        return reports

    monkeypatch.setattr(cli, "run_suite", planted_run_suite)

    def scan(mask):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: mask)
        code = main(["--config", str(cfg), "--out", str(tmp_path / "s.json"), "scan"])
        docs = [json.loads((tmp_path / f"s_{i}.json").read_text(encoding="utf-8"))
                for i in range(n_points)]
        for doc in docs:
            for rep in doc["results"]:
                rep.pop("wall_time")
        return code, docs, capsys.readouterr().out

    forked, serial = scan(cpus), scan({0})
    assert forked == serial
    assert forked[0] == 1
    assert [doc["config"]["q"] for doc in forked[1]] == \
        [str(complex(q.replace("i", "j"))) for q in values.split(",")]
    assert [line.partition(":")[0] for line in forked[2].splitlines()] == \
        [f"q={doc['config']['q']}" for doc in forked[1]]


class _Unpicklable(RuntimeError):
    """An exception whose pickling fails, as for one that holds a lock."""

    def __reduce__(self):
        raise TypeError("not picklable")


@pytest.mark.parametrize("q, plant, message", [
    (0.7 + 0.2j, "raise", "runtime error: RuntimeError: planted"),
    (1.2, "raise", "runtime error: RuntimeError: planted"),
    (0.7 + 0.2j, "exit", "runtime error: RuntimeError: scan worker 1 sent no result "
                         "(exit status 3)"),
    (0.7 + 0.2j, "unpicklable", "runtime error: RuntimeError: _Unpicklable('planted')"),
], ids=["child_raises", "parent_raises", "child_exits", "child_raises_unpicklable"])
def test_forked_scan_errors_leave_no_child(tmp_path, monkeypatch, capsys, q, plant, message):
    # a failure in any share is a runtime error, and every child is reaped
    cfg = tmp_path / "suite.cfg"
    cfg.write_text(FAST_CONFIG + SCAN_POINTS, encoding="utf-8")
    test_pid = os.getpid()

    def planted_run_suite(config):
        if config.q != q:
            return run_suite(config)
        if plant == "raise":
            raise RuntimeError("planted")
        assert os.getpid() != test_pid, "the child's point ran in the parent"
        if plant == "exit":
            os._exit(3)
        raise _Unpicklable("planted")

    monkeypatch.setattr(cli, "run_suite", planted_run_suite)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    assert main(["--config", str(cfg), "--out", str(tmp_path / "s.json"), "scan"]) == 2
    assert capsys.readouterr().err.strip() == message
    assert not list(tmp_path.glob("s_*.json"))
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def unfrozen():
    gc.unfreeze()
    yield
    gc.unfreeze()


def test_main_freezes_the_heap(tmp_path, unfrozen):
    # main freezes the heap once its command returns, so the interpreter's
    # exit-time collection skips it
    cfg = tmp_path / "suite.cfg"
    cfg.write_text(FAST_CONFIG, encoding="utf-8")
    assert gc.get_freeze_count() == 0
    assert main(["--config", str(cfg), "--out", str(tmp_path / "r.json"), "verify"]) == 0
    assert gc.get_freeze_count() > 0
