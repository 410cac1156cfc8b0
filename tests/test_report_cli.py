import argparse
import json
import math
import os
import re
from collections import Counter

import numpy as np
import pytest

from qboson import DeformParams, cli, rmatrix, symalg
from qboson.cli import (ConfigError, _cases, _expected_for, _run_case, emit_report,
                        exit_code_for, main, parse_config, parse_rspec, run_suite)
from qboson.report import (IdentityReport, dump_matrix, load_matrix, make_report,
                           verdict_of)

FAST_CONFIG = """
# desk-scale smoke configuration
q = 0.7+0.2i
kappa = 0
tol = 1e-9
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
# verdicts and matrix dumps


def test_verdict_zones():
    tol = 1e-9
    assert verdict_of(5e-10, tol) == "pass"
    assert verdict_of(1e-9, tol) == "pass"
    assert verdict_of(5e-8, tol) == "info"   # gray zone, never classified
    assert verdict_of(1e-7, tol) == "info"
    assert verdict_of(2e-7, tol) == "fail"


def test_verdict_non_finite_fails():
    # a NaN residual proves nothing; it must not land in the gray zone
    for bad in (float("nan"), float("inf")):
        assert verdict_of(bad, 1e-9) == "fail"


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


def test_parse_config_alpha_from_kappa(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text('q = 1.3\nkappa = 0\n')
    config = parse_config(path)
    assert config.params().alpha == pytest.approx(np.pi / 2)


def test_parse_rspec():
    assert parse_rspec("quantum_double").kind == "quantum_double"
    spec = parse_rspec("general:m=0.5,K=-1,sign=lower")
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
    # not claimed, and the Yan relation is claimed for that candidate only
    by_spec = {}
    for r in reports:
        by_spec.setdefault(r.params.get("rspec"), {})[r.identity] = r
    yan = by_spec.pop("yan_claimed")
    assert [yan[name].verdict for name in ("antipode_inverse", "counit_left",
                                           "counit_right")] == ["info"] * 3
    for name in ("yan_relation_N", "yan_relation_a"):
        assert yan[name].verdict == verdict_of(yan[name].normalized_residual,
                                               fast_config.tol) == "fail"
        assert yan[name].expected == "fail"
    assert {"quantum_double", "general_family(m=0.5,K=-1,lower)"} <= set(by_spec)
    for spec, named in by_spec.items():
        if spec is None:
            continue
        for name in ("yan_relation_N", "yan_relation_a"):
            assert named[name].verdict == "info" and named[name].expected is None
        # the double does not satisfy the relation either; only the policy
        # keeps that from counting as a failure
        assert named["yan_relation_N"].normalized_residual > 100 * fast_config.tol


def test_runner_times_every_report(fast_config):
    # the runner times each case and splits the time over its reports, so
    # every report carries a time, errored cases included
    from dataclasses import replace
    reports = run_suite(fast_config)
    assert all(r.wall_time > 0 for r in reports)
    crashed = run_suite(replace(fast_config, axiom_dim=2))
    assert [r for r in crashed if r.error]
    assert all(r.wall_time > 0 for r in crashed)


def test_run_suite_empty_rspecs(fast_config):
    from dataclasses import replace
    config = replace(fast_config, rspecs=())
    reports = run_suite(config)
    assert not [r for r in reports if "rspec" in r.params]
    assert [r for r in reports if r.identity == "pairing_eqn"]


def test_determinism_byte_output(fast_config):
    a = emit_report(run_suite(fast_config), None, fast_config.echo(),
                    include_timing=False)
    b = emit_report(run_suite(fast_config), None, fast_config.echo(),
                    include_timing=False)
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


def test_exit_code_semantics():
    ok = make_report("x", {}, [2], 1, 0.0, 0.0, 1e-9)
    ok.expected = "pass"
    bad = make_report("y", {}, [2], 1, 1.0, 1.0, 1e-9)
    bad.expected = "pass"
    info = make_report("z", {}, [2], 1, 5e-8, 5e-8, 1e-9)
    assert exit_code_for([ok]) == 0
    assert exit_code_for([ok, info]) == 0  # info entries never block
    assert exit_code_for([ok, bad]) == 1
    bad.expected = "fail"
    assert exit_code_for([ok, bad]) == 0  # expected failure


def test_exit_code_errored_case():
    ok = make_report("x", {}, [2], 1, 0.0, 0.0, 1e-9)
    ok.expected = "pass"
    crashed = IdentityReport(identity="y", params={}, dims=[], window=0,
                             raw_residual=float("nan"), normalized_residual=float("nan"),
                             verdict="info", error="WindowError: too small")
    assert exit_code_for([ok, crashed]) == 1


def test_largest_fails_on_nan():
    # a NaN deviation is the largest, wherever it falls among the samples
    p = DeformParams(q=1.3)
    for devs in ([math.nan, 1e-12], [1e-12, math.nan], [math.nan]):
        rep = cli._largest("x", p, [1], 0, lambda: iter(devs))
        assert rep.verdict == "fail" and math.isnan(rep.raw_residual), devs
    rep = cli._largest("x", p, [1], 0, lambda: [1e-12, 0.0])
    assert (rep.verdict, rep.raw_residual) == ("pass", 1e-12)
    assert cli._largest("x", p, [1], 0, lambda: []).raw_residual == 0.0


def test_expected_for_patterns():
    rpt = make_report("intertwiner_a", {"rspec": "yan_claimed"}, [8], 3, 1.0, 1.0, 1e-9)
    assert _expected_for(rpt, ("yan_claimed:intertwiner_a",)) == "fail"
    rpt2 = make_report("intertwiner_a", {"rspec": "quantum_double"}, [8], 3, 0.0, 0.0, 1e-9)
    assert _expected_for(rpt2, ("yan_claimed:intertwiner_a",)) == "pass"
    rpt3 = make_report("hopf_ideal_witness", {}, [8], 3, 1.0, 1.0, 1e-9)
    assert _expected_for(rpt3, ("*:hopf_ideal_witness",)) == "fail"


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


def test_cli_errored_cases_exit_1(tmp_path, capsys):
    # axioms.dim = 2 leaves no leak-free window for the Hopf-axiom words:
    # those cases raise, and a run that proved nothing must not exit 0
    cfg = tmp_path / "suite.cfg"
    cfg.write_text(FAST_CONFIG + "axioms.dim = 2\n", encoding="utf-8")
    out = tmp_path / "report.json"
    assert main(["--config", str(cfg), "--out", str(out), "verify"]) == 1
    errors = [r for r in json.loads(out.read_text())["results"] if "error" in r]
    assert errors and all(r["error"].startswith("WindowError") for r in errors)
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


def test_cli_negative_window_is_config_error(capsys):
    assert_config_error(["--window", "-1", "verify"], capsys)


def test_cli_negative_pairing_degree_is_config_error(tmp_path, capsys):
    assert_config_error(["pairing", "--kmax", "-1"], capsys)
    assert_config_error(["pairing", "--mmax", "-1"], capsys)
    cfg = tmp_path / "suite.cfg"
    cfg.write_text(FAST_CONFIG + "pairing.mmax = -1\n", encoding="utf-8")
    assert_config_error(["--config", str(cfg), "verify"], capsys)


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
    assert "pairing max deviation" in capsys.readouterr().out
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
    match = re.fullmatch(r"pairing max deviation: (\S+), normalized (\S+) \[pass\]", line)
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
        return [(case_id, [r.as_dict(include_timing=False) for r in _run_case(case_id, fn, ov)])
                for case_id, fn, ov in rows]

    forward = run(_cases(fast_config, p))
    backward = run(reversed(_cases(fast_config, p)))[::-1]
    rmatrix.clear_caches()
    assert len(forward) == len(backward) == 50
    assert len({case_id for case_id, _ in forward}) == 50  # each case runs once
    assert not [case for case, reps in forward if any("error" in r for r in reps)]
    for (case_id, reports), (_, again) in zip(forward, backward):
        assert again == reports, case_id


def _symalg_cache_sizes():
    return (symalg._coproduct_key.cache_info().currsize,
            symalg._split_row.cache_info().currsize,
            symalg._transfer_weights.cache_info().currsize)


def test_scan_scopes_symalg_caches_to_one_q(tmp_path, monkeypatch):
    # the caches are keyed by q; a scan must not carry one point's entries
    # into the next
    seen = []

    def traced_run_suite(config):
        reports = run_suite(config)
        seen.append(_symalg_cache_sizes())
        return reports

    monkeypatch.setattr(cli, "run_suite", traced_run_suite)
    # a forked child's cache sizes cannot be seen here: run every point in
    # this process
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})

    def scan(values):
        cfg = tmp_path / "suite.cfg"
        cfg.write_text(FAST_CONFIG + f"scan.q_values = [{values}]\n", encoding="utf-8")
        symalg.clear_caches()
        seen.clear()
        assert main(["--config", str(cfg), "--out", str(tmp_path / "s.json"), "scan"]) == 0
        return list(seen), _symalg_cache_sizes()

    (one_point,), after_one = scan("1.4")
    (_, last_point), after_two = scan("1.2, 1.4")
    assert all(size > 0 for size in one_point)
    assert last_point == one_point
    assert all(two <= one for two, one in zip(after_two, after_one))


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
