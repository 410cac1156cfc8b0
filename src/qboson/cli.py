"""Command-line surface: configuration, suite orchestration, reporting.

Exit codes: 0 when every verdict outside the gray zone matches its
expectation (expected failures included) and no case raised, 1 on any
unexpected verdict or any case that raised, 2 on configuration or
runtime errors.
"""

from __future__ import annotations

import argparse
import cmath
import fnmatch
import gc
import json
import os
import pickle
import random
import re
import sys
import time
from dataclasses import dataclass, replace
from functools import partial
from pathlib import Path

from . import fockrep, hopfops, qscalars, rmatrix, sl2bridge, symalg
from .qscalars import DeformParams, ParameterError
from .report import IdentityReport, dump_matrix

# The paper's verdict matrix: fnmatch patterns on a report's "rspec-label:identity"
# key or its bare identity, each with the reason its reports fail.  A report a
# pattern matches must fail, any other must pass; expect_fail replaces the table.
CLAIMS = (
    # the identities the published candidate breaks, its own Yan relation included
    "yan_claimed:intertwiner_a",
    "yan_claimed:intertwiner_adag",
    "yan_claimed:yang_baxter",
    "yan_claimed:fusion_*",
    "yan_claimed:yan_relation_*",
    # measured cause: of the candidate's differences from the double, switched on
    # one at a time, the undressed raising word and the extra -N (x) N / 2 exponent
    # each break R ((S (x) I)R) = I, and the (1 + q^{-1})^k coefficient does not
    "yan_claimed:antipode_inverse",
    # R's diagonal factor at eps(N) keeps the phase q^{-(i alpha/gamma) N / 2} =
    # e^{-i alpha N / 2} of that extra exponent, which no q removes (sqrt 2 at
    # dims.pair 12)
    "yan_claimed:counit_*",
    # Delta, with Delta(N) = N (x) 1 + 1 (x) N + beta, is no algebra map of these
    # presentations on the c = 0 Fock square (it is of R0, R1 and Ry, which must pass)
    "coproduct_relation_R[2-5]",
    # Delta(C) leaves the Hopf ideal: a norm away from zero where pi(C) = 0
    "coproduct_relation_C",
    # the published shift constant misses the symmetrized relation; surfaced, not corrected
    "inverse_realization_y",
)


class ConfigError(ValueError):
    """Raised on malformed or inconsistent configuration input."""


@dataclass(frozen=True)
class SuiteConfig:
    q: complex = 1.3 + 0.0j
    kappa: int = 0
    seed: int = 20160
    window: int = 4
    dim_pair: int = 12
    dim_triple: int = 8
    tensor_cap: int = 1 << 16  # bounds dims.pair ** 2 and dims.triple ** 3
    degree_cap: int = 8  # bounds pairing.kmax and pairing.mmax
    rep_dims: tuple = (12, 12)
    rep_shifts: tuple = (0.0 + 0.0j, 0.5 + 0.0j)
    family_m: tuple = (-0.5, -0.5, -0.5, 0.5, 0.5, 0.5, 1.0, 1.0, 1.0)
    family_K: tuple = (-1, 0, 1, -1, 0, 1, -1, 0, 1)
    family_signs: tuple = ("lower",) * 9
    rspecs: tuple = ("quantum_double", "yan_claimed", "general:m=0.5,K=-1,sign=lower")
    axiom_dim: int = 6
    axiom_max_word_len: int = 2
    pairing_kmax: int = 3
    pairing_mmax: int = 3
    out_report: str | None = None
    dump_dir: str | None = None
    expect_fail: tuple = CLAIMS
    scan_q_values: tuple = ()

    def params(self, q: complex | None = None) -> DeformParams:
        return DeformParams(q=self.q if q is None else q, kappa=self.kappa)

    def echo(self) -> dict:
        out = {}
        for key, value in self.__dict__.items():
            if isinstance(value, complex):
                out[key] = str(value)
            elif isinstance(value, tuple):
                out[key] = [str(v) if isinstance(v, complex) else v for v in value]
            else:
                out[key] = value
        if self.params().on_unit_circle:
            out["unit_modulus_q"] = True
        return out


# ---------------------------------------------------------------------------
# configuration grammar: '#' comments, 'key = value' lines with dotted sections;
# each value, quoted or bare, is parsed as its key's kind: int, float, complex
# ('i' or 'j' imaginary suffix), str, or a flat '[v, v, ...]' list of one of them.

_KNOWN_KEYS = {
    "q": ("q", "complex"),
    "kappa": ("kappa", "int"),
    "seed": ("seed", "int"),
    "window": ("window", "int"),
    "dims.pair": ("dim_pair", "int"),
    "dims.triple": ("dim_triple", "int"),
    "caps.tensor": ("tensor_cap", "int"),
    "caps.degree": ("degree_cap", "int"),
    "reps.dims": ("rep_dims", "list_int"),
    "reps.shifts": ("rep_shifts", "list_complex"),
    "families.m": ("family_m", "list_float"),
    "families.k": ("family_K", "list_int"),
    "families.signs": ("family_signs", "list_str"),
    "rspecs": ("rspecs", "list_str"),
    "axioms.dim": ("axiom_dim", "int"),
    "axioms.max_word_len": ("axiom_max_word_len", "int"),
    "pairing.kmax": ("pairing_kmax", "int"),
    "pairing.mmax": ("pairing_mmax", "int"),
    "out.report": ("out_report", "str"),
    "out.dump_dir": ("dump_dir", "str"),
    "expect_fail": ("expect_fail", "list_str"),
    "scan.q_values": ("scan_q_values", "list_complex"),
}


def _split_list(inner: str, lineno: int) -> list[str]:
    """Split a list body on commas, honoring double-quoted elements."""
    parts, buf, quoted = [], [], False
    for ch in inner:
        if ch == '"':
            quoted = not quoted
            buf.append(ch)
        elif ch == "," and not quoted:
            parts.append("".join(buf))
            buf = []
        else:
            buf.append(ch)
    if quoted:
        raise ConfigError(f"line {lineno}: unterminated quote in list")
    parts.append("".join(buf))
    return parts


def _int(text: str) -> int:
    """An integer, also written as a float with an integral value (2.0 -> 2)."""
    try:
        return int(text)
    except ValueError:
        if (value := float(text)).is_integer():
            return int(value)
        raise


_SCALAR_PARSERS = {"int": _int, "float": float, "str": str,
                   "complex": lambda text: complex(text[:-1] + "j" if text.endswith("i") else text)}


def _parse_value(text: str, kind: str, key: str, lineno: int):
    """The text of one value, parsed as its key's kind; a list_ kind takes a
    flat list of values of the element kind, as a tuple."""
    text = text.strip()
    if text.startswith("[") and not text.endswith("]"):
        raise ConfigError(f"line {lineno}: unterminated list")
    if text.startswith("[") != kind.startswith("list_"):
        need = "expects" if kind.startswith("list_") else "does not take"
        raise ConfigError(f"line {lineno}: {key!r} {need} a list")
    if kind.startswith("list_"):
        inner = text[1:-1].strip()
        return tuple(_parse_value(part, kind[5:], key, lineno)
                     for part in (_split_list(inner, lineno) if inner else ()))
    if not text:
        raise ConfigError(f"line {lineno}: empty value")
    if len(text) >= 2 and text[0] == text[-1] == '"':
        text = text[1:-1]
    try:
        return _SCALAR_PARSERS[kind](text)
    except ValueError:
        raise ConfigError(f"line {lineno}: value for {key!r} is not a valid {kind}") from None


def parse_config(path: str | Path) -> SuiteConfig:
    """Parse the key-value configuration grammar, rejecting unknown keys.  A
    repeated key keeps its last line, so a config is extended by appending."""
    text = Path(path).read_text(encoding="utf-8")
    seen: dict = {}
    got_q = False
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        if key not in _KNOWN_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        attr, kind = _KNOWN_KEYS[key]
        seen[attr] = _parse_value(raw, kind, key, lineno)
        if key == "q":
            got_q = True
    if not got_q:
        raise ConfigError("configuration must set q")
    config = SuiteConfig(**seen)
    _validate_config(config)
    return config


def _validate_config(config: SuiteConfig) -> None:
    try:  # DeformParams' messages name the faulty value, q or kappa
        p = config.params()
    except ParameterError as exc:
        raise ConfigError(str(exc)) from None
    for q in config.scan_q_values:
        try:
            config.params(q)
        except ParameterError as exc:
            raise ConfigError(f"scan.q_values entry {q}: {exc}") from None
    if len(config.rep_dims) != len(config.rep_shifts) or not config.rep_dims:
        raise ConfigError("reps.dims and reps.shifts must be equal-length, non-empty")
    if not all(map(cmath.isfinite, config.rep_shifts)):
        raise ConfigError(f"reps.shifts must be finite, got {list(config.rep_shifts)}")
    if not (len(config.family_m) == len(config.family_K) == len(config.family_signs)):
        raise ConfigError("family grid lists must have equal length")
    # every family point the suite builds, by HopfFamily's rules (none reads q);
    # the first is the canonical point, HopfFamily.canonical's K = -2 kappa - 1
    for m, K, sign in ((0.5, -2 * config.kappa - 1, "lower"),
                       *zip(config.family_m, config.family_K, config.family_signs)):
        try:
            hopfops.HopfFamily(m=m, K=K, sign=sign, params=p)
        except ParameterError as exc:
            raise ConfigError(f"family point m={m}, K={K}, sign={sign!r}: {exc}") from None
    for text in config.rspecs:
        _checked_rspec(text, p)
    for d in (*config.rep_dims, config.dim_pair, config.dim_triple, config.axiom_dim):
        if d < 2:
            raise ConfigError("all representation dimensions must be >= 2")
    if not 1 <= config.axiom_max_word_len <= config.axiom_dim - 1:
        raise ConfigError("axioms.max_word_len must be >= 1 and <= axioms.dim - 1, so the "
                          "longest axiom word has a leak-free window")
    if config.window < 1 or config.window + 1 > config.dim_pair - 1:
        raise ConfigError("window must be >= 1 (at 0 the ladder checks compare nothing) "
                          "and fit into the pairwise dimension")
    if config.pairing_kmax < 0 or config.pairing_mmax < 0:
        raise ConfigError("pairing kmax and mmax must be >= 0")
    # the only size bounds: no check function carries a cap of its own
    if (max(config.dim_pair, *config.rep_dims) ** 2 > config.tensor_cap
            or max(config.dim_triple, config.axiom_dim) ** 3 > config.tensor_cap):
        raise ConfigError(f"dims.pair ** 2, reps.dims ** 2, dims.triple ** 3 or axioms.dim ** 3 "
                          f"exceeds the tensor cap caps.tensor = {config.tensor_cap}")
    if max(config.pairing_kmax, config.pairing_mmax) > config.degree_cap:
        raise ConfigError(f"pairing kmax and mmax exceed the degree cap "
                          f"caps.degree = {config.degree_cap}")
    if config.seed < 0:
        raise ConfigError("seed must be >= 0")


def parse_rspec(text: str) -> rmatrix.RSpec:
    """'quantum_double' | 'yan_claimed' | 'general:m=..,K=..,sign=..', each field once."""
    text = text.strip()
    if text in ("quantum_double", "yan_claimed"):
        return rmatrix.RSpec(kind=text)
    if text.startswith("general:"):
        fields = {}
        for part in text[len("general:"):].split(","):
            key, _, val = (s.strip() for s in part.partition("="))
            if key not in ("m", "K", "sign") or key in fields or not val:
                raise ConfigError(f"malformed general rspec {text!r}: "
                                  f"unknown, repeated or empty field {part.strip()!r}")
            fields[key] = val
        try:
            return rmatrix.RSpec(kind="general_family", m=float(fields["m"]),
                                 K=int(fields["K"]), sign=fields["sign"])
        except (KeyError, ValueError) as exc:
            raise ConfigError(f"malformed general rspec {text!r}: {exc}") from None
    raise ConfigError(f"unknown rspec {text!r}")


def _checked_rspec(text: str, p: DeformParams) -> rmatrix.RSpec:
    """The parsed rspec, once its family point passes HopfFamily's rules."""
    spec = parse_rspec(text)
    try:
        rmatrix.family_for(spec, p)
    except ParameterError as exc:
        raise ConfigError(f"rspec {text!r}: {exc}") from None
    return spec


# ---------------------------------------------------------------------------
# suite


def _cases(config: SuiteConfig, p: DeformParams) -> list[tuple]:
    """The suite's ordered rows (case id, callable); each check builds its
    own reports from the window it cut.

    The samples are drawn here, in a fixed order, so no case depends on which
    cases ran before it.  Rows bind their loop values with partial.
    """
    rng = random.Random(config.seed)
    # only Random.random() keeps its sequence for a seed across Python versions
    box = lambda lo, hi: complex(lo + (hi - lo) * rng.random(), lo + (hi - lo) * rng.random())
    pairs = [(box(-2, 2), box(-2, 2)) for _ in range(20)]
    points = [box(-3, 3) for _ in range(20)]
    Dp, Dt, Da = config.dim_pair, config.dim_triple, config.axiom_dim
    canonical = hopfops.HopfFamily.canonical(p)
    rep_pair, rep_axiom = fockrep.build_rep(Dp, 0.5, p), fockrep.build_rep(Da, 0.5, p)
    win_pair = fockrep.Window(config.window, guard=1)

    rows = [("qscalars_qpower_additivity", partial(qscalars.check_qpower_additivity, pairs, p)),
            ("qscalars_qnum_inversion", partial(qscalars.check_qnum_inversion, points, p)),
            ("qscalars_half_index_recursion", partial(qscalars.check_half_index_recursion, p))]
    for D, c in zip(config.rep_dims, config.rep_shifts):
        rep, win = fockrep.build_rep(D, c, p), fockrep.Window(min(8, D - 2), guard=1)
        rows += [(f"relation_{rel}_c{c}", partial(fockrep.check_relation, rep, rel, win))
                 for rel in ("R0", "R1", *(("R2", "R3", "R4", "R5") if c == 0 else ("Ry",)))]
    rows += [("casimir_scalar", partial(fockrep.check_casimir_scalar, Dp, p)),
             ("classical_limit", partial(fockrep.classical_limit_residual, kappa=config.kappa))]

    words = hopfops.default_axiom_words(config.axiom_max_word_len)
    # the canonical family may also be on the grid; each family runs once
    fams = dict.fromkeys([canonical] + [
        hopfops.HopfFamily(m=m, K=K, sign=s, params=p)
        for m, K, s in zip(config.family_m, config.family_K, config.family_signs)])
    rows += [(f"axioms_m{fam.m}_K{fam.K}_{fam.sign}",
              partial(hopfops.check_hopf_axioms, fam, rep_axiom, words)) for fam in fams]
    # the relation table on two legs: which presentation Delta respects
    rows += [(f"coproduct_relations_c{c}", partial(hopfops.check_coproduct_relations, canonical,
                                                   rep, names, win_pair))
             for c, rep, names in ((0, fockrep.build_rep(Dp, 0.0, p), ("R2", "R3", "R4", "R5")),
                                   (0.5, rep_pair, ("R0", "R1", "Ry", "C")))]
    rows += [("pairing_eqn", partial(symalg.pairing_check, config.pairing_kmax,
                                     config.pairing_mmax, p)),
             ("dual_bracket", partial(symalg.dual_bracket_check, p)),
             ("dual_hopf", partial(symalg.dual_hopf_check, p, deg=2)),
             ("cross_straighten", partial(symalg.cross_straighten_check, p)),
             ("quotient_cross", partial(symalg.quotient_cross_check, rep_pair))]

    triple_reps = (fockrep.build_rep(Dt, 0.5, p),) * 3
    pair_reps = (rep_pair, rep_pair)
    for spec in map(parse_rspec, config.rspecs):
        label = spec.label()
        rows += [(f"{label}:intertwiner_{gen}",
                  partial(rmatrix.check_intertwiner, spec, *pair_reps, gen, win_pair))
                 for gen in ("N", "a", "adag")]
        rows += [(f"{label}:yang_baxter", partial(rmatrix.check_yang_baxter, spec, *triple_reps)),
                 (f"{label}:fusion", partial(rmatrix.check_fusion, spec, *triple_reps)),
                 (f"{label}:antipode_inverse",
                  partial(rmatrix.check_antipode_inverse, spec, *pair_reps, win_pair)),
                 (f"{label}:counit", partial(rmatrix.check_counit, spec, *pair_reps))]
        # the Yan relation is the published candidate's own claim: an invertible R
        # that passes the intertwiners meets it iff Deltabar = T Delta, a fact of
        # the coproducts that sorts no candidate
        rows += [(f"{label}:yan_relation_{gen}",
                  partial(rmatrix.check_yan_relation, spec, *pair_reps, gen, win_pair))
                 for gen in ("N", "a") if spec.kind == "yan_claimed"]

    rows += [("sl2_relations", lambda: sl2bridge.check_sl2(sl2bridge.realize_sl2(rep_pair, 1.0))),
             ("sl2_casimir_central", partial(sl2bridge.casimir_centrality, Dp, p)),
             ("witness_consistency", partial(sl2bridge.witness_consistency, Dt, canonical)),
             ("inverse_realization_y", partial(sl2bridge.inverse_round_trip, rep_pair))]
    return rows


def _run_case(case_id: str, fn) -> list[IdentityReport]:
    """The case's reports, its wall time split evenly over them; a case that
    raises gives one failed report with its error."""
    started = time.perf_counter()
    try:
        result = fn()
        reports = result if isinstance(result, list) else [result]
    except Exception as exc:  # capture, do not abort the suite
        reports = [IdentityReport(identity=case_id.split(":")[-1],
                                  params={"case": case_id}, dims=[], window=0,
                                  raw_residual=float("nan"),
                                  normalized_residual=float("nan"),
                                  verdict="fail",
                                  error=f"{type(exc).__name__}: {exc}")]
    share = (time.perf_counter() - started) / max(len(reports), 1)
    for rep in reports:
        rep.wall_time = share
    return reports


def _claim_matcher(expect_fail):
    """The claim on keys: fail when an expect_fail pattern matches one of
    them, else pass.  The patterns' fnmatch translations are one compiled regex."""
    regex = re.compile("|".join(map(fnmatch.translate, expect_fail)) or "(?!)")
    return lambda *keys: "fail" if any(map(regex.match, keys)) else "pass"


def run_suite(config: SuiteConfig) -> list[IdentityReport]:
    """Run every case of the table in order, a case that raises giving an
    error report, then claim each report by expect_fail (CLAIMS by default).

    The rmatrix cases share each R, and the symalg cases their split
    coefficients and transfer tables; all are keyed by q and held for this
    run only.
    """
    rows = _cases(config, config.params())
    try:
        reports = [rep for row in rows for rep in _run_case(*row)]
    finally:
        rmatrix.clear_caches()
        symalg.clear_caches()
    claim_of = _claim_matcher(config.expect_fail)
    for rep in reports:  # a gray-zone verdict is reported, never claimed
        if rep.verdict in ("pass", "fail"):
            rep.expected = claim_of(f"{rep.params.get('rspec', '-')}:{rep.identity}", rep.identity)
    return reports


def exit_code_for(reports: list[IdentityReport]) -> int:
    for rep in reports:
        if rep.error is not None:
            return 1
        if rep.verdict == "info":
            continue
        if rep.expected is not None and rep.verdict != rep.expected:
            return 1
    return 0


def emit_report(reports: list[IdentityReport], path: str | Path | None,
                config_echo: dict | None = None) -> str:
    doc = {"config": config_echo or {}, "results": [r.as_dict() for r in reports]}
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if path is not None:
        _write(path, text)
    return text


def _write(path: str | Path, text: str) -> None:
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    Path(path).write_text(text, encoding="utf-8")


# ---------------------------------------------------------------------------
# entry points


def _parse_q(text: str, flag: str) -> complex:
    """A q flag's value, in the configuration's complex grammar."""
    try:
        return _SCALAR_PARSERS["complex"](text.strip())
    except ValueError:
        raise ConfigError(f"{flag}: {text!r} is not a complex number") from None


# (flag, field) pairs: a flag given on the command line overrides the field
_FLAG_FIELDS = (("q", "q"), ("kappa", "kappa"), ("dim", "dim_pair"), ("window", "window"),
                ("seed", "seed"), ("out", "out_report"), ("dump_dir", "dump_dir"),
                ("kmax", "pairing_kmax"), ("mmax", "pairing_mmax"))


def _load_config(args) -> SuiteConfig:
    config = parse_config(args.config) if args.config else SuiteConfig()
    overrides = {field: getattr(args, flag) for flag, field in _FLAG_FIELDS
                 if getattr(args, flag, None) is not None}
    if "q" in overrides:
        overrides["q"] = _parse_q(overrides["q"], "--q")
    if "dim_pair" in overrides:
        overrides["rep_dims"] = (overrides["dim_pair"],) * len(config.rep_shifts)
    config = replace(config, **overrides)
    _validate_config(config)
    return config


def _cmd_verify(args) -> int:
    config = _load_config(args)
    reports = run_suite(config)
    text = emit_report(reports, config.out_report, config.echo())
    if config.out_report is None:
        sys.stdout.write(text)
    else:
        counts = {}
        for rep in reports:
            key = rep.verdict if rep.error is None else "error"
            counts[key] = counts.get(key, 0) + 1
        print(f"wrote {config.out_report}: " +
              ", ".join(f"{v} {k}" for k, v in sorted(counts.items())))
    return exit_code_for(reports)


def _cmd_rmatrix(args) -> int:
    config = _load_config(args)
    p = config.params()
    spec = _checked_rspec(args.rspec, p)
    rep = fockrep.build_rep(config.dim_pair, 0.5, p)
    R = rmatrix.build_r(spec, rep, rep)
    out_dir = Path(config.dump_dir or ".")
    path = dump_matrix(R, out_dir / f"rmatrix_{spec.kind}.mtx")
    print(f"wrote {path} ({R.shape[0]}x{R.shape[1]})")
    return 0


def _cmd_pairing(args) -> int:
    config = _load_config(args)
    kmax, mmax, p = config.pairing_kmax, config.pairing_mmax, config.params()
    report = symalg.pairing_check(kmax, mmax, p)
    if config.dump_dir:
        path = dump_matrix(symalg.pairing_gram(kmax, mmax, p),
                           Path(config.dump_dir) / "pairing_gram.mtx")
        print(f"wrote {path}")
    print(f"pairing deviation: {report.raw_residual:.3e}, "
          f"normalized {report.normalized_residual:.3e} [{report.verdict}]")
    return 0 if report.verdict == "pass" else 1


def _cmd_scan(args) -> int:
    config = _load_config(args)
    q_values = [_parse_q(s, "--q-list") for s in args.q_list.split(",")] \
        if args.q_list else list(config.scan_q_values)
    if not q_values:
        print("scan: no q values given (use --q-list or scan.q_values)", file=sys.stderr)
        return 2
    _validate_config(replace(config, scan_q_values=tuple(q_values)))
    results = _scan_points(config, q_values)
    for idx, (q, (text, _)) in enumerate(zip(q_values, results)):
        if not config.out_report:
            sys.stdout.write(text)
            continue
        stem = Path(config.out_report)
        out = stem.with_name(f"{stem.stem}_{idx}{stem.suffix or '.json'}")
        _write(out, text)
        print(f"q={q}: wrote {out}")
    return max(code for _, code in results)


def _scan_points(config: SuiteConfig, q_values: list) -> list[tuple[str, int]]:
    """Each point's (report text, exit code), in q order.

    The points run on the CPUs of this process's affinity mask, one process
    per CPU: of n workers, worker w takes the points w::n.  This process
    runs share 0; each other share runs in a forked child, which sends its
    results back over a pipe.  Every child is reaped before this returns or
    raises, and a child's exception is raised here.
    """
    n = min(len(q_values), len(os.sched_getaffinity(0)))
    sys.stdout.flush()
    sys.stderr.flush()
    children, statuses = [], []
    try:
        for w in range(1, n):
            children.append(_fork_share(config, q_values[w::n]))
        results = [None] * len(q_values)
        results[0::n] = _scan_share(config, q_values[0::n])
        payloads = [pipe.read() for _, pipe in children]
    finally:
        for pid, pipe in children:
            pipe.close()
            statuses.append(os.waitpid(pid, 0)[1])
    for w, (data, status) in enumerate(zip(payloads, statuses), start=1):
        if not data:
            code = os.waitstatus_to_exitcode(status)
            how = f"killed by signal {-code}" if code < 0 else f"exit status {code}"
            raise RuntimeError(f"scan worker {w} sent no result ({how})")
        payload = pickle.loads(data)
        if isinstance(payload, BaseException):
            raise payload
        results[w::n] = payload
    return results


def _scan_share(config: SuiteConfig, q_values: list) -> list[tuple[str, int]]:
    """Run and render the suite at each q, in this process."""
    out = []
    for q in q_values:
        sub = replace(config, q=q)
        reports = run_suite(sub)
        out.append((emit_report(reports, None, sub.echo()), exit_code_for(reports)))
    return out


def _fork_share(config: SuiteConfig, q_values: list):
    """(pid, read end of its pipe) of a child that runs _scan_share and sends
    the result, or the exception that stopped it, as one pickle."""
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid:
        os.close(write_fd)
        return pid, os.fdopen(read_fd, "rb")
    try:  # the child never returns into its caller
        os.close(read_fd)
        try:
            payload = _scan_share(config, q_values)
        except BaseException as exc:
            payload = exc
            try:
                pickle.loads(pickle.dumps(exc))  # it must unpickle in the parent too
            except Exception:
                payload = RuntimeError(repr(exc))
        with os.fdopen(write_fd, "wb") as pipe:
            pickle.dump(payload, pipe)
    finally:
        os._exit(0)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="qboson",
        description="verification suites for the deformed boson Hopf algebra "
                    "and its quantum-double R-matrix")
    parser.add_argument("--config", metavar="PATH", help="configuration file")
    parser.add_argument("--q", help="deformation parameter, e.g. 1.3 or 0.7+0.2i")
    parser.add_argument("--kappa", type=int, help="branch integer")
    parser.add_argument("--dim", type=int, help="pairwise truncation dimension")
    parser.add_argument("--window", type=int, help="leak-free window size")
    parser.add_argument("--seed", type=int, help="seed for sampled checks")
    parser.add_argument("--out", metavar="PATH", help="report output path")
    parser.add_argument("--dump-dir", metavar="PATH", help="matrix dump directory")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("verify", help="run the full verification suite")
    sp = sub.add_parser("rmatrix", help="build one R-matrix and dump it")
    sp.add_argument("--rspec", default="quantum_double")
    sp = sub.add_parser("pairing", help="dual-pairing Gram table")
    sp.add_argument("--kmax", type=int, help="largest k of the table (default: pairing.kmax)")
    sp.add_argument("--mmax", type=int, help="largest m of the table (default: pairing.mmax)")
    sp = sub.add_parser("scan", help="sweep q over a list, one report per point")
    sp.add_argument("--q-list", help="comma-separated q values")
    args = parser.parse_args(argv)
    handlers = {"verify": _cmd_verify, "rmatrix": _cmd_rmatrix,
                "pairing": _cmd_pairing, "scan": _cmd_scan}
    try:
        return handlers[args.command](args)
    except (ConfigError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime error contract
        print(f"runtime error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    finally:
        gc.freeze()  # frozen objects are not scanned, so exit skips a full collector pass


if __name__ == "__main__":
    sys.exit(main())
