"""Command-line surface: configuration, suite orchestration, reporting.

Exit codes: 0 when every non-informational verdict matches its
expectation (expected failures included) and no case raised, 1 on any
unexpected verdict or any case that raised, 2 on configuration or
runtime errors.
"""

from __future__ import annotations

import argparse
import fnmatch
import json
import os
import pickle
import sys
import time
from dataclasses import dataclass, replace
from functools import partial, reduce
from pathlib import Path

import numpy as np

from . import fockrep, hopfops, rmatrix, sl2bridge, symalg
from .qscalars import DeformParams, ParameterError, half_index_product, q_number, q_power
from .report import IdentityReport, dump_matrix, make_report, worst

DEFAULT_EXPECT_FAIL = (
    "yan_claimed:intertwiner_a",
    "yan_claimed:intertwiner_adag",
    "yan_claimed:yang_baxter",
    "yan_claimed:fusion_*",
    "yan_claimed:yan_relation_*",
    "*:hopf_ideal_witness",
)


class ConfigError(ValueError):
    """Raised on malformed or inconsistent configuration input."""


@dataclass(frozen=True)
class SuiteConfig:
    q: complex = 1.3 + 0.0j
    kappa: int = 0
    tol: float = 1e-9
    seed: int = 20160
    window: int = 4
    dim_pair: int = 12
    dim_triple: int = 8
    tensor_cap: int = 1 << 16
    degree_cap: int = 8
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
    expect_fail: tuple = DEFAULT_EXPECT_FAIL
    scan_q_values: tuple = ()

    def params(self, q: complex | None = None) -> DeformParams:
        return DeformParams(q=self.q if q is None else q, kappa=self.kappa, tol=self.tol)

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
# configuration grammar: '#' comments, 'key = value' lines with dotted
# sections; values are numbers (int/float/complex, 'i' or 'j' imaginary
# suffix), quoted or bare strings, or flat '[v, v, ...]' lists.

_KNOWN_KEYS = {
    "q": ("q", "complex"),
    "kappa": ("kappa", "int"),
    "tol": ("tol", "float"),
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


def _parse_scalar(text: str, lineno: int):
    text = text.strip()
    if not text:
        raise ConfigError(f"line {lineno}: empty value")
    if text.startswith('"') and text.endswith('"') and len(text) >= 2:
        return text[1:-1]
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    try:
        return complex(text.replace("i", "j"))
    except ValueError:
        return text  # bare string


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


def _parse_value(text: str, lineno: int):
    text = text.strip()
    if text.startswith("["):
        if not text.endswith("]"):
            raise ConfigError(f"line {lineno}: unterminated list")
        inner = text[1:-1].strip()
        if not inner:
            return []
        return [_parse_scalar(part, lineno) for part in _split_list(inner, lineno)]
    return _parse_scalar(text, lineno)


def _coerce(value, kind: str, key: str, lineno: int):
    def scalar(v, k):
        try:
            if k == "int":
                if isinstance(v, float) and v != int(v):
                    raise ValueError
                return int(v)
            if k == "float":
                return float(v)
            if k == "complex":
                return complex(v.replace("i", "j")) if isinstance(v, str) else complex(v)
            if k == "str":
                return str(v)
        except (ValueError, TypeError):
            pass
        raise ConfigError(f"line {lineno}: value for {key!r} is not a valid {k}")

    if kind.startswith("list_"):
        if not isinstance(value, list):
            raise ConfigError(f"line {lineno}: {key!r} expects a list")
        return tuple(scalar(v, kind[5:]) for v in value)
    if isinstance(value, list):
        raise ConfigError(f"line {lineno}: {key!r} does not take a list")
    return scalar(value, kind)


def parse_config(path: str | Path) -> SuiteConfig:
    """Parse the key-value configuration grammar, rejecting unknown keys."""
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
        seen[attr] = _coerce(_parse_value(raw, lineno), kind, key, lineno)
        if key == "q":
            got_q = True
    if not got_q:
        raise ConfigError("configuration must set q")
    config = SuiteConfig(**seen)
    _validate_config(config)
    return config


def _validate_config(config: SuiteConfig) -> None:
    for q in (config.q, *config.scan_q_values):
        try:
            config.params(q)
        except ParameterError as exc:
            raise ConfigError(f"{exc} (q = {q})") from None
    if len(config.rep_dims) != len(config.rep_shifts) or not config.rep_dims:
        raise ConfigError("reps.dims and reps.shifts must be equal-length, non-empty")
    if not (len(config.family_m) == len(config.family_K) == len(config.family_signs)):
        raise ConfigError("family grid lists must have equal length")
    for sign in config.family_signs:
        if sign not in ("upper", "lower"):
            raise ConfigError(f"unknown family sign {sign!r}")
    for spec in config.rspecs:
        parse_rspec(spec)
    for d in (*config.rep_dims, config.dim_pair, config.axiom_dim):
        if d < 2:
            raise ConfigError("all representation dimensions must be >= 2")
    if config.dim_pair ** 2 > config.tensor_cap or config.dim_triple ** 3 > config.tensor_cap:
        raise ConfigError("configured dimensions exceed the tensor cap")
    if config.window < 0 or config.window + 1 > config.dim_pair - 1:
        raise ConfigError("window must be >= 0 and fit into the pairwise dimension")
    if config.pairing_kmax < 0 or config.pairing_mmax < 0:
        raise ConfigError("pairing kmax and mmax must be >= 0")


def parse_rspec(text: str) -> rmatrix.RSpec:
    """'quantum_double' | 'yan_claimed' | 'general:m=..,K=..,sign=..'."""
    text = text.strip()
    if text in ("quantum_double", "yan_claimed"):
        return rmatrix.RSpec(kind=text)
    if text.startswith("general:"):
        fields = {}
        for part in text[len("general:"):].split(","):
            key, _, val = part.partition("=")
            fields[key.strip()] = val.strip()
        try:
            return rmatrix.RSpec(kind="general_family", m=float(fields["m"]),
                                 K=int(fields["K"]), sign=fields["sign"])
        except (KeyError, ValueError) as exc:
            raise ConfigError(f"malformed general rspec {text!r}: {exc}") from None
    raise ConfigError(f"unknown rspec {text!r}")


# ---------------------------------------------------------------------------
# suite


def _largest(name: str, p: DeformParams, dims, window: int, deviations) -> IdentityReport:
    """The report of the largest of deviations(); a NaN deviation fails it."""
    dev = worst(deviations())
    return make_report(name, {"q": str(p.q)}, dims, window, dev, dev, p.tol)


def _cases(config: SuiteConfig, p: DeformParams) -> list[tuple]:
    """The suite's ordered rows (case id, callable, verdict override).

    The samples are drawn here, in a fixed order, so no case depends on which
    cases ran before it.  Rows bind their loop values with partial; the
    functions below read only names bound once, before them.  An override
    replaces the verdict of each report of a case that did not raise: the
    published candidate's antipode and counit legs are not claimed, and the
    Yan relation is claimed for the published candidate only.
    """
    rng, word_rng = np.random.default_rng(config.seed), np.random.default_rng(config.seed + 1)
    pairs = [tuple(complex(*rng.uniform(-2, 2, 2)) for _ in range(2)) for _ in range(20)]
    points = [complex(*rng.uniform(-3, 3, 2)) for _ in range(20)]
    gens = ["N", "a", "adag"]
    uv_words = [tuple(hopfops.word(*word_rng.choice(gens, size=2)) for _ in range(2))
                for _ in range(6)]
    Dp, Dt, Da, cap = config.dim_pair, config.dim_triple, config.axiom_dim, config.degree_cap
    pinv, canonical = p.inverted(), hopfops.HopfFamily.canonical(p)
    win_casimir = fockrep.Window(min(8, Dp - 2), guard=1)

    def relation(D, c, rel, win):
        nrm = fockrep.check_relation(fockrep.build_rep(D, c, p), rel, win)
        return make_report(f"relation_{rel}", {"q": str(p.q), "c": str(c)},
                           [D], win.max_index, nrm, nrm, p.tol)

    def casimir():
        for c in (0.5, 1.0, 0.3, 2.0 + 0.5j, -0.7):
            rep = fockrep.build_rep(Dp, c, p)
            want = -q_number(complex(c) - 0.5, p) * np.eye(Dp, dtype=complex)
            yield fockrep.residual(fockrep.casimir(rep), want, (Dp,), win_casimir)[1]

    def classical():
        nrm = fockrep.classical_limit_residual(8, 1e-6, kappa=config.kappa)
        return make_report("classical_limit", {"eps": 1e-6}, [8], 6, nrm, nrm, 1e-5)

    def axioms(fam, words):
        return hopfops.check_hopf_axioms(fam, fockrep.build_rep(Da, 0.5, p), words, tol=p.tol)

    def homomorphism():
        rep = fockrep.build_rep(Da, 0.5, p)
        images = {g: hopfops.coproduct_op(hopfops.word(g), rep, rep, canonical) for g in gens}
        delta = lambda w: reduce(np.matmul, [images[g] for g in w.letters])
        win = fockrep.Window(Da - 1 - 4, guard=4)
        for u, v in uv_words:
            yield fockrep.residual(delta(u * v), delta(u) @ delta(v), (Da, Da), win)[1]

    def cross():
        # nu * A = A nu + A ; nu * Np = Np nu ; beta * Np = Np beta + beta
        akey, nkey, unit = (1, 0, 2), (0, 1, 0), (0, 0, 0)
        dw_nu, dw_eps, dw_beta = (0, 1, 0), (0, 0, 0), (0, 0, 1)
        for fname, xname, expected in (
                ("nu", "araise", {(akey, dw_nu): 1.0, (akey, dw_eps): 1.0}),
                ("nu", "nprime", {(nkey, dw_nu): 1.0}),
                ("beta", "nprime", {(nkey, dw_beta): 1.0, (unit, dw_beta): 1.0})):
            got = symalg.straighten_cross(fname, xname, p, cap)
            yield symalg.cross_terms_difference(got, expected, p, grid=2, cap=cap)

    def inverse_round_trip():
        triple = sl2bridge.realize_sl2(fockrep.build_rep(Dp, 0.5, p), 1.0)
        matN, matA, matAdag, target = sl2bridge.inverse_realization(triple, 1.0)
        nrm = sl2bridge.symmetrized_relation_residual(matN, matA, matAdag, target)
        # published shift constant: a nonzero residual is surfaced, not corrected
        return make_report("inverse_realization_y", {"q": str(p.q), "shift": "published"},
                           [Dp], Dp - 2, nrm, nrm, p.tol,
                           verdict="info" if nrm > p.tol else "pass")

    def largest(name, dims, window, deviations):
        return name, partial(_largest, name, p, dims, window, deviations), None

    rows = [largest("qscalars_qpower_additivity", [20], 0, lambda: (
                abs(q_power(z1 + z2, p) - q_power(z1, p) * q_power(z2, p)) for z1, z2 in pairs)),
            largest("qscalars_qnum_inversion", [20], 0, lambda: (
                abs(q_number(x, p) - q_number(x, pinv)) for x in points)),
            largest("qscalars_half_index_recursion", [12], 0, lambda: (
                abs(half_index_product(k, p)
                    - half_index_product(k - 1, p) * q_number(k / 2.0, p)) for k in range(1, 13)))]
    for D, c in zip(config.rep_dims, config.rep_shifts):
        win = fockrep.Window(min(8, D - 2), guard=1)
        rows += [(f"relation_{rel}_c{c}", partial(relation, D, c, rel, win), None)
                 for rel in (("R2", "R3", "R4", "R5") if c == 0 else ("R1", "Ry"))]
    rows += [largest("casimir_scalar", [Dp], win_casimir.max_index, casimir),
             ("classical_limit", classical, None)]

    words = hopfops.default_axiom_words(config.axiom_max_word_len)
    # the canonical family may also be on the grid; each family runs once
    fams = dict.fromkeys([canonical] + [
        hopfops.HopfFamily(m=m, K=K, sign=s, params=p)
        for m, K, s in zip(config.family_m, config.family_K, config.family_signs)])
    rows += [(f"axioms_m{fam.m}_K{fam.K}_{fam.sign}", partial(axioms, fam, words), None)
             for fam in fams]
    rows += [largest("hopf_homomorphism_random", [Da, Da], Da - 1 - 4, homomorphism),
             ("pairing_eqn", partial(symalg.pairing_check, config.pairing_kmax,
                                     config.pairing_mmax, p, cap), None),
             ("dual_bracket", partial(symalg.dual_bracket_check, p, cap=cap), None),
             ("dual_hopf", partial(symalg.dual_hopf_check, p, deg=2, cap=cap), None),
             largest("cross_straighten", [2], 2, cross),
             ("quotient_cross", lambda: symalg.quotient_cross_check(
                 fockrep.build_rep(Dp, 0.5, p)), None)]

    rep_pair = fockrep.build_rep(Dp, 0.5, p)
    triple_reps = (fockrep.build_rep(Dt, 0.5, p),) * 3
    pair_reps, win_pair = (rep_pair, rep_pair), fockrep.Window(config.window, guard=1)
    for spec in map(parse_rspec, config.rspecs):
        fam, label = rmatrix.family_for(spec, p), spec.label()
        claimed = spec.kind == "yan_claimed"  # the published candidate
        rows += [(f"{label}:intertwiner_{gen}",
                  partial(rmatrix.check_intertwiner, spec, fam, *pair_reps, gen, win_pair), None)
                 for gen in ("N", "a", "adag")]
        rows += [(f"{label}:yang_baxter", partial(rmatrix.check_yang_baxter, spec, *triple_reps,
                                                  dim_cap=config.tensor_cap), None),
                 (f"{label}:fusion", partial(rmatrix.check_fusion, spec, fam, *triple_reps), None),
                 (f"{label}:antipode_inverse",
                  partial(rmatrix.check_antipode_inverse, spec, fam, *pair_reps, win_pair),
                  "info" if claimed else None),
                 (f"{label}:counit", partial(rmatrix.check_counit, spec, fam, *pair_reps),
                  "info" if claimed else None)]
        rows += [(f"{label}:yan_relation_{gen}",
                  partial(rmatrix.check_yan_relation, spec, fam, *pair_reps, gen, win_pair),
                  None if claimed else "info")
                 for gen in ("N", "a")]

    rows += [("sl2_relations", lambda: sl2bridge.check_sl2(
                  sl2bridge.realize_sl2(fockrep.build_rep(Dp, 0.5, p), 1.0)), None),
             largest("sl2_casimir_central", [Dp], Dp - 2, lambda: (
                 sl2bridge.casimir_centrality(fockrep.build_rep(Dp, c, p)) for c in (0.5, 1.0))),
             ("hopf_ideal_witness", partial(sl2bridge.hopf_ideal_witness, Dt, canonical), None),
             largest("witness_consistency", [Dt], Dt - 2, lambda: (
                 sl2bridge.witness_projection_residual(Dt, p),
                 sl2bridge.witness_counit_leg_residual(Dt, canonical))),
             ("inverse_realization_y", inverse_round_trip, None)]
    return rows


def _run_case(case_id: str, fn, override: str | None) -> list[IdentityReport]:
    """The case's reports, its wall time split evenly over them; a case that
    raises gives one error report."""
    started = time.perf_counter()
    try:
        result = fn()
        reports = result if isinstance(result, list) else [result]
        if override is not None:
            for rep in reports:
                rep.verdict = override
    except Exception as exc:  # capture, do not abort the suite
        reports = [IdentityReport(identity=case_id.split(":")[-1],
                                  params={"case": case_id}, dims=[], window=0,
                                  raw_residual=float("nan"),
                                  normalized_residual=float("nan"),
                                  verdict="info",
                                  error=f"{type(exc).__name__}: {exc}")]
    share = (time.perf_counter() - started) / max(len(reports), 1)
    for rep in reports:
        rep.wall_time = share
    return reports


def _expected_for(report: IdentityReport, patterns) -> str:
    key = f"{report.params.get('rspec', '-')}:{report.identity}"
    for pattern in patterns:
        if fnmatch.fnmatch(key, pattern) or fnmatch.fnmatch(report.identity, pattern):
            return "fail"
    return "pass"


def run_suite(config: SuiteConfig) -> list[IdentityReport]:
    """Run every case of the table in order; a case that raises gives an
    error report.

    The rmatrix cases share each R, which is held for this run only.
    """
    rows = _cases(config, config.params())
    try:
        reports = [rep for row in rows for rep in _run_case(*row)]
    finally:
        rmatrix.clear_caches()
    for rep in reports:
        if rep.verdict != "info":
            rep.expected = _expected_for(rep, config.expect_fail)
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
                config_echo: dict | None = None, include_timing: bool = True) -> str:
    doc = {"config": config_echo or {},
           "results": [r.as_dict(include_timing=include_timing) for r in reports]}
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
    try:
        return complex(text.replace("i", "j"))
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
    spec = parse_rspec(args.rspec)
    rep = fockrep.build_rep(config.dim_pair, 0.5, p)
    R = rmatrix.build_r(spec, rep, rep)
    out_dir = Path(config.dump_dir or ".")
    path = dump_matrix(R, out_dir / f"rmatrix_{spec.kind}.mtx")
    print(f"wrote {path} ({R.shape[0]}x{R.shape[1]})")
    return 0


def _cmd_pairing(args) -> int:
    config = _load_config(args)
    kmax, mmax, p = config.pairing_kmax, config.pairing_mmax, config.params()
    G = symalg.pairing_gram(kmax, mmax, p, config.degree_cap)
    report = symalg.pairing_check(kmax, mmax, p, config.degree_cap, gram=G)
    if config.dump_dir:
        path = dump_matrix(G, Path(config.dump_dir) / "pairing_gram.mtx")
        print(f"wrote {path}")
    print(f"pairing max deviation: {report.raw_residual:.3e}, "
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
        try:
            reports = run_suite(sub)
        finally:
            symalg.clear_caches()  # their entries are keyed by q: none is reused
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


if __name__ == "__main__":
    sys.exit(main())
