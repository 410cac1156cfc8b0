"""qboson benchmark: the CLI run as a user runs it, timed, traced and checked.

    python3 perfbench/run.py --workload {verify,tensor,scan} --seed N \
        --seconds S --trace {0,1}
    python3 perfbench/run.py --self-check

Run from the repository root.  Each round is one fresh
``python -m qboson.cli`` process with PYTHONPATH=src, QBOSON_WORKERS unset
and at most nproc BLAS threads.  Rounds repeat until --seconds have
passed; only whole rounds count.  With --trace 0 the end-to-end metrics
are reported, with --trace 1 the per-layer metrics of traced rounds (see
tracer.py).  The correctness checks (checks.py) run outside the timed
region on the reports and matrix dumps the CLI wrote.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_MIN_SAMPLES = 7
CHILD_TIMEOUT = 120.0


class BenchError(RuntimeError):
    """The benchmark could not run the program at all."""


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # CLI subcommand
    config: str  # file under configs/
    small: str  # config lines appended for --self-check


WORKLOADS = {
    "verify": Workload("verify", "verify", "verify.cfg",
                       "dims.pair = 8\ndims.triple = 6\nfamilies.m = [0.5]\n"
                       "families.k = [-1]\nfamilies.signs = [lower]\n"
                       "axioms.max_word_len = 1\n"),
    "tensor": Workload("tensor", "verify", "tensor.cfg",
                       "dims.pair = 8\ndims.triple = 6\n"),
    "scan": Workload("scan", "scan", "scan.cfg",
                     "scan.q_values = [1.3, 0.7+0.2i]\npairing.kmax = 3\n"
                     "pairing.mmax = 3\n"),
}

END_TO_END_UNITS = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MB"}

# per-layer metrics from the traced rounds ----------------------------------
#: inclusive span time summed over the listed functions
SPAN_TIMES = {
    "rmatrix.yang_baxter_s": ("rmatrix.check_yang_baxter",),
    "rmatrix.fusion_s": ("rmatrix.check_fusion",),
    "rmatrix.pair_checks_s": ("rmatrix.check_intertwiner", "rmatrix.check_antipode_inverse",
                              "rmatrix.check_counit", "rmatrix.check_yan_relation"),
    "hopfops.axioms_s": ("hopfops.check_hopf_axioms",),
    "symalg.pairing_s": ("symalg.pairing_check",),
    "symalg.dual_s": ("symalg.dual_bracket_check", "symalg.dual_hopf_check"),
    "symalg.cross_s": ("symalg.straighten_cross", "symalg.cross_terms_difference"),
    "cli.suite_s": ("cli.run_suite",),
    "cli.emit_s": ("cli.emit_report",),
}
#: calls of the listed functions; a trailing '.' counts the whole module
SPAN_CALLS = {
    "rmatrix.build_r_calls": ("rmatrix.build_r",),
    "hopfops.letter_image_calls": ("hopfops.multileg_coproduct_letter",),
    "hopfops.coproduct_calls": ("hopfops.coproduct_op",),
    "symalg.eval_word_calls": ("symalg.eval_word",),
    "fockrep.build_rep_calls": ("fockrep.build_rep",),
    "fockrep.window_calls": ("fockrep.window_block",),
    "qscalars.calls": ("qscalars.",),
}
DISTINCT = {"rmatrix.build_r_distinct": "rmatrix.build_r",
            "fockrep.build_rep_distinct": "fockrep.build_rep"}
PEAKS = {"rmatrix.peak_alloc_mb": "rmatrix", "hopfops.peak_alloc_mb": "hopfops"}
SELF_TIMES = ("rmatrix", "hopfops", "symalg", "fockrep", "qscalars", "sl2bridge", "report")


def layer_units() -> dict:
    units = {name: "s" for name in SPAN_TIMES}
    units.update({name: "count" for name in (*SPAN_CALLS, *DISTINCT, "cli.reports")})
    units.update({name: "MB" for name in PEAKS})
    units.update({f"{m}.self_s": "s" for m in SELF_TIMES})
    return units


def layer_metrics(spans_path: Path, reports: int) -> dict:
    """Per-layer numbers of one traced round; self time = span minus children."""
    z = np.load(spans_path)
    names = [str(n) for n in z["names"]]
    nid, parent = z["name_id"], z["parent"]
    dur = z["end"] - z["start"]
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
    own = dur - child
    calls = np.bincount(nid, minlength=len(names))
    total = np.bincount(nid, weights=dur, minlength=len(names))
    self_by_name = np.bincount(nid, weights=own, minlength=len(names))

    def matching(patterns):
        return [i for i, n in enumerate(names)
                if any(n == p or (p.endswith(".") and n.startswith(p)) for p in patterns)]

    out = {}
    for metric, fns in SPAN_TIMES.items():
        out[metric] = float(sum(total[i] for i in matching(fns)))
    for metric, fns in SPAN_CALLS.items():
        out[metric] = int(sum(calls[i] for i in matching(fns)))
    distinct = dict(zip((str(k) for k in z["distinct_keys"]), z["distinct_counts"]))
    for metric, fn in DISTINCT.items():
        out[metric] = int(distinct[fn])
    peaks = dict(zip((str(k) for k in z["peak_modules"]), z["peak_bytes"]))
    for metric, mod in PEAKS.items():
        out[metric] = float(peaks[mod]) / 2**20
    for mod in SELF_TIMES:
        out[f"{mod}.self_s"] = float(sum(self_by_name[i] for i in matching((mod + ".",))))
    out["cli.reports"] = reports
    return out


# ---------------------------------------------------------------------------
# processes


def child_env(workers: int | None) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("QBOSON_WORKERS", None)
    if workers is not None:
        env["QBOSON_WORKERS"] = str(workers)
    nproc = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = nproc
    return env


def timed_process(argv: list[str], env: dict, log: Path) -> tuple[float, float, int]:
    """(wall seconds, peak RSS in MB, exit code) of one child process.

    The child is reaped with a blocking wait4, whose rusage belongs to that
    child alone; a timer kills it if it runs longer than CHILD_TIMEOUT.
    """
    with open(log, "wb") as err:
        started = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        watchdog = threading.Timer(CHILD_TIMEOUT, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
            watchdog.join()
        wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    if wall >= CHILD_TIMEOUT:
        raise BenchError(f"{argv[1:3]} ran longer than {CHILD_TIMEOUT} s")
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


def setup_time(cfg: Path, env: dict, work: Path) -> float:
    """Fresh interpreter to qboson.cli imported and the config parsed."""
    argv = [sys.executable, "-c",
            "import sys; from qboson.cli import parse_config; parse_config(sys.argv[1])",
            str(cfg)]
    wall, _, code = timed_process(argv, env, work / "setup.log")
    if code != 0:
        raise BenchError(f"setup process exited {code}: "
                         f"{(work / 'setup.log').read_text(errors='replace')}")
    return wall


@dataclass
class Round:
    wall: float
    rss_mb: float
    texts: list  # report JSON texts, one per q point
    attempted: int
    failed: int
    layers: dict | None = None


def report_paths(work: Path, wl: Workload) -> list[Path]:
    """verify writes report.json; scan writes report_<i>.json per q point."""
    if wl.command == "verify":
        return [work / "report.json"]
    return sorted(work.glob("report_*.json"), key=lambda p: int(p.stem.split("_")[1]))


def run_round(wl: Workload, cfg: Path, work: Path, env: dict,
              tracing: str | None = None) -> Round:
    """One CLI process: plain, or under tracer.py with tracing 'spans' or 'memory'."""
    for old in [*work.glob("report*.json"), work / "spans.npz"]:
        old.unlink(missing_ok=True)
    cli_args = ["--config", str(cfg), "--out", str(work / "report.json"), wl.command]
    if tracing is None:
        argv = [sys.executable, "-m", "qboson.cli", *cli_args]
    else:
        argv = [sys.executable, str(BENCH / "tracer.py"),
                *(["--memory"] if tracing == "memory" else []),
                str(work / "spans.npz"), "--", *cli_args]
    wall, rss, code = timed_process(argv, env, work / "round.log")
    texts = [p.read_text(encoding="utf-8") for p in report_paths(work, wl) if p.exists()]
    attempted = failed = 0
    for text in texts:
        for rep in json.loads(text)["results"]:
            attempted += 1
            expected = rep.get("expected")
            if "error" in rep or (expected is not None and rep["verdict"] != expected):
                failed += 1
    implied = 1 if failed else 0
    if code != implied or not texts:
        # the exit code contradicts the reports (or there are none): no
        # operation of the round can be trusted
        attempted = max(attempted, 1)
        failed = attempted
    rnd = Round(wall, rss, texts, attempted, failed)
    if tracing is not None:
        if not (work / "spans.npz").exists():
            raise BenchError(f"a traced round wrote no spans; see {work / 'round.log'}")
        rnd.layers = layer_metrics(work / "spans.npz", attempted)
    return rnd


def traced_round(wl: Workload, cfg: Path, work: Path, env: dict) -> list[Round]:
    """A spans round for times and counts, then a memory round for the peaks."""
    timed = run_round(wl, cfg, work, env, "spans")
    memory = run_round(wl, cfg, work, env, "memory")
    timed.layers.update({m: memory.layers[m] for m in PEAKS})
    memory.layers = None
    return [timed, memory]


def dump_matrices(cfg: Path, points: list[dict], env: dict, work: Path) -> list[dict]:
    """Have the CLI dump both canonical R-matrices and the pairing Gram table at
    every q point; the processes run nproc at a time.  Returns exit codes."""
    jobs = []
    (work / "dumps").mkdir(exist_ok=True)
    for i, echo in enumerate(points):
        dumps = work / "dumps" / str(i)
        shutil.rmtree(dumps, ignore_errors=True)
        base = ["--config", str(cfg), "--q", echo["q"], "--dump-dir", str(dumps)]
        general = f"general:m=0.5,K={-2 * int(echo['kappa']) - 1},sign=lower"
        jobs += [(i, "quantum_double", [*base, "rmatrix", "--rspec", "quantum_double"]),
                 (i, "general", [*base, "rmatrix", "--rspec", general]),
                 (i, "pairing", [*base, "pairing", "--kmax", str(echo["pairing_kmax"]),
                                 "--mmax", str(echo["pairing_mmax"])])]

    def run(job):
        i, what, args = job
        log = work / "dumps" / f"{i}_{what}.log"
        return timed_process([sys.executable, "-m", "qboson.cli", *args], env, log)[2]

    with ThreadPoolExecutor(max_workers=len(os.sched_getaffinity(0))) as pool:
        codes = list(pool.map(run, jobs))
    out = [{} for _ in points]
    for (i, what, _), code in zip(jobs, codes):
        out[i][what] = code
    return out


# ---------------------------------------------------------------------------
# correctness, outside the timed region


def correctness(cfg: Path, rounds: list[Round], env: dict, work: Path) -> list[str]:
    first = rounds[0].texts
    problems = [] if first else ["round 1 wrote no report"]
    stripped = [checks.strip_timing(t) for t in first]
    for i, rnd in enumerate(rounds[1:], start=2):
        if [checks.strip_timing(t) for t in rnd.texts] != stripped:
            problems.append(f"round {i}: report JSON without timing differs from round 1")
    docs = [json.loads(text) for text in first]
    points = [doc["config"] for doc in docs]
    codes = dump_matrices(cfg, points, env, work)
    for i, (doc, echo) in enumerate(zip(docs, points)):
        problems += checks.check_property_split(doc)
        q, kappa, D = complex(echo["q"]), int(echo["kappa"]), int(echo["dim_pair"])
        kmax, mmax = int(echo["pairing_kmax"]), int(echo["pairing_mmax"])
        # 'pairing' exits 1 when its own verdict is not pass; its dump is checked
        # against the closed form either way
        for what in ("quantum_double", "general"):
            if codes[i][what] != 0:
                problems.append(f"q={q}: 'rmatrix' for {what} exited {codes[i][what]}")
        dumps = work / "dumps" / str(i)
        try:
            R = checks.load_matrix(dumps / "rmatrix_quantum_double.mtx")
            problems += checks.check_r_window(R, q, D, kappa)
            problems += checks.check_specialization(
                checks.load_matrix(dumps / "rmatrix_general_family.mtx"), R, q)
            problems += checks.check_pairing(
                checks.load_matrix(dumps / "pairing_gram.mtx"), q, kmax, mmax, kappa)
        except (OSError, ValueError) as exc:
            problems.append(f"q={q}: matrix dump unreadable: {exc}")
    for i, rnd in enumerate(rounds, start=1):
        if rnd.layers is None:
            continue
        self_sum = sum(rnd.layers[f"{m}.self_s"] for m in SELF_TIMES)
        if not self_sum <= rnd.layers["cli.suite_s"]:
            problems.append(f"traced round {i}: layer self times {self_sum:.4f} s "
                            f"exceed the suite time {rnd.layers['cli.suite_s']:.4f} s")
    return problems


# ---------------------------------------------------------------------------
# entry points


def prepare(wl: Workload, seed: int, tag: str = "", extra: str = "") -> tuple[Path, Path]:
    """Work directory and config file: the workload's config, then the extra
    lines (later keys win), then the seed."""
    if not (SRC / "qboson" / "cli.py").is_file():
        raise BenchError(f"no qboson package under {SRC}; run from a full checkout")
    if seed < 0:
        raise BenchError("--seed must be non-negative")
    work = OUT / (wl.name + tag)
    work.mkdir(parents=True, exist_ok=True)
    text = (BENCH / "configs" / wl.config).read_text(encoding="utf-8") + extra
    cfg = work / "workload.cfg"
    cfg.write_text(text + f"seed = {seed}\n", encoding="utf-8")
    return cfg, work


def run_rounds(wl: Workload, cfg: Path, work: Path, env: dict, seconds: float,
               trace: bool) -> tuple[list[Round], list[float]]:
    """Whole rounds until the time is up.  Untraced, each round is preceded
    by one set-up sample, so set-up is sampled across the whole run."""
    rounds, setup = [], []
    if not trace:
        setup_time(cfg, env, work)  # warms the bytecode cache; not a sample
    deadline = time.perf_counter() + seconds
    while not rounds or time.perf_counter() < deadline:
        if trace:
            rounds += traced_round(wl, cfg, work, env)
        else:
            setup.append(setup_time(cfg, env, work))
            rounds.append(run_round(wl, cfg, work, env))
    while not trace and len(setup) < SETUP_MIN_SAMPLES:
        setup.append(setup_time(cfg, env, work))
    return rounds, setup


def benchmark(args) -> dict:
    wl = WORKLOADS[args.workload]
    cfg, work = prepare(wl, args.seed)
    env = child_env(args.workers)
    rounds, setup = run_rounds(wl, cfg, work, env, args.seconds, bool(args.trace))
    problems = correctness(cfg, rounds, env, work)
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    if args.trace:
        units = layer_units()
        traced = [r.layers for r in rounds if r.layers is not None]
        values = {m: statistics.median_low(layers[m] for layers in traced) for m in units}
    else:
        units = END_TO_END_UNITS
        values = {"setup_s": statistics.median(setup),
                  "run_s": statistics.median(r.wall for r in rounds),
                  "peak_rss_mb": statistics.median(r.rss_mb for r in rounds)}
    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    print(f"workload {wl.name}: {len(rounds)} rounds, {attempted} operations, "
          f"{failed} failed, checks {'passed' if not problems else 'FAILED'}")
    print("  round wall times (s): " + " ".join(f"{r.wall:.3f}" for r in rounds))
    for name, value in values.items():
        print(f"  {name:28s} {value:12.6g} {units[name]}")
    return {"correct": not problems, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in values.items()}}


def self_check() -> int:
    """Every workload's correctness checks at reduced size, plus one traced round."""
    env = child_env(None)
    ok = True
    for wl in WORKLOADS.values():
        started = time.perf_counter()
        cfg, work = prepare(wl, seed=1, tag="_small", extra=wl.small)
        rounds = [run_round(wl, cfg, work, env), *traced_round(wl, cfg, work, env)]
        problems = correctness(cfg, rounds, env, work)
        ok = ok and not problems
        print(f"{'PASS' if not problems else 'FAIL'} {wl.name}: "
              f"{rounds[0].attempted} operations, {rounds[0].failed} failed, "
              f"{time.perf_counter() - started:.1f} s")
        for p in problems:
            print(f"  {p}")
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workers", type=int, default=None,
                        help="set QBOSON_WORKERS for the rounds (reference runs only)")
    parser.add_argument("--self-check", action="store_true",
                        help="run every workload's checks at reduced size and exit")
    args = parser.parse_args(argv)
    try:
        if args.self_check:
            return self_check()
        if args.workload is None:
            parser.error("--workload is required")
        result = benchmark(args)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
