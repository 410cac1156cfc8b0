"""Record a BENCH_<n>.json from perfbench, for a parent revision and this checkout.

    python3 bench/record.py --parent REV --out BENCH_7.json

The parent side is ``git archive REV`` unpacked into a temporary
directory; the change side is this checkout's working tree.  Every number
comes from perfbench/run.py and perfbench/slope.py, run unchanged from
each side's root, with run.py's own run length:

* per workload, 10 alternated pairs of ``run.py --workload W --seed S``
  (the side that runs first alternates; seeds 101, 102, ... shared within
  a pair), summarized as median and quartiles of run_s, setup_s and
  peak_rss_mb over the runs, with the pairs the change won;
* one traced verify run each, ``run.py --workload verify --trace 1
  --seed 7``: the per-layer metrics;
* ``slope.py 8 12 16 20 24`` in 5 alternated repeats per side (the side
  that runs first alternates), summarized per D and metric as median and
  quartiles over the repeats;
* the interpreter, numpy version, core count, the parent's commit, the
  change's base commit with a digest of its uncommitted src/ diff, and
  whether PYTHONDONTWRITEBYTECODE is set (then every round recompiles
  src/, which is part of setup_s).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("verify", "tensor", "scan")
END_TO_END = ("run_s", "setup_s", "peak_rss_mb")
RUNS = 10
SEED0 = 101
SLOPE_DIMS = (8, 12, 16, 20, 24)
SLOPE_REPEATS = 5
SLOPE_COLUMNS = ("dims_triple", "yang_baxter_s", "fusion_s", "rmatrix_self_s")


def git(*args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, check=True).stdout


def commit_of(rev: str) -> str:
    return git("rev-parse", "--verify", f"{rev}^{{commit}}").decode().strip()


@contextlib.contextmanager
def archived(rev: str):
    """A temporary directory holding ``git archive rev``, removed on exit."""
    with tempfile.TemporaryDirectory(prefix="bench_parent_") as parent:
        tarfile.open(fileobj=io.BytesIO(git("archive", rev))).extractall(parent)
        yield Path(parent)


def perfbench(checkout: Path, script: str, *args: str) -> str:
    """Standard output of one perfbench script run from a checkout's root."""
    done = subprocess.run([sys.executable, f"perfbench/{script}", *args], cwd=checkout,
                          capture_output=True, text=True, check=False)
    if done.returncode != 0:
        raise RuntimeError(f"{script} {' '.join(args)} in {checkout} exited "
                           f"{done.returncode}:\n{done.stderr}")
    return done.stdout


def run_json(checkout: Path, *args: str) -> dict:
    """The JSON object run.py prints on its last line."""
    return json.loads(perfbench(checkout, "run.py", *args).strip().splitlines()[-1])


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def alternated(sides: dict, repeats: int, what: str, run) -> dict:
    """Side name -> [run(checkout, i) for i < repeats], both sides once per i,
    the side that runs first alternating with i."""
    results = {name: [] for name in sides}
    for i in range(repeats):
        for name in list(sides) if i % 2 == 0 else list(sides)[::-1]:
            print(f"{what} {i + 1}/{repeats}: {name}", file=sys.stderr, flush=True)
            results[name].append(run(sides[name], i))
    return results


def end_to_end(sides: dict, workload: str) -> dict:
    results = alternated(sides, RUNS, f"{workload} pair", lambda checkout, i: run_json(
        checkout, "--workload", workload, "--seed", str(SEED0 + i)))
    out = {"seeds": [SEED0 + i for i in range(RUNS)]}
    for metric in END_TO_END:
        values = {name: [r["metrics"][metric]["value"] for r in results[name]]
                  for name in sides}
        out[metric] = {name: summary(v) for name, v in values.items()}
        wins = sum(c < p for p, c in zip(values["parent"], values["change"]))
        out[metric]["change_lower_in_pairs"] = f"{wins}/{RUNS}"
    out["operations"] = {name: {"attempted": sum(r["attempted"] for r in res),
                                "failed": sum(r["failed"] for r in res),
                                "checks_passed": all(r["correct"] for r in res)}
                         for name, res in results.items()}
    return out


def traced_verify(sides: dict) -> dict:
    out = {}
    for name, checkout in sides.items():
        print(f"traced verify: {name}", file=sys.stderr, flush=True)
        res = run_json(checkout, "--workload", "verify", "--trace", "1", "--seed", "7")
        out[name] = {m: v["value"] for m, v in res["metrics"].items()}
    return out


def slope(sides: dict) -> dict:
    """Per side and D, each of slope.py's metrics over the alternated repeats."""
    def table(checkout: Path, i: int) -> list[list[float]]:
        lines = perfbench(checkout, "slope.py", *map(str, SLOPE_DIMS)).splitlines()[1:]
        return [[float(f) for f in line.split()[1:len(SLOPE_COLUMNS)]] for line in lines]

    out = {}
    for name, tables in alternated(sides, SLOPE_REPEATS, "slope repeat", table).items():
        out[name] = [{SLOPE_COLUMNS[0]: D, **{metric: summary([t[d][c] for t in tables])
                                              for c, metric in enumerate(SLOPE_COLUMNS[1:])}}
                     for d, D in enumerate(SLOPE_DIMS)]
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="the parent's git revision")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    parent_rev = commit_of(args.parent)
    src_diff = git("diff", "--binary", "HEAD", "--", "src")
    with archived(parent_rev) as parent:
        sides = {"parent": parent, "change": ROOT}
        doc = {
            "what": ("perfbench/run.py end-to-end metrics of the parent and the change in "
                     "alternated pairs; per-run values are each run's median over its "
                     "rounds, median/q1/q3 are taken over the runs; slope.py's table "
                     "likewise over alternated repeats, per D and metric"),
            "commands": {
                "end_to_end": "python3 perfbench/run.py --workload W --seed S",
                "traced": "python3 perfbench/run.py --workload verify --trace 1 --seed 7",
                "slope": (f"python3 perfbench/slope.py {' '.join(map(str, SLOPE_DIMS))}, "
                          f"{SLOPE_REPEATS} alternated repeats per side"),
                "record": f"python3 bench/record.py --parent {parent_rev} --out {args.out.name}",
            },
            "environment": {
                "python": platform.python_version(),
                "numpy": np.__version__,
                "cores": len(os.sched_getaffinity(0)),
                "machine": platform.machine(),
                "PYTHONDONTWRITEBYTECODE": bool(os.environ.get("PYTHONDONTWRITEBYTECODE")),
            },
            "revisions": {
                "parent": parent_rev,
                "change_base": git("rev-parse", "HEAD").decode().strip(),
                # sha256 of `git diff --binary <change_base> -- src` when measured
                "change_src_diff_sha256": hashlib.sha256(src_diff).hexdigest(),
            },
            "end_to_end": {wl: end_to_end(sides, wl) for wl in WORKLOADS},
            "traced_verify": traced_verify(sides),
            "slope": slope(sides),
        }
    args.out.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
