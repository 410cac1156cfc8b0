"""Compare the suite reports of a parent revision and this checkout.

    python3 bench/reports.py --parent REV

The parent side is ``git archive REV`` unpacked into a temporary
directory, as bench/record.py unpacks it; the change side is this
checkout's working tree.  Each side runs ``python -m qboson.cli ... verify``
from its own root with PYTHONPATH=src, on the same configurations:

* ``--q 1.3`` and ``--q 0.7+0.2i`` (the default suite);
* ``--config perfbench/configs/tensor.cfg``;
* ``--config perfbench/configs/scan.cfg --q Q`` for each of its
  ``scan.q_values`` (a scan point's report is the verify report at that q).

Every report drops ``wall_time`` and the config's ``out_report`` path.  The
two sides' reports are aligned by (identity, params), so a report that only
one side has is one difference and does not shift the reports after it;
then each differing field and each run's exit codes are printed.  The exit
code is 1 on any difference in a report or an exit code, 0 otherwise.
"""

from __future__ import annotations

import argparse
import difflib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from record import ROOT, archived, commit_of

MISSING = "<missing>"


def runs() -> dict:
    """Run name -> the CLI's global arguments."""
    scan_cfg = "perfbench/configs/scan.cfg"
    line = next(ln for ln in (ROOT / scan_cfg).read_text().splitlines()
                if ln.startswith("scan.q_values"))
    points = [q.strip() for q in line.partition("=")[2].strip(" []").split(",")]
    out = {"verify q=1.3": ["--q", "1.3"], "verify q=0.7+0.2i": ["--q", "0.7+0.2i"],
           "tensor": ["--config", "perfbench/configs/tensor.cfg"]}
    out.update({f"scan q={q}": ["--config", scan_cfg, "--q", q] for q in points})
    return out


def verify(checkout: Path, args: list[str], out: Path) -> tuple[int, dict]:
    """The exit code and the timing-stripped report of one verify run."""
    env = dict(os.environ, PYTHONPATH="src")
    done = subprocess.run([sys.executable, "-m", "qboson.cli", *args, "--out", str(out),
                           "verify"], cwd=checkout, env=env, capture_output=True, text=True)
    if not out.exists():
        raise RuntimeError(f"{' '.join(args)} in {checkout} wrote no report "
                           f"(exit {done.returncode}):\n{done.stderr}")
    doc = json.loads(out.read_text(encoding="utf-8"))
    doc["config"].pop("out_report", None)
    for rep in doc["results"]:
        rep.pop("wall_time", None)
    return done.returncode, doc


def differences(path: str, a, b):
    """(path, parent value, change value) for every leaf that differs."""
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(set(a) | set(b)):
            yield from differences(f"{path}.{key}", a.get(key, MISSING), b.get(key, MISSING))
    elif isinstance(a, list) and isinstance(b, list):
        for i in range(max(len(a), len(b))):
            yield from differences(f"{path}[{i}]", a[i] if i < len(a) else MISSING,
                                   b[i] if i < len(b) else MISSING)
    elif json.dumps(a) != json.dumps(b):  # NaN equals NaN here
        yield path, a, b


def result_differences(a: list, b: list):
    """differences() of two report lists aligned by (identity, params).

    Matched reports are compared field by field under the parent's index;
    a report only the parent has, or only the change has, is one difference.
    """
    def keys(reports):
        return [json.dumps([rep["identity"], rep["params"]], sort_keys=True)
                for rep in reports]

    blocks = difflib.SequenceMatcher(None, keys(a), keys(b), autojunk=False)
    for tag, i1, i2, j1, j2 in blocks.get_opcodes():
        if tag == "equal":
            for i, j in zip(range(i1, i2), range(j1, j2)):
                yield from differences(f".results[{i}]", a[i], b[j])
            continue
        for i in range(i1, i2):
            yield f".results[{i}]", a[i], MISSING
        for j in range(j1, j2):
            yield f".results[change {j}]", MISSING, b[j]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="the parent's git revision")
    args = parser.parse_args(argv)
    parent_rev = commit_of(args.parent)
    print(f"parent {parent_rev}, change: the working tree of {ROOT}")
    total = reports = 0
    with archived(parent_rev) as parent, tempfile.TemporaryDirectory() as tmp:
        for i, (name, cli_args) in enumerate(runs().items()):
            (code_p, doc_p), (code_c, doc_c) = (
                verify(side, cli_args, Path(tmp) / f"{i}_{label}.json")
                for label, side in (("parent", parent), ("change", ROOT)))
            found = [*differences("", {**doc_p, "results": []}, {**doc_c, "results": []}),
                     *result_differences(doc_p["results"], doc_c["results"])]
            if code_p != code_c:
                found.append((" exit code", code_p, code_c))
            errors = sum("error" in rep for rep in doc_c["results"])
            print(f"{name}: exit {code_p} -> {code_c}, {len(doc_c['results'])} reports "
                  f"({errors} error), {len(found)} differences")
            for path, was, now in found:
                print(f"  {path.lstrip('.')}: parent {was!r}, change {now!r}")
            total += len(found)
            reports += len(doc_c["results"])
    print(f"{reports} reports compared: " +
          ("no difference" if not total else f"{total} differences"))
    return 1 if total else 0


if __name__ == "__main__":
    sys.exit(main())
