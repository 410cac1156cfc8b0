"""rmatrix cost against the triple truncation dims.triple (reference figures only).

    python3 perfbench/slope.py [D ...]        (default: 6 8 10 12)

Runs traced rounds of the tensor workload at each dims.triple D and
prints the median Yang-Baxter, fusion and rmatrix self times of ROUNDS
rounds, with the exponent fitted between neighbouring D, to show the
dense D^9 wall.  D = 12 peaks
near 0.5 GB; larger D is left out on small machines on purpose.
"""

from __future__ import annotations

import math
import statistics
import sys

import run

ROUNDS = 3

def main(argv: list[str]) -> int:
    dims = [int(d) for d in argv] or [6, 8, 10, 12]
    env = run.child_env(None)
    wl = run.WORKLOADS["tensor"]
    rows = []
    for D in dims:
        cfg, work = run.prepare(wl, seed=0, tag=f"_D{D}", extra=f"dims.triple = {D}\n")
        rounds = [run.run_round(wl, cfg, work, env, "spans").layers for _ in range(ROUNDS)]
        rows.append((D, *(statistics.median(r[m] for r in rounds) for m in (
            "rmatrix.yang_baxter_s", "rmatrix.fusion_s", "rmatrix.self_s"))))
    print(f"{'D':>3} {'yang_baxter_s':>14} {'fusion_s':>10} {'rmatrix.self_s':>15} "
          f"{'slope(YB)':>10} {'slope(fusion)':>14}")
    for i, (D, yb, fu, own) in enumerate(rows):
        if i:
            D0, yb0, fu0, _ = rows[i - 1]
            step = math.log(D / D0)
            slopes = f"{math.log(yb / yb0) / step:10.2f} {math.log(fu / fu0) / step:14.2f}"
        else:
            slopes = f"{'':>10} {'':>14}"
        print(f"{D:3d} {yb:14.4f} {fu:10.4f} {own:15.4f} {slopes}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
