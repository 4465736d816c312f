"""Trace the two operations behind the hand timings in ROADMAP.md.

    python3 perfbench/sanity.py

ROADMAP item 1 quotes, from a 2-core machine: one dense level (k=21, t=10,
n=22) in about 1.68 s, of which about 0.85 s is generator build; and pathsum
at k=3, t=8 in about 1.84 s.  This prints the traced layer times of the same
operations, each run cold (first call in the process) and warm (second).
README.md records the comparison.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

os.environ.update({"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"})
sys.path[:0] = [str(Path(__file__).resolve().parent.parent / "src"), str(Path(__file__).resolve().parent)]

from tracer import Tracer  # noqa: E402
from workloads import cli_op  # noqa: E402

CASES = {
    "dense k=21 t=10": ("su2k", "dist", "--engine", "dense", "--t", 10, "--n", 22, "--k", 21),
    "pathsum k=3 t=8": ("su2k", "dist", "--engine", "pathsum", "--t", 8, "--k", 3),
}
LAYERS = ("nonabelian.dense_s", "fusion.basis_s", "fusion.generator_s", "nonabelian.evolve_s",
          "nonabelian.pathsum_s", "tl.trace_s", "nonabelian.coin_s")


def main() -> None:
    for name, argv in CASES.items():
        op = cli_op("sanity", {}, *argv)
        for run in ("cold", "warm"):
            tracer = Tracer()
            with tracer.installed():
                op.run(tracer.op)
            values = tracer.metrics(1, tracer.total["op"])
            row = {"op_s": round(tracer.total["op"], 3)}
            row.update({k: round(values[k], 3) for k in LAYERS if values[k]})
            print(json.dumps({"case": name, "run": run, **row}))


if __name__ == "__main__":
    main()
