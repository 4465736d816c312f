"""Regenerate ``golden.json``: reference outputs for the checks that have no
cheap independent engine (sweep and deep at t = 10 and 12, D(S_N) at N != 5).

    python3 perfbench/make_golden.py

Takes about a minute on one core.  Regenerate only when a change is meant to
alter these outputs, and say so in the change.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from anyonwalk.models import build_su2k  # noqa: E402
from anyonwalk.nonabelian import sweep_distances, walk_distribution  # noqa: E402
from anyonwalk.quantum_double import double_walk_distribution  # noqa: E402
from workloads import DEEP_T, DSN_NS, GOLDEN_PATH, SWEEP_LEVELS, SWEEP_T  # noqa: E402


def main() -> None:
    golden = {
        "sweep": {str(k): [d_q, d_c] for k, d_q, d_c in sweep_distances(SWEEP_LEVELS, t=SWEEP_T)},
        "deep": {},
        "dsn": {},
    }
    for k in (3, 4):
        for coin in "HU":
            dist = walk_distribution(build_su2k(k), DEEP_T, engine="dense", coin=coin)
            golden["deep"][f"{k}:{coin}"] = [float(p) for p in dist.probs]
    for N in DSN_NS:
        for t in (3, 4):
            exact = double_walk_distribution(N, t).exact
            golden["dsn"][f"{N}:{t}"] = [f"{x.numerator}/{x.denominator}" for x in exact]
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1) + "\n")


if __name__ == "__main__":
    main()
