"""Workload inputs, the operations that run them, and the checks on their outputs.

A *pass* is one batch of operations drawn from the seeded generator.  Its
composition is fixed per workload and only the drawn values change, so the
cost of a pass barely depends on the seed.  Every CLI operation goes through
``anyonwalk.cli.main`` with ``--out json``; ``moments_analytic`` has no CLI
command and is called as a library function.

Checks run after a pass, outside its timed region, in a separate process so
that their memory and caches never touch the measured one.  They never
abort the run: each returns ``None`` for a correct output or a one-line
reason.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import re
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np
import scipy.sparse as sp

import anyonwalk.abelian as abelian
import anyonwalk.cli as cli
from anyonwalk.distribution import COINS, Distribution, baseline_classical, baseline_quantum, distance
from anyonwalk.fusion import braid_generator, enumerate_fusion_basis, su22_qubit_generator, vacuum_pair_state
from anyonwalk.models import build_su2k
from anyonwalk.nonabelian import WalkGeometry, walk_distribution
from anyonwalk.tl import BraidWord, state_sum_bracket

WORKLOADS = ("sweep", "deep", "pathsum", "exact")

#: seconds one pass takes, its checks included, on the 2-core VM where the
#: benchmark was defined.  A run does ``seconds // PASS_SECONDS`` passes, so
#: the operation mix, the sample counts and the memory high-water mark do not
#: depend on how fast the machine happens to be.
PASS_SECONDS = {"sweep": 10.5, "deep": 11.0, "pathsum": 5.5, "exact": 3.2}

GOLDEN_PATH = Path(__file__).with_name("golden.json")

#: gate 3's level set; for n = 22 every level k >= 11 has the same basis
SWEEP_LEVELS = list(range(2, 31)) + [40, 60, 80]
LARGE_LEVELS = [k for k in SWEEP_LEVELS if k >= 11]
SMALL_STRATA = ([2, 3, 4], [5, 6, 7], [8, 9, 10])
SWEEP_T = 10
DEEP_T = 12
PATHSUM_T = 8
DSN_NS = list(range(5, 13)) + [20, 50, 100, 500]
#: state-sum cost doubles per letter; 12 letters take about 0.3 s
STATE_SUM_MAX_LETTERS = 12
#: levels at which exact brackets are compared with the fusion-space product
FUSION_CHECK_LEVELS = (3, 4)

# gate 5 of the acceptance suite, coin U
GATE5 = {
    (5, 3): ["1/8", "83/200", "67/200", "1/8"],
    (5, 4): ["1/16", "31/100", "67/200", "23/100", "1/16"],
}
N_FREE = {1: ["1/2", "1/2"], 2: ["1/4", "1/2", "1/4"]}


@dataclass
class Op:
    kind: str
    params: dict
    argv: list[str] = field(default_factory=list)  # empty for library calls

    def run(self, call=None):
        """Execute once; ``call(fn)`` runs the entry point (the tracer passes its own)."""
        call = call or (lambda fn: fn())
        if self.kind == "moments":
            p = self.params
            return call(lambda: abelian.moments_analytic(p["phi"], p["t"], p["m"]))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = call(lambda: cli.main(self.argv))
        if code != 0:
            raise RuntimeError(f"exit code {code}")
        return out.getvalue()


def cli_op(kind: str, params: dict, *argv) -> Op:
    return Op(kind, params, [str(a) for a in argv] + ["--out", "json"])


def _random_word(rng: random.Random, n: int) -> tuple[int, ...]:
    length = rng.randint(10, 16)
    return tuple(rng.choice((1, -1)) * rng.randint(1, n - 1) for _ in range(length))


def make_pass(workload: str, rng: random.Random) -> list[Op]:
    """Draw one pass of ``workload`` from ``rng``."""
    if workload == "sweep":
        # two ops over three levels that share a basis, then one over the
        # cheaper small levels.  The shared-basis ops are the majority, so the
        # median latency lies inside their cluster and not between the two;
        # the fixed order makes the run's first, cold op always a shared-basis one.
        return [cli_op("sweep", {"ks": ks}, "su2k", "sweep", "--k", ",".join(map(str, ks)),
                       "--t", SWEEP_T)
                for ks in (rng.sample(LARGE_LEVELS, 3), rng.sample(LARGE_LEVELS, 3),
                           [rng.choice(s) for s in SMALL_STRATA])]
    if workload == "deep":
        ops = [cli_op("deep", {"k": k, "coin": coin}, "su2k", "dist", "--engine", "dense",
                      "--t", DEEP_T, "--k", k, "--coin", coin)
               for k, coin in ((3, rng.choice("HU")), (4, rng.choice("HU")))]
        rng.shuffle(ops)
        return ops
    if workload == "pathsum":
        ops = []
        for _ in range(3):
            k, coin = rng.choice(SWEEP_LEVELS), rng.choice("HU")
            ops.append(cli_op("pathsum", {"k": k, "coin": coin, "t": PATHSUM_T}, "su2k", "dist",
                              "--engine", "pathsum", "--t", PATHSUM_T, "--k", k, "--coin", coin))
        return ops
    if workload == "exact":
        ops = []
        # one smaller and one larger strand count per closure keeps the diagram
        # count, and so the cost, of a pass steady across seeds
        for closure, counts in (("plat", (6, 8)), ("plat", (10,)), ("markov", (6, 7, 8)),
                                ("markov", (9, 10))):
            n = rng.choice(counts)
            word = _random_word(rng, n)
            ops.append(cli_op("kauffman", {"n": n, "word": word, "closure": closure},
                              "kauffman", "--n", n, "--word", " ".join(map(str, word)),
                              "--closure", closure, "--exact"))
        # The cheap, uniform D(S_N) ops are the majority, so the median latency
        # lies well inside their cluster, and the variance ops are over 10% of
        # the pass, so the 90th percentile lies inside theirs; either statistic
        # would swing with the drawn words if it fell among the bracket ops.
        for t in [3, 4] * 10 + [1, 2] * 3:
            N = rng.choice(DSN_NS)
            ops.append(cli_op("dsn", {"N": N, "t": t}, "dsn", "dist", "--N", N, "--t", t))
        # step counts come from a low and a high stratum, since cost grows with t
        for lo in [rng.randint(10, 25) for _ in range(3)] + [rng.randint(26, 40) for _ in range(3)]:
            phis = [repr(rng.uniform(0.0, math.pi)) for _ in range(2)]
            ops.append(cli_op("variance", {"phis": [float(p) for p in phis], "ts": (lo, lo + 30)},
                              "abelian", "variance", "--phi", ",".join(phis),
                              "--t", f"{lo}..{lo + 30}", "--analytic"))
        for m, t in ((1, rng.randint(20, 40)), (2, rng.randint(41, 60))):
            ops.append(Op("moments", {"phi": rng.uniform(0.0, math.pi), "t": t, "m": m}))
        rng.shuffle(ops)
        return ops
    raise ValueError(f"unknown workload {workload!r}")


# -- checks -------------------------------------------------------------------


class Checker:
    """Checks outputs against independent engines and golden tables."""

    def __init__(self, golden: dict | None = None):
        self.golden = json.loads(GOLDEN_PATH.read_text()) if golden is None else golden

    def check(self, op: Op, output) -> str | None:
        try:
            return getattr(self, f"_check_{op.kind}")(op.params, output)
        except Exception as exc:  # a malformed output is a failed check
            return f"{type(exc).__name__}: {exc}"

    def _check_sweep(self, p, output):
        rows = json.loads(output)["rows"]
        if [r[0] for r in rows] != p["ks"]:
            return f"levels {[r[0] for r in rows]} != {p['ks']}"
        table = self.golden["sweep"]
        for k, d_q, d_c in rows:
            want = table[str(k)]
            if abs(d_q - want[0]) > 1e-9 or abs(d_c - want[1]) > 1e-9:
                return f"k={k}: ({d_q}, {d_c}) != golden {want}"
            if k == 2:
                ref = qubit_distances(SWEEP_T)
                if abs(d_q - ref[0]) > 1e-9 or abs(d_c - ref[1]) > 1e-9:
                    return f"k=2: ({d_q}, {d_c}) != qubit representation {ref}"
        return None

    def _check_deep(self, p, output):
        doc = json.loads(output)
        want = self.golden["deep"][f"{p['k']}:{p['coin']}"]
        if doc["positions"] != list(range(-DEEP_T, DEEP_T + 1, 2)):
            return f"positions {doc['positions']}"
        diff = float(np.max(np.abs(np.array(doc["probs"]) - np.array(want))))
        return None if diff <= 1e-9 else f"max deviation {diff:.3g} from golden"

    def _check_pathsum(self, p, output):
        doc = json.loads(output)
        dense = walk_distribution(build_su2k(p["k"]), p["t"], engine="dense", coin=p["coin"])
        centered = dense.shifted(dense.meta["s0"])
        if doc["positions"] != list(centered.positions):
            return f"positions {doc['positions']}"
        diff = float(np.max(np.abs(np.array(doc["probs"]) - centered.probs)))
        return None if diff <= 1e-8 else f"max deviation {diff:.3g} from the dense engine"

    def _check_kauffman(self, p, output):
        text = json.loads(output)["polynomial"]
        word = BraidWord(p["n"], tuple(p["word"]))
        if len(word) <= STATE_SUM_MAX_LETTERS:
            want = str(state_sum_bracket(word, p["closure"]))
            if text != want:
                return f"{text!r} != state sum {want!r}"
        coeffs = parse_laurent(text)
        plat_word = word if p["closure"] == "plat" else markov_as_plat(word)
        for k in FUSION_CHECK_LEVELS:
            value, a = fusion_plat_value(plat_word, k)
            got = sum(c * a**e for e, c in coeffs.items())
            if abs(got - value) > 1e-8 * max(1.0, abs(value)):
                return f"value {got} at level {k} != fusion-space product {value}"
        return None

    def _check_dsn(self, p, output):
        got = json.loads(output)["probs_exact"]
        t = p["t"]
        want = N_FREE.get(t) or GATE5.get((p["N"], t)) or self.golden["dsn"][f"{p['N']}:{t}"]
        if got != want:
            return f"{got} != {want}"
        fracs = [Fraction(x) for x in got]
        if sum(fracs) != 1 or fracs[0] != fracs[-1] or fracs[0] != Fraction(1, 2**t):
            return f"{got} is not a walk distribution with N-independent ends"
        return None

    def _check_variance(self, p, output):
        rows = json.loads(output)["rows"]
        lo, hi = p["ts"]
        grid = [(t, phi) for phi in p["phis"] for t in range(lo, hi + 1)]
        if [(r[0], r[1]) for r in rows] != grid:
            return "rows do not cover the requested (t, phi) grid"
        for phi in p["phis"]:
            mine = [r for r in rows if r[1] == phi]
            coeffs = [r[3] / r[0] ** 2 for r in mine]
            if min(coeffs) <= 0 or max(coeffs) - min(coeffs) > 1e-12 * max(coeffs):
                return f"phi={phi}: long-time sheet is not one coefficient times t^2"
            for t, _, v_sim, _ in mine:
                ref = abelian.simulate_distribution(phi, t).variance()
                if abs(v_sim - ref) > 1e-9 * max(1.0, ref):
                    return f"t={t}, phi={phi}: v_sim {v_sim} != simulation {ref}"
        return None

    def _check_moments(self, p, output):
        ref = abelian.simulate_distribution(p["phi"], p["t"]).moment(p["m"])
        if abs(output - ref) > 1e-9 * max(1.0, abs(ref)):
            return f"moment {output} != simulation {ref}"
        return None


_TERM = re.compile(r"^(?:(\d+)\*)?A(?:\^(-?\d+))?$")


def parse_laurent(text: str) -> dict[int, int]:
    """Exponent -> coefficient map of a polynomial printed by ``LaurentPoly.__str__``."""
    coeffs: dict[int, int] = {}
    if text == "0":
        return coeffs
    for token in text.replace(" - ", " + -").split(" + "):
        sign = -1 if token.startswith("-") else 1
        body = token.lstrip("-")
        match = _TERM.match(body)
        if match:
            c, e = int(match.group(1) or 1), int(match.group(2) or 1)
        elif body.isdigit():
            c, e = int(body), 0
        else:
            raise ValueError(f"cannot parse term {token!r}")
        coeffs[e] = coeffs.get(e, 0) + sign * c
    return coeffs


def markov_as_plat(word: BraidWord) -> BraidWord:
    """A 2n-strand word whose plat closure is the trace closure of ``word``.

    Strand j of ``word`` runs at position 2j-1 beside a return strand at 2j;
    each crossing passes the moving strands over the return strand between
    them, so the return strands lie behind the braid as in the trace closure.
    """
    letters = []
    for letter in word.letters:
        i = abs(letter)
        letters += [-2 * i, (2 * i - 1) * (1 if letter > 0 else -1), 2 * i]
    return BraidWord(2 * word.n, tuple(letters))


def fusion_plat_value(word: BraidWord, k: int) -> tuple[complex, complex]:
    """Plat bracket of ``word`` at level k from braid matrices on the fusion
    basis, with the bracket point A."""
    model = build_su2k(k)
    space = enumerate_fusion_basis(model, word.n)
    alpha = vacuum_pair_state(space)
    vec = alpha
    for letter in word.letters:
        gen = braid_generator(space, abs(letter))
        vec = gen @ vec if letter > 0 else gen.conj().T @ vec
    return complex(np.vdot(alpha, vec)) * model.d ** (word.n // 2 - 1), model.A


def qubit_distances(t: int, coin: str = "H") -> tuple[float, float]:
    """(d_q, d_c) of the level-2 walk evolved on the qubit representation.

    The evolution loop is written here, independent of ``distribution_dense``,
    and keeps each generator sparse so the check adds little memory.
    """
    geom = WalkGeometry.for_steps(t)
    gens: dict[int, sp.csr_matrix] = {}

    def gen(i: int) -> sp.csr_matrix:
        if i not in gens:
            gens[i] = sp.csr_matrix(su22_qubit_generator(geom.n, i))
        return gens[i]

    dim = 2 ** (geom.n // 2 - 1)
    start = np.zeros((2, dim), dtype=complex)
    start[0, 0] = 1.0
    state = {geom.s0: start}
    for _ in range(t):
        new: dict[int, np.ndarray] = {}
        for s, amp in state.items():
            left, right = COINS[coin] @ amp
            for site, slot, vec in ((s - 1, 0, gen(s - 1) @ left), (s + 1, 1, gen(s) @ right)):
                new.setdefault(site, np.zeros((2, dim), dtype=complex))[slot] += vec
        state = new
    positions = tuple(range(-t, t + 1, 2))
    probs = [float(np.sum(np.abs(state[geom.s0 + s]) ** 2)) for s in positions]
    dist = Distribution(positions, probs)
    return distance(dist, baseline_quantum(t, coin)), distance(dist, baseline_classical(t))
