"""Tests of the benchmark itself: every check passes a correct output and
counts a deliberately corrupted one as failed; the tracer restores what it
patches; a run prints the result contract, or refuses without sources.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import anyonwalk.cli as cli  # noqa: E402
import anyonwalk.nonabelian as nonabelian  # noqa: E402
from anyonwalk.laurent import LaurentPoly  # noqa: E402
from anyonwalk.tl import BraidWord, markov_bracket, plat_bracket  # noqa: E402
from tracer import LAYER_METRICS, Tracer  # noqa: E402
from workloads import (  # noqa: E402
    DEEP_T,
    WORKLOADS,
    Checker,
    Op,
    cli_op,
    make_pass,
    markov_as_plat,
    parse_laurent,
)

CHECKER = Checker()


def _replace(output: str, key: str, mutate) -> str:
    doc = json.loads(output)
    doc[key] = mutate(doc[key])
    return json.dumps(doc)


def _bump(values: list, i: int, by: float = 1e-6) -> list:
    values = list(values)
    values[i] += by
    return values


def test_sweep_check_uses_golden_and_qubit_representation():
    ks = [2, 11, 40]
    rows = [[k, *CHECKER.golden["sweep"][str(k)]] for k in ks]
    op = Op("sweep", {"ks": ks})
    good = json.dumps({"rows": rows})
    assert CHECKER.check(op, good) is None
    bad_rows = [list(r) for r in rows]
    bad_rows[1][2] += 1e-6
    assert "golden" in CHECKER.check(op, json.dumps({"rows": bad_rows}))
    # an output that matches a wrong golden entry at k=2 still fails on the qubit side
    wrong = json.loads(json.dumps(CHECKER.golden))
    wrong["sweep"]["2"][0] += 1e-6
    bad_rows = [list(r) for r in rows]
    bad_rows[0][1] += 1e-6
    assert "qubit" in Checker(wrong).check(op, json.dumps({"rows": bad_rows}))


def test_deep_check_against_golden():
    op = Op("deep", {"k": 4, "coin": "U"})
    probs = CHECKER.golden["deep"]["4:U"]
    good = json.dumps({"positions": list(range(-DEEP_T, DEEP_T + 1, 2)), "probs": probs})
    assert CHECKER.check(op, good) is None
    assert CHECKER.check(op, _replace(good, "probs", lambda p: _bump(p, 5))) is not None
    assert CHECKER.check(op, _replace(good, "positions", lambda p: p[::-1])) is not None


def test_pathsum_check_against_dense_engine():
    op = cli_op("pathsum", {"k": 5, "coin": "U", "t": 6}, "su2k", "dist", "--engine", "pathsum",
                "--t", 6, "--k", 5, "--coin", "U")
    good = op.run()
    assert CHECKER.check(op, good) is None
    assert "dense" in CHECKER.check(op, _replace(good, "probs", lambda p: _bump(p, 2)))


@pytest.mark.parametrize("closure", ["plat", "markov"])
@pytest.mark.parametrize("letters", [(1, -2, 3, 1, 2, -1, 3, 3, -2, 1),
                                     (1, 2, -3, 1, 2, 3, -1, 2, 3, 1, -2, 3, 1)])
def test_kauffman_check_counts_a_changed_coefficient(closure, letters):
    params = {"n": 4, "word": letters, "closure": closure}
    op = cli_op("kauffman", params, "kauffman", "--n", 4, "--word", " ".join(map(str, letters)),
                "--closure", closure, "--exact")
    good = op.run()
    assert CHECKER.check(op, good) is None
    poly = json.loads(good)["polynomial"]
    coeffs = parse_laurent(poly)
    e = max(coeffs)
    coeffs[e] += 1
    bad = _replace(good, "polynomial", lambda _: str(LaurentPoly(coeffs)))
    reason = CHECKER.check(op, bad)
    # words of up to 12 letters meet the state sum first; longer ones the fusion product
    assert ("state sum" if len(letters) <= 12 else "fusion") in reason


def test_dsn_check_gate5_golden_and_n_independence():
    for N, t in ((5, 4), (7, 3), (50, 2)):
        op = cli_op("dsn", {"N": N, "t": t}, "dsn", "dist", "--N", N, "--t", t)
        good = op.run()
        assert CHECKER.check(op, good) is None
        bad = _replace(good, "probs_exact", lambda p: ["1/3"] + p[1:])
        assert CHECKER.check(op, bad) is not None


def test_variance_check_counts_a_changed_row():
    params = {"phis": [0.4, 2.0], "ts": (10, 14)}
    op = cli_op("variance", params, "abelian", "variance", "--phi", "0.4,2.0", "--t", "10..14",
                "--analytic")
    good = op.run()
    assert CHECKER.check(op, good) is None
    for col in (2, 3):
        def corrupt(rows, col=col):
            rows[3][col] *= 1.001
            return rows

        assert CHECKER.check(op, _replace(good, "rows", corrupt)) is not None


def test_moments_check():
    op = Op("moments", {"phi": 0.7, "t": 20, "m": 2})
    good = op.run()
    assert CHECKER.check(op, good) is None
    assert CHECKER.check(op, good + 1e-6 * abs(good)) is not None


def test_failed_op_raises_and_malformed_output_fails_its_check():
    with pytest.raises(RuntimeError):
        cli_op("dsn", {"N": 3, "t": 3}, "dsn", "dist", "--N", 3, "--t", 3).run()
    assert CHECKER.check(Op("deep", {"k": 3, "coin": "H"}), "not json") is not None


def test_parse_laurent_round_trip():
    for coeffs in ({}, {0: 3}, {1: -1}, {-4: 2, 0: -1, 7: 1}, {2: -1, -2: -1}):
        assert parse_laurent(str(LaurentPoly(coeffs))) == coeffs


def test_markov_as_plat_matches_trace_closure():
    rng = random.Random(5)
    for _ in range(20):
        n = rng.randint(2, 4)
        word = BraidWord(n, tuple(rng.choice((1, -1)) * rng.randint(1, n - 1) for _ in range(6)))
        assert plat_bracket(markov_as_plat(word)) == markov_bracket(word)


def test_passes_are_drawn_from_the_seed():
    for workload in WORKLOADS:
        first = [op.argv or op.params for op in make_pass(workload, random.Random(9))]
        again = [op.argv or op.params for op in make_pass(workload, random.Random(9))]
        assert first == again


def test_tracer_restores_patches_and_accounts_for_the_op():
    originals = (cli.main, nonabelian.braid_generator, LaurentPoly.__mul__)
    tracer = Tracer()
    op = cli_op("deep", {}, "su2k", "dist", "--engine", "dense", "--t", 6, "--k", 3)
    with tracer.installed():
        op.run(tracer.op)
    assert (cli.main, nonabelian.braid_generator, LaurentPoly.__mul__) == originals
    values = tracer.metrics(1, tracer.total["op"])
    assert values["fusion.generator_calls"] > values["fusion.generator_builds"] > 0
    assert values["nonabelian.dense_s"] > values["nonabelian.evolve_s"] > 0
    assert values["trace.accounted_ratio"] == pytest.approx(1.0)
    assert {name for name, _ in LAYER_METRICS} - set(values) == {
        "process.cpu_s", "process.cpu_util", "trace.overhead_ratio"}


def test_layer_metrics_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == LAYER_METRICS


def test_run_prints_the_result_contract_last():
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "exact", "--seed", "3",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=170, check=True)
    lines = done.stdout.strip().splitlines()
    assert [next(iter(json.loads(line))) for line in lines[:2]] == ["provenance", "report"]
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 38
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        name: value["unit"] for name, value in result["metrics"].items()}


def test_run_refuses_a_directory_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "exact", "--seed", "3",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert done.returncode != 0 and done.stdout == ""


def test_checker_process_answers_each_output():
    import run

    op = Op("moments", {"phi": 0.7, "t": 20, "m": 2})
    good = op.run()
    with run._checker() as check:
        assert check(op, good) is None
        assert check(op, good * 1.001) is not None
        assert check(Op("deep", {"k": 3, "coin": "H"}), "not json") is not None
