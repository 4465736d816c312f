import json
import math
import os
import shlex
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import anyonwalk.nonabelian as nonabelian
from anyonwalk import cli
from anyonwalk.abelian import MAX_SURFACE_STEPS, variance_surface
from anyonwalk.cli import _parse_floats, build_parser, dispatch, main
from anyonwalk.distribution import MAX_STEPS, Distribution
from anyonwalk.errors import DomainError, NumericError
from anyonwalk.fusion import braid_generator, enumerate_fusion_basis
from anyonwalk.models import MAX_LEVEL, AnyonModel, build_su2k


def run(argv):
    args = build_parser().parse_args(argv)
    return dispatch(args)


def payload_bytes(envelope, fmt):
    # determinism is judged on the payload; metadata carries timings
    if fmt == "json":
        data = json.loads(envelope.serialize("json"))
        data.pop("meta")
        return json.dumps(data, sort_keys=True).encode()
    return envelope.serialize("csv").encode()


def test_su2k_dist_example():
    env = run(["su2k", "dist", "--k", "2", "--t", "3", "--engine", "dense"])
    probs = [row[1] for row in env.payload["rows"]]
    assert np.allclose(probs, [0.125, 0.375, 0.375, 0.125], atol=1e-12)
    positions = [row[0] for row in env.payload["rows"]]
    assert positions == [-3, -1, 1, 3]  # origin shifted to the start site


def test_dsn_dist_example():
    env = run(["dsn", "dist", "--N", "5", "--t", "4"])
    exact = [str(row[2]) for row in env.payload["rows"]]
    assert exact == ["1/16", "31/100", "67/200", "23/100", "1/16"]


def test_kauffman_exact_example():
    env = run(["kauffman", "--n", "2", "--word", "1 1", "--closure", "markov", "--exact"])
    assert env.payload["polynomial"] == "-A^4 - A^-4"


def test_kauffman_numeric_mode():
    env = run(["kauffman", "--n", "2", "--word", "1 1", "--closure", "markov", "--k", "2"])
    value = complex(env.payload["re"], env.payload["im"])
    a = 1j * np.exp(1j * np.pi / 8)
    assert abs(value - (-(a**4) - a**-4)) < 1e-12


def test_abelian_variance_rows():
    env = run(["abelian", "variance", "--phi", "0,pi/2", "--t", "5,10", "--analytic"])
    assert env.payload["columns"] == ["t", "phi", "v_sim", "v_analytic"]
    assert len(env.payload["rows"]) == 4
    for row in env.payload["rows"]:
        assert row[2] > 0 and row[3] != ""


def test_baseline_subcommands():
    env_q = run(["baseline", "quantum", "--t", "3"])
    assert [r[1] for r in env_q.payload["rows"]] == pytest.approx([1 / 8, 5 / 8, 1 / 8, 1 / 8])
    env_c = run(["baseline", "classical", "--t", "2"])
    assert [r[1] for r in env_c.payload["rows"]] == pytest.approx([0.25, 0.5, 0.25])


def test_sweep_rows():
    env = run(["su2k", "sweep", "--k", "2..4", "--t", "4"])
    assert env.payload["columns"] == ["k", "d_q", "d_c"]
    ks = [row[0] for row in env.payload["rows"]]
    assert ks == [2, 3, 4]


@pytest.mark.parametrize("k, n", [(2, 8), (3, 12), (5, 16), (40, 14)])
def test_generator_dump_lists_the_sorted_csr_entries(k, n):
    # the CSR view of each generator is the oracle for the dump's table form
    space = enumerate_fusion_basis(build_su2k(k), n)
    expected = []
    for i in range(1, n):
        coo = braid_generator(space, i).tocoo()
        for r, c, v in sorted(zip(coo.row.tolist(), coo.col.tolist(), coo.data.tolist())):
            expected.append((i, r, c, v.real, v.imag))
    rows = run(["su2k", "generators", "--k", str(k), "--n", str(n)]).payload["rows"]
    assert rows == expected
    assert all(type(x) is int for row in rows for x in row[:3])


def test_generator_dump_has_sparse_triplets():
    env = run(["su2k", "generators", "--k", "2", "--n", "4"])
    assert env.payload["columns"] == ["i", "row", "col", "re", "im"]
    per_generator = {}
    for i, row, col, re, im in env.payload["rows"]:
        per_generator.setdefault(i, []).append((row, col, complex(re, im)))
    assert set(per_generator) == {1, 2, 3}
    for entries in per_generator.values():
        assert len(entries) <= 4  # at most 2 nonzeros per column at dim 2


def test_identical_config_is_byte_identical():
    argv = ["su2k", "dist", "--k", "3", "--t", "4"]
    for fmt in ("csv", "json"):
        first = payload_bytes(run(argv), fmt)
        second = payload_bytes(run(argv), fmt)
        assert first == second


planned_levels = st.sampled_from([*range(2, 9), 40])
planned_calls = st.one_of(
    st.builds(lambda k, t, coin: ["su2k", "dist", "--engine", "dense", "--k", str(k),
                                  "--t", str(t), "--coin", coin],
              planned_levels, st.integers(1, 10), st.sampled_from("HU")),
    st.builds(lambda ks, t, coin: ["su2k", "sweep", "--k", ",".join(map(str, ks)),
                                   "--t", str(t), "--coin", coin],
              st.lists(planned_levels, min_size=1, max_size=4), st.integers(1, 10),
              st.sampled_from("HU")),
    # a pathsum walk in the library, where a coin state can be chosen; n is
    # the default layout, 2t + 4 or 2t + 6, so both parities of n/2 are drawn
    st.builds(lambda k, t, wider, coin, psi: {"k": k, "t": t, "n": wider and 2 * t + wider,
                                              "coin": coin, "psi": psi},
              planned_levels, st.integers(1, 9), st.sampled_from([None, 4, 6]),
              st.sampled_from("HU"), st.sampled_from([None, (0.6, 0.8j), (0.8, -0.6)])),
)


def planned_call(call):
    if isinstance(call, list):
        return run(call)
    walk = nonabelian.walk_distribution(build_su2k(call["k"]), call["t"], n=call["n"],
                                        engine="pathsum", coin=call["coin"], psi=call["psi"])
    return cli._distribution_envelope(walk)


def cold_plan_caches():
    nonabelian._plans.clear()
    nonabelian._pathsum_plan.cache_clear()


@settings(max_examples=40, deadline=None)
@given(calls=st.lists(planned_calls, min_size=1, max_size=8))
def test_a_planned_walk_has_the_payload_of_a_cold_one(calls):
    # the calls run twice in drawn order on one cache, so each may reuse the
    # plans of the ones before it, and every call of the second round does
    cold_plan_caches()
    warm = [payload_bytes(planned_call(call), fmt) for call in calls * 2 for fmt in ("csv", "json")]
    cold = []
    for call in calls:
        cold_plan_caches()
        cold += [payload_bytes(planned_call(call), fmt) for fmt in ("csv", "json")]
    assert warm == cold * 2


def test_plan_reuse_is_reported_in_the_meta_only():
    dist = ["su2k", "dist", "--engine", "dense", "--k", "4", "--t", "12"]
    sweep = ["su2k", "sweep", "--k", "3,5,2,40", "--t", "10"]
    first, second = run(dist), run(dist)
    assert (first.meta["plan_reused"], second.meta["plan_reused"]) == (False, True)
    assert first.payload == second.payload
    pathsum = ["su2k", "dist", "--engine", "pathsum", "--t", "8", "--k"]
    first, second = run([*pathsum, "4"]), run([*pathsum, "5"])
    # another level reuses the plan: a pathsum plan is level-independent
    assert (first.meta["plan_reused"], second.meta["plan_reused"]) == (False, True)
    assert first.payload == run([*pathsum, "4"]).payload
    first, second = run(sweep), run(sweep)
    # levels >= 3 share one pass, level 2 runs its own
    assert (first.meta["reachable_passes"], second.meta["reachable_passes"]) == (2, 0)
    assert first.payload == second.payload


def test_json_round_trip():
    env = run(["dsn", "dist", "--N", "5", "--t", "3"])
    data = json.loads(env.serialize("json"))
    assert data["kind"] == "distribution"
    assert data["positions"] == [-3, -1, 1, 3]
    assert data["probs"] == pytest.approx([0.125, 0.415, 0.335, 0.125])
    assert data["probs_exact"] == ["1/8", "83/200", "67/200", "1/8"]
    reparsed = json.loads(env.serialize("json"))
    reparsed.pop("meta"), data.pop("meta")
    assert reparsed == data


def test_exit_codes(tmp_path, capsys):
    assert main(["su2k", "dist", "--k", "2", "--t", "2"]) == 0
    capsys.readouterr()
    assert main(["su2k", "dist", "--k", "1", "--t", "2"]) == 2  # bad level
    assert main(["nonsense"]) == 1  # usage
    assert main(["dsn", "dist", "--N", "5", "--t", "5"]) == 2  # irreducible word
    capsys.readouterr()


def test_output_file(tmp_path):
    target = tmp_path / "dist.csv"
    assert main(["su2k", "dist", "--k", "2", "--t", "2", "--to", str(target)]) == 0
    text = target.read_text()
    assert text.splitlines()[0] == "s,P"
    assert len(text.splitlines()) == 4


def test_noncentered_layout_warns(capsys):
    assert main(["su2k", "dist", "--k", "2", "--t", "2", "--n", "8"]) == 0
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "n = 2 mod 4" in err[0]


@pytest.mark.parametrize("n", [str(10**12), "7", "8"])
def test_a_refused_layout_prints_no_warning(n, capsys):
    assert main(["su2k", "dist", "--k", "3", "--t", "5", "--n", n]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")


def test_no_command_imports_scipy():
    # a fresh process, so no other test has loaded scipy into it
    commands = [
        ["su2k", "generators", "--k", "3", "--n", "8"],
        ["abelian", "variance", "--phi", "0,pi/3", "--t", "4", "--analytic"],
        ["su2k", "dist", "--k", "3", "--t", "4", "--engine", "dense"],
        ["su2k", "dist", "--k", "3", "--t", "4", "--engine", "pathsum"],
        ["su2k", "sweep", "--k", "2..5", "--t", "4"],
        ["dsn", "dist", "--N", "5", "--t", "3"],
        ["kauffman", "--n", "4", "--word", "1 -2 3", "--closure", "plat", "--exact"],
        ["kauffman", "--n", "3", "--word", "1 -2 1", "--closure", "markov", "--k", "3"],
        ["baseline", "quantum", "--t", "4"],
        ["baseline", "classical", "--t", "4"],
    ]
    script = (
        "import contextlib, io, json, sys\n"
        "from anyonwalk.cli import main\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert main(argv) == 0, argv\n"
        "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))\n"
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run(
        [sys.executable, "-c", script, json.dumps(commands)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"


def test_number_parser_accepts_only_signed_products():
    assert _parse_floats("pi/2, -pi/4,3*pi/4,1e-3") == [math.pi / 2, -math.pi / 4, 3 * math.pi / 4, 1e-3]
    for bad in ("2**2**5", "__import__", "()", "", "1/0", "2pi", "1e999"):
        with pytest.raises(DomainError):
            _parse_floats(bad)
        assert main(["abelian", "variance", "--phi", bad, "--t", "5"]) == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["abelian", "variance", "--phi", "0", "--t", "a"],
        ["abelian", "variance", "--phi", "0", "--t", "1.."],
        ["su2k", "sweep", "--k", "1..2..3", "--t", "2"],
        ["su2k", "sweep", "--k", "4..2", "--t", "2"],
        ["abelian", "variance", "--phi", "0", "--t", "-3"],
        ["abelian", "variance", "--phi", "0", "--t", "0,5"],
        ["abelian", "variance", "--phi", "0", "--t", "1..100000000000"],
        ["abelian", "variance", "--phi", "0", "--t", ",".join(["1..9000"] * 2)],
    ],
)
def test_bad_integer_list_is_a_precondition_failure(argv, capsys):
    start = time.perf_counter()
    assert main(argv) == 2
    assert time.perf_counter() - start < 5.0
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


def test_oversized_fusion_space_refused_before_enumeration(capsys):
    for argv, budget in (
        (["su2k", "dist", "--k", "3", "--t", "40"], "fusion.DENSE_STATE_BUDGET"),
        (["su2k", "generators", "--k", "2", "--n", "200"], "tl.MAX_STRANDS"),
        (["su2k", "generators", "--k", "2", "--n", "42"], "cli.GENERATOR_ROW_CAP"),
    ):
        start = time.perf_counter()
        assert main(argv) == 2
        assert time.perf_counter() - start < 5.0
        err = capsys.readouterr().err
        assert err.startswith("error:") and f" exceeds {budget} = " in err, argv


def test_oversized_sweep_is_refused_before_any_pass(capsys):
    start = time.perf_counter()
    assert main(["su2k", "sweep", "--k", "2..30,40,60,80", "--t", "40"]) == 2
    assert time.perf_counter() - start < 5.0
    err = capsys.readouterr().err
    assert err.startswith("error:") and "fusion.DENSE_STATE_BUDGET" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["su2k", "sweep", "--k", "3000", "--t", "2"],
        ["su2k", "dist", "--k", "3000", "--t", "4"],
        ["su2k", "generators", "--k", "3000", "--n", "4"],
        ["kauffman", "--n", "2", "--word", "1", "--closure", "markov", "--k", "3000"],
    ],
)
def test_a_high_level_reads_no_fusion_tensor(argv, monkeypatch, capsys):
    def refuse(model):
        raise AssertionError("read the fusion tensor")

    monkeypatch.setattr(AnyonModel, "fusion", property(refuse))
    start = time.perf_counter()
    assert main(argv) == 0
    assert time.perf_counter() - start < 1.0
    capsys.readouterr()
    assert main([str(MAX_LEVEL + 1) if arg == "3000" else arg for arg in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1 and "Traceback" not in err
    assert f"exceeds models.MAX_LEVEL = {MAX_LEVEL}" in err


def test_oversized_cup_state_refused_as_it_grows(capsys):
    start = time.perf_counter()
    assert main(["su2k", "dist", "--engine", "pathsum", "--k", "3", "--t", "40"]) == 2
    assert time.perf_counter() - start < 5.0
    err = capsys.readouterr().err
    assert err.startswith("error:") and "nonabelian.PATHSUM_MAX_SUPPORT" in err
    assert "Traceback" not in err


def test_removed_thread_option_is_a_usage_error(monkeypatch, capsys):
    assert main(["su2k", "sweep", "--k", "2", "--threads", "2"]) == 1
    err = capsys.readouterr().err
    assert "--threads" in err and "Traceback" not in err
    # the environment variable that once set the worker count is not read
    monkeypatch.setenv("ANYONWALK_THREADS", "abc")
    assert main(["su2k", "sweep", "--k", "2", "--t", "2"]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize(
    "argv, named",
    [
        (["su2k", "dist", "--k", "3", "--t", "x"], "--t"),
        (["su2k", "dist", "--k", "3", "--t", "3", "--bogus"], "--bogus"),
    ],
)
def test_usage_error_names_the_bad_option(argv, named, capsys):
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: anyonwalk") and "Traceback" not in err
    # argparse's message follows the usage lines
    last = err.splitlines()[-1]
    assert last.startswith("anyonwalk") and ": error: " in last and named in last


def test_unwritable_output_path(tmp_path, capsys):
    target = tmp_path / "missing" / "x.csv"
    assert main(["su2k", "dist", "--k", "2", "--t", "2", "--to", str(target)]) == 2
    assert "cannot write" in capsys.readouterr().err


def test_normalization_drift_is_a_numeric_failure(monkeypatch, capsys):
    with pytest.raises(NumericError):
        Distribution((0, 2), [0.5, 0.6])

    def drifting(*args, **kwargs):
        return Distribution((0,), [0.9])

    monkeypatch.setattr(nonabelian, "walk_distribution", drifting)
    assert main(["su2k", "dist", "--k", "2", "--t", "2"]) == 3
    assert "numeric failure" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, named",
    [
        (["kauffman", "--n", "4", "--word", "1 x", "--closure", "markov"], "'x'"),
        (["kauffman", "--n", "4", "--word", "1 2.5", "--closure", "plat", "--exact"], "'2.5'"),
        (["kauffman", "--n", "0", "--word", "", "--closure", "markov", "--exact"], "n=0"),
        (["kauffman", "--n", "-2", "--word", "", "--closure", "plat", "--exact"], "n=-2"),
        (["kauffman", "--n", "0", "--word", "", "--closure", "markov", "--k", "3"], "n=0"),
        (
            ["kauffman", "--n", "40", "--word", " ".join(map(str, range(1, 31))),
             "--closure", "markov", "--exact"],
            "tl.BRACKET_MAX_SUPPORT",
        ),
    ],
)
def test_bad_kauffman_input_is_a_precondition_failure(argv, named, capsys):
    start = time.perf_counter()
    assert main(argv) == 2
    assert time.perf_counter() - start < 5.0
    err = capsys.readouterr().err
    assert err.startswith("error:") and named in err and "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["su2k", "dist", "--engine", "dense", "--k", "3", "--t", "2", "--n", "20002"],
        ["su2k", "generators", "--k", "3", "--n", "20002"],
        ["dsn", "dist", "--N", "5", "--t", "20"],
        ["dsn", "dist", "--N", "5", "--t", "40"],
        # a list past the cap is not echoed back
        ["su2k", "sweep", "--k", ",".join(map(str, range(1, 10_002))), "--t", "2"],
        ["abelian", "variance", "--phi", "0", "--t", ",".join(map(str, range(1, 10_002)))],
    ],
)
def test_oversized_walk_is_refused_before_allocating(argv, capsys):
    start = time.perf_counter()
    assert main(argv) == 2
    assert time.perf_counter() - start < 2.0
    err = capsys.readouterr().err
    assert "Traceback" not in err
    # one short line, naming no huge integer
    assert err.startswith("error:") and len(err) < 200


@pytest.mark.parametrize(
    "argv",
    [
        ["abelian", "variance", "--phi", "0", "--t", "100000000"],
        ["baseline", "classical", "--t", "100000000"],
        ["baseline", "quantum", "--t", "100000000"],
        ["baseline", "quantum", "--t", str(MAX_STEPS + 1)],
    ],
)
def test_overlong_position_walk_is_refused_before_stepping(argv, capsys):
    start = time.perf_counter()
    assert main(argv) == 2
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert err.startswith("error:") and "distribution.MAX_STEPS" in err and "Traceback" not in err


def test_longest_position_walk_runs():
    env = run(["baseline", "quantum", "--t", str(MAX_STEPS)])
    assert len(env.payload["rows"]) == MAX_STEPS + 1


def test_each_parser_is_its_own_object():
    first, second = build_parser(), build_parser()
    assert first is not second
    first.parse_args = lambda *args, **kwargs: None
    assert "parse_args" not in vars(build_parser())
    assert build_parser().parse_args(["dsn", "dist", "--N", "5", "--t", "2"]).N == 5


def test_parser_state_does_not_leak_between_calls(capsys):
    argv = ["dsn", "dist", "--N", "6", "--t", "3"]
    assert main(["dsn", "dist", "--N", "five", "--t", "3"]) == 1
    assert main(["--version"]) == 0
    capsys.readouterr()
    assert main(argv) == 0
    reused = capsys.readouterr().out.encode()
    cli._parser_tree.cache_clear()
    assert main(argv) == 0
    assert capsys.readouterr().out.encode() == reused


@pytest.mark.parametrize(
    "phis,ts",
    [
        (",".join(["0.5"] * (MAX_SURFACE_STEPS + 1)), "1"),
        ("0,1", f"1..{MAX_STEPS}"),
        (",".join(["0.5"] * 100), f"1..{MAX_STEPS}"),
        (",".join(["0.5"] * 20_000), "1"),
    ],
)
def test_oversized_variance_surface_is_refused_before_stepping(phis, ts, capsys):
    start = time.perf_counter()
    assert main(["abelian", "variance", "--phi", phis, "--t", ts, "--analytic"]) == 2
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert err.startswith("error:") and "abelian.MAX_SURFACE_STEPS" in err
    assert "Traceback" not in err


def test_surface_at_the_step_limit_runs():
    rows = variance_surface([0.1 * i for i in range(MAX_SURFACE_STEPS // 4)], [2, 4])
    assert len(rows) == MAX_SURFACE_STEPS // 2


def readme_command_lines() -> list[str]:
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    return [line for line in block.splitlines() if line.startswith("anyonwalk ")]


def test_readme_lists_the_headline_sweep():
    assert "anyonwalk su2k sweep --k 2..30,40,60,80 --t 10" in readme_command_lines()


@pytest.mark.parametrize("line", readme_command_lines())
def test_readme_command_line_runs(line, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    argv = shlex.split(line)[1:]
    assert main(argv) == 0, capsys.readouterr().err
    if "--to" in argv:
        assert (tmp_path / argv[argv.index("--to") + 1]).stat().st_size > 0


@pytest.mark.parametrize(
    "argv",
    [
        ["su2k", "dist", "--k", "3", "--t", "5", "--n", str(10**12)],
        ["kauffman", "--n", str(10**12), "--word", "1 -2", "--closure", "markov"],
    ],
)
def test_a_huge_strand_count_is_refused_at_once(argv, capsys):
    start = time.perf_counter()
    assert main(argv) == 2
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert [line for line in err.splitlines() if line.startswith("error:")] == [
        f"error: strand count {10**12} exceeds tl.MAX_STRANDS = 128"
    ]
    assert "Traceback" not in err


def test_a_sweep_over_the_highest_levels_is_fast(capsys):
    # a model is O(1) at any level, and the levels share one evolution
    start = time.perf_counter()
    assert main(["su2k", "sweep", "--k", "9901..10000", "--t", "10"]) == 0
    assert time.perf_counter() - start < 0.5
    rows = capsys.readouterr().out.splitlines()[1:]
    assert [int(row.split(",")[0]) for row in rows] == list(range(9901, 10001))


DIGITS = "9" * 5000


@pytest.mark.parametrize(
    "argv",
    [
        ["abelian", "variance", "--phi", "0", "--t", f"1..{DIGITS}"],
        ["su2k", "sweep", "--k", f"2,{DIGITS}", "--t", "3"],
        ["kauffman", "--n", "4", "--word", f"1 {DIGITS}", "--closure", "plat"],
    ],
)
def test_an_integer_past_int_s_digit_limit_is_refused(argv, capsys):
    # int() raises past 4300 digits; the grammar refuses far earlier
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith("error:") and err.count("\n") == 1 and len(err) <= 201


HUGE = "x" * 50_000


@pytest.mark.parametrize(
    "argv, code",
    [
        (["su2k", "sweep", "--k", HUGE], 2),
        (["abelian", "variance", "--phi", HUGE, "--t", "3"], 2),
        (["kauffman", "--n", "4", "--word", f"1 {HUGE}", "--closure", "plat"], 2),
        (["su2k", "dist", "--k", "3", "--t", "3", "--engine", HUGE], 1),
        (["su2k", "dist", "--k", "3", "--t", "3", HUGE], 1),
        ([HUGE], 1),
        (["su2k", "dist", "--k", HUGE, "--t", "3"], 1),
        (["su2k", "dist", "--k", "3", "--t", "3", "--to", HUGE], 2),
    ],
)
def test_a_huge_token_gives_short_error_lines(argv, code, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err and "error:" in err
    assert max(map(len, err.splitlines())) <= 200
    assert "..." in err  # the line was cut, not dropped


@pytest.mark.parametrize("token", ["1_0", "\uff13", "1" * 19])
def test_one_integer_grammar_for_options_lists_and_letters(token, capsys):
    assert main(["su2k", "dist", "--k", token, "--t", "3"]) == 1
    assert f"invalid integer value: {token!r}" in capsys.readouterr().err
    assert main(["su2k", "sweep", "--k", token, "--t", "3"]) == 2
    assert capsys.readouterr().err == f"error: cannot parse integer or a..b range {token!r}\n"
    assert main(["su2k", "sweep", "--k", f"2..{token}", "--t", "3"]) == 2
    capsys.readouterr()
    assert main(["kauffman", "--n", "4", "--word", f"1 {token}", "--closure", "plat"]) == 2
    assert capsys.readouterr().err == f"error: cannot parse braid letter {token!r}\n"


def test_an_eighteen_digit_level_reaches_the_level_limit(capsys):
    level = "9" * 18
    for argv in (["su2k", "dist", "--k", level, "--t", "3"], ["su2k", "sweep", "--k", level]):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err == f"error: level {level} exceeds models.MAX_LEVEL = {MAX_LEVEL}\n"


_STUCK_AT = {5: "b6^2 b7^2 b6^-2 b7^-2", 6: "b6^-2 b5^2 b6^2 b5^-2", 7: "b7^-2 b6^2 b7^2 b6^-2"}


@pytest.mark.parametrize("t", range(5, 13))
def test_a_stuck_dsn_walk_names_the_word_on_one_short_line(t, capsys):
    # the walk's plan rewrites each new word as it appears, so the refusal
    # names the first stuck word and comes early; fastest of three runs
    times = []
    for _ in range(3):
        start = time.perf_counter()
        assert main(["dsn", "dist", "--N", "5", "--t", str(t)]) == 2
        times.append(time.perf_counter() - start)
        word = _STUCK_AT[t if t < 6 else 6 + t % 2]
        assert capsys.readouterr().err == (
            f"error: t={t} walk: word not reducible to canonical form; stuck at {word}\n")
    assert min(times) < 0.1
