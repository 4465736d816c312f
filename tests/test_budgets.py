"""Every refusal limit is a module constant that refuses through
``errors.check_budget`` under its own name.  The limits are collected from
the source, so a new one without an input past it here, or a stale entry,
fails."""

import ast
import importlib
import re
import time
from pathlib import Path

import pytest

from anyonwalk import abelian, cli, distribution, models, quantum_double, tl
from anyonwalk.cli import build_parser, dispatch, main
from anyonwalk.errors import BudgetError

_ROOT = Path(__file__).resolve().parents[1]
_LIMIT_NAME = re.compile(r"MAX_\w+|\w+_MAX_\w+|\w+_BUDGET|\w+_CAP")


def collected_limits() -> dict[str, int]:
    """{"module.NAME": value} of every integer module constant named like a limit."""
    limits = {}
    # the package's __init__ only re-exports
    for path in sorted((_ROOT / "src" / "anyonwalk").glob("[!_]*.py")):
        module = importlib.import_module(f"anyonwalk.{path.stem}")
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.Assign):
                targets = node.targets
            else:
                targets = [node.target] if isinstance(node, ast.AnnAssign) else []
            for target in targets:
                if isinstance(target, ast.Name) and _LIMIT_NAME.fullmatch(target.id):
                    value = getattr(module, target.id)
                    if isinstance(value, int):
                        limits[f"{path.stem}.{target.id}"] = value
    return limits


# one input just past each limit, as CLI arguments, and the value the limit is
# patched down to where the real one is slow to reach (None: not patched)
PAST_THE_LIMIT = {
    "distribution.MAX_STEPS": (
        ["baseline", "quantum", "--t", str(distribution.MAX_STEPS + 1)], None),
    "abelian.MAX_SURFACE_STEPS": (
        ["abelian", "variance", "--phi", ",".join(["0.5"] * (abelian.MAX_SURFACE_STEPS + 1)),
         "--t", "1"], None),
    "models.MAX_LEVEL": (["su2k", "dist", "--k", str(models.MAX_LEVEL + 1), "--t", "2"], None),
    "tl.MAX_STRANDS": (
        ["kauffman", "--n", str(tl.MAX_STRANDS + 1), "--word", "1", "--closure", "markov"], None),
    # the expansion of 1 3 5 1 on 8 strands holds 8 diagrams
    "tl.BRACKET_MAX_SUPPORT": (
        ["kauffman", "--n", "8", "--word", "1 3 5 1", "--closure", "markov", "--exact"], 7),
    # at k = 4, t = 13 is the shortest walk whose full space is over the budget
    "fusion.DENSE_STATE_BUDGET": (
        ["su2k", "dist", "--engine", "dense", "--k", "4", "--t", "13"], None),
    # an 8-step walk holds 16 cup diagrams at one site
    "nonabelian.PATHSUM_MAX_SUPPORT": (
        ["su2k", "dist", "--engine", "pathsum", "--k", "3", "--t", "8"], 15),
    "quantum_double.DSN_MAX_T": (
        ["dsn", "dist", "--N", "5", "--t", str(quantum_double.DSN_MAX_T + 1)], None),
    "cli.MAX_INT_LIST": (
        ["abelian", "variance", "--phi", "0", "--t", f"1..{cli.MAX_INT_LIST + 1}"], None),
    # 1 240 050 rows, the fewest over the cap; k = 3 at n = 22 dumps 459 732
    "cli.GENERATOR_ROW_CAP": (["su2k", "generators", "--k", "4", "--n", "22"], None),
}


def test_every_limit_has_an_input_past_it():
    assert set(collected_limits()) == set(PAST_THE_LIMIT)


@pytest.mark.parametrize("name", sorted(PAST_THE_LIMIT))
def test_an_input_past_each_limit_is_refused_by_name(name, monkeypatch, capsys):
    argv, patched = PAST_THE_LIMIT[name]
    module, constant = name.split(".")
    owner = importlib.import_module(f"anyonwalk.{module}")
    if patched is not None:
        monkeypatch.setattr(owner, constant, patched)
    limit = getattr(owner, constant)
    with pytest.raises(BudgetError) as refused:
        dispatch(build_parser().parse_args(argv))
    assert (refused.value.name, refused.value.limit) == (name, limit)
    assert refused.value.used > limit
    start = time.perf_counter()
    assert main(argv) == 2
    assert time.perf_counter() - start < 5.0
    err = capsys.readouterr().err
    assert err == f"error: {refused.value}\n" and len(err) < 200


def test_readme_table_names_every_limit():
    table = (_ROOT / "README.md").read_text().split("| Constant |", 1)[1].split("\n\n", 1)[0]
    named = re.findall(r"^\| `([\w.]+)` \|", table, flags=re.MULTILINE)
    assert sorted(named) == sorted(collected_limits())
