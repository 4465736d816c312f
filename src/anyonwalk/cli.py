"""Command-line front end: distributions, variance surfaces, sweeps, brackets.

Subcommands
-----------
* ``abelian variance``  variance of the four-state-coin walk over grids
* ``su2k dist``         level-k walk distribution (dense or pathsum engine)
* ``su2k sweep``        distances to the quantum/classical walks over k
* ``su2k generators``   braid matrices as sparse CSV triplets
* ``dsn dist``          quantum-double walk distribution (exact rationals)
* ``kauffman``          plat/trace bracket of a braid word (exact or numeric)
* ``baseline``          standard quantum or classical walk

Positions in all outputs are shifted so the walker starts at 0.  Identical
configurations produce byte-identical payloads; timing lives only in the
metadata.  Exit codes: 1 usage, 2 violated precondition, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import copy
import functools
import io
import json
import math
import re
import sys
import time
from fractions import Fraction

import numpy as np

from . import __version__
from .errors import DomainError, NumericError, check_budget


def _fmt(x) -> str:
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}"
    if isinstance(x, float):
        return repr(x)
    return str(x)


class ResultEnvelope:
    """Payload rows plus run metadata; serializes to CSV or JSON."""

    def __init__(self, kind: str, payload: dict, meta: dict):
        self.kind = kind
        self.payload = payload
        self.meta = meta

    def to_json(self) -> str:
        def default(obj):
            if isinstance(obj, Fraction):
                return f"{obj.numerator}/{obj.denominator}"
            if isinstance(obj, (np.floating, np.integer)):
                return obj.item()
            raise TypeError(f"cannot serialize {type(obj)}")

        return json.dumps(
            {"kind": self.kind, **self.payload, "meta": self.meta},
            default=default,
            sort_keys=True,
            indent=2,
        )

    def to_csv(self) -> str:
        header = self.payload["columns"]
        out = io.StringIO()
        out.write(",".join(header) + "\n")
        for row in self.payload["rows"]:
            out.write(",".join(_fmt(x) for x in row) + "\n")
        return out.getvalue()

    def serialize(self, fmt: str) -> str:
        if fmt == "json":
            return self.to_json()
        if fmt == "csv":
            return self.to_csv()
        raise DomainError(f"unknown output format {fmt!r}")


def _tabular(kind: str, columns: list[str], rows: list[tuple], meta: dict) -> ResultEnvelope:
    return ResultEnvelope(kind, {"columns": columns, "rows": rows}, meta)


def _distribution_envelope(dist, meta_extra: dict | None = None) -> ResultEnvelope:
    centered = dist.shifted(dist.meta.get("s0", 0))
    meta = {"tool_version": __version__, **centered.meta, **(meta_extra or {})}
    payload = {
        "positions": list(centered.positions),
        "probs": [float(p) for p in centered.probs],
    }
    if centered.exact is not None:
        payload["probs_exact"] = list(centered.exact)
        payload["columns"] = ["s", "P", "P_exact"]
        payload["rows"] = [
            (s, float(p), x)
            for s, p, x in zip(centered.positions, centered.probs, centered.exact)
        ]
    else:
        payload["columns"] = ["s", "P"]
        payload["rows"] = [(s, float(p)) for s, p in zip(centered.positions, centered.probs)]
    return ResultEnvelope("distribution", payload, meta)


# a number is signed factors, each a decimal or pi, joined by * and /
_TOKENS = re.compile(r"(?P<num>(?:\d+\.?\d*|\.\d+)(?:e[+-]?\d+)?)|(?P<pi>pi)|(?P<op>\S)")


def _parse_float(text: str) -> float:
    value, op, sign, want_factor = 1.0, "*", 1.0, True
    for m in _TOKENS.finditer(text):
        tok = m.group()
        if want_factor and tok in ("+", "-"):
            sign = -sign if tok == "-" else sign
        elif want_factor and m.lastgroup != "op":
            x = sign * (math.pi if tok == "pi" else float(tok))
            if op == "/" and x == 0:
                break
            value = value * x if op == "*" else value / x
            sign, want_factor = 1.0, False
        elif not want_factor and tok in ("*", "/"):
            op, want_factor = tok, True
        else:
            break
    else:
        if not want_factor and math.isfinite(value):
            return value
    raise DomainError(f"cannot parse number {text.strip()!r}")


def _parse_floats(text: str) -> list[float]:
    return [_parse_float(part) for part in text.split(",")]


#: most integers one comma list may expand to; a wider a..b range is refused unbuilt.
#: A sweep over 9999 levels at t = 10 takes 7.0 s (2-core VM).
MAX_INT_LIST = 10_000
#: most CSV rows ``su2k generators`` may emit (k = 2, n = 30: 950 272 at most, 5.9-6.7 s, 2-core VM)
GENERATOR_ROW_CAP = 2**20
_LETTER = re.compile(r"[+-]?[0-9]+")
_INT_ITEM = re.compile(r"\s*([+-]?[0-9]+)\s*(?:\.\.\s*([+-]?[0-9]+)\s*)?")


def _parse_ints(text: str) -> list[int]:
    values: list[int] = []
    for part in text.split(","):
        m = _INT_ITEM.fullmatch(part)
        if m is None:
            raise DomainError(f"cannot parse integer or a..b range {part.strip()!r}")
        lo = int(m[1])
        hi = lo if m[2] is None else int(m[2])
        if hi < lo:
            raise DomainError(f"empty range {part.strip()!r}")
        check_budget("cli.MAX_INT_LIST", len(values) + hi - lo + 1, MAX_INT_LIST, "list length")
        values.extend(range(lo, hi + 1))
    return values


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)  # usage errors exit 1


def build_parser() -> argparse.ArgumentParser:
    """The CLI parser: a shallow copy of a tree built once per process, so an
    attribute set on it stays on it (arguments added to it would not)."""
    return copy.copy(_parser_tree())


@functools.cache
def _parser_tree() -> argparse.ArgumentParser:
    parser = _Parser(prog="anyonwalk", description=__doc__.split("\n")[0])
    parser.add_argument("--version", action="version", version=f"anyonwalk {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", choices=("csv", "json"), default="csv", help="output format")
        p.add_argument("--to", metavar="PATH", default=None, help="write to file instead of stdout")

    ab = sub.add_parser("abelian", help="four-state-coin walk")
    absub = ab.add_subparsers(dest="subcommand", required=True)
    abv = absub.add_parser("variance", help="variance over (t, phi) grids")
    abv.add_argument("--phi", required=True, help="comma list of angles; 'pi' allowed")
    abv.add_argument("--t", required=True, help="comma list of step counts or a..b")
    abv.add_argument("--analytic", action="store_true", help="add the long-time sheet")
    common(abv)

    su = sub.add_parser("su2k", help="level-k anyonic walk")
    susub = su.add_subparsers(dest="subcommand", required=True)
    sud = susub.add_parser("dist", help="walker distribution")
    sud.add_argument("--k", type=int, required=True)
    sud.add_argument("--t", type=int, required=True)
    sud.add_argument("--n", type=int, default=None, help="anyon count (default: minimal)")
    sud.add_argument("--engine", choices=("auto", "dense", "pathsum"), default="auto")
    sud.add_argument("--coin", choices=("H", "U"), default="H")
    common(sud)
    sus = susub.add_parser("sweep", help="distances to quantum/classical walks over k")
    sus.add_argument("--k", required=True, help="comma list or a..b of levels")
    sus.add_argument("--t", type=int, default=10)
    sus.add_argument("--coin", choices=("H", "U"), default="H")
    common(sus)
    sug = susub.add_parser("generators", help="dump braid matrices as CSV triplets")
    sug.add_argument("--k", type=int, required=True)
    sug.add_argument("--n", type=int, required=True)
    common(sug)

    ds = sub.add_parser("dsn", help="quantum-double walk")
    dssub = ds.add_subparsers(dest="subcommand", required=True)
    dsd = dssub.add_parser("dist", help="walker distribution (exact rationals)")
    dsd.add_argument("--N", type=int, required=True)
    dsd.add_argument("--t", type=int, required=True)
    dsd.add_argument("--coin", choices=("U", "H"), default="U")
    common(dsd)

    ka = sub.add_parser("kauffman", help="bracket of a braid word closure")
    ka.add_argument("--n", type=int, required=True, help="strand count")
    ka.add_argument("--word", required=True, help="space-separated signed letters, e.g. '1 -2 1'")
    ka.add_argument("--closure", choices=("plat", "markov"), required=True)
    group = ka.add_mutually_exclusive_group()
    group.add_argument("--k", type=int, default=None, help="evaluate at the level-k point")
    group.add_argument("--exact", action="store_true", help="exact Laurent polynomial")
    common(ka)

    ba = sub.add_parser("baseline", help="standard reference walks")
    basub = ba.add_subparsers(dest="subcommand", required=True)
    baq = basub.add_parser("quantum", help="two-state coined walk")
    baq.add_argument("--t", type=int, required=True)
    baq.add_argument("--coin", choices=("H", "U"), default="H")
    common(baq)
    bac = basub.add_parser("classical", help="binomial random walk")
    bac.add_argument("--t", type=int, required=True)
    common(bac)
    return parser


def _run_abelian(args) -> ResultEnvelope:
    from .abelian import variance_surface

    rows = variance_surface(_parse_floats(args.phi), _parse_ints(args.t), analytic=args.analytic)
    out_rows = [
        (t, phi, v, va if va is not None else "")
        for t, phi, v, va in rows
    ]
    return _tabular(
        "variance-surface",
        ["t", "phi", "v_sim", "v_analytic"],
        out_rows,
        {"tool_version": __version__, "analytic": args.analytic},
    )


def _run_su2k(args) -> ResultEnvelope:
    from .models import build_su2k
    from .nonabelian import reachable_passes, sweep_distances, walk_distribution

    if args.subcommand == "dist":
        dist = walk_distribution(
            build_su2k(args.k), args.t, n=args.n, engine=args.engine, coin=args.coin
        )
        if args.n is not None and args.n % 4 != 2:  # warned only once the layout is accepted
            print(
                f"warning: n={args.n} has n/2 even; centered vacuum pairing needs n = 2 mod 4",
                file=sys.stderr,
            )
        return _distribution_envelope(dist)
    if args.subcommand == "sweep":
        passes = reachable_passes()
        rows = sweep_distances(_parse_ints(args.k), t=args.t, coin=args.coin)
        return _tabular(
            "distance-sweep",
            ["k", "d_q", "d_c"],
            rows,
            {"tool_version": __version__, "t": args.t, "coin": args.coin,
             "reachable_passes": reachable_passes() - passes},
        )
    # generators
    from .fusion import braid_generator, enumerate_fusion_basis, fusion_dimension

    model = build_su2k(args.k)
    dim = fusion_dimension(model, args.n)
    # each of the n - 1 generators has at most two nonzeros per column
    check_budget("cli.GENERATOR_ROW_CAP", (args.n - 1) * 2 * dim, GENERATOR_ROW_CAP, "row count")
    space = enumerate_fusion_basis(model, args.n)
    rows = []
    for i in range(1, args.n):
        coo = braid_generator(space, i).tocoo()
        for r, c, v in sorted(zip(coo.row.tolist(), coo.col.tolist(), coo.data.tolist())):
            rows.append((i, r, c, v.real, v.imag))
    return _tabular(
        "braid-generators",
        ["i", "row", "col", "re", "im"],
        rows,
        {"tool_version": __version__, "k": args.k, "n": args.n, "dim": space.dim},
    )


def _run_dsn(args) -> ResultEnvelope:
    from .quantum_double import double_walk_distribution

    dist = double_walk_distribution(args.N, args.t, coin=args.coin)
    return _distribution_envelope(dist)


def _run_kauffman(args) -> ResultEnvelope:
    from .models import build_su2k
    from .tl import BraidWord, markov_bracket, plat_bracket

    letters = []
    for token in args.word.split():
        if not _LETTER.fullmatch(token):
            raise DomainError(f"cannot parse braid letter {token!r}")
        letters.append(int(token))
    word = BraidWord(args.n, tuple(letters))
    bracket = plat_bracket if args.closure == "plat" else markov_bracket
    meta = {
        "tool_version": __version__,
        "n": args.n,
        "word": args.word,
        "closure": args.closure,
    }
    if args.exact or args.k is None:
        value = bracket(word)
        return ResultEnvelope(
            "bracket",
            {"columns": ["polynomial"], "rows": [(str(value),)], "polynomial": str(value)},
            {**meta, "mode": "exact"},
        )
    value = bracket(word, at=build_su2k(args.k).A)
    return ResultEnvelope(
        "bracket",
        {"columns": ["re", "im"], "rows": [(value.real, value.imag)],
         "re": value.real, "im": value.imag},
        {**meta, "mode": f"numeric@k={args.k}"},
    )


def _run_baseline(args) -> ResultEnvelope:
    from .distribution import baseline_classical, baseline_quantum

    if args.subcommand == "quantum":
        return _distribution_envelope(baseline_quantum(args.t, coin=args.coin))
    return _distribution_envelope(baseline_classical(args.t))


_RUNNERS = {
    "abelian": _run_abelian,
    "su2k": _run_su2k,
    "dsn": _run_dsn,
    "kauffman": _run_kauffman,
    "baseline": _run_baseline,
}


def dispatch(args: argparse.Namespace) -> ResultEnvelope:
    start = time.perf_counter()
    envelope = _RUNNERS[args.command](args)
    envelope.meta["wall_ms"] = round(1000 * (time.perf_counter() - start), 3)
    return envelope


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    try:
        envelope = dispatch(args)
        text = envelope.serialize(args.out)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    if args.to:
        try:
            with open(args.to, "w") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"error: cannot write {args.to}: {exc.strerror}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
