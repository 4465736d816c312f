"""Layer spans and counters recorded from outside the package.

Each public layer function is replaced, for the duration of a traced pass,
by a wrapper installed at the name its caller looks up (for example
``anyonwalk.nonabelian.braid_generator``, which ``distribution_dense``
calls).  Wrappers time the call as a span and read counters from the
arguments, the returned value and ``compose.cache_info()``.  Nothing under
``src/`` is modified; uninstalling restores every original attribute.

Spans nest on a stack.  A span's self time is its duration minus the time
covered by the spans it opened, so the self times of one traced pass sum to
the duration of its root spans.
"""

from __future__ import annotations

import contextlib
import time
from collections import defaultdict

import anyonwalk.abelian as abelian
import anyonwalk.cli as cli
import anyonwalk.distribution as distribution
import anyonwalk.laurent as laurent
import anyonwalk.models as models
import anyonwalk.nonabelian as nonabelian
import anyonwalk.quantum_double as quantum_double
import anyonwalk.tl as tl

# per-layer metrics as (name, unit); BENCHMARK.json lists the same, in order.
# Times and counts are per traced pass.
LAYER_METRICS = [
    ("models.build_s", "s"),
    ("fusion.basis_s", "s"),
    ("fusion.basis_states", "count"),
    ("fusion.generator_s", "s"),
    ("fusion.generator_builds", "count"),
    ("fusion.generator_calls", "count"),
    ("fusion.generator_hit_ratio", "ratio"),
    ("fusion.generator_nnz", "count"),
    ("nonabelian.dense_s", "s"),
    ("nonabelian.evolve_s", "s"),
    ("nonabelian.state_bytes", "B"),
    ("nonabelian.pathsum_s", "s"),
    ("nonabelian.coin_s", "s"),
    ("nonabelian.pairs", "count"),
    ("nonabelian.pairs_nonzero", "count"),
    ("nonabelian.pair_yield", "ratio"),
    ("tl.trace_s", "s"),
    ("tl.trace_calls", "count"),
    ("tl.trace_hit_ratio", "ratio"),
    ("tl.compose_hits", "count"),
    ("tl.compose_misses", "count"),
    ("tl.compose_hit_ratio", "ratio"),
    ("tl.bracket_exact_s", "s"),
    ("laurent.mul_calls", "count"),
    ("laurent.result_terms", "count"),
    ("quantum_double.walk_s", "s"),
    ("quantum_double.trace_words", "count"),
    ("quantum_double.rewrite_steps", "count"),
    ("abelian.asymptotic_s", "s"),
    ("abelian.moments_s", "s"),
    ("abelian.steps", "count"),
    ("abelian.grid_points", "count"),
    ("distribution.baseline_s", "s"),
    ("distribution.distance_s", "s"),
    ("cli.parse_s", "s"),
    ("cli.serialize_s", "s"),
    ("cli.payload_bytes", "B"),
    ("process.cpu_s", "s"),
    ("process.cpu_util", "ratio"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.accounted_ratio", "ratio"),
]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _nnz(mat) -> int:
    return int(mat.nnz) if hasattr(mat, "nnz") else int((mat != 0).sum())


class Tracer:
    """Aggregated span durations and counters over the traced passes of a run."""

    def __init__(self):
        self.total = defaultdict(float)  # inclusive seconds per span name
        self.self_time = defaultdict(float)
        self.calls = defaultdict(int)
        self.count = defaultdict(int)
        self._stack: list[list] = []  # open spans: [name, seconds covered by children]
        self._last_dim = 0

    def span(self, name: str, fn, *args, **kwargs):
        start = time.perf_counter()
        self._stack.append([name, 0.0])
        try:
            return fn(*args, **kwargs)
        finally:
            duration = time.perf_counter() - start
            _, children = self._stack.pop()
            self.total[name] += duration
            self.calls[name] += 1
            self.self_time[name] += duration - children
            if self._stack:
                self._stack[-1][1] += duration

    # -- wrappers -------------------------------------------------------------

    def _timed(self, name: str, after=None):
        def make(orig):
            def wrapper(*args, **kwargs):
                result = self.span(name, orig, *args, **kwargs)
                if after is not None:
                    after(result, *args, **kwargs)
                return result

            return wrapper

        return make

    def _counted(self, key: str):
        def make(orig):
            def wrapper(*args, **kwargs):
                self.count[key] += 1
                return orig(*args, **kwargs)

            return wrapper

        return make

    def _after_basis(self, space, *args, **kwargs):
        self.count["basis_states"] += space.dim
        self._last_dim = space.dim

    def _generator(self, orig):
        def wrapper(space, i):
            built = i not in space._braid_cache
            mat = self.span("fusion.generator", orig, space, i)
            self.count["generator_calls"] += 1
            if built:
                self.count["generator_builds"] += 1
                self.count["generator_nnz"] += _nnz(mat)
            return mat

        return wrapper

    def _after_dense(self, dist, *args, **kwargs):
        state = (dist.meta["n"] + 2) * 2 * self._last_dim * 16
        self.count["state_bytes"] = max(self.count["state_bytes"], state)

    def _after_coin(self, weight, a, ap, *args, **kwargs):
        self.count["pairs"] += 1
        if weight != 0:
            self.count["pairs_nonzero"] += 1
            if a != ap:
                self.count["trace_lookups"] += 1

    def _bracket(self, orig):
        def wrapper(word, at=None):
            if at is not None:
                return orig(word, at)
            value = self.span("tl.bracket_exact", orig, word)
            self.count["result_terms"] += len(value.coeffs)
            return value

        return wrapper

    def _after_rewrite(self, value, *args, **kwargs):
        self.count["trace_words"] += 1
        self.count["rewrite_steps"] += len(value.steps)

    def _after_asymptotic(self, value, phi, initial_spin=None, grid=abelian.DEFAULT_GRID):
        self.count["grid_points"] += grid

    def _after_moments(self, value, phi, t, m, initial_spin=None, grid=abelian.DEFAULT_GRID):
        self.count["grid_points"] += grid
        self.count["steps"] += t

    def _parser(self, orig):
        def wrapper(*args, **kwargs):
            parser = self.span("cli.parse", orig, *args, **kwargs)
            parse_args = parser.parse_args
            parser.parse_args = lambda *a, **kw: self.span("cli.parse", parse_args, *a, **kw)
            return parser

        return wrapper

    def _after_serialize(self, text, *args, **kwargs):
        self.count["payload_bytes"] += len(text.encode())

    def _patches(self):
        timed = self._timed
        return [
            (cli, "main", timed("cli.main")),
            (cli, "build_parser", self._parser),
            (cli.ResultEnvelope, "serialize", timed("cli.serialize", self._after_serialize)),
            (models, "build_su2k", timed("models.build")),
            (quantum_double, "build_dsn", timed("models.build")),
            (nonabelian, "enumerate_fusion_basis", timed("fusion.basis", self._after_basis)),
            (nonabelian, "braid_generator", self._generator),
            (nonabelian, "distribution_dense", timed("nonabelian.dense", self._after_dense)),
            (nonabelian, "distribution_pathsum", timed("nonabelian.pathsum")),
            (nonabelian, "coin_trace", timed("nonabelian.coin", self._after_coin)),
            (nonabelian, "anyon_trace", timed("tl.trace")),
            (tl, "plat_bracket", self._bracket),
            (tl, "markov_bracket", self._bracket),
            (laurent.LaurentPoly, "__mul__", self._counted("mul_calls")),
            (laurent.LaurentPoly, "__rmul__", self._counted("mul_calls")),
            (quantum_double, "double_walk_distribution", timed("quantum_double.walk")),
            (quantum_double, "markov_trace_word", timed("quantum_double.rewrite", self._after_rewrite)),
            (abelian, "variance_surface", timed("abelian.surface")),
            (abelian, "asymptotic_coefficients", timed("abelian.asymptotic", self._after_asymptotic)),
            (abelian, "moments_analytic", timed("abelian.moments", self._after_moments)),
            (abelian, "abelian_step", self._counted("steps")),
            (distribution, "baseline_quantum", timed("distribution.baseline")),
            (distribution, "baseline_classical", timed("distribution.baseline")),
            (distribution, "distance", timed("distribution.distance")),
        ]

    @contextlib.contextmanager
    def installed(self):
        """Wrap every layer function; restore the originals on exit."""
        saved = []
        try:
            for owner, attr, make in self._patches():
                orig = owner.__dict__[attr]
                saved.append((owner, attr, orig))
                setattr(owner, attr, make(orig))
            yield self
        finally:
            for owner, attr, orig in reversed(saved):
                setattr(owner, attr, orig)

    def op(self, fn):
        """Run one operation as a root span, counting compose-cache traffic."""
        before = tl.compose.cache_info()
        try:
            return self.span("op", fn)
        finally:
            after = tl.compose.cache_info()
            self.count["compose_hits"] += after.hits - before.hits
            self.count["compose_misses"] += after.misses - before.misses

    # -- report ---------------------------------------------------------------

    def metrics(self, passes: int, traced_wall: float) -> dict[str, float]:
        """Per-pass layer metrics over ``passes`` traced passes lasting
        ``traced_wall`` seconds in all; ``state_bytes`` is the largest of the run."""
        t, c = self.total, self.count
        per = 1.0 / passes
        return {
            "models.build_s": t["models.build"] * per,
            "fusion.basis_s": t["fusion.basis"] * per,
            "fusion.basis_states": c["basis_states"] * per,
            "fusion.generator_s": t["fusion.generator"] * per,
            "fusion.generator_builds": c["generator_builds"] * per,
            "fusion.generator_calls": c["generator_calls"] * per,
            "fusion.generator_hit_ratio": _ratio(
                c["generator_calls"] - c["generator_builds"], c["generator_calls"]),
            "fusion.generator_nnz": c["generator_nnz"] * per,
            "nonabelian.dense_s": t["nonabelian.dense"] * per,
            "nonabelian.evolve_s": self.self_time["nonabelian.dense"] * per,
            "nonabelian.state_bytes": c["state_bytes"],
            "nonabelian.pathsum_s": t["nonabelian.pathsum"] * per,
            "nonabelian.coin_s": t["nonabelian.coin"] * per,
            "nonabelian.pairs": c["pairs"] * per,
            "nonabelian.pairs_nonzero": c["pairs_nonzero"] * per,
            "nonabelian.pair_yield": _ratio(c["pairs_nonzero"], c["pairs"]),
            "tl.trace_s": t["tl.trace"] * per,
            "tl.trace_calls": self.calls["tl.trace"] * per,
            "tl.trace_hit_ratio": _ratio(
                c["trace_lookups"] - self.calls["tl.trace"], c["trace_lookups"]),
            "tl.compose_hits": c["compose_hits"] * per,
            "tl.compose_misses": c["compose_misses"] * per,
            "tl.compose_hit_ratio": _ratio(
                c["compose_hits"], c["compose_hits"] + c["compose_misses"]),
            "tl.bracket_exact_s": t["tl.bracket_exact"] * per,
            "laurent.mul_calls": c["mul_calls"] * per,
            "laurent.result_terms": c["result_terms"] * per,
            "quantum_double.walk_s": t["quantum_double.walk"] * per,
            "quantum_double.trace_words": c["trace_words"] * per,
            "quantum_double.rewrite_steps": c["rewrite_steps"] * per,
            "abelian.asymptotic_s": t["abelian.asymptotic"] * per,
            "abelian.moments_s": t["abelian.moments"] * per,
            "abelian.steps": c["steps"] * per,
            "abelian.grid_points": c["grid_points"] * per,
            "distribution.baseline_s": t["distribution.baseline"] * per,
            "distribution.distance_s": t["distribution.distance"] * per,
            "cli.parse_s": t["cli.parse"] * per,
            "cli.serialize_s": t["cli.serialize"] * per,
            "cli.payload_bytes": c["payload_bytes"] * per,
            "trace.accounted_ratio": _ratio(sum(self.self_time.values()), traced_wall),
        }
