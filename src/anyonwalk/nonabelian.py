"""Single-coin anyonic walk: fusion-state and cup-diagram evolution engines.

The walker is one of n identical anyons placed at sites 1..n, created in
nearest-neighbor vacuum pairs (1,2)(3,4)...  Moving left from site p braids
strands (p-1, p), moving right braids (p, p+1), always with the same
handedness, so a left/right record a in {0,1}^t fixes the braid word letter
by letter: step r at site p contributes letter p + a_r - 1 and moves the
walker to p + 2 a_r - 1.

Two engines compute P(s, t):

* ``distribution_dense`` evolves the coin x position x fusion state on the
  reachable sites and on the fusion paths the walk can reach, a few hundred
  paths at t=12 where the full space has up to 10^5.  Each step is a few
  numpy calls: the coin toss and one gather-multiply with the braid table,
  over all sites and both directions at once.  One routine,
  ``_dense_levels``, runs it with a level axis, for one level here and for
  many in ``sweep_distances``.  What no level's weights change (the paths
  the walk reaches at any level, the start vector, the level-independent
  half of the gather table) is a walk plan, built by one level-free
  reachable pass per geometry and reused within a process, at most
  ``PLAN_CACHE_SIZE`` (16) plans.  Truncating the labels at k changes
  nothing once k is at least the highest charge the paths reach (k >= 3 at
  t = 10), so those levels walk the plan itself and share one evolution; a
  lower level walks the plan's view of the paths within its labels, built
  once per plan and level.  A planned walk computes only its loop weights,
  A and the evolution.
* ``distribution_pathsum`` evolves the same walk on planar cup diagrams: each
  site and coin holds coefficients of cup diagrams, a braid letter acts by
  the skein relation b_i = A + A^-1 e_i, and P(s) is the plat-closure
  pairing of the site's diagrams, a Kauffman bracket of the links the
  world-lines trace (Kauffman, "State models and the Jones polynomial",
  Topology 1987).  It counts loops only, with no fusion basis or path
  weights, so it is an independent check on the dense engine.  Which
  diagrams each block holds, where e_i sends each (read off ``tl.skein_act``,
  the skein action the exact brackets use) and the pairing's loop counts
  depend on the geometry alone.  They form a pathsum plan, built once per
  geometry and kept like a walk plan, so a call evolves each level as a few
  numpy calls per step and pairs all sites in one ``einsum``.

Both use the same loop-weight representation conventions, so they agree to
numerical precision, not merely up to phase.  ``coin_trace`` and
``tl.anyon_trace`` give the coin and braid factor of a single path pair; no
engine calls them, and ``HOOKED`` in ``tests/test_reach.py`` says why they stay.
"""

from __future__ import annotations

import functools
import itertools
import threading
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from .distribution import Distribution, coin_matrix, coin_state
from .errors import BoundaryError, DomainError, NumericError, check_budget
from .fusion import (
    TLRows,
    braid_generator,  # noqa: F401  (perfbench's tracer wraps this name)
    braid_weights,
    check_state_budget,
    enumerate_fusion_basis,  # noqa: F401  (perfbench's tracer wraps this name)
    fusion_dimension,
    reachable_fusion_space,
    su22_qubit_generator,
    tl_rows,
    vacuum_pair_state,
)
from .models import AnyonModel
from .tl import (
    BraidWord,
    Matching,
    _catalan,
    _cycle_count,
    MAX_STRANDS,
    anyon_trace,  # noqa: F401  (perfbench's tracer wraps this name)
    skein_act,
)

#: most amplitudes one level-group evolution may hold per array (16 MiB); a
#: group of more levels is evolved in chunks of levels
SWEEP_CHUNK_AMPLITUDES = 2**20

#: cup diagrams one site and coin may hold; a walk needs 16 at t = 8, 68 at
#: t = 12, 128 at t = 13, 144 at t = 14 and 256 at t = 15.  At t = 14,
#: ``su2k dist --engine pathsum --k 4`` takes 0.44-0.60 s in a new process, 0.3 s
#: of it the plan, and 7 ms on a reused plan (2-core VM); the plan's pairing
#: holds the square of each site's diagram union
PATHSUM_MAX_SUPPORT = 144

#: plans kept per process by each engine, the least recently used dropped
#: first; a walk or sweep at one geometry needs one.  A dense walk plan holds
#: the paths of every level: 0.23 MB at most at t <= 12, and its views of levels 2
#: and 3 0.38 MB more.  The largest the state budget admits (t = 20, 6527 paths,
#: level 2 alone admitted) takes 2.5 MB without its unused gather index, and its
#: level-2 view (3328 paths) 6.8 MB, most of it the gather index; the 16 largest
#: (t = 18..20 on 40 and 42 anyons) 85 MB together.  A pathsum plan
#: takes the same size on every layout: 15 KB at t = 8 and 0.58 MB at t = 14,
#: the longest walk its support budget admits, most of it the loop counts
PLAN_CACHE_SIZE = 16


@dataclass(frozen=True)
class WalkGeometry:
    """Site layout: n anyons on sites 1..n, walker starting at s0.

    An odd s0 puts the walker at the head of a vacuum pair; the tabulated
    small-step distributions assume that alignment, but both engines accept
    any start site and always agree with each other.
    """

    n: int
    s0: int

    def __post_init__(self):
        if self.n % 2 or self.n < 4:
            raise DomainError(f"anyon count must be even and >= 4, got {self.n}")
        check_budget("tl.MAX_STRANDS", self.n, MAX_STRANDS, "strand count")
        if not 1 <= self.s0 <= self.n:
            raise DomainError(f"start site {self.s0} outside 1..{self.n}")

    @classmethod
    def for_steps(cls, t: int, n: int | None = None) -> WalkGeometry:
        """Smallest centered boundary-free layout for a t-step walk.

        n is rounded up to 2 mod 4 so the central start site n/2 is odd; a
        caller-supplied n of the other parity gets its start site bumped by
        one to keep the vacuum-pair alignment.
        """
        if t < 1:
            raise DomainError("step count must be >= 1")
        if n is None:
            n = 2 * t + 2
            if n % 4 != 2:
                n += 2
        if n < 2 * t + 2:
            raise DomainError(f"n={n} too small for t={t}; boundary-free walks need n >= 2t+2")
        s0 = n // 2 if (n // 2) % 2 == 1 else n // 2 + 1
        return cls(n, s0)

    def check_steps(self, t: int) -> None:
        # the extreme moves braid strands (s0 - t, s0 - t + 1) and (s0 + t - 1, s0 + t)
        if not (self.s0 - t >= 1 and self.s0 + t <= self.n):
            raise BoundaryError(
                f"a {t}-step walk from site {self.s0} leaves the strand range of n={self.n}"
            )


def path_braid_word(geom: WalkGeometry, bits: tuple[int, ...]) -> BraidWord:
    """Braid word swept out by the left/right record ``bits`` (0 left, 1 right)."""
    p = geom.s0
    letters = []
    for b in bits:
        letter = p + b - 1
        if not 1 <= letter <= geom.n - 1:
            raise BoundaryError(f"path {bits} braids strand {letter} outside 1..{geom.n - 1}")
        letters.append(letter)
        p += 2 * b - 1
    return BraidWord(geom.n, tuple(letters))


def coin_trace(
    a: tuple[int, ...],
    ap: tuple[int, ...],
    coin: str | np.ndarray = "H",
    psi: np.ndarray | None = None,
) -> complex:
    """Coin-space weight of a path pair: c_a * conj(c_ap) if the final coin
    states match, else 0 (kept for ``HOOKED`` in ``tests/test_reach.py``)."""
    if len(a) != len(ap):
        raise DomainError("paths must have equal length")
    c = coin_matrix(coin)
    psi = coin_state(psi)
    if a and ap and a[-1] != ap[-1]:
        return 0j

    def amplitude(bits: tuple[int, ...]) -> complex:
        amp = (c @ psi)[bits[0]]
        for prev, cur in zip(bits, bits[1:]):
            amp *= c[cur, prev]
        return amp

    return amplitude(a) * np.conj(amplitude(ap))


def _loop_pairs(t: int):
    """Yield (a, ap) path pairs with common endpoint and final coin state,
    each unordered pair once with a marker for the diagonal (the D(S_N)
    walk's pair sum)."""
    paths = sorted(itertools.product((0, 1), repeat=t))
    groups: dict[tuple[int, int], list[tuple[int, ...]]] = {}
    for path in paths:
        groups.setdefault((sum(path), path[-1]), []).append(path)
    for group in groups.values():
        for i, a in enumerate(group):
            yield a, a, True
            for ap in group[i + 1 :]:
                yield a, ap, False


@functools.lru_cache(maxsize=PLAN_CACHE_SIZE)
def _pathsum_plan(n: int, s0: int, t: int):
    """What a t-step pathsum walk from s0 on n anyons needs that no level,
    coin or psi changes: (steps, final, loops, support).

    The state after r steps is flat over (site block, coin, cup diagram).
    Step r maps it to the next by ``steps[r]`` = (src, dst, factor): entry e
    adds x[src[e]] times weight ``factor[e]`` to row dst[e], where factor =
    3 (2 out + a) + kind picks the coin entry c[out, a] and the skein weight
    A, A^-1 or d A^-1 (kind 0, 1, 2; the last where e_i closes a loop).
    ``final`` places the last state in the (t + 1, 2, m) layout of each
    site's diagram union padded to m, and ``loops`` (t + 1, m, m) holds the
    loop count of each pair's plat closure, n/2 on the diagonal.

    Each diagram's image under e_i is read off ``skein_act`` itself.  It
    keeps zeros, so the diagrams a block holds do not depend on the
    weights: the plan has the blocks and the largest block, ``support``, of
    the skein evolution at every level.  A block holding more than
    ``PATHSUM_MAX_SUPPORT`` diagrams is refused as it grows.
    """
    vacuum = tuple(p ^ 1 for p in range(n))  # cups (1,2)(3,4)... on points 0..n-1
    # block j after r steps: (coin 0, coin 1) maps from diagram to row, at
    # site s0 - r + 2j
    state = [({vacuum: 0}, {vacuum: 1})]
    steps, support, rows = [], 1, 2  # rows: the length of the flat state
    for r in range(t):
        new = [[{}, {}] for _ in range(r + 2)]
        src, dst, factor = [], [], []
        rows = 0
        for j, s in enumerate(range(s0 - r, s0 + r + 1, 2)):
            coins = state[j]
            for out in (0, 1):
                target = new[j + out][out]  # filled here alone, so its rows are contiguous
                for diag in {**coins[0], **coins[1]}:
                    # with weights 0 and 1 and a loop worth 2, the one nonzero
                    # term is e_i's image and its value is its weight's kind
                    (capped, kind), = ((key, w) for key, w in
                                       skein_act({diag: 1}, s + out - 1, 0, 1, 2).items() if w)
                    for key in (diag, capped):
                        if key not in target:
                            target[key] = rows
                            rows += 1
                    for a in (0, 1):
                        if diag in coins[a]:
                            src += (coins[a][diag],) * 2
                            dst += (target[diag], target[capped])
                            factor += (6 * out + 3 * a, 6 * out + 3 * a + kind)
                check_budget("nonabelian.PATHSUM_MAX_SUPPORT", len(target), PATHSUM_MAX_SUPPORT,
                             "cup-diagram count")
                support = max(support, len(target))
        steps.append((np.array(src, dtype=np.int32), np.array(dst, dtype=np.int32),
                      np.array(factor, dtype=np.int8)))
        state = new
    # each site's diagram union, numbered in order of first appearance at any
    # site, so that a pair's loop count is keyed by ids and shared across sites
    ids: dict[Matching, int] = {}
    unions = [sorted({ids.setdefault(diag, len(ids)) for coin in coins for diag in coin})
              for coins in state]
    diagrams = list(ids)
    m = max(map(len, unions))
    final = np.zeros(rows, dtype=np.int64)
    loops = np.full((t + 1, m, m), n // 2, dtype=np.int8)
    counts: dict[tuple[int, int], int] = {}
    for j, (coins, union) in enumerate(zip(state, unions)):
        for i, diag in enumerate(map(diagrams.__getitem__, union)):
            for a, coin in enumerate(coins):
                if diag in coin:
                    final[coin[diag]] = (2 * j + a) * m + i
        upper = np.triu_indices(len(union), 1)
        pair_loops = []
        for a, b in zip(*(part.tolist() for part in upper)):
            key = (union[a], union[b])
            if key not in counts:
                counts[key] = _cycle_count(diagrams[key[0]], diagrams[key[1]])
            pair_loops.append(counts[key])
        loops[j][upper] = loops[j][upper[::-1]] = pair_loops
    # every caller shares the plan's arrays
    for array in (*itertools.chain(*steps), final, loops):
        array.flags.writeable = False
    return tuple(steps), final, loops, support


def distribution_pathsum(
    model: AnyonModel,
    geom: WalkGeometry | None,
    t: int,
    coin: str | np.ndarray = "H",
    psi: np.ndarray | None = None,
) -> Distribution:
    """Walker distribution by evolving cup-diagram states (Kauffman bracket).

    The state holds, for each reachable site and coin, coefficients of planar
    cup diagrams on the n points, starting from the vacuum pairs
    (1,2)(3,4)... weighted by ``psi``.  Each step tosses the coin and applies
    b_i = A + A^-1 e_i to each block, as a gather-multiply and ``np.bincount``
    over the step map of the geometry's plan (``_pathsum_plan``).  P(s) is
    the sum over the coin of x^dagger G x, with G[D, E] = d^(loops(D u E) -
    n/2) the normalized plat-closure pairing of the site's diagrams, for all
    sites in one ``einsum``: the engine uses loop counts only, no fusion
    basis, path weights or generator matrices.  A plan with a block of more
    than ``PATHSUM_MAX_SUPPORT`` diagrams is refused, cached or not.  The
    meta reports the largest ``diagram_support`` against the
    ``catalan_bound`` on n points, whether the call reused a plan
    (``plan_reused``), and the final ``norm_drift`` |1 - sum P|.
    """
    geom = WalkGeometry.for_steps(t) if geom is None else geom
    geom.check_steps(t)
    n, s0 = geom.n, geom.s0
    A, d = model.A, model.d
    c = coin_matrix(coin)
    psi = coin_state(psi)

    misses = _pathsum_plan.cache_info().misses
    steps, final, loops, support = _pathsum_plan(n, s0, t)
    check_budget("nonabelian.PATHSUM_MAX_SUPPORT", support, PATHSUM_MAX_SUPPORT,
                 "cup-diagram count")
    weights = np.multiply.outer(c.ravel(), [A, 1 / A, d / A]).ravel()  # c[out, a] x kind
    x = psi  # block 0: the vacuum at coin 0 and coin 1
    for src, dst, factor in steps:
        y = x[src] * weights[factor]
        x = np.bincount(dst, y.real) + 1j * np.bincount(dst, y.imag)
    sites, m = loops.shape[:2]
    paired = np.zeros(sites * 2 * m, dtype=complex)
    paired[final] = x
    paired = paired.reshape(sites, 2, m)
    gram = (d ** (np.arange(128.0) - n // 2))[loops]  # d^(loops - n/2), loops < 128
    # no BLAS matrix product: its first call grows the process by about 0.25 MB
    values = np.einsum("jai,jik,jak->j", paired.conj(), gram, paired)
    positions = tuple(range(s0 - t, s0 + t + 1, 2))
    for s, value in zip(positions, values):
        # a sum of squared norms: real and nonnegative
        if abs(value.imag) > 1e-9 or value.real < -1e-9:
            raise NumericError(f"cup-state norm {value} at site {s} is not a nonnegative real")
    probs = values.real.copy()
    return Distribution(
        positions,
        probs,
        {
            "engine": "pathsum",
            "model": model.name,
            "t": t,
            "n": n,
            "s0": s0,
            "coin": coin if isinstance(coin, str) else "custom",
            "diagram_support": support,
            "catalan_bound": _catalan(n // 2),
            "plan_reused": _pathsum_plan.cache_info().misses == misses,
            "norm_drift": abs(1.0 - float(probs.sum())),
        },
    )


def _qubit_rep(model: AnyonModel, n: int, s0: int, t: int):
    """The level-2 walk's start vector and its qubit-form braid table of the
    generators s0 - t .. s0 + t - 1, with a leading axis of one level."""
    if model.k != 2:
        raise DomainError("the qubit representation only exists for su2k:2")
    dim = 2 ** (n // 2 - 1)
    check_state_budget(n, dim)
    alpha = np.zeros(dim, dtype=complex)
    alpha[0] = 1.0
    rows = []
    for i in range(s0 - t, s0 + t):
        gen = su22_qubit_generator(n, i)
        diag = gen.diagonal().copy()
        np.fill_diagonal(gen, 0)
        # every row has at most one off-diagonal entry, as in the fusion basis
        partner = np.where(gen.any(axis=1), (gen != 0).argmax(axis=1), np.arange(dim))
        rows.append((diag, partner, gen[np.arange(dim), partner]))
    diag, partner, off = (np.array(part) for part in zip(*rows))
    return alpha, diag[None], partner, off[None]


def _gather_index(partner: np.ndarray, t: int) -> tuple[np.ndarray, ...]:
    """Each step's gather x[partner] as flat indices into that step's tossed
    rows: step r reads the table rows t - r - 1 .. t + r of the (2t, dim)
    ``partner`` table (see ``_evolve``)."""
    dim = partner.shape[1]
    flat = partner + np.arange(2 * t)[:, None] * dim  # at most 2t * dim < 2^26
    return tuple(
        (flat[t - r - 1 : t + r + 1] - (t - r - 1) * dim).astype(np.int32).ravel()
        for r in range(t)
    )


def _evolve(diag, off, gather, alpha, t: int, c: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """P(s) after t steps for each of a group of levels, as (levels, t + 1).

    The levels share the start vector ``alpha`` and the gather table of
    generators s0 - t .. s0 + t - 1, given as each step's flat ``gather``
    index (``_gather_index``); ``diag`` and ``off`` are (levels, 2t, dim).
    Only the reachable sites are stored: after r steps, block [l, j] is the
    (2, dim) coin x fusion amplitude of level l at site s0 - r + 2j.  Each
    step tosses the coin and applies every level's and site's generator at
    once, as diag * x + off * x[partner].
    """
    levels, _, dim = diag.shape
    state = np.tile(psi[:, None] * alpha[None, :], (levels, 1, 1, 1))
    for r in range(t):
        # row 2j + a of the tossed state, site s = s0 - r + 2j with coin a,
        # goes through generator s + a - 1, table row t - r - 1 + 2j + a, to
        # new site s + 2a - 1: the rows of this step are one slice
        rows = slice(t - r - 1, t + r + 1)
        tossed = np.einsum("ij,lsjd->lsid", c, state).reshape(levels, 2 * r + 2, dim)
        braided = np.take(tossed.reshape(levels, -1), gather[r], axis=1)
        braided = braided.reshape(levels, 2 * r + 2, dim)
        braided *= off[:, rows]
        tossed *= diag[:, rows]
        braided += tossed
        state = np.zeros((levels, r + 2, 2, dim), dtype=complex)
        state[:, :-1, 0] = braided[:, 0::2]
        state[:, 1:, 1] = braided[:, 1::2]
    # |amplitude|^2 summed per level and site, as re^2 + im^2 without a temporary
    parts = state.view(float).reshape(levels, t + 1, -1)
    return np.einsum("lsk,lsk->ls", parts, parts)


def _sizes(full: int, diag: np.ndarray, off: np.ndarray) -> dict:
    """Meta sizes of a walk on a ``full``-dimensional space whose first
    level's table is diag[0], off[0]."""
    return {
        "fusion_dim": full,
        "reachable_dim": diag.shape[2],
        "generators": diag.shape[1],
        "generator_nnz": int(np.count_nonzero(diag[0]) + np.count_nonzero(off[0])),
    }


@dataclass(frozen=True, eq=False)
class _WalkPlan:
    """What a dense t-step walk from s0 needs that no level's loop weights or
    A change: the vacuum start vector ``alpha`` on the paths it reaches at any
    level, each path's ``highest`` charge, the level-independent half
    ``table`` of the generators s0 - t .. s0 + t - 1 and each step's flat
    ``gather`` index; and its ``views`` for lower levels (``at``)."""

    alpha: np.ndarray
    highest: np.ndarray
    table: TLRows
    views: dict[int, _WalkPlan] = field(default_factory=dict, repr=False)

    def __post_init__(self):
        # every caller shares the plan's arrays
        table = self.table
        for array in (self.alpha, self.highest, table.partner, table.fuse, table.found,
                      table.left, table.mid, table.mid_partner):
            array.flags.writeable = False

    @functools.cached_property
    def gather(self) -> tuple[np.ndarray, ...]:
        # built on first use: a plan whose levels all walk views never needs it
        gather = _gather_index(self.table.partner, len(self.table.partner) // 2)
        for array in gather:
            array.flags.writeable = False
        return gather

    @property
    def dim(self) -> int:
        return len(self.alpha)

    @property
    def top(self) -> int:
        """The highest charge the walk's paths reach."""
        return self.table.labels - 1

    def at(self, k: int) -> _WalkPlan:
        """This plan if k >= ``top``, else its view on the paths whose charges
        stay at or below k, built once: every path level k reaches and, at
        t <= 12, no other (``tests/test_fusion.py``), so the view's tables are
        a level-k pass's.  A partner above k leaves it; its row keeps itself."""
        if k >= self.top:
            return self
        if k not in self.views:
            keep = self.highest <= k
            rows = np.flatnonzero(keep)
            table = self.table
            partner = table.partner[:, rows]
            found = table.found[:, rows] & keep[partner]
            renumbered = np.cumsum(keep)[partner] - 1  # each kept partner's row in the view
            partner = np.where(found, renumbered, np.arange(len(rows))).astype(np.int32)
            mid, highest = table.mid[:, rows], self.highest[rows]
            view = TLRows(partner, table.fuse[:, rows], found, table.left[:, rows], mid,
                          np.take_along_axis(mid, partner, axis=1), int(highest.max()) + 1)
            # threads that race build equal views, and all of them read the first stored
            self.views.setdefault(k, _WalkPlan(self.alpha[rows], highest, view))
        return self.views[k]


_plans: OrderedDict[tuple, _WalkPlan] = OrderedDict()
_plans_lock = threading.Lock()
_passes = 0


def reachable_passes() -> int:
    """Reachable passes run so far in this process, one per geometry planned:
    a walk or sweep whose geometry was planned before runs none."""
    return _passes


def _walk_plan(n: int, s0: int, t: int) -> _WalkPlan:
    """The plan of a t-step walk from s0 on n anyons, on the paths it reaches
    at any level (the level-free ``reachable_fusion_space``), reused from an
    earlier call of the same geometry."""
    global _passes
    key = (n, s0, t)
    with _plans_lock:
        plan = _plans.get(key)
        if plan is not None:
            _plans.move_to_end(key)
            return plan
    space = reachable_fusion_space(None, n, s0, t)
    plan = _WalkPlan(vacuum_pair_state(space), space.charges.max(axis=1),
                     tl_rows(space, range(s0 - t, s0 + t)))
    with _plans_lock:
        _passes += 1
        _plans[key] = plan
        if len(_plans) > PLAN_CACHE_SIZE:
            _plans.popitem(last=False)
    return plan


def _dense_levels(models, n: int, s0: int, t: int, c: np.ndarray, psi: np.ndarray):
    """P(s) after t steps from site s0 for each of ``models``, as a map from
    level to row, and the sizes of the highest level's walk.

    After the state budget is checked at the highest level, the geometry's
    plan (``_walk_plan``) gives the paths of every level and their highest
    charge m.  Truncating the labels at k rejects only partners above k, so
    every level k >= m reaches all of them and walks the plan itself, and a
    level below m walks its view (``_WalkPlan.at``).  Each group of levels on
    one plan evolves in one ``_evolve`` call with its own loop weights and A
    per level, in chunks of levels if it would hold more than
    ``SWEEP_CHUNK_AMPLITUDES`` per array.
    """
    models = sorted(models, key=lambda model: model.k, reverse=True)
    # counted in milliseconds, so an oversized walk is refused before the pass
    full = fusion_dimension(models[0], n)
    check_state_budget(n, full)
    plan = _walk_plan(n, s0, t)
    rows, sizes = {}, None
    for level, group in itertools.groupby(models, key=lambda model: min(model.k, plan.top)):
        group, view = list(group), plan.at(level)
        width = max(1, SWEEP_CHUNK_AMPLITUDES // (2 * t * view.dim))
        for i in range(0, len(group), width):
            chunk = group[i : i + width]
            diag, off = braid_weights(view.table, chunk)
            sizes = sizes or _sizes(full, diag, off)
            for model, p in zip(chunk, _evolve(diag, off, view.gather, view.alpha, t, c, psi)):
                rows[model.k] = p
    return rows, sizes


def distribution_dense(
    model: AnyonModel,
    geom: WalkGeometry | None,
    t: int,
    coin: str | np.ndarray = "H",
    psi: np.ndarray | None = None,
    representation: str = "fusion",
) -> Distribution:
    """Walker distribution by dense evolution of coin x position x fusion state.

    The evolution is ``_evolve`` for one level, on the reachable sites only.
    The fusion representation holds only the paths the walk can reach
    (``reachable_fusion_space``), through ``_dense_levels`` with one level;
    the qubit one holds the whole space.  The meta reports both sizes as
    ``fusion_dim`` and ``reachable_dim``, the ``generators`` built and their
    ``generator_nnz``, whether the fusion walk reused the plan of an earlier
    call (``plan_reused``), and the final ``norm_drift`` |1 - sum P|.
    """
    geom = WalkGeometry.for_steps(t) if geom is None else geom
    geom.check_steps(t)
    n, s0 = geom.n, geom.s0
    c = coin_matrix(coin)
    psi = coin_state(psi)
    if representation == "fusion":
        passes = reachable_passes()
        rows, sizes = _dense_levels([model], n, s0, t, c, psi)
        probs = rows[model.k]
        sizes["plan_reused"] = reachable_passes() == passes
    elif representation == "qubit":
        alpha, diag, partner, off = _qubit_rep(model, n, s0, t)
        probs = _evolve(diag, off, _gather_index(partner, t), alpha, t, c, psi)[0]
        sizes = _sizes(len(alpha), diag, off)
    else:
        raise DomainError(f"unknown representation {representation!r}")
    positions = tuple(range(s0 - t, s0 + t + 1, 2))
    return Distribution(
        positions,
        probs,
        {
            "engine": "dense",
            "representation": representation,
            "model": model.name,
            "t": t,
            "n": n,
            "s0": s0,
            "coin": coin if isinstance(coin, str) else "custom",
            **sizes,
            "norm_drift": abs(1.0 - float(probs.sum())),
        },
    )


def walk_distribution(
    model: AnyonModel,
    t: int,
    n: int | None = None,
    engine: str = "auto",
    coin: str | np.ndarray = "H",
    psi: np.ndarray | None = None,
) -> Distribution:
    """Front end choosing the engine: pathsum at small t, dense from t >= 6."""
    geom = WalkGeometry.for_steps(t, n)
    if engine == "auto":
        engine = "dense" if t >= 6 else "pathsum"
    if engine == "dense":
        return distribution_dense(model, geom, t, coin, psi)
    if engine == "pathsum":
        return distribution_pathsum(model, geom, t, coin, psi)
    raise DomainError(f"unknown engine {engine!r}")


def closed_form_distribution(k: int, t: int) -> np.ndarray:
    """Exact small-t distributions of the level-k walk (t <= 4), leftmost first."""
    theta = np.pi / (k + 2)
    if t == 1:
        return np.array([0.5, 0.5])
    if t == 2:
        return np.array([0.25, 0.5, 0.25])
    if t == 3:
        c = np.cos(2 * theta) * np.cos(3 * theta) / np.cos(theta)
        return np.array([1 / 8, 3 / 8 + c / 4, 3 / 8 - c / 4, 1 / 8])
    if t == 4:
        c2, c4, c6 = np.cos(2 * theta), np.cos(4 * theta), np.cos(6 * theta)
        sec2 = 1 / np.cos(theta) ** 2
        return np.array(
            [
                1 / 16,
                (-3 * c2 + 3 * c4 + 5) / 8,
                (3 * c2 - c4 - 3 * c6 + 5) * sec2 / 32,
                (2 * c2 - c4 + 1) * sec2 / 16,
                1 / 16,
            ]
        )
    raise DomainError(f"no closed form tabulated for t={t}")


def sweep_distances(
    ks,
    t: int = 10,
    n: int | None = None,
    coin: str | np.ndarray = "H",
    psi: np.ndarray | None = None,
) -> list[tuple[int, float, float]]:
    """Distances of the level-k walk to the standard quantum and classical
    walks at fixed t, as rows (k, d_q, d_c) in the order of ``ks``.

    The walks are ``_dense_levels`` over the distinct levels, which plans
    the geometry once for every level, or reuses an earlier call's plan, and
    shares one evolution among the levels that walk the same paths.
    """
    from .distribution import baseline_classical, baseline_quantum, distance
    from .models import build_su2k

    geom = WalkGeometry.for_steps(t, n)
    geom.check_steps(t)
    c = coin_matrix(coin)
    psi = coin_state(psi)
    quantum = baseline_quantum(t, coin, psi)
    classical = baseline_classical(t)
    positions = tuple(range(-t, t + 1, 2))
    rows, _ = _dense_levels([build_su2k(k) for k in set(ks)], geom.n, geom.s0, t, c, psi)
    centered = {k: Distribution(positions, p) for k, p in rows.items()}
    return [(k, distance(centered[k], quantum), distance(centered[k], classical)) for k in ks]
