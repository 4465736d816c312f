import itertools
import random
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import anyonwalk.nonabelian as nonabelian
from anyonwalk.distribution import baseline_classical, baseline_quantum, distance
from anyonwalk.errors import BoundaryError, DomainError, NumericError
from anyonwalk.fusion import (
    braid_generator,
    enumerate_fusion_basis,
    fusion_dimension,
    reachable_fusion_space,
    su22_qubit_generator,
    tl_rows,
)
from anyonwalk.models import AnyonModel, build_su2k
from anyonwalk.nonabelian import (
    WalkGeometry,
    closed_form_distribution,
    coin_trace,
    distribution_dense,
    distribution_pathsum,
    path_braid_word,
    walk_distribution,
)


def test_geometry_defaults_are_centered_and_boundary_free():
    for t in range(1, 8):
        geom = WalkGeometry.for_steps(t)
        assert geom.n % 4 == 2 and geom.n >= 2 * t + 2
        assert geom.s0 == geom.n // 2 and geom.s0 % 2 == 1
        geom.check_steps(t)
    assert WalkGeometry.for_steps(3).n == 10  # bumped past the minimal even count
    assert WalkGeometry.for_steps(2).n == 6


def test_geometry_validation():
    with pytest.raises(DomainError):
        WalkGeometry(9, 5)  # odd anyon count
    with pytest.raises(DomainError):
        WalkGeometry(10, 11)  # start site out of range
    with pytest.raises(DomainError):
        WalkGeometry.for_steps(3, n=6)  # too small for t = 3
    with pytest.raises(BoundaryError):
        WalkGeometry(6, 3).check_steps(4)


def test_engines_agree_even_at_misaligned_start_site():
    # an even start site walks a different link set; the engines still match
    model = build_su2k(3)
    geom = WalkGeometry(12, 6)
    dp = distribution_pathsum(model, geom, 4)
    dd = distribution_dense(model, geom, 4)
    assert np.max(np.abs(dp.probs - dd.probs)) < 1e-10
    # and the result genuinely differs from the pair-aligned closed form
    assert np.max(np.abs(dp.probs - closed_form_distribution(3, 4))) > 1e-3


def test_path_braid_words():
    geom10 = WalkGeometry(10, 5)
    assert path_braid_word(geom10, (0, 1, 1)).letters == (4, 4, 5)
    geom6 = WalkGeometry(6, 3)
    assert path_braid_word(geom6, (1, 1)).letters == (3, 4)
    for bits in itertools.product((0, 1), repeat=4):
        word = path_braid_word(WalkGeometry.for_steps(4), bits)
        assert len(word.letters) == 4
        assert all(l > 0 for l in word.letters)


def test_path_leaving_range_raises():
    with pytest.raises(BoundaryError):
        path_braid_word(WalkGeometry(6, 5), (1, 1, 1))


def test_coin_trace_values():
    assert abs(coin_trace((0, 0), (0, 0)) - 0.25) < 1e-14
    assert abs(coin_trace((0,), (0,)) - 0.5) < 1e-14
    assert abs(coin_trace((0, 1, 1), (1, 0, 1)) - (-0.125)) < 1e-14
    assert coin_trace((0, 1), (1, 0)) == 0  # final coin states differ


def test_coin_trace_hadamard_sign_rule():
    # against the closed form (-1)^z / 2^t with z counting 11 transitions
    def sign_rule(bits):
        z = sum(1 for a, b in zip((0,) + bits, bits) if a == b == 1)
        return (-1) ** z / 2 ** len(bits)

    for t in (2, 3, 4):
        for a in itertools.product((0, 1), repeat=t):
            for b in itertools.product((0, 1), repeat=t):
                if a[-1] != b[-1]:
                    continue
                expected = sign_rule(a) * sign_rule(b) * 2 ** t
                assert abs(coin_trace(a, b) - expected) < 1e-12


@pytest.mark.parametrize("engine", [distribution_pathsum, distribution_dense])
@pytest.mark.parametrize("k", [2, 3, 6])
def test_small_step_closed_forms(engine, k):
    model = build_su2k(k)
    for t in (1, 2, 3, 4):
        dist = engine(model, None, t)
        assert np.max(np.abs(dist.probs - closed_form_distribution(k, t))) < 1e-10
        assert abs(dist.probs.sum() - 1.0) < 1e-12


def test_level_two_three_steps_is_flat_interior():
    dist = walk_distribution(build_su2k(2), 3)
    assert np.allclose(dist.probs, [1 / 8, 3 / 8, 3 / 8, 1 / 8], atol=1e-12)


@pytest.mark.parametrize("k", [2, 4])
@pytest.mark.parametrize("coin", ["H", "U"])
def test_engines_agree(k, coin):
    model = build_su2k(k)
    for t in (2, 3, 4):
        dp = distribution_pathsum(model, None, t, coin=coin)
        dd = distribution_dense(model, None, t, coin=coin)
        assert dp.positions == dd.positions
        assert np.max(np.abs(dp.probs - dd.probs)) < 1e-10


def test_engines_agree_on_noncentered_geometry():
    model = build_su2k(3)
    geom = WalkGeometry(14, 9)
    dp = distribution_pathsum(model, geom, 3)
    dd = distribution_dense(model, geom, 3)
    assert np.max(np.abs(dp.probs - dd.probs)) < 1e-10


def test_support_and_positivity():
    dist = walk_distribution(build_su2k(3), 4)
    s0 = dist.meta["s0"]
    assert dist.positions == tuple(range(s0 - 4, s0 + 5, 2))
    assert np.all(dist.probs >= -1e-12)


def test_trivial_braiding_reduces_to_standard_walk(monkeypatch):
    def identity(rows, models):
        # b_i = 1: diag 1 and off 0, whatever the partner rows
        levels = (len(models), *rows.partner.shape)
        return np.ones(levels, dtype=complex), np.zeros(levels, dtype=complex)

    monkeypatch.setattr(nonabelian, "braid_weights", identity)
    model = build_su2k(5)
    for t, coin in ((3, "H"), (4, "U")):
        dist = distribution_dense(model, None, t, coin=coin)
        base = baseline_quantum(t, coin=coin)
        assert np.max(np.abs(dist.probs - base.probs)) < 1e-12


def test_dense_walk_braids_only_reachable_sites(monkeypatch):
    # a t-step walk from s0 braids strands s0 - t .. s0 + t only, so it needs
    # exactly the 2t generators s0 - t .. s0 + t - 1, each built once, and a
    # walk of a planned geometry builds none
    built = []

    def recording(space, indices):
        built.append(list(indices))
        return tl_rows(space, indices)

    monkeypatch.setattr(nonabelian, "tl_rows", recording)
    model = build_su2k(3)
    for geom, t in [(None, 1), (None, 2), (None, 5), (None, 8), (WalkGeometry(16, 8), 6)]:
        for planned in (False, True):
            built.clear()
            meta = distribution_dense(model, geom, t).meta
            s0 = meta["s0"]
            assert built == ([] if planned else [list(range(s0 - t, s0 + t))])
            assert meta["generators"] == 2 * t
            assert meta["plan_reused"] is planned


def full_space(model, n, s0, t):
    # the dense engine's space before the reachable-path pass: every
    # admissible fusion path of n anyons, whatever the walk reaches
    return enumerate_fusion_basis(model, n)


def oracle_cases():
    # (12, 6) and (16, 8) start the walker misaligned with its vacuum pair
    for geom in (WalkGeometry(12, 6), WalkGeometry(14, 9), WalkGeometry(16, 8)):
        reach = min(geom.s0 - 1, geom.n - 1 - geom.s0)
        for t in range(1, reach + 1):
            yield geom, t
    yield WalkGeometry.for_steps(10), 10


def test_reachable_paths_match_the_full_fusion_space(monkeypatch):
    cases = list(oracle_cases())
    for k in (2, 3, 5, 21):
        model = build_su2k(k)
        for coin in ("H", "U"):
            reachable = [distribution_dense(model, geom, t, coin=coin) for geom, t in cases]
            # the full-space walks must neither reuse the reachable plans nor
            # leave their own behind
            nonabelian._plans.clear()
            with monkeypatch.context() as patched:
                patched.setattr(nonabelian, "reachable_fusion_space", full_space)
                full = [distribution_dense(model, geom, t, coin=coin) for geom, t in cases]
            nonabelian._plans.clear()
            for got, want in zip(reachable, full):
                assert got.positions == want.positions
                assert np.max(np.abs(got.probs - want.probs)) <= 1e-13
                assert got.meta["reachable_dim"] < want.meta["reachable_dim"]
                assert got.meta["fusion_dim"] == want.meta["fusion_dim"]


@pytest.mark.parametrize(
    "k, t, n, reachable",
    [(3, 12, None, 262), (4, 12, None, 266), (2, 10, None, 88)]
    + [(k, 10, 22, 117) for k in (11, 12, 20, 30, 40, 60, 80)],
)
def test_dense_walk_reports_its_sizes(k, t, n, reachable):
    model = build_su2k(k)
    geom = WalkGeometry.for_steps(t, n)
    space = reachable_fusion_space(model, geom.n, geom.s0, t)
    nnz = sum(braid_generator(space, i).nnz for i in range(geom.s0 - t, geom.s0 + t))
    for coin in ("H", "U"):
        meta = distribution_dense(model, geom, t, coin=coin).meta
        assert meta["reachable_dim"] == reachable
        assert meta["fusion_dim"] == fusion_dimension(model, geom.n)
        assert meta["generators"] == 2 * t
        assert meta["generator_nnz"] == nnz
        assert 0 <= meta["norm_drift"] < 1e-12


def test_qubit_walk_reports_the_whole_space():
    meta = distribution_dense(build_su2k(2), None, 4, representation="qubit").meta
    assert meta["reachable_dim"] == meta["fusion_dim"] == 2 ** (10 // 2 - 1)
    assert meta["generators"] == 8


@pytest.mark.parametrize("n", [4, 6, 8, 10, 12])
def test_qubit_table_matches_the_qubit_generators(n):
    model = build_su2k(2)
    # two start sites, so the tables cover every generator 1..n-1
    for s0 in (n // 2, n // 2 + 1):
        t = n // 2 - 1
        alpha, (diag,), partner, (off,) = nonabelian._qubit_rep(model, n, s0, t)
        dim = len(alpha)
        for row, i in enumerate(range(s0 - t, s0 + t)):
            mat = np.diag(diag[row])
            mat[np.arange(dim), partner[row]] += off[row]
            assert np.array_equal(mat, su22_qubit_generator(n, i))


def test_the_walk_path_lists_no_basis_and_builds_no_csr_generator(monkeypatch):
    # the full basis, the CSR generators and the fusion tensor serve dumps and
    # oracles only
    def refuse(*args, **kwargs):
        raise AssertionError("called on the walk path")

    passes = []

    def counting(model, *args):
        passes.append(model.k)
        return reachable_fusion_space(model, *args)

    monkeypatch.setattr(nonabelian, "braid_generator", refuse)
    monkeypatch.setattr(nonabelian, "enumerate_fusion_basis", refuse)
    monkeypatch.setattr(AnyonModel, "fusion", property(refuse))
    monkeypatch.setattr(nonabelian, "reachable_fusion_space", counting)
    ks = list(range(2, 31)) + [40, 60, 80]
    rows = nonabelian.sweep_distances(ks, t=10)
    assert [k for k, _, _ in rows] == ks
    assert min(rows, key=lambda row: row[2])[0] == 6
    # the paths of a ten-step walk at level 80 reach charge 3, so every level
    # k >= 3 shares one pass and level 2 needs its own
    assert passes == [80, 2]
    # and a sweep of planned levels runs none
    passes.clear()
    assert nonabelian.sweep_distances(ks, t=10) == rows
    assert passes == []
    # a cold sweep above level 2 runs the one shared pass
    nonabelian._plans.clear()
    nonabelian.sweep_distances(list(range(3, 31)) + [40, 60, 80], t=10)
    assert passes == [80]


def test_a_plan_serves_every_level_its_pass_could_not_truncate(monkeypatch):
    # at t = 12 levels 3 and 4 each reach their own highest charge, so each
    # plan serves its level alone; level 80 reaches charge 4 only, so its plan
    # serves 5 and 40 as well
    passes = []

    def counting(model, *args):
        passes.append(model.k)
        return reachable_fusion_space(model, *args)

    monkeypatch.setattr(nonabelian, "reachable_fusion_space", counting)
    reused = [distribution_dense(build_su2k(k), None, 12).meta["plan_reused"]
              for k in (3, 4, 80, 5, 40)]
    assert passes == [3, 4, 80]
    assert reused == [False, False, False, True, True]


def test_threads_share_the_plan_cache(monkeypatch):
    # more threads than cores on a cache smaller than the geometries they
    # walk, so lookups, inserts and evictions interleave
    monkeypatch.setattr(nonabelian, "PLAN_CACHE_SIZE", 2)
    cases = [(k, t) for k in (2, 3, 5, 40) for t in (4, 6, 8)]
    want = {(k, t): distribution_dense(build_su2k(k), None, t).probs.tobytes() for k, t in cases}
    got, errors = [], []

    def work(seed):
        try:
            for k, t in random.Random(seed).sample(cases * 3, 3 * len(cases)):
                got.append(((k, t), distribution_dense(build_su2k(k), None, t).probs.tobytes()))
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(seed,)) for seed in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert len(got) == 4 * 3 * len(cases)
    assert all(probs == want[case] for case, probs in got)
    assert len(nonabelian._plans) <= 2


def test_a_wide_level_group_evolves_in_chunks(monkeypatch):
    ks = list(range(3, 31))
    whole = nonabelian.sweep_distances(ks, t=10)
    widths = []
    evolve = nonabelian._evolve

    def recording(diag, *args):
        widths.append(len(diag))
        return evolve(diag, *args)

    monkeypatch.setattr(nonabelian, "_evolve", recording)
    # room for five levels of the 117 paths and 20 generators of a ten-step walk
    monkeypatch.setattr(nonabelian, "SWEEP_CHUNK_AMPLITUDES", 5 * 20 * 117)
    # chunked alike on the plan of the first sweep and on a new one
    for cold in (False, True):
        if cold:
            nonabelian._plans.clear()
        widths.clear()
        assert nonabelian.sweep_distances(ks, t=10) == whole
        assert widths == [5] * 5 + [3]


@st.composite
def walk_layouts(draw):
    t = draw(st.integers(1, 8))
    n = 2 * t + 2 + 2 * draw(st.integers(0, 2))
    s0 = draw(st.integers(t + 1, n - 1 - t))
    return WalkGeometry(n, s0), t


# a complex initial coin state tells the braid's handedness apart: with a
# real one the walk of A^-1 matches the walk of A
coin_states = st.builds(
    lambda a, phase: np.array([np.cos(a), np.exp(1j * phase) * np.sin(a)]),
    st.floats(0, np.pi / 2),
    st.floats(0, 2 * np.pi),
)


@settings(max_examples=300, deadline=None)
@given(
    k=st.integers(2, 40),
    layout=walk_layouts(),
    coin=st.sampled_from(["H", "U"]),
    psi=coin_states,
)
def test_engines_agree_on_random_walks(k, layout, coin, psi):
    geom, t = layout
    model = build_su2k(k)
    dp = distribution_pathsum(model, geom, t, coin=coin, psi=psi)
    dd = distribution_dense(model, geom, t, coin=coin, psi=psi)
    assert dp.positions == dd.positions
    assert np.max(np.abs(dp.probs - dd.probs)) <= 1e-10


@st.composite
def sweep_cases(draw):
    t = draw(st.integers(1, 12))
    # above n = 26 the full space of a high level exceeds the state budget
    n = draw(st.sampled_from([None, *range(2 * t + 2, 27, 2)]))
    geom = WalkGeometry.for_steps(t, n)
    # the highest charge a walk at a high level reaches: the lowest level of its group
    boundary = max(2, int(reachable_fusion_space(build_su2k(500), geom.n, geom.s0, t).charges.max()))
    levels = st.one_of(st.just(2), st.just(boundary), st.integers(2, 12),
                       st.sampled_from([40, 80, 500, 3000]))
    return t, n, draw(st.lists(levels, min_size=1, max_size=8))


@settings(max_examples=120, deadline=None)
@given(case=sweep_cases(), coin=st.sampled_from(["H", "U"]), psi=coin_states)
def test_level_batched_sweep_matches_per_level_walks(case, coin, psi):
    t, n, ks = case
    quantum = baseline_quantum(t, coin, psi)
    classical = baseline_classical(t)
    want = []
    try:
        for k in ks:
            dist = walk_distribution(build_su2k(k), t, n=n, engine="dense", coin=coin, psi=psi)
            centered = dist.shifted(dist.meta["s0"])
            want.append((k, distance(centered, quantum), distance(centered, classical)))
    except BoundaryError:  # an n = 0 mod 4 layout too narrow for its shifted start site
        with pytest.raises(BoundaryError):
            nonabelian.sweep_distances(ks, t=t, n=n, coin=coin, psi=psi)
        return
    rows = nonabelian.sweep_distances(ks, t=t, n=n, coin=coin, psi=psi)
    assert [k for k, _, _ in rows] == ks
    for got, expected in zip(rows, want):
        assert np.max(np.abs(np.subtract(got, expected))) <= 1e-15


def test_pathsum_refuses_a_negative_site_norm(monkeypatch):
    # Counting two loops too many between distinct diagrams breaks the
    # positivity of the pairing: after one step site s0 - 1 holds the vacuum
    # and e_{s0-1} of it, and its norm becomes (2 - d^2)/2 < 0 at k=3.
    cycle_count = nonabelian._cycle_count
    monkeypatch.setattr(nonabelian, "_cycle_count", lambda d, e: cycle_count(d, e) + 2)
    with pytest.raises(NumericError, match="not a nonnegative real"):
        distribution_pathsum(build_su2k(3), None, 1)


def test_pathsum_reports_its_diagram_support():
    for k in (2, 3, 21):
        for coin in ("H", "U"):
            meta = distribution_pathsum(build_su2k(k), None, 8, coin=coin).meta
            assert meta["n"] == 18
            assert meta["diagram_support"] == 16
            assert meta["catalan_bound"] == 4862  # Catalan(9) cup diagrams on 18 points
            assert 0 <= meta["norm_drift"] < 1e-12


def test_qubit_and_path_representations_agree():
    model = build_su2k(2)
    for t in (1, 2, 3, 4):
        fusion = distribution_dense(model, None, t)
        qubit = distribution_dense(model, None, t, representation="qubit")
        assert np.max(np.abs(fusion.probs - qubit.probs)) < 1e-10


def test_dense_state_budget_applies_to_both_representations():
    geom = WalkGeometry(60, 31)
    for representation in ("fusion", "qubit"):
        with pytest.raises(DomainError, match="fusion.DENSE_STATE_BUDGET"):
            distribution_dense(build_su2k(2), geom, 2, representation=representation)


def test_qubit_representation_requires_level_two():
    with pytest.raises(DomainError):
        distribution_dense(build_su2k(3), None, 2, representation="qubit")


def test_pathsum_support_budget_refuses_long_walks():
    start = time.perf_counter()
    with pytest.raises(DomainError, match="nonabelian.PATHSUM_MAX_SUPPORT"):
        distribution_pathsum(build_su2k(3), None, 40)
    assert time.perf_counter() - start < 5.0
    meta = distribution_pathsum(build_su2k(3), None, 12).meta
    assert meta["diagram_support"] == 68 <= nonabelian.PATHSUM_MAX_SUPPORT


def test_large_level_approaches_standard_walk():
    dist = walk_distribution(build_su2k(500), 4)
    base = baseline_quantum(4)
    assert distance(dist.shifted(dist.meta["s0"]), base) < 1e-3


def test_baseline_quantum_three_steps():
    # oracle: enumerate all eight coin paths by hand
    amps = {}
    h = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    for bits in itertools.product((0, 1), repeat=3):
        amp = h[bits[0], 0]
        for prev, cur in zip(bits, bits[1:]):
            amp *= h[cur, prev]
        s = sum(2 * b - 1 for b in bits)
        amps[(s, bits[-1])] = amps.get((s, bits[-1]), 0) + amp
    expected = {}
    for (s, _), amp in amps.items():
        expected[s] = expected.get(s, 0.0) + abs(amp) ** 2
    dist = baseline_quantum(3)
    for s, p in zip(dist.positions, dist.probs):
        assert abs(p - expected.get(s, 0.0)) < 1e-12
    assert np.allclose(dist.probs, [1 / 8, 5 / 8, 1 / 8, 1 / 8], atol=1e-12)


def test_baseline_quantum_spreads_quadratically():
    ts = np.array([50, 100, 150, 200])
    vs = np.array([baseline_quantum(int(t)).variance() for t in ts])
    exponent = np.polyfit(np.log(ts), np.log(vs), 1)[0]
    assert 1.9 <= exponent <= 2.0


def test_baseline_classical():
    from fractions import Fraction

    d2 = baseline_classical(2)
    assert np.allclose(d2.probs, [0.25, 0.5, 0.25], atol=1e-15)
    assert baseline_classical(10).variance() == pytest.approx(10.0, abs=1e-12)
    assert sum(baseline_classical(11).exact) == Fraction(1)


def test_distance_examples():
    d = baseline_quantum(4)
    assert distance(d, d) == 0.0
    c = baseline_classical(4)
    assert distance(d, c) == distance(c, d) > 0


def test_engine_dispatch():
    model = build_su2k(2)
    assert walk_distribution(model, 3).meta["engine"] == "pathsum"
    assert walk_distribution(model, 6).meta["engine"] == "dense"
    with pytest.raises(DomainError):
        walk_distribution(model, 3, engine="nope")


@pytest.mark.parametrize("psi", [[1, 0, 0], [1, 1]])
def test_a_bad_coin_state_is_a_precondition_failure(psi):
    # a violated precondition, refused before any walk: not a numpy
    # broadcasting error, nor a NumericError from the probabilities' sum
    model = build_su2k(3)
    for run in (
        lambda: walk_distribution(model, 6, engine="dense", psi=psi),
        lambda: walk_distribution(model, 4, engine="pathsum", psi=psi),
        lambda: nonabelian.sweep_distances([2, 3, 40], t=4, psi=psi),
        lambda: baseline_quantum(4, psi=psi),
        lambda: coin_trace((0, 1), (0, 1), psi=psi),
        lambda: coin_trace((0, 1), (0, 0), psi=psi),
    ):
        with pytest.raises(DomainError, match="normalized 2-vector"):
            run()
