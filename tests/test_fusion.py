import math

import numpy as np
import pytest
import scipy.sparse as sp

from anyonwalk.errors import DomainError
from anyonwalk.fusion import (
    braid_generator,
    braid_table,
    enumerate_fusion_basis,
    fusion_dimension,
    reachable_fusion_space,
    su22_qubit_generator,
    tl_generator,
    vacuum_pair_state,
)
from anyonwalk.models import build_su2k
from anyonwalk.nonabelian import WalkGeometry
from anyonwalk.tl import BraidWord, plat_bracket


def basis_outcomes(space):
    """Outcome tuples (a_1, ..., a_{n-2}) in basis order: each path without its first charge."""
    return [tuple(map(int, row)) for row in space.charges[:, 1:]]


def catalan(n):
    c = 1
    for i in range(n):
        c = c * 2 * (2 * i + 1) // (i + 2)
    return c


def test_level_two_dimensions():
    m = build_su2k(2)
    assert enumerate_fusion_basis(m, 4).dim == 2
    assert enumerate_fusion_basis(m, 6).dim == 4
    assert basis_outcomes(enumerate_fusion_basis(m, 4)) == [(0, 1), (2, 1)]
    # even outcome slots are pinned to the walker label
    for path in basis_outcomes(enumerate_fusion_basis(m, 8)):
        assert all(path[j] == 1 for j in range(1, len(path), 2))


def test_dimension_saturates_at_catalan():
    # brute-force oracle: list the admissible outcome sequences directly
    def list_paths(model, n):
        sigma = model.sigma
        paths = []
        stack = [(sigma,)]
        while stack:
            path = stack.pop()
            if len(path) == n - 1:
                if model.fusion[path[-1], sigma, 0]:
                    paths.append(path[1:])
                continue
            for nxt in np.flatnonzero(model.fusion[path[-1], sigma]):
                stack.append((*path, int(nxt)))
        return sorted(paths)

    n = 12
    dims = []
    for k in (2, 3, 4, 5, 6, 7):
        space = enumerate_fusion_basis(build_su2k(k), n)
        # the same paths, in lexicographic order
        assert basis_outcomes(space) == list_paths(space.model, n)
        dims.append(space.dim)
    assert dims == sorted(dims)
    assert dims[-1] == catalan(n // 2)  # saturated once k >= n/2


def test_large_chain_dimension():
    assert enumerate_fusion_basis(build_su2k(11), 22).dim == 58786


def test_odd_count_rejected():
    with pytest.raises(DomainError):
        enumerate_fusion_basis(build_su2k(2), 5)
    with pytest.raises(DomainError):
        enumerate_fusion_basis(build_su2k(2), 2)


def test_vacuum_pair_state():
    space = enumerate_fusion_basis(build_su2k(2), 4)
    vec = vacuum_pair_state(space)
    assert abs(np.linalg.norm(vec) - 1.0) < 1e-15
    assert vec[space.index((0, 1))] == 1.0
    # orthogonal to every path with a nonvacuum first outcome
    for i, path in enumerate(basis_outcomes(space)):
        if path[0] != 0:
            assert vec[i] == 0.0


def path_model_generator(space, i):
    """e_i from the path-model formula, indexing paths with a dict of charge tuples."""
    w = space.model.loop_weights(space.model.k + 1)
    paths = [(0, *map(int, row), 0) for row in space.charges]
    index = {path: r for r, path in enumerate(paths)}
    e = np.zeros((space.dim, space.dim), dtype=complex)
    truncated = 0
    for r, path in enumerate(paths):
        left, mid, right = path[i - 1 : i + 2]
        if left != right:
            continue
        e[r, r] = w[mid] / w[left]
        partner_mid = 2 * left - mid
        partner = path[:i] + (partner_mid,) + path[i + 1 :]
        if partner in index:
            e[index[partner], r] = math.sqrt(w[mid] * w[partner_mid]) / w[left]
        elif partner_mid > space.model.k:
            truncated += 1
    return e, truncated


@pytest.mark.parametrize("k,n", [(2, 8), (3, 10), (4, 12), (7, 12)])
def test_generator_matches_path_model_oracle(k, n):
    space = enumerate_fusion_basis(build_su2k(k), n)
    truncated = 0
    for i in range(1, n):
        expected, cut = path_model_generator(space, i)
        truncated += cut
        assert np.array_equal(tl_generator(space, i).toarray(), expected)
    # partners above the level are dropped below the saturation level k = n/2
    assert (truncated > 0) == (k < n // 2)
    for r, path in enumerate(basis_outcomes(space)):
        assert space.index(path) == r
    pairs = (0, 1) * (n // 2)
    bad = [
        (0, 1),  # wrong length
        (0,) * (n - 2),  # the charge must change at every step
        pairs[: n - 4] + (2, 3),  # ends where the last walker cannot fuse to the vacuum
        (0, -1, 0, 1) + pairs[: n - 6],  # negative charge
    ]
    if k < n // 2:
        bad.append(tuple(range(2, k + 2)) + tuple(range(k, 0, -1)) + pairs[: n - 2 - 2 * k])
    for outcomes in bad:
        assert len(outcomes) == 2 or len(outcomes) == n - 2
        with pytest.raises(DomainError):
            space.index(outcomes)


def test_first_generator_projects_on_vacuum_channel():
    m = build_su2k(2)
    space = enumerate_fusion_basis(m, 4)
    e1 = tl_generator(space, 1).toarray()
    expected = np.zeros((2, 2))
    expected[space.index((0, 1)), space.index((0, 1))] = m.d
    assert np.allclose(e1, expected, atol=1e-12)


@pytest.mark.parametrize("k,n", [(2, 6), (3, 6), (5, 8), (2, 10), (3, 10), (5, 10)])
def test_diagram_algebra_relations(k, n):
    m = build_su2k(k)
    space = enumerate_fusion_basis(m, n)
    es = [tl_generator(space, i).toarray() for i in range(1, n)]
    for e in es:
        assert np.allclose(e, e.conj().T, atol=1e-12)
        assert np.allclose(e @ e, m.d * e, atol=1e-10)
        ev = np.linalg.eigvalsh(e)
        assert np.all((np.abs(ev) < 1e-8) | (np.abs(ev - m.d) < 1e-8))
    for i in range(len(es) - 1):
        assert np.allclose(es[i] @ es[i + 1] @ es[i], es[i], atol=1e-10)
        assert np.allclose(es[i + 1] @ es[i] @ es[i + 1], es[i + 1], atol=1e-10)
    for i in range(len(es)):
        for j in range(i + 2, len(es)):
            assert np.allclose(es[i] @ es[j], es[j] @ es[i], atol=1e-10)


def test_generator_trace_is_index_independent():
    space = enumerate_fusion_basis(build_su2k(3), 6)
    traces = [np.trace(tl_generator(space, i).toarray()).real for i in range(1, 6)]
    assert np.allclose(traces, traces[0], atol=1e-10)


@pytest.mark.parametrize("k,n", [(2, 6), (3, 8), (5, 10)])
def test_braid_generators_unitary_and_yang_baxter(k, n):
    space = enumerate_fusion_basis(build_su2k(k), n)
    bs = [braid_generator(space, i).toarray() for i in range(1, n)]
    eye = np.eye(space.dim)
    for b in bs:
        assert np.allclose(b @ b.conj().T, eye, atol=1e-12)
    for i in range(len(bs) - 1):
        lhs = bs[i] @ bs[i + 1] @ bs[i]
        rhs = bs[i + 1] @ bs[i] @ bs[i + 1]
        assert np.max(np.abs(lhs - rhs)) < 1e-10
    for i in range(len(bs)):
        for j in range(i + 2, len(bs)):
            assert np.max(np.abs(bs[i] @ bs[j] - bs[j] @ bs[i])) < 1e-10


def test_braid_generator_sparsity():
    space = enumerate_fusion_basis(build_su2k(4), 12)
    for i in (1, 5, 11):
        mat = braid_generator(space, i)
        per_col = np.diff(mat.tocsc().indptr)
        assert per_col.max() <= 2


def test_level_two_braid_spectrum():
    m = build_su2k(2)
    space = enumerate_fusion_basis(m, 4)
    ev = np.linalg.eigvals(braid_generator(space, 1).toarray())
    expected = {m.A, -m.A**-3}
    for w in ev:
        assert min(abs(w - z) for z in expected) < 1e-12
    ratios = sorted(ev, key=lambda z: abs(np.angle(z)))
    assert abs(ratios[1] / ratios[0] - 1j) < 1e-12  # matches the exchange table


def test_generator_index_range():
    space = enumerate_fusion_basis(build_su2k(2), 4)
    for bad in (0, 4):
        with pytest.raises(DomainError):
            tl_generator(space, bad)
        with pytest.raises(DomainError):
            braid_generator(space, bad)


def test_qubit_generator_placements():
    b = su22_qubit_generator(4, 2)
    expected = np.array(
        [[np.exp(1j * np.pi / 4), np.exp(-1j * np.pi / 4)],
         [np.exp(-1j * np.pi / 4), np.exp(1j * np.pi / 4)]]
    ) / np.sqrt(2)
    assert np.allclose(b, expected, atol=1e-15)
    a_on_pair = su22_qubit_generator(6, 3)
    assert np.allclose(a_on_pair, np.diag([1, 1j, 1j, 1]), atol=1e-15)
    assert su22_qubit_generator(6, 5).shape == (4, 4)


def test_qubit_generators_unitary_and_yang_baxter():
    n = 8
    gens = [su22_qubit_generator(n, i) for i in range(1, n)]
    eye = np.eye(2 ** (n // 2 - 1))
    for g in gens:
        assert np.allclose(g @ g.conj().T, eye, atol=1e-12)
    for i in range(len(gens) - 1):
        lhs = gens[i] @ gens[i + 1] @ gens[i]
        rhs = gens[i + 1] @ gens[i] @ gens[i + 1]
        assert np.max(np.abs(lhs - rhs)) < 1e-10


@pytest.mark.parametrize("k,n", [(2, 4), (2, 6), (3, 6), (5, 8)])
def test_vacuum_sandwich_equals_plat_bracket(k, n):
    # the identity that makes the dense and pathsum engines agree exactly
    m = build_su2k(k)
    space = enumerate_fusion_basis(m, n)
    alpha = vacuum_pair_state(space)
    gens = {i: braid_generator(space, i).toarray() for i in range(1, n)}
    rng = np.random.default_rng(17)
    for _ in range(6):
        letters = tuple(
            int(rng.integers(1, n)) * int(rng.choice([-1, 1])) for _ in range(7)
        )
        mat = np.eye(space.dim, dtype=complex)
        for letter in letters:
            g = gens[abs(letter)]
            mat = (g if letter > 0 else g.conj().T) @ mat
        lhs = alpha.conj() @ mat @ alpha
        rhs = plat_bracket(BraidWord(n, letters), at=m.A) / m.d ** (n // 2 - 1)
        assert abs(lhs - rhs) < 1e-10


def csr_braid_oracle(space, i):
    """b_i = A * identity + A^-1 * e_i as first built: e_i as a scipy CSR
    matrix from its diagonal and partner entries, added to the identity."""
    charges = space.charges
    dim, width = charges.shape
    w = np.asarray(space.model.loop_weights(space.model.k + 1), dtype=float)
    left = charges[:, i - 2].astype(np.int64) if i >= 2 else np.zeros(dim, dtype=np.int64)
    mid = charges[:, i - 1].astype(np.int64)
    right = charges[:, i].astype(np.int64) if i <= width - 1 else np.zeros(dim, dtype=np.int64)
    rows = np.nonzero(left == right)[0]
    vals = w[mid[rows]] / w[left[rows]]
    at, found = space._find(space.keys[rows] ^ np.uint64(3 << (space.n - 1 - i)))
    src, dst = rows[found], at[found]
    offvals = np.sqrt(w[mid[src]] * w[mid[dst]]) / w[left[src]]
    e = sp.csr_matrix(
        (np.concatenate([vals, offvals]), (np.concatenate([rows, dst]), np.concatenate([rows, src]))),
        shape=(dim, dim),
        dtype=complex,
    )
    a = space.model.A
    return (a * sp.identity(dim, dtype=complex, format="csr") + (1 / a) * e).tocsr()


@pytest.mark.parametrize("k", [2, 3, 5])
def test_braid_table_matches_the_csr_oracle(k):
    rng = np.random.default_rng(k)
    for n in range(4, 13, 2):
        space = enumerate_fusion_basis(build_su2k(k), n)
        (diag,), partner, (off,) = braid_table(space, range(1, n), [space.model])
        x = rng.normal(size=space.dim) + 1j * rng.normal(size=space.dim)
        for row, i in enumerate(range(1, n)):
            want = csr_braid_oracle(space, i)
            mat = np.diag(diag[row])
            mat[np.arange(space.dim), partner[row]] += off[row]
            assert np.array_equal(mat, want.toarray())
            assert np.array_equal(braid_generator(space, i).toarray(), want.toarray())
            assert braid_generator(space, i).nnz == want.nnz
            got = diag[row] * x + off[row] * x[partner[row]]
            assert np.max(np.abs(got - want @ x)) <= 1e-15
            # at most one partner per row, and partners come in pairs
            moved = partner[row] != np.arange(space.dim)
            assert np.array_equal(partner[row][partner[row]], np.arange(space.dim))
            assert np.array_equal(moved, off[row] != 0)
    with pytest.raises(DomainError):
        braid_table(space, [0, 1], [space.model])


def test_level_batched_table_is_each_levels_table():
    # every level k >= 3 reaches the paths of a ten-step walk at level 80
    geom = WalkGeometry.for_steps(10)
    indices = range(geom.s0 - 10, geom.s0 + 10)
    space = reachable_fusion_space(build_su2k(80), geom.n, geom.s0, 10)
    levels = [80, 3, 17, 40]
    diag, partner, off = braid_table(space, indices, [build_su2k(k) for k in levels])
    assert diag.shape == off.shape == (len(levels), *partner.shape)
    for row, k in enumerate(levels):
        own = reachable_fusion_space(build_su2k(k), geom.n, geom.s0, 10)
        assert np.array_equal(own.charges, space.charges)
        (own_diag,), own_partner, (own_off,) = braid_table(own, indices, [own.model])
        for got, want in zip((diag[row], partner, off[row]), (own_diag, own_partner, own_off)):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    with pytest.raises(DomainError, match="lacks labels"):
        braid_table(space, indices, [build_su2k(2)])


def reachable_by_site_oracle(model, n, s0, t):
    """The reachable pass as first written: paths kept per site and
    deduplicated with one np.unique(axis=0) per site and step."""
    top = model.k
    start = np.array([[model.sigma if j % 2 else model.vacuum for j in range(n + 1)]])

    def braided(paths, i):
        left, mid, right = paths[:, i - 1], paths[:, i], paths[:, i + 1]
        partner = 2 * left - mid
        keep = (left == right) & (partner >= 0) & (partner <= top)
        moved = paths[keep]
        moved[:, i] = partner[keep]
        return np.concatenate([paths, moved])

    sites = {s0: start}
    for _ in range(t):
        arrivals = {}
        for s, paths in sites.items():
            arrivals.setdefault(s - 1, []).append(braided(paths, s - 1))
            arrivals.setdefault(s + 1, []).append(braided(paths, s))
        sites = {s: np.unique(np.concatenate(group), axis=0) for s, group in arrivals.items()}
    return np.unique(np.concatenate(list(sites.values())), axis=0)[:, 1:-1]


@pytest.mark.parametrize("k", [2, 3, 4, 5, 11, 21, 80])
def test_reachable_pass_matches_the_per_site_oracle(k):
    model = build_su2k(k)
    # (12, 6) and (16, 8) start the walker misaligned with its vacuum pair
    cases = [(WalkGeometry.for_steps(t), t) for t in range(1, 14)]
    for geom in (WalkGeometry(12, 6), WalkGeometry(14, 9), WalkGeometry(16, 8)):
        cases += [(geom, t) for t in range(1, min(geom.s0 - 1, geom.n - 1 - geom.s0) + 1)]
    for geom, t in cases:
        space = reachable_fusion_space(model, geom.n, geom.s0, t)
        assert space.charges.dtype == np.uint8
        assert np.array_equal(space.charges, reachable_by_site_oracle(model, geom.n, geom.s0, t))


def untrimmed_dimension(model, n):
    """The path count over every label of the model, however high."""
    nlab = model.k + 1
    reach = np.zeros((nlab, n + 1), dtype=object)
    reach[model.vacuum, 0] = 1
    step_to = [np.flatnonzero(model.fusion[q, model.sigma]) for q in range(nlab)]
    for r in range(1, n + 1):
        for q in range(nlab):
            reach[q, r] = sum(reach[c, r - 1] for c in step_to[q])
    return int(reach[model.sigma, n - 1])


def test_dimension_counts_only_labels_the_paths_can_reach():
    for k in (2, 3, 4, 7, 11, 20, 21, 22, 40, 80):
        model = build_su2k(k)
        for n in range(4, 43, 2):
            assert fusion_dimension(model, n) == untrimmed_dimension(model, n)


def test_charges_are_one_byte_at_every_level():
    # the state budget caps n at 42, so no charge passes 21 however high the level
    low = enumerate_fusion_basis(build_su2k(40), 16)
    high = enumerate_fusion_basis(build_su2k(3000), 16)
    assert high.charges.dtype == low.charges.dtype == np.uint8
    assert np.array_equal(high.charges, low.charges)
