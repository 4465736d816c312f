"""Fusion-path bases for chains of identical anyons and braid matrices on them.

A basis state of n walker-type anyons with total charge zero is the sequence
of intermediate charges met while fusing the chain left to right.  We store
the full charge path (c_1, ..., c_{n-1}) with the fixed endpoints c_0 =
c_n = vacuum left implicit; the published outcome labels (a_1, ..., a_{n-2})
are the path with its constant first entry dropped.  Paths are kept in
lexicographic outcome order, which fixes all matrix layouts.

Braid generators are built through the loop-weight path representation of
the diagram algebra: e_i acts at charge slot i, couples paths only where the
neighboring slots agree, and carries weight sqrt(w(c) w(c')) / w(c_left),
with w the loop weight of a label (``AnyonModel.loop_weights``).  The braid
matrix is then A * identity + A^-1 * e_i, which makes dense evolution and
bracket evaluation agree exactly, not merely up to phase.  A row of it has
at most one off-diagonal entry, so the walk applies ``braid_table``'s gather
form b_i x = diag * x + off * x[partner].  It is built in two halves:
``tl_rows`` finds the partner rows and the charges the weights read, which
no level changes, and ``braid_weights`` turns them into diag and off for a
sequence of levels at once, with a leading level axis.  The dense walk keeps
the first half in its walk plan, reused for a repeated geometry within a
process (``nonabelian._walk_plan``).  ``braid_generator`` and
``tl_generator`` are one level's entries as a scipy CSR matrix, built on
each call.  A walk
needs only the paths it can reach from the vacuum-pair path
(``reachable_fusion_space``); the full basis (``enumerate_fusion_basis``)
and the CSR matrices, the only users of scipy, serve dumps and oracles.

For the level-2 model the same representation has a qubit form built from
three fixed 2x2 / 4x4 blocks; it is provided for cross-checking.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, check_budget
from .models import AnyonModel
from .tl import MAX_STRANDS

#: refuse n-anyon spaces with 2 x (n+2) x dim above this many amplitudes, dim the full
#: space's dimension, which is counted without listing it.  The dense walk holds only
#: 2 x (t+1) x its reachable paths (266 of 265721 at k=4, t=12), but no bound on that
#: count is proven, so the budget stays on the full space, where it is checked before any
#: work (k=2, t=20 counts 92 M and runs in 0.3 s on a 2-core VM).  Every level has
#: dim >= 2^(n/2-1), and ``_reach_table`` checks that floor after the strand cap, so
#: n <= 42: the n-bit path keys, and the reachable pass's keys with the site above
#: them, fit in 48 bits.
DENSE_STATE_BUDGET = 2**27


def check_state_budget(n: int, dim: int) -> None:
    """Refuse an n-anyon walk whose internal space has dimension ``dim``."""
    check_budget("fusion.DENSE_STATE_BUDGET", 2 * (n + 2) * dim, DENSE_STATE_BUDGET,
                 "dense-state amplitude count")


def _path_keys(charges: np.ndarray) -> np.ndarray:
    """Step bitmask of each extended path (vacuum, c_1, ..., c_{n-1}, vacuum),
    first step in the most significant bit, 1 for a step up.

    The walker changes the charge by +-1 at every step, so the key fixes the
    path and numeric key order is lexicographic path order.
    """
    keys = np.ones(charges.shape[0], dtype=np.uint64)  # the first step is always up
    for prev, cur in zip(charges.T[:-1], charges.T[1:]):
        keys = (keys << np.uint64(1)) | (cur > prev)
    return keys << np.uint64(1)  # the last step is always down


@dataclass(eq=False)
class FusionSpace:
    """Indexed fusion basis of n walker anyons with vacuum total charge."""

    model: AnyonModel
    n: int
    charges: np.ndarray  # (dim, n-1) uint8 charges c_1..c_{n-1}, at most 21 as n <= 42
    keys: np.ndarray = field(init=False, repr=False)  # sorted path keys, one per row

    def __post_init__(self):
        self.keys = _path_keys(self.charges)

    @property
    def dim(self) -> int:
        return self.charges.shape[0]

    @property
    def basis(self) -> list[tuple[int, ...]]:
        """Outcome tuples (a_1, ..., a_{n-2}) in basis order."""
        return [tuple(int(q) for q in row[1:]) for row in self.charges]

    def _find(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Row of each key and whether that row really carries the key."""
        rows = np.minimum(np.searchsorted(self.keys, keys), self.dim - 1)
        return rows, self.keys[rows] == keys

    def index(self, outcomes: tuple[int, ...]) -> int:
        """Basis row of an outcome tuple; DomainError unless it is admissible."""
        row = np.array([self.model.sigma, *outcomes], dtype=np.int64)
        if len(row) == self.n - 1 and np.all(np.abs(np.diff(row)) == 1):
            at, found = self._find(_path_keys(row[None, :]))
            if found[0]:
                return int(at[0])
        raise DomainError(f"outcome tuple {outcomes} is not an admissible basis state")


def _reach_table(model: AnyonModel, n: int) -> np.ndarray:
    """reach[q][r], the number of ways charge q fuses down to the vacuum in
    exactly r more steps.

    Only labels q <= n are counted: label q needs q steps to fuse back to the
    vacuum, so a larger one never lies on an n-anyon path."""
    if n % 2 or n < 4:
        raise DomainError(f"anyon count must be even and >= 4, got {n}")
    check_budget("tl.MAX_STRANDS", n, MAX_STRANDS, "strand count")
    # every level has dim >= 2^(n/2-1), so n <= 42 and every count, at most 2^n, fits in int64
    check_state_budget(n, 2 ** (n // 2 - 1))
    nlab = min(model.k + 1, n + 1)
    # sigma x q = (q - 1) + (q + 1) within the labels 0..k, so no fusion tensor is read
    steps = np.eye(nlab, k=1, dtype=np.int64) + np.eye(nlab, k=-1, dtype=np.int64)
    reach = np.zeros((nlab, n + 1), dtype=np.int64)
    reach[model.vacuum, 0] = 1
    for r in range(1, n + 1):
        reach[:, r] = steps @ reach[:, r - 1]
    if not reach[model.sigma, n - 1]:
        raise DomainError(f"no admissible fusion paths for {model.name} with n={n}")
    return reach


def fusion_dimension(model: AnyonModel, n: int) -> int:
    """Number of admissible charge paths, counted without listing them."""
    return int(_reach_table(model, n)[model.sigma, n - 1])


def enumerate_fusion_basis(model: AnyonModel, n: int) -> FusionSpace:
    """Enumerate all admissible charge paths, in lexicographic outcome order.

    The paths are counted first, so a space over the dense state budget is
    refused before any of it is listed.  Then every path is extended one
    slot at a time, its step down before its step up, so rows stay in
    lexicographic order; a child is kept only if it can still fuse to the
    vacuum in the steps left.
    """
    reach = _reach_table(model, n)
    check_state_budget(n, int(reach[model.sigma, n - 1]))
    # live[c + 1, r]: charge c fuses to the vacuum in r steps; the padding
    # rows refuse the charges -1 and len(reach)
    live = np.pad(reach > 0, ((1, 1), (0, 0)))
    paths = np.full((1, 1), model.sigma, dtype=np.uint8)
    for slot in range(1, n - 1):
        child = paths[:, -1, None].astype(np.int64) + [-1, 1]
        parent, step = np.nonzero(live[child + 1, n - 1 - slot])
        paths = np.concatenate([paths[parent], child[parent, step, None].astype(np.uint8)], axis=1)
    return FusionSpace(model=model, n=n, charges=paths)


def reachable_fusion_space(model: AnyonModel, n: int, s0: int, t: int) -> FusionSpace:
    """The paths a t-step walk from site s0 reaches from the vacuum-pair path.

    A breadth-first pass over (site, path) rows held in one array: site s
    braids strands s-1 and s, and e_i couples a path only to the one whose
    charge at slot i is 2 c_{i-1} - c_i, where c_{i-1} = c_{i+1} and that
    charge is a label.  Every admissible partner of every path held at a site
    is kept, so generators on this space act on the walk state exactly as on
    the full basis, which is never listed.  Rows are deduplicated by one key,
    the site above the n-bit path key.  The walk must stay within strands
    1..n-1, and the caller checks the state budget first, which keeps that
    key within 48 bits.
    """
    top = model.k
    # the extended path c_0, ..., c_n, vacuum at both ends
    paths = np.array([[model.sigma if j % 2 else model.vacuum for j in range(n + 1)]])
    keys = _path_keys(paths[:, 1:-1])
    sites = np.array([s0])
    for _ in range(t):
        # site s braids slot s - 1 moving left, to site s - 1, and slot s moving right
        slot = np.concatenate([sites - 1, sites])
        sites = slot + np.repeat([0, 1], len(sites))
        paths, keys = np.concatenate([paths, paths]), np.concatenate([keys, keys])
        rows = np.arange(len(slot))
        left, mid = paths[rows, slot - 1], paths[rows, slot]
        partner = 2 * left - mid
        keep = np.nonzero((left == paths[rows, slot + 1]) & (partner >= 0) & (partner <= top))[0]
        moved = paths[keep]
        moved[np.arange(len(keep)), slot[keep]] = partner[keep]
        # the partner swaps steps i and i+1, two adjacent bits of the key
        flips = np.uint64(3) << (n - 1 - slot[keep]).astype(np.uint64)
        paths = np.concatenate([paths, moved])
        keys = np.concatenate([keys, keys[keep] ^ flips])
        sites = np.concatenate([sites, sites[keep]])
        _, first = np.unique((sites.astype(np.uint64) << np.uint64(n)) | keys, return_index=True)
        paths, keys, sites = paths[first], keys[first], sites[first]
    # every site passes its paths on to both neighbors, so the last step holds
    # every path met before; key order is lexicographic path order
    _, first = np.unique(keys, return_index=True)
    return FusionSpace(model=model, n=n, charges=paths[first, 1:-1].astype(np.uint8))


def vacuum_pair_state(space: FusionSpace) -> np.ndarray:
    """Unit vector on the alternating path (1, sigma, 1, sigma, ...)."""
    outcomes = tuple(
        space.model.vacuum if j % 2 == 0 else space.model.sigma
        for j in range(space.n - 2)
    )
    vec = np.zeros(space.dim, dtype=complex)
    vec[space.index(outcomes)] = 1.0
    return vec


@dataclass(frozen=True, eq=False)
class TLRows:
    """The level-independent half of e_i for a sequence of indices on one
    space: each array is (len(indices), dim), and ``labels`` is the number
    of labels a level's loop weights must cover, one above the space's
    highest charge."""

    partner: np.ndarray  # int32 row each row couples to, the row itself where there is none
    fuse: np.ndarray  # bool: strands i, i+1 can fuse to the vacuum
    found: np.ndarray  # bool: the row has a partner in the space
    left: np.ndarray  # uint8 charges c_{i-1}, c_i and the partner's c_i,
    mid: np.ndarray  # the only ones the weights read
    mid_partner: np.ndarray
    labels: int


def tl_rows(space: FusionSpace, indices) -> TLRows:
    """The gather structure of e_i for each index, before any loop weight."""
    idx = np.asarray(indices, dtype=np.int64).reshape(-1)
    if np.any((idx < 1) | (idx > space.n - 1)):
        raise DomainError(f"generator index outside [1, {space.n - 1}]: {idx.tolist()}")
    # row j is charge c_j of every path, c_0..c_n, vacuum at both ends
    ext = np.ascontiguousarray(np.pad(space.charges, ((0, 0), (1, 1))).T)
    left, mid, right = (ext[idx + shift] for shift in (-1, 0, 1))
    # the partner path swaps steps i and i+1 (up-down <-> down-up), so its key
    # differs in two adjacent bits; flipping two equal steps would change the
    # final charge, so only rows that fuse find one, and partners outside the
    # truncated space are absent
    flips = np.uint64(3) << (space.n - 1 - idx).astype(np.uint64)
    at, found = space._find(space.keys[None, :] ^ flips[:, None])
    partner = np.where(found, at, np.arange(space.dim)).astype(np.int32)
    return TLRows(
        partner, left == right, found, left, mid, np.take_along_axis(mid, partner, axis=1),
        int(space.charges.max()) + 1,
    )


def _tl_weights(rows: TLRows, models) -> tuple[np.ndarray, np.ndarray]:
    """e_i for each model's loop weights as (diag, off), each (len(models),
    len(indices), dim): e_i x = diag * x + off * x[partner]."""
    w = np.array([model.loop_weights(rows.labels) for model in models])
    left, mid = w[:, rows.left], w[:, rows.mid]
    diag = np.where(rows.fuse, mid / left, 0.0)
    off = np.where(rows.found, np.sqrt(mid * w[:, rows.mid_partner]) / left, 0.0)
    return diag, off


def braid_weights(rows: TLRows, models) -> tuple[np.ndarray, np.ndarray]:
    """b_i = A * identity + A^-1 * e_i for each of ``models`` as (diag, off),
    each (len(models), len(indices), dim): b_i x = diag * x + off *
    x[rows.partner].  Every model needs a label for each charge of the
    space; a level at least the space's highest charge reaches its paths."""
    diag, off = _tl_weights(rows, models)
    diag, off = diag.astype(complex), off.astype(complex)
    for model, d, o in zip(models, diag, off):
        A = model.A
        inv = 1 / A  # a Python complex: numpy's complex division rounds differently
        d *= inv
        d += A
        o *= inv
    return diag, off


def braid_table(space: FusionSpace, indices, models) -> tuple[np.ndarray, ...]:
    """b_i for each of ``models`` and each index as arrays (diag, partner,
    off): diag and off are (len(models), len(indices), dim), partner is
    (len(indices), dim), and b_i x = diag * x + off * x[partner].  Each row
    has at most one e_i partner, so the form is exact."""
    rows = tl_rows(space, indices)
    diag, off = braid_weights(rows, models)
    return diag, rows.partner, off


def _table_csr(diag: np.ndarray, partner: np.ndarray, off: np.ndarray):
    """The matrix of one (diag, partner, off) table row, with its nonzeros only."""
    import scipy.sparse as sp  # only the CSR views need scipy

    rows = np.arange(len(diag))
    mat = sp.csr_matrix(
        (np.concatenate([diag, off]), (np.tile(rows, 2), np.concatenate([rows, partner]))),
        shape=(len(diag), len(diag)),
        dtype=complex,
    )
    mat.eliminate_zeros()
    return mat


def tl_generator(space: FusionSpace, i: int):
    """The diagram-algebra generator e_i on the fusion basis (Hermitian, e^2 = d e)."""
    rows = tl_rows(space, [i])
    diag, off = _tl_weights(rows, [space.model])
    return _table_csr(diag[0, 0], rows.partner[0], off[0, 0])


def braid_generator(space: FusionSpace, i: int):
    """Unitary braid matrix b_i = A * identity + A^-1 * e_i."""
    diag, partner, off = braid_table(space, [i], [space.model])
    return _table_csr(diag[0, 0], partner[0], off[0, 0])


# fixed blocks of the level-2 qubit representation
_R_BLOCK = np.diag([1.0 + 0j, 1j])
_B_BLOCK = np.array(
    [
        [np.exp(1j * math.pi / 4), np.exp(-1j * math.pi / 4)],
        [np.exp(-1j * math.pi / 4), np.exp(1j * math.pi / 4)],
    ]
) / math.sqrt(2)
_A_BLOCK = np.diag([1.0 + 0j, 1j, 1j, 1.0 + 0j])


def su22_qubit_generator(n: int, i: int) -> np.ndarray:
    """Braid generator of the level-2 chain on its qubit-encoded fusion space.

    The space of n anyons with total charge zero is m = n/2 - 1 qubits; odd
    generators act diagonally (a phase on one qubit or a controlled phase on
    a neighboring pair), even generators mix one qubit.
    """
    if n % 2 or n < 4:
        raise DomainError(f"anyon count must be even and >= 4, got {n}")
    if not 1 <= i <= n - 1:
        raise DomainError(f"generator index {i} outside [1, {n - 1}]")
    m = n // 2 - 1
    if i in (1, n - 1):
        block, first = _R_BLOCK, 1 if i == 1 else m
    elif i % 2 == 0:
        block, first = _B_BLOCK, i // 2
    else:
        block, first = _A_BLOCK, (i - 1) // 2
    # identities on the qubits left and right of the block's
    left = np.eye(2 ** (first - 1), dtype=complex)
    right = np.eye(2 ** (m + 1 - first - (len(block).bit_length() - 1)), dtype=complex)
    return np.kron(np.kron(left, block), right)
