"""Anyon model data: quantum dimensions, loop weights, bracket parameter.

Two families are supported.  ``build_su2k`` constructs the SU(2) level-k
model whose walker label is the spin-1/2 particle; labels are the integers
0..k, twice their spin, so 0 is the vacuum and 1 is the walker.  A model is
its level and a few numbers: the loop weight of a label is computed when a
generator asks for it (``loop_weights``), and the (k+1)^3 fusion tensor is
built on first access.  Walks and brackets never read the tensor, the
walker's fusion rule being the step q -> q +- 1; the tensor is the tests'
oracle for that rule (``ORACLES`` in ``tests/test_reach.py``).
``build_dsn`` constructs the parameter set of the transposition-class irrep
of the symmetric-group quantum double, which is all the Markov-trace engine
needs.

The bracket parameter A is kept exactly as a rational multiple of pi, so
exact Laurent evaluation points and the identity d = -A^2 - A^-2 are
available without rounding.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import DomainError, check_budget

#: highest level ``build_su2k`` accepts.  A model computes its loop weights on demand,
#: so a walk, sweep or bracket costs the same at every level (k = 9901..10000 swept at
#: t = 10: 0.3 s through the CLI, 2-core VM); what grows with k is the (k+1)^3-byte
#: fusion tensor, built on first read and read by no walk or bracket, and the cap bounds it.
MAX_LEVEL = 10_000


@dataclass(frozen=True, eq=False)
class AnyonModel:
    """Immutable model data; safe for unrestricted concurrent reads."""

    name: str
    d: float  # quantum dimension of the walker label
    a_angle: Fraction  # A = exp(i * pi * a_angle)
    k: int  # level: the labels are 0..k

    @property
    def A(self) -> complex:
        return cmath.exp(1j * math.pi * float(self.a_angle))

    @property
    def sigma(self) -> int:
        """Label of the walker particle."""
        return 1

    @property
    def vacuum(self) -> int:
        return 0

    def loop_weights(self, count: int) -> tuple[float, ...]:
        """Loop weights w(q) = sin(pi (q+1)/(k+2)) / sin(pi/(k+2)) of the labels
        q = 0..count-1."""
        if count > self.k + 1:
            raise DomainError(f"{self.name} lacks labels of the charges 0..{count - 1}")
        denom = math.sin(math.pi / (self.k + 2))
        return tuple(math.sin(math.pi * (q + 1) / (self.k + 2)) / denom for q in range(count))

    @functools.cached_property
    def fusion(self) -> np.ndarray:
        """N[a][b][c] in {0, 1}, built on first access: (k+1)^3 bytes."""
        # N[a][b][c] = 1 for c = |a-b|, |a-b|+2, ..., min(a+b, 2k-a-b); only the
        # (a, b) bounds are integer arrays, the (k+1)^3 temporaries are boolean
        k = self.k
        q = np.arange(k + 1)
        a, b, c = q[:, None], q[None, :], q[None, None, :]
        lo = np.abs(a - b)[..., None]
        hi = np.minimum(a + b, 2 * k - a - b)[..., None]
        return ((c >= lo) & (c <= hi) & (c % 2 == ((a + b) % 2)[..., None])).view(np.uint8)


def build_su2k(k: int) -> AnyonModel:
    """Construct the SU(2) level-k model (2 <= k <= ``MAX_LEVEL``)."""
    if k < 2:
        raise DomainError(f"level must be an integer >= 2, got {k}")
    check_budget("models.MAX_LEVEL", k, MAX_LEVEL, "level")
    # A = i * exp(i*pi / (2(k+2))) = exp(i*pi * (k+3) / (2(k+2)))
    return AnyonModel(
        name=f"su2k:{k}",
        d=2.0 * math.cos(math.pi / (k + 2)),
        a_angle=Fraction(k + 3, 2 * (k + 2)),
        k=k,
    )


@dataclass(frozen=True)
class DoubleIrrepParams:
    """Parameters of the transposition-class irrep of the S_N quantum double."""

    N: int

    def __post_init__(self):
        if self.N < 5:
            raise DomainError(f"symmetric group order parameter must be >= 5, got {self.N}")

    @property
    def dim(self) -> int:
        return self.N * (self.N - 1) // 2


def build_dsn(N: int) -> DoubleIrrepParams:
    return DoubleIrrepParams(N)

