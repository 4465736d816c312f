"""Anyon model data: labels, fusion rules, quantum dimensions, bracket parameter.

Two families are supported.  ``build_su2k`` constructs the SU(2) level-k
model whose walker label is the spin-1/2 particle; labels are indexed by
twice their spin, so id 0 is the vacuum and id 1 is the walker.  Its
(k+1)^3 fusion tensor is built on first access; walks and brackets never
read it, the walker's fusion rule being the step q -> q +- 1.
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

from .errors import DomainError

#: highest level ``build_su2k`` accepts.  A model holds O(k) labels and
#: weights, and a walk or a bracket at this level runs in milliseconds; the
#: (k+1)^3 fusion tensor is built only when read, which no walk or bracket does.
MAX_LEVEL = 10_000


@dataclass(frozen=True)
class AnyonLabel:
    id: int
    name: str


def _su2_label_name(q: int) -> str:
    # q is twice the spin
    if q == 0:
        return "1"
    if q == 1:
        return "σ"
    if q == 2:
        return "ψ"
    return f"{q}/2" if q % 2 else str(q // 2)


@dataclass(frozen=True, eq=False)
class AnyonModel:
    """Immutable model data; safe for unrestricted concurrent reads."""

    name: str
    labels: tuple[AnyonLabel, ...]
    d: float  # quantum dimension of the walker label
    a_angle: Fraction  # A = exp(i * pi * a_angle)
    k: int | None = None
    weights: tuple[float, ...] = ()  # loop weight per label id

    @property
    def A(self) -> complex:
        return cmath.exp(1j * math.pi * float(self.a_angle))

    @property
    def sigma(self) -> int:
        """Label id of the walker particle."""
        return 1

    @property
    def vacuum(self) -> int:
        return 0

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

    def fusion_outcomes(self, a: int, b: int) -> list[int]:
        return [c for c in range(len(self.labels)) if self.fusion[a, b, c]]


def build_su2k(k: int) -> AnyonModel:
    """Construct the SU(2) level-k model (2 <= k <= ``MAX_LEVEL``)."""
    if k < 2:
        raise DomainError(f"level must be an integer >= 2, got {k}")
    if k > MAX_LEVEL:
        raise DomainError(f"level {k} exceeds the cap of {MAX_LEVEL}")
    nlab = k + 1
    d = 2.0 * math.cos(math.pi / (k + 2))
    # A = i * exp(i*pi / (2(k+2))) = exp(i*pi * (k+3) / (2(k+2)))
    a_angle = Fraction(k + 3, 2 * (k + 2))
    denom = math.sin(math.pi / (k + 2))
    weights = tuple(math.sin(math.pi * (q + 1) / (k + 2)) / denom for q in range(nlab))
    labels = tuple(AnyonLabel(q, _su2_label_name(q)) for q in range(nlab))
    return AnyonModel(
        name=f"su2k:{k}",
        labels=labels,
        d=d,
        a_angle=a_angle,
        k=k,
        weights=weights,
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


def parse_model_spec(spec: str) -> AnyonModel | DoubleIrrepParams:
    """Parse a model selector of the form ``su2k:<k>`` or ``dsn:<N>``."""
    kind, sep, arg = spec.partition(":")
    if not sep or not arg.lstrip("-").isdigit():
        raise DomainError(f"cannot parse model spec {spec!r}; expected su2k:<k> or dsn:<N>")
    value = int(arg)
    if kind == "su2k":
        return build_su2k(value)
    if kind == "dsn":
        return build_dsn(value)
    raise DomainError(f"unknown model family {kind!r}")
