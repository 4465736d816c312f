"""Quantum walks of anyons on a line.

Abelian walks carry a four-state coin and a statistical exchange phase;
non-Abelian walks braid a walker through a chain of identical anyons and are
computed by two independent engines, dense fusion-space evolution and
plat-closure bracket sums, which agree to numerical precision.  Exact
Laurent-polynomial bracket evaluation and the Markov-trace walk of the
symmetric-group quantum double round out the toolbox.
"""

__version__ = "0.1.0"

from .abelian import (
    abelian_step,
    asymptotic_coefficients,
    moments_analytic,
    simulate_distribution,
    variance_surface,
)
from .distribution import Distribution, baseline_classical, baseline_quantum, distance
from .errors import BoundaryError, DomainError, IrreducibleWordError, NumericError
from .fusion import (
    FusionSpace,
    braid_generator,
    enumerate_fusion_basis,
    su22_qubit_generator,
    tl_generator,
    vacuum_pair_state,
)
from .laurent import LOOP_VALUE, LaurentPoly
from .models import AnyonModel, DoubleIrrepParams, build_dsn, build_su2k
from .nonabelian import (
    WalkGeometry,
    closed_form_distribution,
    coin_trace,
    distribution_dense,
    distribution_pathsum,
    path_braid_word,
    sweep_distances,
    walk_distribution,
)
from .quantum_double import (
    MarkovValue,
    double_walk_distribution,
    markov_trace_word,
    trace_factor,
)
from .tl import (
    BraidWord,
    anyon_trace,
    markov_bracket,
    plat_bracket,
    state_sum_bracket,
)

__all__ = [
    "AnyonModel",
    "BoundaryError",
    "BraidWord",
    "Distribution",
    "DomainError",
    "DoubleIrrepParams",
    "FusionSpace",
    "IrreducibleWordError",
    "LOOP_VALUE",
    "LaurentPoly",
    "MarkovValue",
    "NumericError",
    "WalkGeometry",
    "abelian_step",
    "anyon_trace",
    "asymptotic_coefficients",
    "baseline_classical",
    "baseline_quantum",
    "braid_generator",
    "build_dsn",
    "build_su2k",
    "closed_form_distribution",
    "coin_trace",
    "distance",
    "distribution_dense",
    "distribution_pathsum",
    "double_walk_distribution",
    "enumerate_fusion_basis",
    "markov_bracket",
    "markov_trace_word",
    "moments_analytic",
    "path_braid_word",
    "plat_bracket",
    "simulate_distribution",
    "state_sum_bracket",
    "su22_qubit_generator",
    "sweep_distances",
    "tl_generator",
    "trace_factor",
    "vacuum_pair_state",
    "variance_surface",
    "walk_distribution",
]
