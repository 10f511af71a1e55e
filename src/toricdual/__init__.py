"""Exact self-duality tests for projective toric varieties.

A configuration of lattice points (columns of an integer matrix) determines
an equivariantly embedded projective toric variety.  This package decides —
in exact integer/rational arithmetic, with machine-checkable witnesses —
whether that variety is self-dual or strongly self-dual, working from the
Gale dual of the configuration.  Brute-force oracles re-derive every verdict
independently for cross-validation.
"""

from .configuration import (
    Configuration,
    DecompositionReport,
    DedupReport,
    affine_dim,
    dedup,
    parse_configuration,
    regularize,
    subconfiguration,
)
from .engine import (
    HypersurfaceClass,
    full_decomposition,
    hypersurface_class,
    is_lawrence,
    is_segre,
    is_self_dual,
    is_strongly_self_dual,
    lawrence_strong_parity,
    smooth_certificate,
)
from .exceptions import GuardExceeded, InapplicableInput
from .families import (
    config_from_gale,
    family_alpha,
    family_alpha_gale,
    family_codim,
    family_dim,
    lawrence,
    segre,
)
from .gale import (
    GaleDual,
    coparallel_classes,
    coparallel_criterion,
    gale_dual,
    is_facial,
    is_parallel_face_complement,
    line_partition,
    line_sums_zero,
    verify_gale_dual,
)
from .intlinalg import (
    IntMatrix,
    imat,
    in_row_span,
    integer_kernel,
    matmul,
    rational_rank,
)
from .oracle import (
    Circuit,
    Flat,
    coparallel_via_circuits,
    crosscheck,
    enumerate_circuits,
    enumerate_flats,
    facial_via_separation,
    self_dual_via_flats,
    self_dual_via_sigma,
    strong_via_points,
)
from .ratlp import positive_dependency
from .verdict import Verdict

__all__ = [
    "Circuit",
    "Configuration",
    "DecompositionReport",
    "DedupReport",
    "Flat",
    "GaleDual",
    "GuardExceeded",
    "HypersurfaceClass",
    "InapplicableInput",
    "IntMatrix",
    "Verdict",
    "affine_dim",
    "config_from_gale",
    "coparallel_classes",
    "coparallel_criterion",
    "coparallel_via_circuits",
    "crosscheck",
    "dedup",
    "enumerate_circuits",
    "enumerate_flats",
    "facial_via_separation",
    "family_alpha",
    "family_alpha_gale",
    "family_codim",
    "family_dim",
    "full_decomposition",
    "gale_dual",
    "hypersurface_class",
    "imat",
    "in_row_span",
    "integer_kernel",
    "is_facial",
    "is_lawrence",
    "is_parallel_face_complement",
    "is_segre",
    "is_self_dual",
    "is_strongly_self_dual",
    "lawrence",
    "lawrence_strong_parity",
    "line_partition",
    "line_sums_zero",
    "matmul",
    "parse_configuration",
    "positive_dependency",
    "rational_rank",
    "regularize",
    "segre",
    "self_dual_via_flats",
    "self_dual_via_sigma",
    "smooth_certificate",
    "strong_via_points",
    "subconfiguration",
    "verify_gale_dual",
]

__version__ = "0.1.0"
