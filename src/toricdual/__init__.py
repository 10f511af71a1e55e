"""Exact self-duality tests for projective toric varieties.

A configuration of lattice points (columns of an integer matrix) determines
an equivariantly embedded projective toric variety.  This package decides —
in exact integer/rational arithmetic, with machine-checkable witnesses —
whether that variety is self-dual or strongly self-dual, working from the
Gale dual of the configuration.  Brute-force oracles re-derive every verdict
independently for cross-validation.

Names load on first use: each exported name is imported from its
submodule when it is first read, so a program loads only the code it runs
(reading ``toricdual.is_self_dual`` loads no oracle code).
"""

from importlib import import_module

__version__ = "0.1.0"

# each public name and the submodule that defines it
_SUBMODULE = {
    "Circuit": "oracle",
    "Configuration": "configuration",
    "DecompositionReport": "configuration",
    "DedupReport": "configuration",
    "Flat": "oracle",
    "GaleDual": "gale",
    "GuardExceeded": "exceptions",
    "HypersurfaceClass": "engine",
    "InapplicableInput": "exceptions",
    "IntMatrix": "intlinalg",
    "Verdict": "verdict",
    "affine_dim": "configuration",
    "config_from_gale": "families",
    "coparallel_classes": "gale",
    "coparallel_criterion": "gale",
    "coparallel_via_circuits": "oracle",
    "crosscheck": "oracle",
    "dedup": "configuration",
    "enumerate_circuits": "oracle",
    "enumerate_flats": "oracle",
    "facial_via_separation": "oracle",
    "family_alpha": "families",
    "family_alpha_gale": "families",
    "family_codim": "families",
    "family_dim": "families",
    "full_decomposition": "engine",
    "gale_dual": "gale",
    "hypersurface_class": "engine",
    "imat": "intlinalg",
    "integer_kernel": "intlinalg",
    "is_facial": "gale",
    "is_lawrence": "engine",
    "is_parallel_face_complement": "gale",
    "is_segre": "engine",
    "is_self_dual": "engine",
    "is_strongly_self_dual": "engine",
    "lawrence": "families",
    "lawrence_strong_parity": "engine",
    "line_partition": "gale",
    "line_sums_zero": "gale",
    "matmul": "intlinalg",
    "parse_configuration": "configuration",
    "segre": "families",
    "self_dual_via_flats": "oracle",
    "self_dual_via_sigma": "oracle",
    "smooth_certificate": "engine",
    "strong_via_points": "oracle",
    "verify_gale_dual": "gale",
}

__all__ = list(_SUBMODULE)


def __getattr__(name):
    try:
        module = _SUBMODULE[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
