"""Composite-index construction engine for regional development indicators.

Builds and compares three index aggregation methods over a dense
regions-by-indicators dataset: a hierarchical arithmetic/geometric index,
a two-level weighted arithmetic index, and a two-stage principal-component
index. Ships a reference dataset of nine Portuguese NUTS III regions.

The names below are the ones the README and the demos use; everything else,
the artifact writers included, is imported from its submodule
(``indexforge.aggregate``, ``indexforge.pca`` and so on).
"""

from .aggregate import compute_abreu, compute_delphi
from .model import (
    PILLARS,
    Direction,
    IndicatorMatrix,
    IndicatorSpec,
    Manifest,
    Method,
    Pillar,
    build_weight_scheme,
)
from .normalize import composite_indicator, normalize_matrix
from .pca import REFERENCE_VARIANCE_PROFILE, compute_pca, eigen_symmetric
from .stats import build_comparison, describe, pearson

__version__ = "0.1.0"

__all__ = [
    "PILLARS",
    "REFERENCE_VARIANCE_PROFILE",
    "Direction",
    "IndicatorMatrix",
    "IndicatorSpec",
    "Manifest",
    "Method",
    "Pillar",
    "build_comparison",
    "build_weight_scheme",
    "composite_indicator",
    "compute_abreu",
    "compute_delphi",
    "compute_pca",
    "describe",
    "eigen_symmetric",
    "normalize_matrix",
    "pearson",
]
