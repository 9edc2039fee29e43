from __future__ import annotations

import warnings

import numpy as np
import pytest

from indexforge import (
    Method,
    compute_abreu,
    compute_delphi,
    compute_pca,
    normalize_matrix,
)
from indexforge.datasets import load_nuts3_dataset, load_reference_indexes

REGIONS = (
    "Alto Minho",
    "Terras de Trás-os-Montes",
    "Região de Coimbra",
    "Beiras e Serra da Estrela",
    "Alentejo Litoral",
    "Alto Alentejo",
    "Algarve",
    "Região Autónoma dos Açores",
    "Região Autónoma da Madeira",
)

# Reference index columns for the bundled dataset, in REGIONS order.
REFERENCE_ABREU = (0.34, 0.00, 0.78, 0.05, 0.37, 0.17, 0.94, 0.74, 1.00)
REFERENCE_DELPHI = (0.13, 0.11, 0.89, 0.02, 0.38, 0.00, 0.84, 0.73, 1.00)
REFERENCE_PCA = (0.29, 0.00, 0.27, 0.01, 0.18, 0.09, 0.70, 1.00, 0.99)


@pytest.fixture(scope="session")
def bundled():
    manifest, raw = load_nuts3_dataset()
    return manifest, raw


@pytest.fixture(scope="session")
def manifest(bundled):
    return bundled[0]


@pytest.fixture(scope="session")
def raw_matrix(bundled):
    return bundled[1]


@pytest.fixture(scope="session")
def normalized(bundled):
    manifest, raw = bundled
    matrix, records = normalize_matrix(raw, manifest)
    return matrix, records


@pytest.fixture(scope="session")
def norm_matrix(normalized):
    return normalized[0]


@pytest.fixture(scope="session")
def results_all(bundled, norm_matrix):
    manifest, _ = bundled
    abreu = compute_abreu(norm_matrix, manifest)
    delphi = compute_delphi(norm_matrix, manifest)
    pca, audit = compute_pca(norm_matrix, manifest)
    return {Method.ABREU: abreu, Method.DELPHI: delphi, Method.PCA: pca}, audit


@pytest.fixture(scope="session")
def reference_results():
    return load_reference_indexes()


def random_dataset(rng: np.random.Generator, n_regions=None, n_indicators=None):
    """Random small manifest + raw matrix for property tests."""
    from indexforge import Direction, IndicatorMatrix, IndicatorSpec, Manifest, PILLARS

    n_regions = n_regions or int(rng.integers(3, 13))
    n_indicators = n_indicators or int(rng.integers(4, 26))
    # Assign each pillar at least one indicator, the rest at random.
    pillars = list(PILLARS)
    assignment = pillars + [pillars[int(rng.integers(4))] for _ in range(n_indicators - 4)]
    rng.shuffle(assignment)
    specs = []
    for i, pillar in enumerate(assignment):
        direction = Direction.COST if rng.random() < 0.25 else Direction.BENEFIT
        weight = float(rng.uniform(0.1, 5.0))
        specs.append(
            IndicatorSpec(
                id=f"ind{i}", label=f"indicator {i}", pillar=pillar,
                direction=direction, weight=weight,
            )
        )
    manifest = Manifest(specs)
    values = rng.normal(loc=rng.uniform(-10, 10), scale=rng.uniform(0.5, 20), size=(n_regions, n_indicators))
    regions = tuple(f"region{i}" for i in range(n_regions))
    matrix = IndicatorMatrix(regions, manifest.ids, values)
    return manifest, matrix


def recorded_warnings(call):
    """``call()``'s result and the (category, text) of every warning it raised, in order."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = call()
    return result, [(w.category, str(w.message)) for w in caught]


def edge_vector(rng: np.random.Generator, n: int, constant: float = 0.2) -> np.ndarray:
    """A finite vector of length ``n`` from one of the families that stress min-max scaling.

    With probability ``constant`` an all-equal vector (a signed zero, a
    subnormal or 1e300 among the values); otherwise a few distinct values
    with both zeros among them, magnitudes spread over 1e-300..1e300, one
    magnitude of that range for the whole vector, or one-decimal values that
    tie at the extremes.
    """
    if rng.random() < constant:
        return np.full(n, rng.choice([0.0, -0.0, 5e-324, -1e300, 1e-300, 3.5]))
    kind = int(rng.integers(4))
    if kind == 0:
        return rng.choice([0.0, -0.0, 1.0, -1.0, 5e-324], size=n)
    if kind == 1:
        return rng.normal(size=n) * 10.0 ** rng.uniform(-300, 300, size=n)
    if kind == 2:
        return rng.normal(size=n) * 10.0 ** rng.uniform(-300, 300)
    return np.round(rng.normal(size=n), 1)
