"""Domain types for composite-index construction.

The engine works on a rectangular regions-by-indicators table. Indicators
belong to one of four thematic pillars and carry a direction: for *benefit*
indicators higher raw values mean more development, for *cost* indicators
the opposite (they are inverse-normalized downstream). All types here are
immutable after construction and safe to share between threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import (
    AllZeroWeightsError,
    DuplicateIndicatorIdError,
    EmptyPillarError,
    NegativeWeightError,
    WeightManifestMismatchError,
)


class Pillar(str, Enum):
    POPULATION = "Population"
    SOCIAL_WELFARE = "SocialWelfare"
    ECONOMY = "Economy"
    ENVIRONMENT = "Environment"


#: Canonical pillar order used everywhere a stable order is needed.
PILLARS: tuple[Pillar, ...] = (
    Pillar.POPULATION,
    Pillar.SOCIAL_WELFARE,
    Pillar.ECONOMY,
    Pillar.ENVIRONMENT,
)


class Direction(str, Enum):
    BENEFIT = "benefit"
    COST = "cost"


class Stage(str, Enum):
    RAW = "raw"
    NORMALIZED = "normalized"


class Method(str, Enum):
    ABREU = "abreu"
    DELPHI = "delphi"
    PCA = "pca"


@dataclass(frozen=True)
class IndicatorSpec:
    """Identity, pillar membership, direction and weight of one indicator."""

    id: str
    label: str
    pillar: Pillar
    direction: Direction = Direction.BENEFIT
    weight: float = 1.0
    unit: str = ""


@dataclass(frozen=True)
class Manifest:
    """Validated, ordered collection of indicator specs covering all pillars."""

    specs: tuple[IndicatorSpec, ...]

    @cached_property
    def ids(self) -> tuple[str, ...]:
        return tuple(spec.id for spec in self.specs)

    @cached_property
    def _by_id(self) -> dict[str, IndicatorSpec]:
        return {spec.id: spec for spec in self.specs}

    def __len__(self) -> int:
        return len(self.specs)

    def spec(self, indicator_id: str) -> IndicatorSpec:
        return self._by_id[indicator_id]

    def pillar_ids(self, pillar: Pillar) -> tuple[str, ...]:
        return tuple(spec.id for spec in self.specs if spec.pillar is pillar)

    def pillar_sizes(self) -> dict[Pillar, int]:
        return {pillar: len(self.pillar_ids(pillar)) for pillar in PILLARS}


def validate_manifest(specs: Iterable[IndicatorSpec]) -> Manifest:
    """Check uniqueness, weight signs and pillar coverage; return a Manifest.

    Raises DuplicateIndicatorIdError, NegativeWeightError or EmptyPillarError.
    Every pillar must contain at least one indicator with positive weight.
    """
    specs = tuple(specs)
    if not specs:
        raise EmptyPillarError(PILLARS[0])
    seen: set[str] = set()
    for spec in specs:
        if spec.id in seen:
            raise DuplicateIndicatorIdError(spec.id)
        seen.add(spec.id)
        if spec.weight < 0:
            raise NegativeWeightError(spec.id, spec.weight)
    manifest = Manifest(specs)
    for pillar in PILLARS:
        ids = manifest.pillar_ids(pillar)
        if not ids:
            raise EmptyPillarError(pillar)
        if all(manifest.spec(i).weight == 0 for i in ids):
            raise AllZeroWeightsError(pillar.value)
    return manifest


@dataclass(frozen=True)
class WeightScheme:
    """Two-level weights: across pillars, and across indicators within a pillar.

    Both levels are renormalized at construction time: pillar weights sum
    to 1, and the indicator weights of each pillar sum to 1.
    """

    pillar_weights: Mapping[Pillar, float]
    indicator_weights: Mapping[str, float]


def build_weight_scheme(
    manifest: Manifest,
    pillar_weights: Mapping[Pillar, float] | None = None,
    indicator_weights: Mapping[str, float] | None = None,
) -> WeightScheme:
    """Renormalize raw weight inputs into a valid WeightScheme.

    ``pillar_weights`` may be on any positive scale (percentages, counts,
    fractions); they are divided by their sum. Passing None weighs every
    pillar equally; in an explicit map, a pillar left out gets weight 0.
    ``indicator_weights`` override the manifest's per-indicator weights for
    the listed ids; each pillar's indicator weights are then renormalized
    to sum to 1 within the pillar.
    """
    if pillar_weights is None:
        raw_pillar = {pillar: 1.0 for pillar in PILLARS}
    else:
        raw_pillar = {pillar: float(pillar_weights.get(pillar, 0.0)) for pillar in PILLARS}
    for pillar, value in raw_pillar.items():
        if value < 0:
            raise NegativeWeightError(pillar.value, value)
    total = sum(raw_pillar.values())
    if total <= 0:
        raise AllZeroWeightsError("pillars")
    normalized_pillar = {pillar: value / total for pillar, value in raw_pillar.items()}

    overrides = dict(indicator_weights or {})
    unknown = set(overrides) - set(manifest.ids)
    if unknown:
        raise WeightManifestMismatchError(unknown)

    normalized_indicator: dict[str, float] = {}
    for pillar in PILLARS:
        ids = manifest.pillar_ids(pillar)
        raw = {}
        for indicator_id in ids:
            value = float(overrides.get(indicator_id, manifest.spec(indicator_id).weight))
            if value < 0:
                raise NegativeWeightError(indicator_id, value)
            raw[indicator_id] = value
        subtotal = sum(raw.values())
        if subtotal <= 0:
            raise AllZeroWeightsError(pillar.value)
        for indicator_id, value in raw.items():
            normalized_indicator[indicator_id] = value / subtotal

    return WeightScheme(pillar_weights=normalized_pillar, indicator_weights=normalized_indicator)


class IndicatorMatrix:
    """Dense regions-by-indicators table of finite values.

    ``stage`` records whether the values are raw observations or already
    min-max normalized to [0, 1]. The value buffer is made read-only so a
    matrix can be shared freely once built.
    """

    __slots__ = ("regions", "indicators", "values", "stage", "_column_of")

    def __init__(
        self,
        regions: Sequence[str],
        indicators: Sequence[str],
        values,
        stage: Stage = Stage.RAW,
    ):
        regions = tuple(regions)
        indicators = tuple(indicators)
        array = np.array(values, dtype=float)
        if array.shape != (len(regions), len(indicators)):
            raise ValueError(
                f"values shape {array.shape} does not match "
                f"{len(regions)} regions x {len(indicators)} indicators"
            )
        if len(set(regions)) != len(regions):
            raise ValueError("region labels must be unique")
        column_of = {indicator_id: j for j, indicator_id in enumerate(indicators)}
        if len(column_of) != len(indicators):
            raise ValueError("indicator ids must be unique")
        if not np.all(np.isfinite(array)):
            raise ValueError("matrix contains non-finite values")
        if stage is Stage.NORMALIZED and (array.min() < -1e-9 or array.max() > 1 + 1e-9):
            raise ValueError("normalized matrix has values outside [0, 1]")
        array.flags.writeable = False
        self.regions = regions
        self.indicators = indicators
        self.values = array
        self._column_of = column_of
        self.stage = stage

    def __setattr__(self, name, value):
        if hasattr(self, "stage") and name in self.__slots__:
            raise AttributeError("IndicatorMatrix is immutable")
        super().__setattr__(name, value)

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape

    def column(self, indicator_id: str) -> np.ndarray:
        return self.values[:, self._column_of[indicator_id]]

    def row(self, region: str) -> np.ndarray:
        return self.values[self.regions.index(region), :]

    def columns(self, indicator_ids: Sequence[str]) -> np.ndarray:
        return self.values[:, [self._column_of[i] for i in indicator_ids]]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, IndicatorMatrix)
            and self.regions == other.regions
            and self.indicators == other.indicators
            and self.stage == other.stage
            and np.array_equal(self.values, other.values)
        )

    def __repr__(self) -> str:
        rows, cols = self.shape
        return f"IndicatorMatrix({rows} regions x {cols} indicators, stage={self.stage.value})"


def _read_only(values) -> np.ndarray:
    array = np.array(values, dtype=float)
    array.flags.writeable = False
    return array


@dataclass(frozen=True, eq=False)
class IndexResult:
    """Final index of one method: raw and [0, 1] rescaled vectors, ranking.

    ``raw`` and ``rescaled`` are read-only vectors aligned to ``regions``.
    The ranking is in descending rescaled order; ties are broken by the
    code-point order of the region labels so that equal scores still produce
    a deterministic order.
    """

    method: Method
    regions: tuple[str, ...]
    raw: np.ndarray
    rescaled: np.ndarray
    ranking: tuple[str, ...] = field(default=())

    def __post_init__(self):
        object.__setattr__(self, "regions", tuple(self.regions))
        object.__setattr__(self, "raw", _read_only(self.raw))
        object.__setattr__(self, "rescaled", _read_only(self.rescaled))

    def __eq__(self, other) -> bool:
        # Same method, ranking and region -> value pairs, in any region order.
        return (
            isinstance(other, IndexResult)
            and self.method == other.method
            and self.ranking == other.ranking
            and self.raw_index == other.raw_index
            and self.rescaled_index == other.rescaled_index
        )

    @cached_property
    def raw_index(self) -> Mapping[str, float]:
        return MappingProxyType(dict(zip(self.regions, self.raw.tolist())))

    @cached_property
    def rescaled_index(self) -> Mapping[str, float]:
        return MappingProxyType(dict(zip(self.regions, self.rescaled.tolist())))

    def rescaled_vector(self, regions: Sequence[str] | None = None) -> np.ndarray:
        if regions is None or tuple(regions) == self.regions:
            return self.rescaled
        return np.array([self.rescaled_index[r] for r in regions])
