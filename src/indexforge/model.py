"""Domain types for composite-index construction.

The engine works on a rectangular regions-by-indicators table. Indicators
belong to one of four thematic pillars and carry a direction: for *benefit*
indicators higher raw values mean more development, for *cost* indicators
the opposite (they are inverse-normalized downstream). Every type here is an
Enum or a frozen dataclass, immutable once built and safe to share between
threads. Every dataclass here but WeightScheme checks itself when built; an
enum field takes the member or its value string and stores the member. A
method's ``IndexResult`` lives in ``aggregate``, which rescales and ranks it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from types import MappingProxyType
from typing import Mapping, Sequence

import numpy as np

from .errors import (
    AllZeroWeightsError,
    DuplicateIndicatorIdError,
    DuplicateRegionError,
    EmptyPillarError,
    ManifestFormatError,
    NegativeWeightError,
    NonFiniteWeightError,
    NonNumericCellError,
    WeightFormatError,
    WeightManifestMismatchError,
    WeightSumOverflowError,
)


class Pillar(str, Enum):
    POPULATION = "Population"
    SOCIAL_WELFARE = "SocialWelfare"
    ECONOMY = "Economy"
    ENVIRONMENT = "Environment"


#: Canonical pillar order used everywhere a stable order is needed.
PILLARS: tuple[Pillar, ...] = tuple(Pillar)

#: Default pillar weighting for the weighted-mean method, as elicited from
#: an expert panel (percentages; renormalized because they sum to 99.6).
DEFAULT_PILLAR_WEIGHTS: Mapping[Pillar, float] = MappingProxyType({
    Pillar.ECONOMY: 28.4,
    Pillar.SOCIAL_WELFARE: 26.2,
    Pillar.ENVIRONMENT: 24.0,
    Pillar.POPULATION: 21.0,
})


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
    """Identity, pillar membership, direction and weight of one indicator.

    ``pillar`` and ``direction`` take a member or its value string and are
    stored as the member; ``weight`` is stored as a float. A value neither
    takes raises ManifestFormatError, checked in that order.
    """

    id: str
    label: str
    pillar: Pillar
    direction: Direction = Direction.BENEFIT
    weight: float = 1.0
    unit: str = ""

    def __post_init__(self):
        for name, kind in (("pillar", Pillar), ("direction", Direction)):
            value = getattr(self, name)
            try:
                object.__setattr__(self, name, kind(value))
            except ValueError:
                raise ManifestFormatError(f"unknown {name} {value!r}") from None
        try:
            object.__setattr__(self, "weight", float(self.weight))
        except (TypeError, ValueError):
            raise ManifestFormatError(
                f"non-numeric weight {self.weight!r} for indicator {self.id!r}"
            ) from None


@dataclass(frozen=True)
class Manifest:
    """Ordered collection of indicator specs covering all pillars, checked when built.

    ``specs`` (any iterable) is stored as a tuple. Construction raises
    DuplicateIndicatorIdError for the first repeated id, then EmptyPillarError
    for the first pillar without an indicator; ``build_weight_scheme``, the one
    owner of the weight rule, then checks the weights and builds the panel
    weighting, kept as ``panel_weights`` and valid for every method.
    """

    specs: tuple[IndicatorSpec, ...]
    panel_weights: WeightScheme = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "specs", tuple(self.specs))
        if len(self._by_id) < len(self.specs):
            raise DuplicateIndicatorIdError(_first_repeat(self.ids))
        for pillar in PILLARS:
            if not self.pillar_ids(pillar):
                raise EmptyPillarError(pillar)
        object.__setattr__(self, "panel_weights", build_weight_scheme(self))

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


def _first_repeat(labels: Sequence[str]) -> str:
    """The first label of ``labels`` that an earlier one equals; there must be one."""
    seen: set[str] = set()
    return next(label for label in labels if label in seen or seen.add(label))


@dataclass(frozen=True)
class WeightScheme:
    """Two-level weights: across pillars, and across indicators within a pillar.

    ``build_weight_scheme`` renormalizes both levels (pillar weights sum to 1,
    and so do each pillar's indicator weights) and multiplies them into
    ``flat_weights``. Construction checks nothing and keeps read-only copies.
    """

    pillar_weights: Mapping[Pillar, float]
    indicator_weights: Mapping[str, float]
    flat_weights: Mapping[str, float]

    def __post_init__(self):
        for name in ("pillar_weights", "indicator_weights", "flat_weights"):
            object.__setattr__(self, name, MappingProxyType(dict(getattr(self, name))))


def build_weight_scheme(
    manifest: Manifest,
    pillar_weights: Mapping[Pillar | str, float] | None = None,
    indicator_weights: Mapping[str, float] | None = None,
) -> WeightScheme:
    """Renormalize raw weight inputs into a valid WeightScheme.

    ``pillar_weights`` maps a Pillar or its name to a weight on any positive
    scale; they are divided by their sum. None means DEFAULT_PILLAR_WEIGHTS, so
    ``build_weight_scheme(manifest)`` is the expert panel's weighting and equal
    weights are ``{p: 1 for p in PILLARS}``. In an explicit map, a pillar left
    out gets weight 0, and a key that names no pillar raises WeightFormatError,
    as does a weight at either level that ``float`` rejects. ``indicator_weights``
    override the manifest's per-indicator weights for the listed ids; each
    pillar's indicator weights are then renormalized to sum to 1. A level whose
    weights sum beyond the float range raises WeightSumOverflowError.
    """
    pillar_weights = DEFAULT_PILLAR_WEIGHTS if pillar_weights is None else pillar_weights
    raw_pillar = dict.fromkeys((pillar.value for pillar in PILLARS), 0.0)
    for key, value in pillar_weights.items():
        try:
            name = Pillar(key).value
        except ValueError:
            raise WeightFormatError(f"unknown pillar {key!r}") from None
        raw_pillar[name] = value
    normalized_pillar = dict(zip(PILLARS, _shares(raw_pillar, "pillar", "pillars")))

    overrides = dict(indicator_weights or {})
    unknown = set(overrides) - set(manifest.ids)
    if unknown:
        raise WeightManifestMismatchError(unknown)

    normalized_indicator: dict[str, float] = {}
    flat: dict[str, float] = {}
    for pillar, pillar_share in normalized_pillar.items():
        raw = {
            indicator_id: overrides.get(indicator_id, manifest.spec(indicator_id).weight)
            for indicator_id in manifest.pillar_ids(pillar)
        }
        shares = _shares(raw, "indicator", pillar.value)
        normalized_indicator.update(zip(raw, shares))
        flat.update(zip(raw, (pillar_share * share for share in shares)))

    return WeightScheme(normalized_pillar, normalized_indicator, flat)


def _shares(weights: Mapping[str, object], kind: str, scope: str) -> list[float]:
    """Each of ``weights`` as a float divided by their sum, in order. Each is checked as a
    ``kind`` weight (WeightFormatError for one ``float`` rejects); a sum that is zero or
    overflows raises an error naming ``scope``."""
    values = []
    for name, weight in weights.items():
        try:
            value = float(weight)
        except (TypeError, ValueError):
            raise WeightFormatError(f"{kind} {name!r} has non-numeric weight {weight!r}") from None
        if not np.isfinite(value):
            raise NonFiniteWeightError(name, value, kind)
        if value < 0:
            raise NegativeWeightError(name, value, kind)
        values.append(value)
    total = sum(values)
    if total <= 0:
        raise AllZeroWeightsError(scope)
    if not np.isfinite(total):
        raise WeightSumOverflowError(scope)
    return [value / total for value in values]


@dataclass(frozen=True, eq=False)
class IndicatorMatrix:
    """Dense regions-by-indicators table of finite values, checked when built.

    ``stage`` records whether the values are raw observations or already
    min-max normalized to [0, 1]. The constructor copies ``values`` and checks
    the shape (ValueError), then the labels (DuplicateRegionError, then
    DuplicateIndicatorIdError, naming the first repeat), then ``stage``, a
    Stage or its value (ValueError), then the values (NonNumericCellError
    for the first nan or inf in row-major order, ValueError for a normalized
    value outside [0, 1]). The value buffer is made read-only so a matrix
    can be shared freely once built.
    """

    regions: tuple[str, ...]
    indicators: tuple[str, ...]
    values: np.ndarray
    stage: Stage = Stage.RAW

    def __post_init__(self):
        regions, indicators = tuple(self.regions), tuple(self.indicators)
        array = np.array(self.values, dtype=float)
        if array.shape != (len(regions), len(indicators)):
            raise ValueError(
                f"values shape {array.shape} does not match "
                f"{len(regions)} regions x {len(indicators)} indicators"
            )
        if len(set(regions)) < len(regions):
            raise DuplicateRegionError(_first_repeat(regions))
        if len(set(indicators)) < len(indicators):
            raise DuplicateIndicatorIdError(_first_repeat(indicators))
        self._freeze(regions, indicators, array, Stage(self.stage))

    def _with_values(self, array: np.ndarray, stage: Stage) -> IndicatorMatrix:
        """A matrix over this one's checked labels holding ``array``, a fresh
        C-contiguous float array of the same shape that it takes over without
        a copy; only the values are checked."""
        matrix = object.__new__(IndicatorMatrix)
        matrix._freeze(self.regions, self.indicators, array, stage)
        return matrix

    def _freeze(self, regions, indicators, array: np.ndarray, stage: Stage) -> None:
        """Check the values, make their buffer read-only and set every field."""
        if not np.isfinite(array).all():
            i, j = np.argwhere(~np.isfinite(array))[0]
            raise NonNumericCellError(regions[i], indicators[j], str(array[i, j]))
        if stage is Stage.NORMALIZED and (array.min() < -1e-9 or array.max() > 1 + 1e-9):
            raise ValueError("normalized matrix has values outside [0, 1]")
        array.flags.writeable = False
        vars(self).update(regions=regions, indicators=indicators, values=array, stage=stage)

    @cached_property
    def _column_of(self) -> dict[str, int]:
        return {indicator_id: j for j, indicator_id in enumerate(self.indicators)}

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
        values, stage = vars(self).get("values"), vars(self).get("stage")
        if not (isinstance(values, np.ndarray) and values.ndim == 2 and isinstance(stage, Stage)):
            return f"IndicatorMatrix({vars(self)!r})"  # a constructor raised on these arguments
        rows, cols = values.shape
        return f"IndicatorMatrix({rows} regions x {cols} indicators, stage={stage.value})"
