"""Exception hierarchy shared by all indexforge modules."""

from __future__ import annotations


class CompositeIndexError(Exception):
    """Base class for all errors raised by this package."""


# -- manifest / weights ------------------------------------------------------

class DuplicateIndicatorIdError(CompositeIndexError):
    def __init__(self, indicator_id: str):
        self.indicator_id = indicator_id
        super().__init__(f"duplicate indicator id {indicator_id!r}")


class EmptyPillarError(CompositeIndexError):
    def __init__(self, pillar):
        self.pillar = pillar
        super().__init__(f"no indicators assigned to pillar {pillar.value!r}")


class NegativeWeightError(CompositeIndexError):
    """A negative weight; ``scope`` is "indicator" or "pillar", ``name`` its id."""

    def __init__(self, name: str, weight: float, scope: str = "indicator"):
        self.name = name
        self.weight = weight
        self.scope = scope
        super().__init__(f"{scope} {name!r} has negative weight {weight}")


class NonFiniteWeightError(CompositeIndexError):
    """A nan or inf weight; ``scope`` is "indicator" or "pillar", ``name`` its id."""

    def __init__(self, name: str, weight: float, scope: str = "indicator"):
        self.name = name
        self.weight = weight
        self.scope = scope
        super().__init__(f"{scope} {name!r} has weight {weight}, which is not finite")


class AllZeroWeightsError(CompositeIndexError):
    def __init__(self, scope: str):
        self.scope = scope
        super().__init__(f"all weights are zero in scope {scope!r}")


class WeightSumOverflowError(CompositeIndexError):
    def __init__(self, scope: str):
        self.scope = scope
        super().__init__(f"weights in scope {scope!r} sum beyond the float range")


class WeightFormatError(CompositeIndexError):
    """Malformed weight override: a file's header, scope, row or weight, or an unknown pillar."""


class WeightManifestMismatchError(CompositeIndexError):
    def __init__(self, unknown_ids):
        self.unknown_ids = tuple(unknown_ids)
        super().__init__(
            "weight scheme and manifest differ on: " + ", ".join(sorted(self.unknown_ids))
        )


# -- ingestion ---------------------------------------------------------------

class FileEncodingError(CompositeIndexError):
    def __init__(self, path, reason: str):
        self.path = str(path)
        self.reason = reason
        super().__init__(f"{path} is not UTF-8 text ({reason})")


class ManifestFormatError(CompositeIndexError):
    """Malformed manifest: a file's header or row, or an ``IndicatorSpec`` whose
    pillar or direction is unknown or whose weight is not a number."""


class DataFormatError(CompositeIndexError):
    """Malformed data or reference file: empty, bad header, JSON syntax or layout, bad value."""


class MissingCellError(CompositeIndexError):
    def __init__(self, region: str, indicator_id: str):
        self.region = region
        self.indicator_id = indicator_id
        super().__init__(f"missing value at region {region!r}, indicator {indicator_id!r}")


class NonNumericCellError(CompositeIndexError):
    def __init__(self, region: str, indicator_id: str, text: str):
        self.region = region
        self.indicator_id = indicator_id
        self.text = text
        super().__init__(
            f"non-numeric value {text!r} at region {region!r}, indicator {indicator_id!r}"
        )


class UnknownIndicatorError(CompositeIndexError):
    def __init__(self, indicator_id: str):
        self.indicator_id = indicator_id
        super().__init__(f"indicator {indicator_id!r} is not in the manifest")


class MissingIndicatorError(CompositeIndexError):
    def __init__(self, indicator_id: str):
        self.indicator_id = indicator_id
        super().__init__(f"manifest indicator {indicator_id!r} is absent from the data file")


class ExtraCellError(CompositeIndexError):
    def __init__(self, region: str, expected: int, got: int):
        self.region = region
        self.expected = expected
        self.got = got
        super().__init__(f"region {region!r} has {got} values, expected {expected}")


class ExtraRowError(CompositeIndexError):
    def __init__(self, rows: int, regions: int):
        self.rows = rows
        self.regions = regions
        super().__init__(f"data file has {rows} value rows for {regions} regions")


class TooFewRegionsError(CompositeIndexError):
    def __init__(self, count: int):
        self.count = count
        super().__init__(f"dataset has {count} region(s); at least 2 are needed")


class DuplicateRegionError(CompositeIndexError):
    def __init__(self, region: str):
        self.region = region
        super().__init__(f"region {region!r} appears more than once")


class ConstantComponentError(CompositeIndexError):
    def __init__(self, name: str):
        self.name = name
        super().__init__(f"component column {name!r} is constant (max equals min)")


class ColumnSpanOverflowError(CompositeIndexError):
    def __init__(self, column: str):
        self.column = column
        super().__init__(f"column {column!r} spans beyond the float range (max - min overflows)")


# -- aggregation -------------------------------------------------------------

class NegativeInputError(CompositeIndexError):
    def __init__(self, value: float):
        self.value = value
        super().__init__(f"geometric mean requires nonnegative inputs, got {value}")


# -- eigensolver / PCA -------------------------------------------------------

class NotSymmetricError(CompositeIndexError):
    """Eigensolver input is not a finite symmetric matrix the solver can take:
    empty or not square, holding a nan or inf, with a Frobenius norm beyond
    the float range, or not symmetric within tolerance."""


class NoConvergenceError(CompositeIndexError):
    def __init__(self, sweeps: int, off_norm: float):
        self.sweeps = sweeps
        self.off_norm = off_norm
        super().__init__(
            f"eigensolver did not converge after {sweeps} sweeps "
            f"(off-diagonal norm {off_norm:.3e})"
        )


class ConstantColumnError(CompositeIndexError):
    """Every column of a PCA stage is constant, so no factor can be extracted."""

    def __init__(self, column: str):
        self.column = column  # the stage's column ids, comma-separated
        super().__init__(f"every column of the PCA stage is constant: {column}")


# -- statistics --------------------------------------------------------------

class ConstantVectorError(CompositeIndexError):
    """Pearson correlation is undefined for a constant vector."""


class LengthMismatchError(CompositeIndexError):
    def __init__(self, len_x: int, len_y: int | tuple[int, ...]):
        self.len_x = len_x
        self.len_y = len_y  # the shape of a side that is not 1-D
        super().__init__(
            f"expected a vector of {len_x} values, got shape {len_y}" if isinstance(len_y, tuple)
            else f"vectors have different lengths ({len_x} vs {len_y})"
        )


class TooShortError(CompositeIndexError):
    def __init__(self, length: int, minimum: int):
        self.length = length
        self.minimum = minimum
        super().__init__(f"need at least {minimum} values, got {length}")


class RegionSetMismatchError(CompositeIndexError):
    """Results being compared do not share the same region set."""


class FewerThanTwoMethodsError(CompositeIndexError):
    """Comparison requires at least two method results."""
