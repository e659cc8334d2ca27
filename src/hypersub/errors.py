"""Exception hierarchy shared across the package."""


class HypersubError(Exception):
    """Base class for every error raised by this package."""


class InputDataError(HypersubError):
    """User-supplied data is malformed or inconsistent (CLI exit code 2)."""


# ---------------------------------------------------------------- hypergraph

class EmptyHyperedge(InputDataError):
    """A hyperedge was declared with no member nodes."""


# -------------------------------------------------------------------- kernel

class ShapeError(HypersubError):
    """Operand shapes are incompatible with the requested operation."""


class NotScalar(HypersubError):
    """Backward passes start from a scalar; this tensor is not one."""


class GraphConsumed(HypersubError):
    """A backward pass reached a graph that an earlier backward pass released."""


# ------------------------------------------------------------------ training

class NumericalDivergence(HypersubError):
    """A loss or gradient became NaN or infinite during training (CLI exit code 3)."""


class EmptySplit(InputDataError):
    """A required data split contains no subjects."""


class InvalidLabel(InputDataError):
    """A label row is unusable for the configured output mode."""


class EmptyClass(InputDataError):
    """No subjects carry the requested class label."""


# ------------------------------------------------------------------- data io

class MalformedLine(InputDataError):
    """A text input line does not follow the expected format."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class DuplicateSet(InputDataError):
    """Two records in one catalog or table share an identifier."""


class UnknownClass(InputDataError):
    """A subject label does not appear in the declared class vocabulary."""


class EmptySubgraph(InputDataError):
    """A subject has no usable member nodes after catalog filtering."""


class UnsupportedVersion(InputDataError):
    """A checkpoint was written by an incompatible format version."""


class CorruptCheckpoint(InputDataError):
    """A checkpoint file is truncated or internally inconsistent."""


class UnknownConfigKey(InputDataError):
    """A configuration file names a key this package does not define."""


class InvalidConfigValue(InputDataError, ValueError):
    """A configuration value is out of its range or not a finite number."""

    def __init__(self, key: str, reason: str, line_no: int | None = None):
        where = "" if line_no is None else f"line {line_no}: "
        super().__init__(f"{where}{key} {reason}")
        self.key = key
        self.reason = reason
        self.line_no = line_no


class InvalidSplitRatios(InputDataError, ValueError):
    """Split ratios are negative, not finite, or do not sum to 1."""
