"""Exception hierarchy shared across the package."""


class FlakiDockError(Exception):
    """Base class for everything raised deliberately by this package."""


# --- build-definition parsing ---

class MalformedEncoding(FlakiDockError):
    """Input bytes are not valid UTF-8, or input text has no UTF-8 form."""


class EmptyDocument(FlakiDockError):
    """The build definition contains no instructions at all."""


# --- build engine ---

class EngineError(FlakiDockError):
    """Driver-level failure (daemon unreachable, disk full, ...).

    Distinct from an ordinary build failure, which is reported through a
    BuildRecord status. Drivers raise it; `BuildEngine` sets `records` to the
    builds run so far, the failed build's engine-error record last.
    """

    def __init__(self, message: str):
        super().__init__(message)
        self.records = []


# --- log preprocessing ---

class InvalidRule(FlakiDockError):
    """A rule file entry could not be parsed or compiled."""


# --- providers ---

class ProviderUnavailable(FlakiDockError):
    """The remote embedding/generation service could not be reached or errored."""


# --- vector math ---

class DimensionMismatch(FlakiDockError):
    """Two vectors of different dimensionality were combined."""


class ZeroVector(FlakiDockError):
    """An all-zero embedding was produced or supplied; similarity is undefined."""


# --- demonstration store ---

class StoreError(FlakiDockError):
    """Base class for demonstration-store problems."""


class SchemaViolation(StoreError):
    """A record breaks the store schema; names the offending record and field."""

    def __init__(self, record_id: str, field: str, message: str):
        super().__init__(f"record {record_id!r}, field {field!r}: {message}")
        self.record_id = record_id
        self.field = field


class VersionMismatch(StoreError):
    """The store file declares an unsupported schema version."""


# --- repair pipeline ---

class UnparseableResponse(FlakiDockError):
    """Generator output yielded no usable build definition."""


class BudgetExhausted(FlakiDockError):
    """The prompt does not fit its token budget, even with every build output cut to the floor."""


# --- configuration ---

class ConfigError(FlakiDockError):
    """A configuration file or value is invalid."""
