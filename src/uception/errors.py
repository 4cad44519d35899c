"""Exception hierarchy shared across the package.

Every failure mode a caller is expected to handle gets its own class so
batch drivers can map errors to exit codes without string matching.
"""


class UceptionError(Exception):
    """Base class for all errors raised by this package."""


class ShapeError(UceptionError):
    """Tensor or volume axes do not satisfy an operation's contract."""

    def __init__(self, message, axis=None):
        super().__init__(message)
        self.axis = axis


class NumericError(UceptionError):
    """Non-finite values or numerically invalid state."""


class ConfigError(UceptionError):
    """A setting is unknown or out of range: raised by the settings types
    themselves (TrainConfig, UceptionCfg, CyclicSchedule, SnapshotSet,
    PhantomSpec) wherever they are built, and by the CLI for a flag or an
    --out it refuses. The CLI exits 2 on it."""


class DataError(UceptionError):
    """Dataset-level problem: empty set, unpaired files, bad split."""


class MetaImageError(UceptionError):
    """Base for MetaImage parsing/writing failures."""


class MetaImageMissingKey(MetaImageError):
    """A required header key is absent or unparseable."""

    def __init__(self, key, message=None):
        super().__init__(message or f"missing or invalid required header key: {key}")
        self.key = key


class MetaImageUnsupportedType(MetaImageError):
    """ElementType outside the supported subset."""

    def __init__(self, element_type):
        super().__init__(f"unsupported ElementType: {element_type!r}")
        self.element_type = element_type


class MetaImagePayloadMismatch(MetaImageError):
    """Binary payload length disagrees with the header."""

    def __init__(self, expected, actual):
        super().__init__(f"payload length mismatch: expected {expected} bytes, got {actual}")
        self.expected = expected
        self.actual = actual


class EmptyMaskError(UceptionError):
    """A metric that needs a non-empty mask received an empty one."""


class CheckpointError(UceptionError):
    """Checkpoint file is malformed or incompatible."""
