"""Exception types shared across the package."""


class ConfigError(ValueError):
    """Invalid or inconsistent run configuration."""


class SpecError(ConfigError):
    """Malformed functional spec: not one, identity or cell:IDX."""


class OutOfSupportError(ValueError):
    """Observation outside the declared support."""


class ParseError(ValueError):
    """Malformed observation or config text; carries the offending line number."""

    def __init__(self, message, line=None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


class BoundViolationError(ValueError):
    """A function handle returned a value outside its declared bound."""


class UnsupportedSourceError(ValueError):
    """Requested a quantity this source kind has no closed form for."""
