"""Exception types shared across the package."""


class ShapeError(ValueError):
    """Operands have incompatible or invalid dimensions."""


class NumericError(ValueError):
    """Non-finite values appeared where finite ones are required."""


class FormatError(ValueError):
    """A binary file or serialized payload is malformed."""


class ConfigError(ValueError):
    """An experiment configuration is invalid or inconsistent."""

    def __init__(self, message, field=None, line=None):
        if field is not None:
            message = f"{field}: {message}"
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.field = field
        self.line = line
