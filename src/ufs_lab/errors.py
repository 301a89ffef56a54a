"""Exception types shared across the package."""


class DimensionError(ValueError):
    """Array shapes do not satisfy an operation's contract."""


class ContractError(ValueError):
    """An argument violates a documented precondition."""


class NumericError(ArithmeticError):
    """A computation left the supported numeric regime (NaN, singular matrix, ...)."""


class ParseError(ValueError):
    """A file or byte stream does not match its documented format."""


class ConfigError(ValueError):
    """An experiment configuration is malformed or inconsistent."""


class UnsupportedArchitectureError(TypeError):
    """The network architecture cannot support the requested operation."""
