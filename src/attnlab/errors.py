"""Exception types shared across the package."""


class ShapeError(ValueError):
    """Operands have incompatible or malformed shapes."""


class _KeyedError(Exception):
    """``keys`` names the config fields an error involves, so that the CLI
    can name where each was set."""

    def __init__(self, message: str = "", *keys: str):
        super().__init__(message)
        self.keys = keys


class ValidationError(_KeyedError, ValueError):
    """An input record or structure violates a documented invariant."""


class NumericError(ArithmeticError):
    """A computation produced a non-finite value."""


class GenerationError(_KeyedError, RuntimeError):
    """A synthetic-task configuration cannot be realized."""


class TrainingError(RuntimeError):
    """Training diverged; carries the failing optimizer step."""

    def __init__(self, message: str, step: int):
        super().__init__(f"{message} (step {step})")
        self.step = step
