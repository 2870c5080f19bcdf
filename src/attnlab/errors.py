"""Exception types shared across the package."""


class ShapeError(ValueError):
    """Operands have incompatible or malformed shapes."""


class ValidationError(ValueError):
    """An input record, structure or config violates a documented invariant.
    ``keys`` names the config fields it involves, so that the CLI can name
    where each was set."""

    def __init__(self, message: str = "", *keys: str):
        super().__init__(message)
        self.keys = keys


class NumericError(ArithmeticError):
    """A computation produced a non-finite value."""


class TrainingError(RuntimeError):
    """Training diverged; carries the failing optimizer step."""

    def __init__(self, message: str, step: int):
        super().__init__(f"{message} (step {step})")
        self.step = step
