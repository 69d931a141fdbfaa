"""Exception types shared across the package.

Simple precondition violations (bad ranges, wrong enum values) raise plain
ValueError; the classes here cover conditions callers are expected to
catch and distinguish programmatically.
"""


class TivisError(Exception):
    """Base class for all package-specific errors."""


class ShapeMismatchError(TivisError):
    """An array's shape does not match what the model or operation expects."""


class InvalidClassError(TivisError):
    """A class index is outside the model's class range."""


class NonFiniteError(TivisError):
    """A weight, activation, or gradient is NaN or infinite."""


class NonFiniteGradientError(NonFiniteError):
    """An input gradient turned non-finite during optimization."""

    def __init__(self, step_index: int):
        self.step_index = step_index
        super().__init__(f"gradient contains non-finite values at optimization step {step_index}")

    def __reduce__(self):
        # args holds the message, not the step: rebuild from the step
        return type(self), (self.step_index,), self.__dict__


class ModelFormatError(TivisError):
    """Base class for model-file decoding failures."""


class BadMagicError(ModelFormatError):
    """The model file does not start with the expected magic bytes."""


class BlobLengthError(ModelFormatError):
    """Declared and actual weight-blob lengths disagree."""


class ShapeChainError(ModelFormatError):
    """Layer shapes do not chain, or stored weights do not fit a layer."""


class TrainingDivergedError(TivisError):
    """Training loss became non-finite."""

    def __init__(self, epoch: int):
        self.epoch = epoch
        super().__init__(f"training loss became non-finite at epoch {epoch}")

    def __reduce__(self):
        return type(self), (self.epoch,), self.__dict__


class PpmError(TivisError):
    """Base class for PPM decoding failures."""


class PpmMagicError(PpmError):
    """Not a binary P6 PPM file."""


class PpmDepthError(PpmError):
    """PPM maxval is not 255 (only 8-bit files are supported)."""


class PpmTruncatedError(PpmError):
    """PPM pixel payload is shorter than the header promises."""


class RectError(TivisError):
    """A screening rectangle does not fit inside the image."""
