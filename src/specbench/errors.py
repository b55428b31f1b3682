"""Exception types raised across the package."""


class SpecbenchError(Exception):
    """Base class for all package-specific errors."""


# -- series / windowing ------------------------------------------------------

class RangeTooShort(SpecbenchError):
    """Index range cannot hold a single (context, target) window."""


# -- spectral ----------------------------------------------------------------

class NonFinite(SpecbenchError):
    """Input contains NaN or infinity."""


class KTooLarge(SpecbenchError):
    """Requested more basis components than the spectrum contains."""


# -- synthetic generation ----------------------------------------------------

class ExhaustedParameterSpace(SpecbenchError):
    """Sampler cannot draw the requested number of distinct parameter tuples."""


# -- preprocessing -----------------------------------------------------------

class SchemaError(SpecbenchError):
    """CSV file does not match the expected column schema."""


class EmptyFile(SpecbenchError):
    """CSV file contains no data rows."""


class TooShort(SpecbenchError):
    """Series shorter than one segment."""


class DegenerateInput(SpecbenchError):
    """Statistic undefined for this input (e.g. constant series)."""


class ZeroVariance(SpecbenchError):
    """Autocorrelation undefined: series has zero variance."""


class NotEnoughStationary(SpecbenchError):
    """Fewer stationary segments than the requested selection size."""


# -- tensor engine -----------------------------------------------------------

class ShapeMismatch(SpecbenchError):
    """Operand shapes are incompatible for the requested operation."""


class NonScalarLoss(SpecbenchError):
    """backward() requires a scalar loss node."""


# -- models ------------------------------------------------------------------

class EmptyTrainSet(SpecbenchError):
    """fit() called with no training windows."""


class DivergedLoss(SpecbenchError):
    """Training loss became non-finite."""


class BadContextLength(SpecbenchError):
    """predict() context length does not match the model's configuration."""


class UnsupportedFamily(SpecbenchError):
    """Operation not defined for this model family."""


class PatchTooLong(SpecbenchError):
    """Patch length exceeds the context length."""


# -- evaluation --------------------------------------------------------------

class TooFewMethods(SpecbenchError):
    """Friedman test needs at least three methods and two datasets."""


# -- harness -----------------------------------------------------------------

class ConfigError(SpecbenchError):
    """Experiment configuration file is malformed or inconsistent."""
