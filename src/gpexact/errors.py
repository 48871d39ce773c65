"""Exception types shared across the package, and the unknown-field check."""


class GpexactError(Exception):
    """Base class for all package errors."""


class ModelError(GpexactError):
    """Invalid model specification (dimension, symmetry, singular blocks)."""


class ResonanceError(ModelError):
    """Drive frequency coincides with an effective oscillator frequency."""


class ResolutionError(GpexactError):
    """A grid state is not resolved (boundary or spectral tail too heavy)."""


class IntegrationError(GpexactError):
    """An ODE integration failed or produced non-finite values."""


class CausticError(GpexactError):
    """The propagator degenerates for the requested time interval."""


class PlanError(GpexactError):
    """No admissible evolution plan exists on the given grid."""


class StabilityError(GpexactError):
    """The reference integrator violated its stability bound."""


def _reject_unknown(spec: dict, names, where: str, error=GpexactError) -> None:
    """Raise ``error`` naming every field of ``spec`` not in ``names``."""
    unknown = [key for key in spec if key not in names]
    if unknown:
        raise error(f"{where} has unknown field(s) "
                    + ", ".join(map(repr, unknown)))
