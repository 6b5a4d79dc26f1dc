"""Exception hierarchy for fkbench."""


class FkbenchError(Exception):
    """Base class for all fkbench errors."""


class NonStochasticKernel(FkbenchError, ValueError):
    """A transition matrix has a row that is not a probability vector."""


class NonPositivePotential(FkbenchError, ValueError):
    """A potential vector contains a zero or negative entry."""


class BadInitialLaw(FkbenchError, ValueError):
    """The initial distribution is not a probability vector."""


class ZeroMass(FkbenchError, ValueError):
    """A measure assigns zero total mass to the current potential."""


class EpsilonOutOfRange(FkbenchError, ValueError):
    """An epsilon weight takes eps * G outside [0, 1] for some state."""


class FlowConsistencyError(FkbenchError, ArithmeticError):
    """An internal algebraic identity failed beyond its tolerance."""


class HypothesisNotSatisfied(FkbenchError, ValueError):
    """The (m, r, rho) minorization hypothesis fails on the given model."""


class DegenerateFunction(FkbenchError, ValueError):
    """The test function has zero limiting variance at the requested time."""


class InsufficientReplicates(FkbenchError, RuntimeError):
    """ECDF noise at the given replicate count swamps the measured distances."""


class OscillationTooLarge(FkbenchError, ValueError):
    """The test function oscillation exceeds 1; rescale before the experiment."""


class QuadratureFailure(FkbenchError, ArithmeticError):
    """Numerical integration of the smoothing bound did not converge."""


class UnknownEntry(FkbenchError, KeyError):
    """No model-zoo entry with the requested name."""


class HorizonTooLargeForPathSpace(FkbenchError, ValueError):
    """Path-space state dimension 2**(n+1) would exceed the desk-scale cap."""


class ConfigError(FkbenchError, ValueError):
    """A config file or CLI argument could not be resolved."""
