"""Exception types shared across the toolkit."""


class CompalgError(Exception):
    """Base class for all toolkit errors."""


class DofMismatch(CompalgError):
    """Polynomials with different numbers of degrees of freedom."""


class DimMismatch(CompalgError):
    """Matrices or vectors of incompatible dimensions."""


class ClassMismatch(CompalgError):
    """Carriers with different J-squared class cannot be composed."""


class HBarMismatch(CompalgError):
    """Carriers with different hbar cannot be composed."""


class PreconditionViolated(CompalgError):
    """An operation's stated precondition does not hold for the inputs."""


class UnexpectedPass(CompalgError):
    """A sweep that must produce a counterexample found none."""


class EigenFailure(CompalgError):
    """The iterative Hermitian eigensolver did not converge."""


class NonSymplecticW(CompalgError):
    """A sampled map fails the symplectic condition beyond tolerance."""


class UnsupportedLevel(CompalgError):
    """Requested oscillator level has no audited closed form."""


class NonNormalized(CompalgError):
    """A phase-space state whose integral is not one."""


class ExhaustedWithoutWitness(CompalgError):
    """Exhaustive search over the declared lattice found no witness."""


class DegreeExceedsGrid(CompalgError):
    """Polynomial degree above what the quadrature grid integrates exactly."""


class CliffordViolation(CompalgError):
    """Supplied gamma matrices fail the Clifford anticommutation relations."""


class NoRepFound(CompalgError):
    """No candidate gamma representation reproduces the current equality."""


class NotSchmidtDiagonal(CompalgError):
    """Supplied unitary is not diagonal in the computed Schmidt basis."""


class DimensionBlowup(CompalgError):
    """Total tensor dimension exceeds the configured cap."""


class ConfigError(CompalgError):
    """Invalid harness configuration."""


class SchemaMismatch(CompalgError):
    """Reports with incompatible schema versions cannot be diffed."""
