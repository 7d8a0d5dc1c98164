"""Domain errors raised by isokit operations.

Input-shape problems (malformed tables, bad JSON, wrong lengths) raise
plain ValueError; the classes below mark situations where the inputs are
well formed but the mathematics refuses.
"""


class IsokitError(Exception):
    """Base class for domain errors."""

    @property
    def code(self) -> str:
        return type(self).__name__


class CapExceeded(IsokitError):
    """Well-formed input whose work would exceed a fixed size cap; the
    report names the subclass, the cap that was hit."""


class GroupTooLarge(CapExceeded):
    """Group order exceeds the fixed cap of 48."""


class NotStrictChain(IsokitError):
    """Subgroup chain is not strictly increasing under inclusion."""


class ZeroChain(IsokitError):
    """Operation needs a chain of length at least one."""


class NotWeaklyDecreasing(IsokitError):
    """Subgroup list is not weakly decreasing under inclusion."""


class NotRegular(IsokitError):
    """A setwise-but-not-pointwise simplex stabilizer was detected."""


class NotSimplicial(IsokitError):
    """Vertex map does not send simplices to simplices."""


class NotEquivariant(IsokitError):
    """Map does not commute with the group actions."""


class NotIsovariant(IsokitError):
    """Map does not preserve pointwise stabilizers of simplices."""


class NotSelfMap(IsokitError):
    """Operation needs source and target to be the same complex."""


class NotEquivariantTriangulation(IsokitError):
    """Some closed simplex orbit is not modelled on a coset simplex."""

    def __init__(self, message: str, orbit_simplex=None):
        super().__init__(message)
        self.orbit_simplex = orbit_simplex


class NonIntegral(IsokitError):
    """Burnside coefficients are not integers; carries the rational witness."""

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


class NonAbelianPi(IsokitError):
    """Edge labels cannot come from an abelian fundamental-group quotient."""


class InconsistentLabels(IsokitError):
    """Edge labels fail the spanning-tree or map-compatibility checks."""


class MissingStratum(IsokitError):
    """A dimension override names an isotropy class the complex lacks."""


class InvariantViolated(IsokitError):
    """A result failed an identity the mathematics guarantees: a library bug."""


class CubeGenerationFailed(IsokitError):
    """Random cube generation used up its attempts without a valid cube."""


class TooManyTwistedClasses(CapExceeded):
    """Listing the twisted classes one by one would exceed their fixed cap."""


class TooManySimplices(CapExceeded):
    """A complex, given by its facets or subdivided, would exceed the fixed
    cap on its simplices."""


class CubeTooLarge(CapExceeded):
    """A cube map's dimension exceeds the fixed cap on limit plans, or a
    limit has more elements than the fixed cap on its enumeration."""
