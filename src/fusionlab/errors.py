"""Exception taxonomy shared by all fusionlab modules."""


class FusionlabError(Exception):
    """Base class for every error raised by this package."""


# --- group construction and caps ---

class NonAssociative(FusionlabError):
    """A multiplication table failed the group axioms."""


class OrderCapExceeded(FusionlabError):
    """A group exceeded the configured order cap where it entered."""


class InvalidPermutation(FusionlabError):
    """A permutation generator is malformed or acts on too many points."""


class NotNormal(FusionlabError):
    """Quotient requested by a non-normal subgroup."""


class NotAPGroup(FusionlabError):
    """Operation requires a group of prime-power order."""


class NotASubgroup(FusionlabError):
    """A subgroup argument does not sit inside the expected parent."""


class NotSylow(FusionlabError):
    """A designated Sylow subgroup does not have full p-part order."""


# --- fusion systems ---

class ObjectOutsideS(FusionlabError):
    """A subgroup argument is not contained in the system's carrier."""


class MorphismNotInF(FusionlabError):
    """A morphism argument does not belong to the fusion system."""


class NotGenerated(FusionlabError):
    """A morphism could not be decomposed; the input category violates
    the axioms (cannot occur for verified systems)."""


class CarrierMismatch(FusionlabError):
    """Systems to be combined do not live on the same carrier."""


class NotNormalInF(FusionlabError):
    """Operation requires a subgroup normal in the fusion system."""


class NotCentric(FusionlabError):
    """Model construction requires a centric subgroup."""


class ModelValidationFailed(FusionlabError):
    """A constrained-system model failed one of its post-conditions."""


class ChainConditionViolated(FusionlabError):
    """A subgroup chain does not satisfy the straightening hypotheses."""


# --- W(S) machinery ---

class SylowMismatch(FusionlabError):
    """A candidate group's Sylow subgroup is not isomorphic to the model S."""


class SandwichViolated(FusionlabError):
    """A W-growth step left the interval Omega(Z(S)) <= W < W' <= Omega(Z(J(S)));
    the input family is not consistent."""


class UnsupportedPrime(FusionlabError):
    """p is not a prime, or a construction is asked for beyond the
    desk-scale primes."""


# --- theorem harnesses ---

class HypothesisViolated(FusionlabError):
    """A check's standing hypothesis does not hold for the given group."""


class InternalInconsistency(FusionlabError):
    """Two routes that must agree disagreed; a theorem contradiction or bug."""


# --- CLI / IO ---

class ParseError(FusionlabError):
    """A group file could not be parsed."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
