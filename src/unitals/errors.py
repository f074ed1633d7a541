"""Exception types shared across the package."""


class UnitalsError(Exception):
    """Base class for all package-specific errors."""


class ParseError(UnitalsError):
    """Malformed input: a JSON label or group spec, or a Cayley table file."""


class ValidationError(UnitalsError):
    """A Cayley table failed a group axiom."""


class InvalidAction(UnitalsError):
    """Semidirect action images do not extend to an automorphism."""


class OrderMismatch(UnitalsError):
    """Group order above the supported bound, or actor order incompatible with the action."""


class IndexOutOfRange(UnitalsError):
    """Element index outside 0..order-1."""


class LabelNotInGroup(UnitalsError):
    """A block label does not resolve to a group element."""


class ModeOrderMismatch(UnitalsError):
    """Development mode inconsistent with the group order."""


class NotAPermutation(UnitalsError):
    """Relabeling map is not a bijection on the point set."""


class NotASteinerSystem(UnitalsError):
    """Operation requires a verified S(2,6,126)."""


class SchemaError(UnitalsError):
    """Family JSON violates the catalog schema."""


class SumInvariantError(SchemaError):
    """Expected fingerprint frequencies do not sum to 7,560,000."""


class GroupUnavailable(UnitalsError):
    """The Cayley table a group spec names cannot be found."""


class InconsistentPartial(UnitalsError):
    """Partial family already over-covers a difference."""
