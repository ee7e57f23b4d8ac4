"""Exception types shared across the package."""


class CdfMatchError(Exception):
    """Base class for every error this package raises deliberately."""


class AllBackground(CdfMatchError):
    """Every voxel equals the background value while exclusion was requested."""


class DegenerateConstant(CdfMatchError):
    """Input carries a single distinct intensity (zero spread)."""


class OutOfRange(CdfMatchError):
    """Probability argument outside (0, 1]."""


class EmptyInput(CdfMatchError):
    """An operation received an empty collection."""


class EmptyCohort(CdfMatchError):
    """Template construction requires at least one volume."""


class BadTailSpec(CdfMatchError):
    """Tail-shrinking parameters violate their required ordering."""


class NonMonotone(CdfMatchError):
    """Dual-scaling factors whose ratio exceeds ``transform.MONOTONE_RATIO``,
    past which the mapping decreases."""


class DegenerateCdf(CdfMatchError):
    """A CDF collapses where the fit needs distinct quantiles."""


class Infeasible(CdfMatchError):
    """Control intensities are not achievable within the scale-factor bounds."""


class BadSpec(CdfMatchError):
    """Synthetic-volume specification violates its invariants."""


class IoError(CdfMatchError):
    """File could not be read or written."""


class HeaderMismatch(IoError):
    """Volume header is malformed or inconsistent with the payload."""


class Overflow(CdfMatchError):
    """Voxel values do not fit the requested output dtype."""


class SchemaMismatch(CdfMatchError):
    """Serialized artifact has an unknown schema or version."""


class UsageError(CdfMatchError):
    """Command line was used incorrectly."""
