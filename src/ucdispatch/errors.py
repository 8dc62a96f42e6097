"""Exception hierarchy shared across the toolkit."""


class UcDispatchError(Exception):
    """Base class for all toolkit errors."""


# --- input data -------------------------------------------------------------

class DataError(UcDispatchError):
    """A problem with an input file that prevents loading an instance."""


class MissingColumn(DataError):
    """A required column (or config key) is absent."""


class MalformedNumber(DataError):
    """A cell could not be parsed as a number, or lies outside its domain."""


class UnknownFuelReference(DataError):
    """A unit references a fuel with no matching cost column."""


class DuplicatePeriod(DataError):
    """Two period rows map to the same period index."""


class MissingPeriod(DataError):
    """Some period index inside the horizon has no data row."""


class IoFailure(UcDispatchError):
    """Reading or writing a file failed."""


# --- thinning ---------------------------------------------------------------

class DomainError(UcDispatchError):
    """Arguments outside the documented domain of a cost-curve function, or
    inputs whose model coefficients overflow to a non-finite value."""


class NonMonotoneCurve(UcDispatchError):
    """A startup-cost curve decreases somewhere."""


# --- model / solving --------------------------------------------------------

class ValidationFailed(UcDispatchError):
    """An instance with validation errors was passed to the model builder."""

    def __init__(self, report):
        self.report = report
        super().__init__(f"instance has {len(report.errors())} validation error(s)")


class SolverError(UcDispatchError):
    """Base class for solver-side failures."""


class TooManyBinaries(SolverError):
    """The model exceeds the exact solver's enumeration budget."""


class NumericalFailure(SolverError):
    """The simplex hit its iteration cap (cycling guard), or the solver's
    arithmetic overflowed or met a NaN."""


class SolverLaunchFailed(SolverError):
    """The external solver subprocess could not be started."""


class SolverNonZeroExit(SolverError):
    """The external solver exited with a nonzero status."""


class UnparsableSolution(SolverError):
    """The solution file could not be interpreted."""


class ResidualCheckFailed(SolverError):
    """An external solution violates the model beyond tolerance."""
