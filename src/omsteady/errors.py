"""Exception taxonomy for the omsteady package.

Every error raised by this package derives from :class:`OmsteadyError`,
so callers can catch the whole family with one except clause. Each
class carries the process exit code the CLI returns for it, and that
code alone decides what a sweep does with the error: codes 2 and 3
flag the grid point (stable=0, reason in the warnings column) and the
sweep goes on; code 4 aborts it.

2  bad input: InvalidParams
3  no steady state, or outside a route's regime: UncertaintyViolation,
   DegenerateState, AssumptionViolated, CorrelatedBathUnsupported,
   UnstableSystem, FixedPointDivergence, InvalidRegime, UnstableRegime,
   UndampedDarkMode
4  a numeric self-check failed: SolveFailure, QuadratureFailure,
   OracleMismatch, and OmsteadyError itself
"""

from typing import NamedTuple


class OmsteadyError(Exception):
    """Base class for all omsteady errors."""

    exit_code = 4


class InvalidParams(OmsteadyError):
    """A parameter record violates its domain (sign, range, consistency)."""

    exit_code = 2


class UncertaintyViolation(OmsteadyError):
    """A covariance matrix violates the Heisenberg bound."""

    exit_code = 3


class DegenerateState(OmsteadyError):
    """A covariance matrix is singular or otherwise unusable."""

    exit_code = 3


class AssumptionViolated(OmsteadyError):
    """An operation's structural assumption does not hold for the input."""

    exit_code = 3


class CorrelatedBathUnsupported(OmsteadyError):
    """White-noise thermal surrogate requested where the two mechanical
    baths would be correlated (unequal damping with nonzero cross
    damping); no uncorrelated surrogate exists for that case."""

    exit_code = 3


class UnstableSystem(OmsteadyError):
    """The drift matrix has a non-decaying eigenvalue; no steady state."""

    exit_code = 3


class SolveFailure(OmsteadyError):
    """A linear solve failed its residual check (a badly conditioned system)."""


class QuadratureFailure(OmsteadyError):
    """Adaptive integration could not meet the requested tolerance."""


class FixedPointDivergence(OmsteadyError):
    """Fixed-point iteration failed to converge within the iteration cap."""

    exit_code = 3


class InvalidRegime(OmsteadyError):
    """Closed-form expression evaluated outside its regime of validity."""

    exit_code = 3


class UnstableRegime(OmsteadyError):
    """Closed-form expression evaluated past its stability boundary."""

    exit_code = 3


class UndampedDarkMode(OmsteadyError):
    """The dark mode has no damping channel, so the model has no steady
    state (requires nonzero mechanical mixing and optical damping)."""

    exit_code = 3


class OracleMismatch(OmsteadyError):
    """A paired cross-check between two independent routes to the same
    quantity exceeded its tolerance; the output was not written."""


def flag_first(errors: list, bad, make) -> None:
    """Give each flagged item of a stack that has no error yet the error make(k).

    Stacked routines keep one outcome per item, None while it settles.
    Called once per check, in the order the scalar routine runs its
    checks, this leaves every item with the error the scalar call
    raises for it.
    """
    for k in bad.nonzero()[0]:
        if errors[k] is None:
            errors[k] = make(int(k))


class Batch(NamedTuple):
    """What a stacked routine returns for n items, as columns.

    errors[k] is item k's OmsteadyError, or None where it settled;
    warnings[k] is its tuple of warning strings; columns maps each
    quantity to an array over the n items, in item order, whose entry k
    is item k's: an [n] float64 array for a number, an [n, d, d] array
    for a d x d matrix (a drift, say), an [n, 4] one for four poles.
    The entries of an item with an error mean nothing.
    """

    errors: list
    warnings: list
    columns: dict

    def then(self, later: "Batch") -> "Batch":
        """This batch, then a later step over the same items: each item keeps
        its first error and adds later's warnings to its own, and later's
        columns join these, replacing any of the same name."""
        # Most later steps add no error and no warning; their items then
        # cost no Python loop.
        errors, warnings = self.errors, self.warnings
        if later.errors.count(None) < len(errors):
            errors = [e if e is not None else f for e, f in zip(errors, later.errors)]
        if any(later.warnings):
            warnings = [w + v for w, v in zip(warnings, later.warnings)]
        return Batch(list(errors), warnings, {**self.columns, **later.columns})

    def only(self) -> dict:
        """The columns of a batch of one, or raise its error: item 0 of each
        column, as a float for a column of numbers and as an array else."""
        if self.errors[0] is not None:
            raise self.errors[0]
        return {q: c[0] if c.ndim > 1 else float(c[0]) for q, c in self.columns.items()}
