"""Exception hierarchy for the ``repro`` package.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch everything from this package with a single ``except`` clause while
still being able to discriminate precise failure modes.
"""

from __future__ import annotations

import numbers


class ReproError(Exception):
    """Base class for all errors raised by this package."""


class ConfigurationError(ReproError):
    """A scenario, grid, or protocol was configured with invalid parameters.

    Raised eagerly at construction time so that a misconfigured experiment
    fails before any simulation work is done.
    """


class SpecValidationError(ConfigurationError):
    """A scenario payload failed validation, with machine-usable context.

    Carries the offending ``field`` (a scenario key, or a registry kind
    such as ``"protocol"``) and close-match ``suggestions`` alongside the
    human-readable message, so front ends — the scenario service's 400
    responses, future editors — can surface the same did-you-mean UX the
    CLI prints without parsing the message text.
    """

    def __init__(
        self,
        message: str,
        *,
        field: str | None = None,
        suggestions: tuple[str, ...] | list[str] = (),
    ) -> None:
        super().__init__(message)
        self.field = field
        self.suggestions: tuple[str, ...] = tuple(suggestions)


def require_int(field: str, value: object) -> None:
    """Reject anything but a non-bool integer for the count field ``field``.

    ``True`` would run exactly like ``1`` yet hash differently, and a
    float such as ``2.5`` would pass the range checks only to fail
    mid-run, so both are refused where a spec is built.
    """
    if type(value) is int:
        # Plain ints, the common case, skip the ABC check below, which
        # costs ~0.7 us a call: every served request validates a spec.
        return
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise SpecValidationError(
            f"{field} must be an integer, got {value!r}", field=field
        )


class BudgetExceededError(ReproError):
    """A node attempted to transmit beyond its message budget.

    The radio layer enforces budgets defensively; well-behaved protocol
    implementations check ``budget.remaining`` and never trigger this.
    """


class ScheduleConflictError(ReproError):
    """Two honest nodes were scheduled to transmit in a conflicting slot.

    The TDMA coloring guarantees this never happens; seeing this error
    indicates a bug in a schedule implementation, not adversarial behavior
    (adversarial collisions are modeled explicitly, not via this error).
    """


class SimulationError(ReproError):
    """The discrete-event engine reached an inconsistent state."""


class PoolBrokenError(SimulationError):
    """A worker pool died and supervision exhausted its restart budget.

    This is an *infrastructure* failure, never a simulation result:
    :mod:`repro.runner.supervise` respawns broken pools with capped
    backoff and resubmits in-flight points (idempotent by content hash)
    before raising this. Carries the recovery counters so callers — the
    sweep flush path, the scenario service's degraded-mode breaker —
    can report progress without parsing the message.
    """

    def __init__(
        self,
        message: str,
        *,
        completed: int | None = None,
        total: int | None = None,
        restarts: int = 0,
    ) -> None:
        super().__init__(message)
        self.completed = completed
        self.total = total
        self.restarts = restarts


class CodingError(ReproError):
    """Encoding/decoding failed due to malformed input.

    Note that *detected tampering* is not an error: verification APIs
    report it as a boolean/result value because it is an expected outcome
    under attack.
    """


class PlacementError(ConfigurationError):
    """An adversarial placement could not satisfy its stated constraints

    (e.g. more than ``t`` bad nodes would fall into one neighborhood, or
    the bad set would include the source).
    """
