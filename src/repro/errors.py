"""Exception hierarchy for the LF-Backscatter reproduction.

All library errors derive from :class:`ReproError` so callers can catch
everything from this package with a single except clause while still
being able to distinguish configuration problems from decode failures.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by this package."""


class ConfigurationError(ReproError, ValueError):
    """A simulation or decoder parameter is invalid or inconsistent."""


class SignalError(ReproError):
    """An IQ trace is malformed (wrong dtype, empty, inconsistent rate)."""


class SignalQualityError(SignalError):
    """A capture is too impaired for the trace guard to repair.

    Raised by :func:`repro.robustness.guard.sanitize_trace` when an
    impairment exceeds the repairable budget.  ``fraction`` is the
    share of samples implicated, so callers can report degradation
    quantitatively instead of guessing from the message.
    """

    def __init__(self, fraction: float, message: str = ""):
        self.fraction = float(fraction)
        if not message:
            message = (f"{100.0 * self.fraction:.1f}% of samples are "
                       "unusable")
        super().__init__(message)


class NonFiniteSignalError(SignalQualityError):
    """Too many NaN/Inf samples to interpolate across (dead ADC runs)."""


class SaturatedSignalError(SignalQualityError):
    """The capture spends too long pinned at the ADC rails to trust."""


class FlatlineSignalError(SignalQualityError):
    """The capture is (almost) constant: no receiver was listening."""


class DecodeError(ReproError):
    """The decoder could not recover a stream from the received signal."""


class CollisionUnresolvableError(DecodeError):
    """A collision involved more tags than the separator can split.

    The paper's parallelogram method (Section 3.4) separates two-way
    collisions; three-way and higher collisions are rare (Section 3.3)
    and surface as this error so callers can fall back to epoch-level
    retransmission (Section 3.6).
    """

    def __init__(self, n_colliders: int, message: str = ""):
        self.n_colliders = n_colliders
        if not message:
            message = (f"cannot separate a {n_colliders}-way collision; "
                       "the parallelogram separator handles at most 2 tags")
        super().__init__(message)


class ChannelEstimationError(ReproError):
    """Buzz-style channel estimation failed (ill-conditioned system)."""


class HardwareModelError(ReproError):
    """A hardware design references an unknown component or bad budget."""


class ServiceError(ReproError):
    """The streaming decode service could not honor a request."""


class RingFullError(ServiceError):
    """A chunk ring has no contiguous space left for a new frame.

    Live (queued or in-flight) frames hold their ring regions until
    they are retired; a producer that outruns its consumer sees this
    error and must shed load or fall back to inline transport.
    """


class FrameTooLargeError(ServiceError):
    """A chunk is larger than its ring's total capacity.

    No amount of retirement can make such a frame fit; the chunk must
    be split (or the ring sized up) before submission.
    """


class ChildBootError(ReproError):
    """A supervised child process could not start, or could not load
    the work it was sent.

    Raised in the caller when the child's target or arguments do not
    pickle, when the child's fresh interpreter cannot import them, when
    building its handler raised, or when a message names a function
    the child cannot import.  No unit of work is charged for it: every
    child would fail the same way, so none is tried again.
    """
