"""Shared retry policy for control-channel programming ops.

Every controller->device programming path retries through one policy:
exponential backoff that doubles per retry, in *modelled* seconds (the
repro executes synchronously; backoff is accounted, not slept).  The
policy object is immutable configuration; :meth:`RetryPolicy.start`
mints a single-use :class:`RetrySchedule` that tracks one op's retry
budget.  The schedule is a pure function of the policy: no RNG is
consumed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


class RetryPolicyError(ValueError):
    """Invalid retry-policy configuration."""


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff: the k-th retry waits ``base_backoff_s * 2**k``.

    ``max_attempts``
        Total tries including the first (>= 1).
    ``base_backoff_s``
        Modelled delay before the first retry.
    """

    max_attempts: int = 3
    base_backoff_s: float = 0.05

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise RetryPolicyError("need at least one attempt")
        if self.base_backoff_s < 0:
            raise RetryPolicyError("backoff cannot be negative")

    def start(self) -> "RetrySchedule":
        """Mint a fresh schedule for one op."""
        return RetrySchedule(self)


class RetrySchedule:
    """Mutable per-op view of a :class:`RetryPolicy`.

    Call :meth:`next_backoff` after each failed attempt: it returns the
    modelled delay before the next try, or ``None`` once the attempts
    are spent.
    """

    def __init__(self, policy: RetryPolicy) -> None:
        self.policy = policy
        self.retries_issued = 0

    def next_backoff(self) -> Optional[float]:
        p = self.policy
        if self.retries_issued >= p.max_attempts - 1:
            return None
        delay = p.base_backoff_s * 2 ** self.retries_issued
        self.retries_issued += 1
        return delay
