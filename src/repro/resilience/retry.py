"""Retry policy: decorrelated-jitter backoff + token-bucket budget.

The ZooKeeper client's retry loop asks this policy its questions (the
Lustre and PVFS clients keep a fixed-attempt loop). Two pieces:

- :class:`RetryBudget` — a per-client token bucket in the style of gRPC's
  retry throttling: every retry spends a token, every success refills a
  fraction of one. Under a persistent outage or overload the bucket
  drains and the client stops amplifying load (the retry-storm cure);
  during healthy operation successes keep it full and retries are free.
- :class:`RetryPolicy` — per-operation attempt accounting (max attempts,
  optional wall-clock budget) plus the decorrelated-jitter backoff the ZK
  client has always used: ``sleep = min(cap, uniform(base, 3 * prev))``
  drawn from a named random stream so replay is deterministic.

With ``backoff_base = 0`` and no budget the policy performs no RNG draws
and yields no events: retries are immediate.
"""

from __future__ import annotations

from typing import Optional


class RetryBudgetExhausted(Exception):
    """The client's retry token bucket is empty: stop retrying."""


class RetryBudget:
    """Token bucket bounding retries across all of one client's ops.

    ``cap <= 0`` disables the budget entirely (always allows retries) —
    the default, preserving legacy behaviour.
    """

    def __init__(self, cap: float = 0.0, refill: float = 0.1):
        self.cap = cap
        self.refill = refill
        self.tokens = cap
        self.spent = 0          # retries charged (observability)
        self.denied = 0         # retries refused for want of a token

    @property
    def enabled(self) -> bool:
        return self.cap > 0.0

    def try_spend(self) -> bool:
        """Charge one retry; False (and no charge) if the bucket is dry."""
        if not self.enabled:
            return True
        if self.tokens < 1.0:
            self.denied += 1
            return False
        self.tokens -= 1.0
        self.spent += 1
        return True

    def on_success(self) -> None:
        if self.enabled:
            self.tokens = min(self.cap, self.tokens + self.refill)


class RetryState:
    """Per-operation mutable attempt state handed out by a policy."""

    __slots__ = ("attempt", "prev_sleep", "deadline")

    def __init__(self, prev_sleep: float, deadline: Optional[float]):
        self.attempt = 0
        self.prev_sleep = prev_sleep
        self.deadline = deadline


class RetryPolicy:
    """Retry accounting + backoff for one client.

    The loop shape stays in the client (its exception taxonomy and
    failover moves); the policy answers the three questions the loop
    asks — *may I retry?*, *how long do I sleep?*, *am I out of time?*
    """

    def __init__(
        self,
        streams,                      # RandomStreams (named-stream registry)
        stream_name: str,
        max_retries: int = 0,
        backoff_base: float = 0.0,
        backoff_cap: float = 1.0,
        op_budget: float = 0.0,       # per-op wall-clock bound; 0 = none
        budget: Optional[RetryBudget] = None,
    ):
        self.streams = streams
        self.stream_name = stream_name
        self.max_retries = max_retries
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self.op_budget = op_budget
        self.budget = budget or RetryBudget()

    def begin(self, now: float) -> RetryState:
        deadline = now + self.op_budget if self.op_budget else None
        return RetryState(self.backoff_base, deadline)

    def exhausted(self, state: RetryState, now: float) -> bool:
        """Call after ``state.attempt += 1``: True = give up, re-raise."""
        if state.attempt > self.max_retries:
            return True
        if state.deadline is not None and now >= state.deadline:
            return True
        if not self.budget.try_spend():
            return True
        return False

    def next_backoff(self, state: RetryState) -> float:
        """Decorrelated jitter: ``min(cap, uniform(base, 3 * prev))``.

        Draws nothing when no backoff is configured, so the zero-backoff
        policy touches no RNG stream (replay-identical to legacy loops).
        """
        if self.backoff_base <= 0.0 and state.prev_sleep <= 0.0:
            return 0.0
        rng = self.streams.stream(self.stream_name)
        sleep = min(self.backoff_cap,
                    rng.uniform(self.backoff_base, 3.0 * state.prev_sleep))
        state.prev_sleep = max(sleep, self.backoff_base)
        return sleep

    def on_success(self) -> None:
        self.budget.on_success()
