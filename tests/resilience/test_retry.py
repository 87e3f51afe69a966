"""Shared retry machinery: token-bucket budget + decorrelated jitter."""

import pytest

from repro.resilience import RetryBudget, RetryPolicy
from repro.sim.random import RandomStreams


def test_budget_disabled_is_unlimited():
    budget = RetryBudget(cap=0.0)
    assert not budget.enabled
    assert all(budget.try_spend() for _ in range(100))
    assert budget.spent == 0 and budget.denied == 0


def test_budget_spends_and_denies():
    budget = RetryBudget(cap=2.0, refill=0.5)
    assert budget.try_spend()
    assert budget.try_spend()
    assert not budget.try_spend()        # bucket empty
    assert budget.spent == 2 and budget.denied == 1


def test_budget_refills_on_success_up_to_cap():
    budget = RetryBudget(cap=1.0, refill=0.5)
    assert budget.try_spend()
    assert not budget.try_spend()
    budget.on_success()                  # +0.5: still under a whole token
    assert not budget.try_spend()
    budget.on_success()                  # +0.5: one token available again
    assert budget.try_spend()
    for _ in range(10):                  # refill never exceeds the cap
        budget.on_success()
    assert budget.try_spend()
    assert not budget.try_spend()


def test_policy_exhausts_on_max_retries():
    pol = RetryPolicy(RandomStreams(0), "s", max_retries=2)
    state = pol.begin(0.0)
    for expected in (False, False, True):
        state.attempt += 1
        assert pol.exhausted(state, now=0.0) is expected


def test_policy_exhausts_on_op_budget_deadline():
    pol = RetryPolicy(RandomStreams(0), "s", max_retries=100, op_budget=5.0)
    state = pol.begin(10.0)
    state.attempt += 1
    assert not pol.exhausted(state, now=14.9)
    assert pol.exhausted(state, now=15.0)


def test_policy_exhausts_when_budget_denies():
    budget = RetryBudget(cap=1.0, refill=0.1)
    pol = RetryPolicy(RandomStreams(0), "s", max_retries=100, budget=budget)
    state = pol.begin(0.0)
    state.attempt += 1
    assert not pol.exhausted(state, now=0.0)   # spends the only token
    state.attempt += 1
    assert pol.exhausted(state, now=0.0)       # bucket empty -> give up
    assert budget.denied == 1


def test_backoff_matches_decorrelated_jitter_replay():
    """The policy must draw exactly the legacy sequence: uniform(base,
    3*prev) clamped to the cap, prev floored at base, one draw per sleep,
    all from the named stream."""
    streams = RandomStreams(7)
    pol = RetryPolicy(streams, "zk.client.x", max_retries=9,
                      backoff_base=0.05, backoff_cap=0.4)
    state = pol.begin(0.0)
    sleeps = [pol.next_backoff(state) for _ in range(5)]

    rng = RandomStreams(7).stream("zk.client.x")
    prev = 0.05
    expected = []
    for _ in range(5):
        s = min(0.4, rng.uniform(0.05, 3.0 * prev))
        expected.append(s)
        prev = max(s, 0.05)
    assert sleeps == pytest.approx(expected)
    assert all(s <= 0.4 for s in sleeps)


def test_zero_base_backoff_never_draws():
    """backoff_base == 0 (the RetryPolicy default) must consume nothing
    from the stream — the replay-identical guarantee."""
    streams = RandomStreams(3)
    pol = RetryPolicy(streams, "lustre.client.c0", max_retries=4)
    state = pol.begin(0.0)
    assert [pol.next_backoff(state) for _ in range(4)] == [0.0] * 4
    # The stream is untouched: its next draw equals a fresh stream's first.
    assert streams.stream("lustre.client.c0").random() == \
        RandomStreams(3).stream("lustre.client.c0").random()


def test_policy_success_refills_budget():
    budget = RetryBudget(cap=1.0, refill=1.0)
    pol = RetryPolicy(RandomStreams(0), "s", max_retries=9, budget=budget)
    state = pol.begin(0.0)
    state.attempt += 1
    assert not pol.exhausted(state, now=0.0)
    pol.on_success()
    state2 = pol.begin(1.0)
    state2.attempt += 1
    assert not pol.exhausted(state2, now=1.0)  # token restored
