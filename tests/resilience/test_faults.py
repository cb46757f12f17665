"""Fault-injection harness: every fault kind fires, and recovery recovers."""

import pytest

from repro.parallel import spmd_run, spmd_run_resilient
from repro.parallel.comm import MessageTimeout
from repro.resilience import (
    FAULT_KINDS,
    FaultInjector,
    FaultSpec,
    InjectedRankFailure,
    RetryPolicy,
)

NO_SLEEP = lambda s: None  # noqa: E731
FAST = RetryPolicy(max_retries=3, backoff=0.0)


def _allreduce_prog(comm):
    return comm.allreduce(float(comm.rank + 1), op="sum")


class TestFaultSpec:
    def test_known_kinds(self):
        assert FAULT_KINDS == ("kill_rank", "kill_loop")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            FaultSpec(kind="meteor_strike")

    def test_one_shot_deactivates(self):
        spec = FaultSpec(kind="kill_rank", rank=0)
        assert spec.active
        injector = FaultInjector([spec])
        with pytest.raises(InjectedRankFailure):
            injector.on_collective(0, "allreduce")
        assert not spec.active
        injector.on_collective(0, "allreduce")  # second call is a no-op


class TestKillRank:
    def test_kill_rank_propagates_through_spmd_run(self):
        injector = FaultInjector([FaultSpec(kind="kill_rank", rank=1)])
        with pytest.raises(InjectedRankFailure):
            spmd_run(3, _allreduce_prog, fault_injector=injector)

    def test_resilient_run_retries_one_shot_fault_to_success(self):
        injector = FaultInjector([FaultSpec(kind="kill_rank", rank=1)])
        results = spmd_run_resilient(
            3, _allreduce_prog,
            policy=FAST, fault_injector=injector, sleep=NO_SLEEP,
        )
        assert results == [6.0, 6.0, 6.0]
        assert any(e.startswith("kill_rank") for e in injector.events)

    def test_resilient_run_gives_up_on_persistent_fault(self):
        injector = FaultInjector(
            [FaultSpec(kind="kill_rank", rank=0, once=False)]
        )
        with pytest.raises(InjectedRankFailure):
            spmd_run_resilient(
                2, _allreduce_prog,
                policy=FAST, fault_injector=injector, sleep=NO_SLEEP,
            )

    def test_resilient_run_does_not_retry_programming_errors(self):
        attempts = []

        def prog(comm):
            attempts.append(comm.rank)
            raise KeyError("not transient")

        with pytest.raises(KeyError):
            spmd_run_resilient(1, prog, policy=FAST, sleep=NO_SLEEP)
        assert attempts == [0]


class TestPointToPoint:
    def test_recv_times_out_when_nothing_is_sent(self):
        def prog(comm):
            if comm.rank == 0:
                return None
            with pytest.raises(MessageTimeout):
                comm.recv(0, tag=3, timeout=0.05)
            return "timed out"

        assert spmd_run(2, prog)[1] == "timed out"


class TestRetryPolicy:
    def test_backoff_schedule_is_exponential(self):
        policy = RetryPolicy(max_retries=3, backoff=0.1, backoff_factor=2.0)
        assert [policy.delay(a) for a in range(3)] == [0.1, 0.2, 0.4]


class TestInjectorLog:
    def test_events_record_site_and_step(self):
        injector = FaultInjector([FaultSpec(kind="kill_rank", rank=1)])
        with pytest.raises(InjectedRankFailure):
            spmd_run(2, _allreduce_prog, fault_injector=injector)
        assert injector.events
        event = injector.events[0]
        assert event.startswith("kill_rank")
        assert "rank=1" in event
