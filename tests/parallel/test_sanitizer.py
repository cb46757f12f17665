"""Runtime SPMD sanitizer: mismatch, race and deadlock diagnosis.

Every scenario that used to be a hang or silent corruption must become a
:class:`SanitizerError` naming the offending ranks — and clean programs must
run unchanged (same results with and without the sanitizer).
"""

import time

import numpy as np
import pytest

from repro.parallel import SanitizerError, spmd_run
from repro.parallel.sanitizer import SpmdSanitizer, describe_payload, env_enabled
from repro.resilience.faults import (
    FaultInjector,
    FaultSpec,
    InjectedRankFailure,
)

TIMEOUT = 2.0  # deadlock scenarios must diagnose well inside the suite budget


class TestCleanPrograms:
    def test_collectives_unchanged_under_sanitizer(self):
        def prog(comm):
            total = comm.allreduce(comm.rank)
            rows = comm.allgather(np.full(comm.rank + 1, comm.rank))
            root_view = comm.bcast(
                np.arange(3.0) if comm.rank == 0 else None, root=0
            )
            comm.barrier()
            return total, [r.shape[0] for r in rows], float(root_view.sum())

        plain = spmd_run(4, prog, sanitize=False)
        sanitized = spmd_run(4, prog, sanitize=True, sanitize_timeout=TIMEOUT)
        assert sanitized == plain
        assert sanitized[0] == (6, [1, 2, 3, 4], 3.0)

    def test_per_rank_payload_shapes_are_not_a_mismatch(self):
        # gather/allgather/alltoall legitimately carry different shapes.
        def prog(comm):
            blocks = comm.allgather(np.zeros((comm.rank + 1, 2)))
            return sum(b.shape[0] for b in blocks)

        assert spmd_run(3, prog, sanitize=True, sanitize_timeout=TIMEOUT) == [6, 6, 6]

    def test_single_rank_run_is_trivially_clean(self):
        assert spmd_run(1, lambda comm: comm.allreduce(1.0), sanitize=True) == [1.0]

    def test_epoch_counter_advances(self):
        san = SpmdSanitizer(1, barrier_timeout=TIMEOUT)
        san.on_collective(0, "allreduce", 1.0, detail="op=sum")
        san.on_collective(0, "barrier")
        assert san.n_synced == 2

    def test_point_to_point_is_sanitizer_clean(self):
        # Point-to-point traffic is not collective: send/recv between
        # barriers must run under the sanitizer without tripping it.
        def prog(comm):
            if comm.rank == 0:
                comm.send(np.arange(4.0), dest=1, tag=7)
                comm.barrier()
                return None
            value = comm.recv(0, tag=7, timeout=TIMEOUT)
            comm.barrier()
            return float(value.sum())

        assert spmd_run(2, prog, sanitize=True, sanitize_timeout=TIMEOUT) == [
            None,
            6.0,
        ]


class TestMismatchedCollectives:
    def test_divergent_ops_report_both_call_sites(self):
        def prog(comm):
            if comm.rank == 2:
                return comm.gather(comm.rank, root=0)
            return comm.allreduce(comm.rank)

        with pytest.raises(SanitizerError) as err:
            spmd_run(4, prog, sanitize=True, sanitize_timeout=TIMEOUT)
        text = str(err.value)
        assert "mismatched collectives" in text
        assert "allreduce" in text and "gather" in text
        assert "rank 2" in text
        assert "test_sanitizer.py" in text  # call sites, not comm internals

    def test_divergent_roots_are_a_mismatch(self):
        def prog(comm):
            root = 1 if comm.rank == 1 else 0
            return comm.bcast(comm.rank if comm.rank == root else None, root=root)

        with pytest.raises(SanitizerError, match="root="):
            spmd_run(3, prog, sanitize=True, sanitize_timeout=TIMEOUT)

    def test_divergent_allreduce_shapes_are_a_mismatch(self):
        def prog(comm):
            width = 3 if comm.rank == 0 else 2
            return comm.allreduce(np.ones(width))

        with pytest.raises(SanitizerError, match="ndarray"):
            spmd_run(2, prog, sanitize=True, sanitize_timeout=TIMEOUT)

    def test_unsanitized_mismatch_would_not_be_diagnosed(self):
        # The control experiment: without the sanitizer the same program
        # pairs the wrong collectives (or hangs); here both ops happen to
        # complete, exchanging garbage — exactly the failure mode the
        # sanitizer exists to catch.  We only assert it does NOT raise
        # SanitizerError, whatever else it does.
        def prog(comm):
            if comm.rank == 0:
                return comm.allgather(comm.rank)
            return comm.allgather(comm.rank)

        assert spmd_run(2, prog, sanitize=False) == [[0, 1], [0, 1]]


class TestDeadlockDiagnosis:
    def test_rank_skipping_a_collective_is_diagnosed(self):
        def prog(comm):
            if comm.rank == 1:
                return None  # returns without the collective
            return comm.allreduce(comm.rank)

        with pytest.raises(SanitizerError) as err:
            spmd_run(3, prog, sanitize=True, sanitize_timeout=TIMEOUT)
        text = str(err.value)
        assert "finished" in text
        assert "rank 1" in text

    def test_extra_collective_is_paired_with_the_wrong_op_and_diagnosed(self):
        # A rank issuing one collective too many pairs its barrier with the
        # peers' *next* op — the sanitizer reports it as a mismatch epoch
        # instead of letting the ops exchange garbage.
        def prog(comm):
            comm.barrier()
            if comm.rank == 0:
                comm.barrier()  # nobody will ever join this one
            return comm.allreduce(comm.rank)

        with pytest.raises(SanitizerError) as err:
            spmd_run(2, prog, sanitize=True, sanitize_timeout=TIMEOUT)
        text = str(err.value)
        assert "barrier" in text and "allreduce" in text

    def test_stalled_rank_times_out_with_state_table(self):
        def prog(comm):
            if comm.rank == 1:
                time.sleep(1.5)  # never reaches the collective in time
                return None
            return comm.allreduce(comm.rank)

        with pytest.raises(SanitizerError) as err:
            spmd_run(2, prog, sanitize=True, sanitize_timeout=0.3)
        text = str(err.value)
        assert "did not complete within" in text
        assert "per-rank state" in text
        assert "no collective entered yet" in text  # rank 1's row


class TestSharedWriteDetection:
    def test_mutating_published_buffer_before_next_sync_is_flagged(self):
        def prog(comm):
            buf = np.arange(4.0)
            comm.bcast(buf if comm.rank == 0 else None, root=0)
            if comm.rank == 0:
                buf[0] = 99.0  # peers hold this exact array by reference
            comm.barrier()
            return None

        with pytest.raises(SanitizerError, match="unsynchronized shared-array write"):
            spmd_run(2, prog, sanitize=True, sanitize_timeout=TIMEOUT)

    def test_mutation_after_the_next_barrier_is_legal(self):
        # The one-epoch window IS the race window: after every aliasing
        # rank has synchronized again, in-place reuse is the documented
        # pattern (see pipelined_vhxc_rows).
        def prog(comm):
            buf = np.arange(4.0)
            view = comm.bcast(buf if comm.rank == 0 else None, root=0)
            got = float(view.sum())
            comm.barrier()
            if comm.rank == 0:
                buf[0] = 99.0
            comm.barrier()
            return got

        assert spmd_run(2, prog, sanitize=True, sanitize_timeout=TIMEOUT) == [6.0, 6.0]


class TestFaultInjection:
    def test_kill_rank_unwinds_as_injected_failure_not_mismatch(self):
        # The injector fires before the sanitizer hook: a killed rank must
        # surface as InjectedRankFailure (abort path), never be misread as
        # a collective mismatch or deadlock.
        injector = FaultInjector([FaultSpec(kind="kill_rank", rank=1)])
        with pytest.raises(InjectedRankFailure):
            spmd_run(
                3,
                lambda comm: comm.allreduce(comm.rank),
                fault_injector=injector,
                sanitize=True,
                sanitize_timeout=TIMEOUT,
            )


class TestHelpers:
    def test_describe_payload_signatures(self):
        assert describe_payload(np.zeros((3, 2))) == "ndarray[float64,3x2]"
        assert describe_payload(None) == "none"
        assert describe_payload(7) == "int"
        assert describe_payload([np.zeros(2), 1.5]) == "list[ndarray[float64,2],float]"

    def test_env_enabled(self, monkeypatch):
        for raw, expected in [
            ("", False), ("0", False), ("off", False), ("false", False),
            ("1", True), ("yes", True),
        ]:
            monkeypatch.setenv("REPRO_SANITIZE", raw)
            assert env_enabled() is expected
        monkeypatch.delenv("REPRO_SANITIZE")
        assert env_enabled() is False

    def test_env_opt_in_reaches_spmd_run(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        monkeypatch.setenv("REPRO_SANITIZE_TIMEOUT", str(TIMEOUT))

        def prog(comm):
            if comm.rank == 0:
                return comm.barrier()
            return comm.allreduce(comm.rank)

        with pytest.raises(SanitizerError):
            spmd_run(2, prog)  # sanitize=None -> env
