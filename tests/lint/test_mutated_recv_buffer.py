"""The shared-receive-buffer mutation pass (static twin of the sanitizer's
shared-write detector)."""

from repro.lint import lint_source

import pytest

pytestmark = pytest.mark.lint

RULE = ["mutated-recv-buffer"]


def findings_in(src: str):
    return lint_source(src, rules=RULE)


class TestPositive:
    def test_subscript_write_into_recv(self):
        src = (
            "def prog(comm):\n"
            "    buf = comm.recv(0, tag=1)\n"
            "    buf[0] = 99.0\n"
        )
        (finding,) = findings_in(src)
        assert "buf" in finding.message and ".copy()" in finding.message
        assert finding.line == 3

    def test_augassign_on_bcast_result(self):
        src = (
            "def prog(comm, x):\n"
            "    view = comm.bcast(x, root=0)\n"
            "    view += 1.0\n"
        )
        assert len(findings_in(src)) == 1

    def test_mutating_method_on_scatter_result(self):
        src = (
            "def prog(comm, chunks):\n"
            "    mine = comm.scatter(chunks, root=0)\n"
            "    mine.sort()\n"
        )
        assert len(findings_in(src)) == 1

    def test_out_kwarg_targeting_redistribute_result(self):
        src = (
            "import numpy as np\n"
            "def prog(comm, a, dist):\n"
            "    block = transpose_to_row_block(comm, a, dist)\n"
            "    np.matmul(a, a, out=block)\n"
        )
        assert len(findings_in(src)) == 1


class TestNegative:
    def test_copy_before_mutation_is_the_fix(self):
        src = (
            "def prog(comm):\n"
            "    buf = comm.recv(0, tag=1)\n"
            "    buf = buf.copy()\n"
            "    buf[0] = 99.0\n"
        )
        assert findings_in(src) == []

    def test_reading_recv_buffer_is_clean(self):
        src = (
            "def prog(comm):\n"
            "    buf = comm.recv(0, tag=1)\n"
            "    return buf[0] + buf.sum()\n"
        )
        assert findings_in(src) == []

    def test_mutating_a_local_array_is_clean(self):
        src = (
            "import numpy as np\n"
            "def prog(comm):\n"
            "    buf = np.zeros(4)\n"
            "    buf[0] = 1.0\n"
            "    return buf\n"
        )
        assert findings_in(src) == []

    def test_unrelated_method_calls_are_clean(self):
        src = (
            "def prog(comm):\n"
            "    buf = comm.recv(0, tag=1)\n"
            "    return buf.reshape(2, 2)\n"
        )
        assert findings_in(src) == []
