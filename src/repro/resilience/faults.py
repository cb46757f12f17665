"""Fault injection for the SPMD runtime and the iterative loops.

A :class:`FaultInjector` holds a list of :class:`FaultSpec` triggers and is
consulted from well-defined hook points:

* ``on_collective(rank, op)`` — entry of every communicator collective;
  a matching ``kill_rank`` spec raises :class:`InjectedRankFailure`, which
  the executor treats exactly like a crashed rank (barrier abort, peers
  unwind with ``SpmdAbort``, the failure reaches the caller).
* ``on_loop_step(tag, step)`` — from checkpointing loops (SCF / LOBPCG /
  ISDF / RT); a matching ``kill_loop`` spec raises :class:`InjectedFault`
  *after* the step's snapshot was written, modelling a crash between
  durable states.

Steps are counted per (kind, rank) site, so ``step=3`` means "the fourth
matching event on that rank".  Specs are one-shot by default
(``once=True``): after triggering they deactivate, which is what lets
retry/restart policies demonstrate recovery.  All bookkeeping is
lock-protected — the SPMD executor drives ranks as concurrent threads.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

__all__ = [
    "FAULT_KINDS",
    "FaultInjector",
    "FaultSpec",
    "InjectedFault",
    "InjectedRankFailure",
]

#: Supported fault kinds.
FAULT_KINDS = ("kill_rank", "kill_loop")


class InjectedFault(RuntimeError):
    """An artificial failure raised by the fault-injection harness."""


class InjectedRankFailure(InjectedFault):
    """A simulated rank death inside an SPMD collective."""

    def __init__(self, rank: int, op: str, step: int) -> None:
        super().__init__(
            f"injected failure of rank {rank} at collective #{step} ({op})"
        )
        self.rank = rank
        self.op = op
        self.step = step

    def __reduce__(self):
        # Default exception pickling replays BaseException.args (the
        # formatted message) against our 3-arg __init__; the process
        # backend ships these across rank boundaries, so rebuild from the
        # real fields instead.
        return (InjectedRankFailure, (self.rank, self.op, self.step))


@dataclass
class FaultSpec:
    """One configured fault.

    Attributes
    ----------
    kind:
        One of :data:`FAULT_KINDS`.
    step:
        0-based occurrence count at the matching site (per rank): the
        spec fires on the ``step``-th matching event.  For ``kill_loop``
        this is the loop iteration number itself.
    rank:
        Restrict to one rank (``None`` = any rank).
    op:
        Restrict to one collective name (``kill_rank`` only).
    tag:
        Loop tag filter for ``kill_loop`` (e.g. ``"lobpcg"``, ``"scf"``).
    once:
        Deactivate after the first trigger (default) so a retried run
        succeeds; ``False`` keeps firing on every matching event.
    """

    kind: str
    step: int = 0
    rank: int | None = None
    op: str | None = None
    tag: str | None = None
    once: bool = True
    triggered: int = field(default=0, compare=False)

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; choose from {FAULT_KINDS}"
            )
        if self.step < 0:
            raise ValueError(f"step must be >= 0, got {self.step}")

    @property
    def active(self) -> bool:
        return not (self.once and self.triggered > 0)


class FaultInjector:
    """Thread-safe dispatcher of configured :class:`FaultSpec` triggers."""

    def __init__(self, specs=()) -> None:
        self._specs: list[FaultSpec] = [
            s if isinstance(s, FaultSpec) else FaultSpec(**s) for s in specs
        ]
        self._lock = threading.Lock()
        self._counters: dict[tuple, int] = {}
        #: Human-readable record of every triggered fault (for tests/logs).
        self.events: list[str] = []

    def add(self, spec: FaultSpec) -> "FaultInjector":
        with self._lock:
            self._specs.append(spec)
        return self

    def _next_count(self, site: tuple) -> int:
        count = self._counters.get(site, 0)
        self._counters[site] = count + 1
        return count

    def _fire(
        self, kind: str, count: int, *, rank=None, op=None, tag=None
    ) -> FaultSpec | None:
        """Find, mark and return the first active matching spec (locked)."""
        for spec in self._specs:
            if spec.kind != kind or not spec.active:
                continue
            if spec.rank is not None and spec.rank != rank:
                continue
            if spec.op is not None and spec.op != op:
                continue
            if spec.tag is not None and spec.tag != tag:
                continue
            if spec.once:
                if spec.step != count:  # one-shot: exactly the step-th hit
                    continue
            elif count < spec.step:  # persistent: every hit from step on
                continue
            spec.triggered += 1
            self.events.append(
                f"{kind}@{count}"
                + (f" rank={rank}" if rank is not None else "")
                + (f" op={op}" if op is not None else "")
                + (f" tag={tag}" if tag is not None else "")
            )
            return spec
        return None

    # -- hook points --------------------------------------------------------

    def on_collective(self, rank: int, op: str) -> None:
        """Called at the entry of every collective; may kill this rank."""
        with self._lock:
            count = self._next_count(("kill_rank", rank))
            spec = self._fire("kill_rank", count, rank=rank, op=op)
        if spec is not None:
            raise InjectedRankFailure(rank, op, count)

    def on_loop_step(self, tag: str, step: int) -> None:
        """Called by checkpointing loops after snapshotting ``step``."""
        with self._lock:
            spec = self._fire("kill_loop", step, tag=tag)
        if spec is not None:
            raise InjectedFault(f"injected crash of loop {tag!r} at step {step}")

    # -- cross-process state (the process SPMD backend forks this object) ----

    def state(self) -> dict:
        """Picklable snapshot of the mutable bookkeeping.

        The process backend forks one copy of this injector into every
        rank; each copy's counters diverge independently.  The parent
        snapshots before the run and merges every child's deltas back
        with :meth:`merge_child_state`, so one-shot specs consumed inside
        a worker stay consumed for the resilient retry.
        """
        with self._lock:
            return {
                "triggered": [spec.triggered for spec in self._specs],
                "counters": dict(self._counters),
                "events": list(self.events),
            }

    def merge_child_state(self, base: dict, child: dict) -> None:
        """Fold one forked child's bookkeeping deltas (vs ``base``) back in."""
        with self._lock:
            for i, spec in enumerate(self._specs):
                if i < len(child["triggered"]):
                    delta = child["triggered"][i] - base["triggered"][i]
                    if delta > 0:
                        spec.triggered += delta
            for site, count in child["counters"].items():
                delta = count - base["counters"].get(site, 0)
                if delta > 0:
                    self._counters[site] = self._counters.get(site, 0) + delta
            self.events.extend(child["events"][len(base["events"]) :])

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        del state["_lock"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._lock = threading.Lock()
