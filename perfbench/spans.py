"""In-memory span recorder wrapped around the program's public call sites.

A :class:`Site` names one binding site — the module attribute (or class
method) through which a layer is *called* — and the span name its calls
record under.  The same function is often bound in several modules
(``repro.dft.scf.lobpcg`` and ``repro.core.driver.lobpcg``), and each
binding is wrapped on its own, so callers are told apart.

:meth:`Recorder.install` replaces every site with a timing wrapper and
raises :class:`BindingSiteError` if one no longer exists, so a refactor
cannot silently zero a layer.  Spans stay in memory (``Recorder.spans``)
until :meth:`Recorder.dump` writes them out at the end of a run.

The parent of a span is the innermost open span of the same thread, kept
in a :mod:`contextvars` stack: every thread starts with an empty context,
so the stack is per thread.  The op a span belongs to is another context
variable, set by the load generator around each op and handed to server
worker threads through :func:`adopt`.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import importlib
import json
import threading
import time
from dataclasses import dataclass, field
from typing import Callable

_stack: contextvars.ContextVar[tuple["Span", ...]] = contextvars.ContextVar(
    "perfbench_span_stack", default=()
)
_op: contextvars.ContextVar[int | None] = contextvars.ContextVar(
    "perfbench_op", default=None
)


#: Key -> op, for calls made on threads the load generator does not own.
_adopted: dict = {}


@contextlib.contextmanager
def op_scope(op: int):
    """Spans opened inside belong to ``op``."""
    token = _op.set(op)
    try:
        yield
    finally:
        _op.reset(token)


def adopt(key) -> None:
    """Spans of a site whose ``op_from`` returns ``key`` belong to the
    calling op (call it before handing the work to another thread)."""
    op = _op.get()
    if op is not None:
        _adopted[key] = op


class BindingSiteError(RuntimeError):
    """A traced binding site does not exist (renamed or moved)."""


@dataclass(frozen=True)
class Site:
    """One wrapped binding site.

    ``target`` is ``"Name"`` for a module attribute or ``"Class.method"``;
    ``info`` maps ``(args, kwargs, result)`` to extra numbers stored on the
    span (iteration counts); ``op_from`` maps ``(args, kwargs)`` to an op
    key, for calls that run on a thread the load generator does not own.
    """

    span: str
    module: str
    target: str
    info: Callable | None = None
    op_from: Callable | None = None


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: "Span | None"
    op: int | None
    thread: int
    info: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _covered(intervals) -> float:
    """Total length of the union of ``(start, end)`` intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its children cover.

    Children are clipped to the parent's interval and may overlap each
    other (spans from several threads); their union is what is removed.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(id(span.parent), []).append((span.start, span.end))
    result = []
    for span in spans:
        clipped = [
            (max(start, span.start), min(end, span.end))
            for start, end in children.get(id(span), ())
        ]
        result.append(span.duration - _covered(clipped))
    return result


def unattributed(spans: list[Span], ops: dict[int, tuple[float, float]]) -> dict[int, float]:
    """Per op: wall time not covered by any of the op's top-level spans."""
    tops: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is None and span.op is not None:
            tops.setdefault(span.op, []).append((span.start, span.end))
    result = {}
    for op, (start, end) in ops.items():
        clipped = [(max(s, start), min(e, end)) for s, e in tops.get(op, ())]
        result[op] = (end - start) - _covered(clipped)
    return result


def _resolve(site: Site):
    try:
        module = importlib.import_module(site.module)
    except ImportError as exc:
        raise BindingSiteError(f"{site.module}: {exc}") from exc
    owner = module
    *path, attr = site.target.split(".")
    for name in path:
        owner = getattr(owner, name, None)
        if owner is None:
            raise BindingSiteError(f"{site.module}.{site.target}: no {name!r}")
    original = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
    if not callable(original):
        raise BindingSiteError(
            f"binding site {site.module}.{site.target} no longer exists"
        )
    return owner, attr, original


class Recorder:
    """Collects spans; installs and removes the site wrappers."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._installed: list[tuple[object, str, object]] = []

    def _wrap(self, site: Site, original):
        spans = self.spans

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            op_token = None
            if site.op_from is not None:
                op = _adopted.get(site.op_from(args, kwargs))
                if op is not None:
                    op_token = _op.set(op)
            parents = _stack.get()
            span = Span(
                site.span, time.perf_counter(), 0.0,
                parents[-1] if parents else None, _op.get(),
                threading.get_ident(),
            )
            spans.append(span)
            token = _stack.set(parents + (span,))
            result = None
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                span.end = time.perf_counter()
                _stack.reset(token)
                if op_token is not None:
                    _op.reset(op_token)
                if site.info is not None and result is not None:
                    span.info.update(site.info(args, kwargs, result))

        return wrapper

    def install(self, sites) -> None:
        """Wrap every site; raise :class:`BindingSiteError` on a missing one."""
        resolved = [(site, *_resolve(site)) for site in sites]
        _adopted.clear()
        for site, owner, attr, original in resolved:
            setattr(owner, attr, self._wrap(site, original))
            self._installed.append((owner, attr, original))

    def uninstall(self) -> None:
        """Restore every wrapped site, last wrapped first."""
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)
        _adopted.clear()

    def dump(self, path: str) -> None:
        """Write the recorded spans as JSON; a parent is its list index."""
        index = {id(span): i for i, span in enumerate(self.spans)}
        with open(path, "w") as handle:
            json.dump(
                [
                    [s.name, s.start, s.end, index.get(id(s.parent)), s.op, s.thread, s.info]
                    for s in self.spans
                ],
                handle,
            )
