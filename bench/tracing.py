"""In-memory span tracer that wraps functions from outside the program.

A span is one call of a wrapped function: its name, start and end
(``time.perf_counter``), the span that was open when it started (its
parent) and an optional note set by an observer, such as "diverged". All
spans of one chain share the chain's root span, so a chain's spans are
the slice of ``Tracer.spans`` recorded while its root was open.

Wrappers replace an attribute at the place its callers look it up, for
example ``drgmc.chain.decide`` (chain.py imported the name) or the
``solve`` method on ``ForwardSolveResult``. ``Tracer.uninstall`` puts every
original object back, so nothing of the tracer survives into an untraced
measurement.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager

# Indices into a span record (a list, kept small and cheap to build).
NAME, PARENT, START, END, NOTE = range(5)


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self._stack = []
        self._patches = []

    # -- recording -------------------------------------------------------

    @contextmanager
    def span(self, name):
        """Record a span around a block of the benchmark's own code."""
        rec = self._open(name)
        try:
            yield rec
        finally:
            self._close(rec)

    def _open(self, name):
        stack = self._stack
        rec = [name, stack[-1] if stack else -1, self.clock(), None, None]
        stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _close(self, rec):
        rec[END] = self.clock()
        self._stack.pop()

    def wrap(self, fn, name, observe=None):
        """Return fn wrapped in a span.

        observe(args, result, exc) runs after each call, with exc the
        exception the call raised or None; a string it returns becomes the
        span's note. The exception, if any, still propagates.
        """
        spans, stack, clock = self.spans, self._stack, self.clock

        def traced(*args, **kwargs):
            rec = [name, stack[-1] if stack else -1, clock(), None, None]
            stack.append(len(spans))
            spans.append(rec)
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as err:
                exc = err
                raise
            finally:
                rec[END] = clock()
                stack.pop()
                if observe is not None:
                    rec[NOTE] = observe(args, result, exc)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # -- installing wrappers ---------------------------------------------

    def install(self, table):
        """table: iterable of (owner, attribute, span name, observe or None).

        owner is a module or a class; the attribute is replaced in place.
        """
        try:
            for owner, attr, name, observe in table:
                original = _own_attribute(owner, attr)
                setattr(owner, attr, self.wrap(original, name, observe))
                self._patches.append((owner, attr, original))
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self):
        """Restore every replaced attribute, newest first, and check it."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
            if _own_attribute(owner, attr) is not original:
                raise RuntimeError(f"could not restore {owner!r}.{attr}")

    @property
    def installed(self):
        return bool(self._patches)

    def clear(self):
        if self._stack:
            raise RuntimeError("cannot clear spans while a span is open")
        self.spans.clear()


def _own_attribute(owner, attr):
    """The object stored under attr on owner itself (not inherited)."""
    if isinstance(owner, type):
        if attr not in owner.__dict__:
            raise AttributeError(f"{owner.__name__} does not define {attr}")
        return owner.__dict__[attr]
    return getattr(owner, attr)


# -- arithmetic over recorded spans ----------------------------------------

def durations(spans):
    return [rec[END] - rec[START] for rec in spans]


def self_times(spans):
    """Total self time per span name: a span's duration minus the time its
    direct children cover. Children of one span never overlap, because
    every span opens and closes on one thread's call stack.

    Parent indices refer to positions in ``spans``; a parent outside the
    list (for example -1) makes the span a root.
    """
    dur = durations(spans)
    own = list(dur)
    for i, rec in enumerate(spans):
        parent = rec[PARENT]
        if 0 <= parent < len(spans):
            own[parent] -= dur[i]
    totals = defaultdict(float)
    for rec, value in zip(spans, own):
        totals[rec[NAME]] += value
    return dict(totals)


def inclusive_times(spans):
    """Total duration per name, counting a span only when no ancestor has
    the same name, so recursion or nested wrappers are not counted twice."""
    totals = defaultdict(float)
    for i, rec in enumerate(spans):
        name, parent = rec[NAME], rec[PARENT]
        nested = False
        while 0 <= parent < len(spans):
            if spans[parent][NAME] == name:
                nested = True
                break
            parent = spans[parent][PARENT]
        if not nested:
            totals[name] += rec[END] - rec[START]
    return dict(totals)


def counts(spans, note=None):
    """Number of spans per name; with note, only spans carrying that note."""
    totals = defaultdict(int)
    for rec in spans:
        if note is None or rec[NOTE] == note:
            totals[rec[NAME]] += 1
    return dict(totals)
