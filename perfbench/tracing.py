"""In-memory spans and counters recorded around wrapped functions.

A span is (name, start, end, parent). Spans live in flat arrays while the
run goes on and are written once at the end; self time and per-name
totals are derived from them afterwards.
"""
from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

import numpy as np


class Tracer:
    """Records spans and counts for the functions it wraps.

    Single-threaded: the open-span stack assumes calls nest.
    """

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self.missing: set[str] = set()
        self._patches: list[tuple[object, str, object]] = []

    # ---------------------------------------------------------------- spans

    def open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(np.nan)
        self.start.append(time.perf_counter())
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def span_arrays(self):
        """(name_id, start, end, parent) as numpy arrays."""
        return (
            np.frombuffer(self.name_id, dtype=np.int32).copy(),
            np.frombuffer(self.start, dtype=float).copy(),
            np.frombuffer(self.end, dtype=float).copy(),
            np.frombuffer(self.parent, dtype=np.int32).copy(),
        )

    # ------------------------------------------------------------- wrapping

    def wrap(self, owner, attr: str, name, on_result=None, span: bool = True) -> bool:
        """Replace ``owner.attr`` with a recording wrapper.

        `name` is the span name, or a callable of the call's arguments
        returning it. `on_result(counts, args, kwargs, result)` adds
        counters after a call returns. With ``span=False`` only the call
        count is kept, under ``<name>.calls``. Every binding of the same
        function in an already imported ``sdm`` module is replaced too, so
        calls through ``from x import f`` names are seen. Returns False,
        and remembers the name as missing, when `owner` has no such
        attribute.
        """
        label = name if isinstance(name, str) else f"{owner.__name__}.{attr}"
        if getattr(owner, attr, None) is None:
            self.missing.add(label)
            return False
        raw = vars(owner)[attr]  # a class keeps the classmethod object itself
        is_classmethod = isinstance(raw, classmethod)
        fn = raw.__func__ if is_classmethod else raw
        counts = self.counts
        key = f"{label}.calls"
        tracer = self

        if span:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                idx = tracer.open(name if isinstance(name, str) else name(args, kwargs))
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer.close(idx)
                if on_result is not None:
                    on_result(counts, args, kwargs, result)
                return result
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)

        replacement = classmethod(wrapper) if is_classmethod else wrapper
        self._set(owner, attr, replacement)
        if isinstance(owner, type):
            # aliases such as ``__call__ = evaluate`` on the same class
            for other, value in list(vars(owner).items()):
                if other != attr and value is fn:
                    self._set(owner, other, wrapper)
        else:
            for mod_name, module in list(sys.modules.items()):
                if module is owner or not mod_name.startswith("sdm"):
                    continue
                for other, value in list(vars(module).items()):
                    if value is fn:
                        self._set(module, other, wrapper)
        return True

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def unwrap_all(self) -> None:
        """Restore every replaced attribute, newest first."""
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    # ------------------------------------------------------------- analysis

    def save(self, path: Path) -> None:
        """Write the spans and counters as one .npz file."""
        path.parent.mkdir(parents=True, exist_ok=True)
        name_id, start, end, parent = self.span_arrays()
        np.savez(
            path,
            names=np.array(self.names, dtype=str),
            name_id=name_id,
            start=start,
            end=end,
            parent=parent,
            count_names=np.array(list(self.counts), dtype=str),
            count_values=np.array(list(self.counts.values()), dtype=np.int64),
        )


def self_times(start, end, parent) -> np.ndarray:
    """Each span's duration minus the time its direct children cover.

    Children of one parent never overlap in a single-threaded trace, so
    summing their durations gives the covered part of the interval.
    """
    start = np.asarray(start, dtype=float)
    end = np.asarray(end, dtype=float)
    parent = np.asarray(parent)
    dur = end - start
    covered = np.zeros_like(dur)
    has_parent = parent >= 0
    np.add.at(covered, parent[has_parent], dur[has_parent])
    return dur - covered


def under(name_id, parent, roots: set[int]) -> np.ndarray:
    """Mask of spans that are, or descend from, a span named in `roots`.

    Relies on parents being opened, and so indexed, before children.
    """
    name_id = np.asarray(name_id)
    parent = np.asarray(parent)
    mask = np.isin(name_id, list(roots))
    for i in np.nonzero(parent >= 0)[0]:
        if mask[parent[i]]:
            mask[i] = True
    return mask


def totals(tracer: Tracer) -> dict[str, dict]:
    """Per span name: calls, total seconds, self seconds, durations."""
    name_id, start, end, parent = tracer.span_arrays()
    dur = end - start
    own = self_times(start, end, parent)
    out = {}
    for nid, name in enumerate(tracer.names):
        sel = name_id == nid
        out[name] = {
            "calls": int(sel.sum()),
            "s": float(dur[sel].sum()),
            "self_s": float(own[sel].sum()),
            "durations": dur[sel],
        }
    return out
