"""In-memory span recorder and the analysis of what it recorded.

A span is one call of a wrapped function: its name, start and end
(perf_counter_ns), the span that was open when it started (its parent,
-1 at the top), a count measured at the call boundary (0 when the
function has none) and the repetition it belongs to.  Spans stay in
memory, column by column, until `dump` writes them once at the end of
the run; `load` reads them back in the benchmark process.

File format: one JSON header line, then the int arrays name, parent,
start, end and count, each `header["spans"]` items long, in machine
byte order.
"""
from __future__ import annotations

import functools
import json
import time
from array import array
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable, Hashable

_COLUMNS = (("name", "i"), ("parent", "i"), ("start", "q"), ("end", "q"),
            ("count", "q"))


class SpanRecorder:
    """Records a span around every call of the functions it wraps.

    Single-threaded: the open spans form one stack, so the parent of a
    new span is the span on top of it.
    """

    def __init__(self, rep: int):
        self.rep = rep
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._keys: dict[Hashable, int] = {}
        self.columns = {col: array(code) for col, code in _COLUMNS}
        self._stack = [-1]

    def key_id(self, key: Hashable) -> int:
        """A small int standing for `key`, for counting distinct arguments."""
        return self._keys.setdefault(key, len(self._keys))

    def wrap(self, name: str, fn: Callable,
             count: Callable[..., int] | None = None) -> Callable:
        """`fn` with a span named `name` around each call; `count`, given
        the positional arguments, measures the work of the call."""
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        nid = self._name_ids[name]
        names = self.columns["name"]
        parents = self.columns["parent"]
        starts = self.columns["start"]
        ends = self.columns["end"]
        counts = self.columns["count"]
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(names)
            names.append(nid)
            parents.append(stack[-1])
            counts.append(count(*args) if count is not None else 0)
            ends.append(0)
            stack.append(i)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()

        return traced

    def dump(self, path: str) -> None:
        header = {"rep": self.rep, "names": self.names,
                  "spans": len(self.columns["name"])}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for col, _ in _COLUMNS:
                self.columns[col].tofile(fh)


@dataclass
class Spans:
    rep: int
    names: list[str]
    name: array
    parent: array
    start: array
    end: array
    count: array

    def __len__(self) -> int:
        return len(self.name)


def load(path: str) -> Spans:
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        cols = {}
        for col, code in _COLUMNS:
            cols[col] = array(code)
            cols[col].fromfile(fh, header["spans"])
    return Spans(rep=header["rep"], names=header["names"], **cols)


def self_times(start, end, parent) -> list[int]:
    """Each span's duration minus the part of it its children cover.

    Children are merged as intervals clipped to the parent, so that
    overlapping children are not subtracted twice.
    """
    children: dict[int, list[int]] = defaultdict(list)
    for i, p in enumerate(parent):
        if p >= 0:
            children[p].append(i)
    out = [e - s for s, e in zip(start, end)]
    for p, kids in children.items():
        lo, hi = start[p], end[p]
        covered = 0
        cur_s = cur_e = None
        for k in sorted(kids, key=start.__getitem__):
            s, e = max(start[k], lo), min(end[k], hi)
            if e <= s:
                continue
            if cur_e is None or s > cur_e:
                if cur_e is not None:
                    covered += cur_e - cur_s
                cur_s, cur_e = s, e
            else:
                cur_e = max(cur_e, e)
        if cur_e is not None:
            covered += cur_e - cur_s
        out[p] -= covered
    return out


@dataclass
class NameStats:
    """Totals over the spans of one name; times in nanoseconds."""
    calls: int = 0
    self_ns: int = 0
    # Inclusive time of the spans with no ancestor of the same name, so
    # that a recursive function is not counted once per level.
    total_ns: int = 0
    count: int = 0
    distinct_counts: set = field(default_factory=set)


def summarize(spans: Spans) -> dict[str, NameStats]:
    selfs = self_times(spans.start, spans.end, spans.parent)
    stats = [NameStats() for _ in spans.names]
    for i, nid in enumerate(spans.name):
        st = stats[nid]
        st.calls += 1
        st.self_ns += selfs[i]
        st.count += spans.count[i]
        st.distinct_counts.add(spans.count[i])
        p = spans.parent[i]
        while p >= 0 and spans.name[p] != nid:
            p = spans.parent[p]
        if p < 0:
            st.total_ns += spans.end[i] - spans.start[i]
    return dict(zip(spans.names, stats))
