"""Span tracing around calls into scpir's public functions.

The tracer wraps library functions from the outside: every module-level
binding of a wrapped function object is replaced, so calls through names
bound at import (`from .packets import add_packets`) are seen too, and a
caller's self time does not absorb its callees. The library code itself
is not changed.

A span has a name ("layer.function"), a start, an end and a parent, and
every span opened inside one benchmark op carries that op's id. Hot
functions (called millions of times in an audit) are not kept as
records; their calls, total and self time are aggregated into the
nearest recorded ancestor. Self time is a span's duration minus the time
its child spans cover.
"""

import time
from collections import Counter


class Record:
    """One recorded span, plus the aggregated hot spans directly under it."""

    __slots__ = ("name", "parent", "op", "start", "end", "self_s", "agg")

    def __init__(self, name, parent, op, start):
        self.name = name
        self.parent = parent
        self.op = op
        self.start = start
        self.end = None
        self.self_s = None
        self.agg = {}


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.records: list[Record] = []
        self.counts = Counter()
        self._stack = []  # open frames: [child seconds, start, name, record index]
        self._current = None  # index of the innermost open record
        self._op = None

    def open(self, name: str) -> list:
        """Open a recorded span."""
        index = len(self.records)
        record = Record(name, self._current, self._op, None)
        self.records.append(record)
        self._current = index
        frame = [0.0, None, name, index]
        self._stack.append(frame)
        frame[1] = record.start = self.clock()
        return frame

    def close(self, frame: list) -> None:
        end = self.clock()
        popped = self._stack.pop()
        if popped is not frame:
            raise RuntimeError(f"span {frame[2]} closed out of order (open: {popped[2]})")
        child_s, start, _, index = frame
        duration = end - start
        if self._stack:
            self._stack[-1][0] += duration
        record = self.records[index]
        record.end = end
        record.self_s = duration - child_s
        self._current = record.parent

    def begin_op(self, op_id: int) -> list:
        self._op = op_id
        return self.open("bench.op")

    def end_op(self, frame: list) -> None:
        self.close(frame)
        self._op = None

    def wrap(self, name: str, fn, hot: bool = False, count=None):
        """A traced stand-in for fn. count(counts, args, result) adds work
        counts after a successful call; exceptions are counted by type.
        A hot span is folded into its nearest recorded ancestor's `agg`
        as [calls, total seconds, self seconds], on a path kept short
        because it runs per packet."""
        tracer, stack, clock, counts = self, self._stack, self.clock, self.counts

        if not hot:

            def traced(*args, **kwargs):
                frame = tracer.open(name)
                try:
                    result = fn(*args, **kwargs)
                except Exception as exc:
                    counts[f"{name}.raised.{type(exc).__name__}"] += 1
                    raise
                finally:
                    tracer.close(frame)
                if count is not None:
                    count(counts, args, result)
                return result

        else:

            def traced(*args, **kwargs):
                if tracer._current is None:
                    raise RuntimeError(f"hot span {name} outside any recorded span")
                frame = [0.0, clock()]
                stack.append(frame)
                try:
                    result = fn(*args, **kwargs)
                except Exception as exc:
                    counts[f"{name}.raised.{type(exc).__name__}"] += 1
                    raise
                finally:
                    duration = clock() - frame[1]
                    stack.pop()
                    stack[-1][0] += duration
                    agg = tracer.records[tracer._current].agg
                    entry = agg.get(name)
                    if entry is None:
                        agg[name] = [1, duration, duration - frame[0]]
                    else:
                        entry[0] += 1
                        entry[1] += duration
                        entry[2] += duration - frame[0]
                if count is not None:
                    count(counts, args, result)
                return result

        return traced


def summarize(records: list[Record]) -> dict:
    """Per span name: [calls, total seconds, self seconds], hot spans
    included. Open (unclosed) records are an error."""
    out: dict[str, list] = {}

    def add(name, calls, total, self_s):
        entry = out.setdefault(name, [0, 0.0, 0.0])
        entry[0] += calls
        entry[1] += total
        entry[2] += self_s

    for record in records:
        if record.end is None:
            raise RuntimeError(f"span {record.name} was never closed")
        add(record.name, 1, record.end - record.start, record.self_s)
        for name, (calls, total, self_s) in record.agg.items():
            add(name, calls, total, self_s)
    return out


def layer_self(summary: dict) -> Counter:
    """Self seconds per layer, the layer being the span name's prefix."""
    layers = Counter()
    for name, (_, _, self_s) in summary.items():
        layers[name.split(".", 1)[0]] += self_s
    return layers


def instrument(tracer: Tracer, modules, plan) -> list:
    """Replace every module binding of each planned function with its
    traced wrapper. plan: iterable of (layer, module, function name, hot,
    count). Returns the undo list for `restore`."""
    undo = []
    for layer, owner, fname, hot, count in plan:
        original = getattr(owner, fname)
        wrapper = tracer.wrap(f"{layer}.{fname}", original, hot, count)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    undo.append((module, attr, original))
    return undo


def restore(undo: list) -> None:
    for module, attr, original in reversed(undo):
        setattr(module, attr, original)
