"""A small statistics framework for simulator models.

Models declare named counters, distributions, and derived formulas in a
:class:`StatGroup`.  Groups nest, so the full system exposes one tree that
renders to text or flattens to a dict for the harness.

This replaces gem5's ``Stats`` package at the fidelity this reproduction
needs: counters, scalar formulas, and histograms.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, List, Optional, Tuple


class Counter:
    """A monotonically growing scalar statistic."""

    __slots__ = ("name", "desc", "value")

    def __init__(self, name: str, desc: str = "") -> None:
        self.name = name
        self.desc = desc
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount

    def reset(self) -> None:
        self.value = 0

    def __repr__(self) -> str:
        return f"Counter({self.name}={self.value})"


#: The counter bumps an operation makes, as ``(counter, delta)`` pairs.
#: A side-effect-free check returns one, so the caller that acts on the
#: check and a caller that only predicts the act bump the same counters.
Charge = Tuple[Tuple[Counter, int], ...]


class Histogram:
    """A bucketed distribution (linear buckets plus overflow)."""

    __slots__ = ("name", "desc", "bucket_width", "buckets", "overflow",
                 "count", "total")

    def __init__(self, name: str, bucket_width: int = 1,
                 num_buckets: int = 32, desc: str = "") -> None:
        self.name = name
        self.desc = desc
        self.bucket_width = bucket_width
        self.buckets = [0] * num_buckets
        self.overflow = 0
        self.count = 0
        self.total = 0

    def sample(self, value: int) -> None:
        self.count += 1
        self.total += value
        idx = value // self.bucket_width
        if 0 <= idx < len(self.buckets):
            self.buckets[idx] += 1
        else:
            self.overflow += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def reset(self) -> None:
        self.buckets = [0] * len(self.buckets)
        self.overflow = 0
        self.count = 0
        self.total = 0


class StatGroup:
    """A named collection of statistics; groups nest into a tree."""

    def __init__(self, name: str) -> None:
        self.name = name
        self._counters: Dict[str, Counter] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._formulas: Dict[str, Tuple[Callable[[], float], str]] = {}
        self._children: Dict[str, "StatGroup"] = {}

    # -- declaration -----------------------------------------------------
    def counter(self, name: str, desc: str = "") -> Counter:
        """Declare (or fetch) a counter in this group."""
        if name not in self._counters:
            self._counters[name] = Counter(name, desc)
        return self._counters[name]

    def histogram(self, name: str, bucket_width: int = 1,
                  num_buckets: int = 32, desc: str = "") -> Histogram:
        """Declare (or fetch) a histogram in this group."""
        if name not in self._histograms:
            self._histograms[name] = Histogram(
                name, bucket_width, num_buckets, desc)
        return self._histograms[name]

    def formula(self, name: str, fn: Callable[[], float],
                desc: str = "") -> None:
        """Declare a derived statistic computed on demand."""
        self._formulas[name] = (fn, desc)

    def child(self, name: str) -> "StatGroup":
        """Declare (or fetch) a nested group."""
        if name not in self._children:
            self._children[name] = StatGroup(name)
        return self._children[name]

    # -- access ----------------------------------------------------------
    def __getitem__(self, name: str) -> float:
        if name in self._counters:
            return self._counters[name].value
        if name in self._formulas:
            return self._formulas[name][0]()
        if name in self._histograms:
            return self._histograms[name].mean
        raise KeyError(f"{self.name}: no statistic named {name!r}")

    def get(self, name: str, default: float = 0.0) -> float:
        try:
            return self[name]
        except KeyError:
            return default

    def reset(self) -> None:
        for counter in self._counters.values():
            counter.reset()
        for hist in self._histograms.values():
            hist.reset()
        for group in self._children.values():
            group.reset()

    # -- export ----------------------------------------------------------
    def flatten(self, prefix: str = "") -> Dict[str, float]:
        """Return every statistic as ``{dotted.path: value}``."""
        path = f"{prefix}{self.name}." if self.name else prefix
        out: Dict[str, float] = {}
        for name, counter in self._counters.items():
            out[path + name] = counter.value
        for name, (fn, _) in self._formulas.items():
            out[path + name] = fn()
        for name, hist in self._histograms.items():
            out[path + name + ".mean"] = hist.mean
            out[path + name + ".count"] = hist.count
            # The distribution itself, not just its first moment: one key
            # per non-empty bucket, so sparse histograms stay compact.
            for idx, bucket in enumerate(hist.buckets):
                if bucket:
                    out[path + name + f".bucket{idx}"] = bucket
            if hist.overflow:
                out[path + name + ".overflow"] = hist.overflow
        for group in self._children.values():
            out.update(group.flatten(path))
        return out

    def walk(self) -> Iterator["StatGroup"]:
        yield self
        for group in self._children.values():
            yield from group.walk()

    def render(self, indent: int = 0) -> str:
        """Render this group as indented text."""
        lines: List[str] = [" " * indent + self.name]
        pad = " " * (indent + 2)
        for name, counter in sorted(self._counters.items()):
            lines.append(f"{pad}{name:<32} {counter.value}")
        for name, (fn, _) in sorted(self._formulas.items()):
            lines.append(f"{pad}{name:<32} {fn():.6g}")
        for name, hist in sorted(self._histograms.items()):
            lines.append(
                f"{pad}{name:<32} mean={hist.mean:.3f} n={hist.count}")
        for group in self._children.values():
            lines.append(group.render(indent + 2))
        return "\n".join(lines)


class NullStats:
    """The disabled statistics tree: falsy, and it keeps nothing.

    Every declaration returns a shared sink (one :class:`Counter`, one
    :class:`Histogram`, and the tree itself for :meth:`child`), so the
    models bump their counters exactly as they do under a live tree, and
    :meth:`flatten` returns ``{}``.  A sink's value sums every bump of
    every system that shares it and means nothing; a system built on
    :data:`NULL_STATS` is one whose behaviour nothing reads statistics
    from (the model checker's machines).
    """

    __slots__ = ()
    name = ""

    def __bool__(self) -> bool:
        return False

    def counter(self, name: str, desc: str = "") -> Counter:
        return _SINK_COUNTER

    def histogram(self, name: str, bucket_width: int = 1,
                  num_buckets: int = 32, desc: str = "") -> Histogram:
        return _SINK_HISTOGRAM

    def formula(self, name: str, fn: Callable[[], float],
                desc: str = "") -> None:
        """No-op: a formula over sinks would mean nothing."""

    def child(self, name: str) -> "NullStats":
        return self

    def reset(self) -> None:
        """No-op: the sinks are shared."""

    def flatten(self, prefix: str = "") -> Dict[str, float]:
        return {}


_SINK_COUNTER = Counter("null")
_SINK_HISTOGRAM = Histogram("null")

#: The shared disabled statistics tree (see :class:`NullStats`).
NULL_STATS = NullStats()


def geomean(values: List[float]) -> float:
    """Geometric mean, as used for the paper's 'All' aggregates."""
    if not values:
        return 0.0
    product = 1.0
    for value in values:
        if value <= 0:
            raise ValueError("geomean requires positive values")
        product *= value
    return product ** (1.0 / len(values))
