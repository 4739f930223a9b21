"""Prometheus-text-format metrics for the simulation service.

The service's observable state is almost entirely *derived*: queue
depth is a directory listing, job counts and latency histograms come
from the durable job records, worker utilization from the heartbeat
files.  The registry here therefore renders a metrics *snapshot* —
callers hand it plain values at scrape time — plus the few true
in-process counters the API layer owns (HTTP requests, sheds).

Exposition format is the Prometheus text format 0.0.4 (``# HELP`` /
``# TYPE`` headers, ``name{label="value"} sample`` lines, histogram
``_bucket``/``_sum``/``_count`` triples with cumulative ``le``
buckets).  :func:`parse_prometheus_text` is the matching stdlib-only
parser — the tests and CI use it to assert the
endpoint stays well-formed.
"""

from __future__ import annotations

import math
import threading
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: Default latency histogram bucket upper bounds, in seconds.
LATENCY_BUCKETS = (0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0,
                   60.0, 120.0)


def _fmt(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def _labels(labels: Optional[Dict[str, str]]) -> str:
    if not labels:
        return ""
    inner = ",".join(f'{k}="{v}"' for k, v in sorted(labels.items()))
    return "{" + inner + "}"


class Counter:
    """A monotonically increasing in-process counter with labels."""

    def __init__(self, name: str, help_text: str) -> None:
        self.name = name
        self.help = help_text
        self._values: Dict[Tuple[Tuple[str, str], ...], float] = {}
        self._lock = threading.Lock()

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        key = tuple(sorted(labels.items()))
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, **labels: str) -> float:
        key = tuple(sorted(labels.items()))
        with self._lock:
            return self._values.get(key, 0.0)

    def total(self) -> float:
        with self._lock:
            return sum(self._values.values())

    def render(self) -> List[str]:
        lines = [f"# HELP {self.name} {self.help}",
                 f"# TYPE {self.name} counter"]
        with self._lock:
            if not self._values:
                lines.append(f"{self.name} 0")
            for key in sorted(self._values):
                lines.append(f"{self.name}{_labels(dict(key))} "
                             f"{_fmt(self._values[key])}")
        return lines


def render_gauge(name: str, help_text: str,
                 samples: Sequence[Tuple[Optional[Dict[str, str]], float]]
                 ) -> List[str]:
    """Render one gauge family from snapshot samples."""
    lines = [f"# HELP {name} {help_text}", f"# TYPE {name} gauge"]
    for labels, value in samples:
        lines.append(f"{name}{_labels(labels)} {_fmt(value)}")
    return lines


def render_counter_snapshot(
        name: str, help_text: str,
        samples: Sequence[Tuple[Optional[Dict[str, str]], float]]
        ) -> List[str]:
    """Render a counter family whose values are derived at scrape time
    (e.g. terminal job counts recomputed from the durable records)."""
    lines = [f"# HELP {name} {help_text}", f"# TYPE {name} counter"]
    for labels, value in samples:
        lines.append(f"{name}{_labels(labels)} {_fmt(value)}")
    return lines


def render_histogram(name: str, help_text: str,
                     observations: Iterable[float],
                     buckets: Sequence[float] = LATENCY_BUCKETS
                     ) -> List[str]:
    """Render one histogram family from raw observations.

    Buckets are cumulative per the exposition format; the implicit
    ``+Inf`` bucket always equals ``_count``.
    """
    values = list(observations)
    lines = [f"# HELP {name} {help_text}", f"# TYPE {name} histogram"]
    cumulative = 0
    remaining = sorted(values)
    index = 0
    for bound in buckets:
        while index < len(remaining) and remaining[index] <= bound:
            index += 1
        cumulative = index
        lines.append(f'{name}_bucket{{le="{_fmt(bound)}"}} {cumulative}')
    lines.append(f'{name}_bucket{{le="+Inf"}} {len(remaining)}')
    lines.append(f"{name}_sum {_fmt(float(sum(values)))}")
    lines.append(f"{name}_count {len(values)}")
    return lines


# ----------------------------------------------------------------------
# Parsing (for the tests and the CI smoke)
# ----------------------------------------------------------------------

def parse_prometheus_text(text: str) -> Dict[str, Dict[str, float]]:
    """Parse exposition text into ``family -> {sample line -> value}``.

    Strict enough to catch real breakage (bad sample lines, values
    that do not parse, TYPE/HELP after samples of the same family) and
    loose enough to accept anything Prometheus itself would scrape.
    Raises ``ValueError`` with the offending line on malformed input.
    """
    families: Dict[str, Dict[str, float]] = {}
    typed: Dict[str, str] = {}
    closed: set = set()
    current: Optional[str] = None
    for raw in text.splitlines():
        line = raw.rstrip()
        if not line:
            continue
        if line.startswith("#"):
            parts = line.split(None, 3)
            if len(parts) < 3 or parts[1] not in ("HELP", "TYPE"):
                raise ValueError(f"malformed comment line: {raw!r}")
            family = parts[2]
            if family in closed:
                raise ValueError(
                    f"{parts[1]} for {family!r} after its samples "
                    f"closed: {raw!r}")
            if parts[1] == "TYPE":
                typed[family] = parts[3] if len(parts) > 3 else ""
                current = family
            continue
        # Sample line: name[{labels}] value [timestamp]
        name_end = len(line)
        for stop in (" ", "{"):
            pos = line.find(stop)
            if pos != -1:
                name_end = min(name_end, pos)
        name = line[:name_end]
        if not name or not (name[0].isalpha() or name[0] == "_"):
            raise ValueError(f"malformed sample line: {raw!r}")
        rest = line[name_end:]
        if rest.startswith("{"):
            close = rest.find("}")
            if close == -1:
                raise ValueError(f"unterminated labels: {raw!r}")
            rest = rest[close + 1:]
        fields = rest.split()
        if not fields:
            raise ValueError(f"sample without value: {raw!r}")
        try:
            value = float(fields[0])
        except ValueError:
            raise ValueError(f"non-numeric value in: {raw!r}") from None
        base = name
        for suffix in ("_bucket", "_sum", "_count"):
            if name.endswith(suffix) and name[:-len(suffix)] in typed:
                base = name[:-len(suffix)]
                break
        if current is not None and base != current:
            closed.add(current)
            current = base if base in typed else None
        families.setdefault(base, {})[line[:line.rfind(fields[0])]
                                      .strip()] = value
    return families
