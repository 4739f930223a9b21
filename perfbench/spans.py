"""Span recorder for the traced run.

The traced run wraps the public entry points of each layer from the
benchmark's side: the program itself is not edited.  Each wrapper
records one span per call (layer, inclusive duration, the time its
child spans covered) on a per-thread stack, so

    self time = span duration - time covered by child spans

and the self times of one thread's spans tile that thread's root
spans.  Counts are kept per entry point, plus an optional per-call
outcome (a hit, a grant, events fired) so ratios are measured where
the work happens.

Entry points are resolved by dotted name and patched on their class
or module; :meth:`Recorder.install` must run before the ``System``
under test is built, because its run loop hoists bound methods into
locals.  A running ``Service`` looks its methods up per call, so it may
be started first.  :meth:`Recorder.uninstall` restores every original.
"""

from __future__ import annotations

import importlib
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple


# Outcome functions: (call args, result) -> amount added to the entry
# point's outcome sum.
def _hit(args, result) -> int:
    return result is not None


def _truthy(args, result) -> int:
    return 1 if result else 0


def _count(args, result) -> int:
    return int(result or 0)


def _granted(args, decision) -> int:
    return 0 if decision.delay else 1


def _deduped(args, result) -> int:
    """``Service.submit`` returns (record, created)."""
    return 0 if result[1] else 1


def _traces_uops(args, result) -> int:
    traces = result if isinstance(result, list) else [result]
    return sum(len(trace) for trace in traces)


def _system_cycles(args, result) -> int:
    """Simulated cycles of the whole run, warm-up prefix included."""
    return args[0].cycle


#: (layer, "module:Qualified.attr", outcome) -- every entry point the
#: traced run times.  Methods are patched on the class that defines
#: them; functions on the module that *calls* them (the caller bound
#: the name at import time).
ENTRY_POINTS: List[Tuple[str, str, Optional[Callable]]] = [
    ("sim", "repro.sim.system:System.__init__", None),
    ("sim", "repro.sim.system:System.run", _system_cycles),
    ("sim", "repro.sim.system:System.run_controlled", _system_cycles),
    ("cpu", "repro.cpu.core:Core.step", _truthy),
    ("cpu", "repro.cpu.storebuffer:StoreBuffer.insert", None),
    ("cpu", "repro.cpu.storebuffer:StoreBuffer.search", _hit),
    ("cpu", "repro.cpu.storebuffer:StoreBuffer.pop_head", None),
    ("core", "repro.core.tus_controller:TUSController.can_accept",
     _truthy),
    ("core", "repro.core.tus_controller:TUSController.write_group", None),
    ("core", "repro.core.authorization:AuthorizationUnit.check", _granted),
    ("coherence", "repro.coherence.memsys:CorePort.load", None),
    ("coherence", "repro.coherence.memsys:CorePort.request_write", None),
    ("coherence", "repro.coherence.memsys:CorePort.request_read", None),
    ("coherence", "repro.coherence.memsys:CorePort.write_hit", None),
    ("coherence", "repro.coherence.memsys:MemorySystem.start_transaction",
     None),
    ("coherence", "repro.coherence.directory:Directory.lookup", _hit),
    ("coherence", "repro.coherence.directory:Directory.get_or_allocate",
     _hit),
    ("mem", "repro.mem.cache:CacheArray.lookup", _hit),
    ("mem", "repro.mem.cache:CacheArray.allocate", None),
    ("mem", "repro.mem.cache:CacheArray.invalidate", None),
    ("mem", "repro.mem.mshr:MSHRFile.allocate", None),
    ("mem", "repro.mem.mshr:MSHRFile.complete", None),
    ("mem", "repro.mem.dram:DRAM.access", None),
    ("events", "repro.common.events:EventQueue.schedule", None),
    ("events", "repro.common.events:EventQueue.run_until", _count),
    ("events", "repro.common.events:EventQueue.fire_entry", None),
    ("stats", "repro.common.stats:StatGroup.flatten", None),
    ("stats", "repro.sim.results:SimResult.canonical_json", None),
    ("workloads", "repro.harness.runner:make_trace", _traces_uops),
    ("workloads", "repro.harness.runner:make_parallel_traces", _traces_uops),
    ("workloads", "repro.workloads:make_parallel_traces", _traces_uops),
    ("modelcheck", "repro.modelcheck:explore", None),
    ("modelcheck", "repro.modelcheck.explorer:canonical_key", None),
    ("modelcheck", "repro.modelcheck.por:describe_actions", None),
    ("modelcheck", "repro.modelcheck.por:persistent_set", None),
    ("modelcheck", "repro.modelcheck.explorer:sleep_filter", None),
    ("harness", "repro.harness.runner:Runner.simulate", None),
    ("service", "repro.service.client:ServiceClient.submit", None),
    ("service", "repro.service.client:ServiceClient.wait", None),
    ("service", "repro.service.client:ServiceClient.job", None),
    ("service", "repro.service.client:ServiceClient.result", None),
    ("service", "repro.service.service:Service.submit", _deduped),
    ("service", "repro.service.queue:DiskQueue.submit", None),
    ("durability", "repro.service.jobs:JobStore.save", None),
    ("durability", "repro.service.jobs:JobStore.load", None),
    ("durability", "repro.service.store:ArtifactStore.has", None),
    ("durability", "repro.service.store:ArtifactStore.get", None),
]

#: Every store-handling mechanism class; ``drain``, ``on_store_commit``
#: and ``search`` are wrapped where each class defines them.
MECHANISM_CLASSES = [
    "repro.mechanisms.base:StoreMechanism",
    "repro.mechanisms.base:PrefetchAtCommit",
    "repro.mechanisms.baseline:BaselineMechanism",
    "repro.mechanisms.ssb:SSBMechanism",
    "repro.mechanisms.csb:CSBMechanism",
    "repro.mechanisms.spb:SPBMechanism",
    "repro.mechanisms.tus:TUSMechanism",
]
MECHANISM_METHODS = ("drain", "on_store_commit", "search")

#: Entry points that also keep every call's duration (for medians).
KEEP_DURATIONS = {"ServiceClient.submit", "Service.submit"}

#: Layer of the benchmark's own code (the root span of every operation).
ROOT = "bench"


def _resolve(spec: str):
    module_name, _, path = spec.partition(":")
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr


class Recorder:
    """In-memory span and count store for one traced run."""

    def __init__(self) -> None:
        self._stacks: Dict[int, list] = {}
        self._undo: List[Tuple[object, str, object]] = []
        self.main = threading.get_ident()
        self.reset()

    def reset(self) -> None:
        """Drop everything recorded so far (patches stay installed)."""
        #: (thread is main, layer) -> self seconds
        self.layer_self: Dict[Tuple[bool, str], float] = defaultdict(float)
        #: entry name -> inclusive / self seconds, calls, outcome sum
        self.inclusive: Dict[str, float] = defaultdict(float)
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.outcomes: Dict[str, int] = defaultdict(int)
        self.durations: Dict[str, List[float]] = defaultdict(list)

    def take(self) -> dict:
        """Everything recorded since the last reset; then reset."""
        taken = {"layer_self": self.layer_self, "inclusive": self.inclusive,
                 "self_s": self.self_s, "calls": self.calls,
                 "outcomes": self.outcomes, "durations": self.durations}
        self.reset()
        return taken

    # -- patching -------------------------------------------------------
    def install(self) -> None:
        for layer, spec, outcome in ENTRY_POINTS:
            owner, attr = _resolve(spec)
            self._patch(owner, attr, layer, spec.partition(":")[2],
                        outcome)
        for spec in MECHANISM_CLASSES:
            owner, cls_name = _resolve(spec)
            cls = getattr(owner, cls_name)
            for attr in MECHANISM_METHODS:
                if attr in vars(cls):
                    self._patch(cls, attr, "mechanisms",
                                f"mechanism.{attr}", None)
        from repro.modelcheck.invariants import INVARIANTS
        for name, fn in list(INVARIANTS.items()):
            INVARIANTS[name] = self.wrap("modelcheck", "invariant", fn)
            self._undo.append((INVARIANTS, name, fn))

    def uninstall(self) -> None:
        from repro.modelcheck.invariants import INVARIANTS
        for owner, attr, original in reversed(self._undo):
            if owner is INVARIANTS:
                INVARIANTS[attr] = original
            else:
                setattr(owner, attr, original)
        self._undo.clear()

    def _patch(self, owner, attr: str, layer: str, name: str,
               outcome: Optional[Callable]) -> None:
        original = vars(owner)[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        setattr(owner, attr, self.wrap(layer, name, original, outcome))
        self._undo.append((owner, attr, original))

    # -- spans ----------------------------------------------------------
    def _stack(self) -> list:
        ident = threading.get_ident()
        stack = self._stacks.get(ident)
        if stack is None:
            stack = self._stacks[ident] = []
        return stack

    def wrap(self, layer: str, name: str, fn: Callable,
             outcome: Optional[Callable] = None) -> Callable:
        """A span-recording wrapper around ``fn``."""
        recorder = self
        perf = time.perf_counter
        keep = name in KEEP_DURATIONS

        def traced(*args, **kwargs):
            stack = recorder._stack()
            covered = [0.0]
            stack.append(covered)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = perf() - start
                stack.pop()
                if stack:
                    stack[-1][0] += duration
                own = duration - covered[0]
                main = threading.get_ident() == recorder.main
                recorder.layer_self[(main, layer)] += own
                recorder.inclusive[name] += duration
                recorder.self_s[name] += own
                recorder.calls[name] += 1
                if keep:
                    recorder.durations[name].append(duration)
            if outcome is not None:
                recorder.outcomes[name] += outcome(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def root(self, fn: Callable) -> Callable:
        """Wrap one benchmark operation as a root span (layer ``bench``):
        its self time is the benchmark's own code, outside any layer."""
        return self.wrap(ROOT, ROOT, fn)
