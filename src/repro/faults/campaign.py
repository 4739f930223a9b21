"""Fault-injection campaigns: perturb, check, and diff against fault-free.

A *campaign* is one seeded experiment: build a deterministic synthetic
workload, run it twice on the same reduced configuration — once
fault-free as the reference, once with a :class:`~repro.faults.plan
.FaultPlan` attached — and require that the faulted run

1. terminates within a structurally derived cycle budget (the plan's
   boundedness makes the budget computable, not guessed),
2. violates none of the mechanism's model-check invariants (SWMR,
   tus-sync, store-order, wait-graph acyclicity, ...), evaluated after
   *every* action via the model checker's controlled run loop, and
3. produces the same derived final-memory image and per-address
   program-order commit structure as the reference run.

The differential oracle needs care because this is a timing simulator:
no data values flow, and coalescing mechanisms (CSB/TUS) publish a
timing-dependent *number* of times.  The campaign workload is therefore
**single-writer by construction** — each core stores only to its own
cache lines (loads may roam) — which makes the final memory image
schedule-independent: the final value of a line is its owner's last
program-order store, full stop.  The oracle then verifies the three
properties that pin that image down in both runs — publisher uniqueness
(only the owner ever publishes a line), completeness (every stored line
is eventually published), and Store->Store order — and compares the
derived images.  Any timing the faults perturb is free to differ;
anything architectural is not.

Campaigns fan out through :func:`repro.common.pool.fan_out`, like the
sweeps and the check matrix; a worker that raises or dies is recorded as
an ``error`` outcome of its own spec rather than killing the sweep.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..common.addr import LINE_SIZE, line_addr
from ..common.config import RetryConfig
from ..common.errors import DeadlockError
from ..common.pool import TaskFailure, fan_out
from ..common.rng import make_rng
from ..cpu.isa import alu, fence, load, store
from ..cpu.trace import Trace
from ..modelcheck.invariants import CheckContext, InvariantViolation
from ..modelcheck.observer import VisibilityObserver
from ..modelcheck.scenarios import check_config
from ..modelcheck.scheduler import CheckingScheduler, DefaultScheduler
from ..sim.system import System
from .injector import FaultInjector
from .plan import INTENSITIES, FaultConfig, FaultPlan

#: Campaign lines live well above the scenario range so campaign and
#: model-check traffic can never alias in a shared cache model.
CAMPAIGN_BASE = 0x8_0000

#: Outcomes, from best to worst; ``ok`` is the only green one.
OUTCOMES = ("ok", "oracle-mismatch", "violation", "deadlock", "error")


@dataclass(frozen=True)
class CampaignSpec:
    """One (seed, mechanism, intensity) campaign point."""

    seed: int
    mechanism: str = "tus"
    intensity: str = "medium"
    cores: int = 2
    lines_per_core: int = 2
    ops_per_core: int = 24
    retry_policy: str = "backoff"
    # Shared level, as accepted by check_config (None: the original
    # reduced machine).
    machine: Optional[dict] = None

    def label(self) -> str:
        label = (f"{self.mechanism}/{self.intensity}/seed{self.seed}"
                 f"/c{self.cores}")
        machine = self.machine or {}
        topology = machine.get("topology", "p2p")
        shards = machine.get("dir_shards", 1)
        if shards > 1 or topology != "p2p":
            label += f"/{topology}-s{shards}"
        return label

    def fault_config(self) -> FaultConfig:
        try:
            return INTENSITIES[self.intensity]
        except KeyError:
            raise ValueError(
                f"unknown intensity {self.intensity!r}; available: "
                f"{', '.join(sorted(INTENSITIES))}") from None


@dataclass
class CampaignResult:
    """What one campaign did; JSON-plain and picklable."""

    label: str
    seed: int
    mechanism: str
    intensity: str
    outcome: str                       # one of OUTCOMES
    detail: str = ""
    cycles: int = 0
    ref_cycles: int = 0
    committed: int = 0
    ref_committed: int = 0
    total_injections: int = 0
    injections: Dict[str, Dict[str, int]] = field(default_factory=dict)
    invariant: Optional[str] = None
    dump: Optional[dict] = None        # ProgressDump.to_dict() on deadlock

    @property
    def ok(self) -> bool:
        return self.outcome == "ok"

    def to_dict(self) -> dict:
        return {
            "label": self.label, "seed": self.seed,
            "mechanism": self.mechanism, "intensity": self.intensity,
            "outcome": self.outcome, "detail": self.detail,
            "cycles": self.cycles, "ref_cycles": self.ref_cycles,
            "committed": self.committed,
            "ref_committed": self.ref_committed,
            "total_injections": self.total_injections,
            "injections": self.injections,
            "invariant": self.invariant, "dump": self.dump,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CampaignResult":
        return cls(**data)


# ----------------------------------------------------------------------
# Workload construction
# ----------------------------------------------------------------------

def campaign_lines(spec: CampaignSpec) -> List[List[int]]:
    """Per-core disjoint cache-line sets (the single-writer partition)."""
    lines = []
    for cid in range(spec.cores):
        base = CAMPAIGN_BASE + cid * spec.lines_per_core * LINE_SIZE
        lines.append([base + i * LINE_SIZE
                      for i in range(spec.lines_per_core)])
    return lines


def build_traces(spec: CampaignSpec) -> List[Trace]:
    """Seeded single-writer workload with cross-core read sharing.

    Each core stores exclusively to its own lines (so the final memory
    image is schedule-independent) but loads both its own and other
    cores' lines — the remote loads are what drag lines through the
    directory, trigger snoops of unauthorized lines, and give the
    nack-burst / c2c-delay fault sites real traffic to perturb.
    """
    ownership = campaign_lines(spec)
    traces = []
    for cid in range(spec.cores):
        rng = make_rng(spec.seed, f"campaign:core{cid}")
        own = ownership[cid]
        remote = [addr for other, lines in enumerate(ownership)
                  if other != cid for addr in lines]
        uops = []
        for _ in range(spec.ops_per_core):
            roll = rng.random()
            if roll < 0.55:
                uops.append(store(rng.choice(own)
                                  + 8 * rng.randrange(4), 8))
            elif roll < 0.75 and remote:
                uops.append(load(rng.choice(remote)))
            elif roll < 0.85:
                uops.append(load(rng.choice(own)))
            elif roll < 0.92:
                uops.append(fence())
            else:
                uops.append(alu())
        traces.append(Trace(f"campaign{cid}", uops))
    return traces


# ----------------------------------------------------------------------
# Differential oracle
# ----------------------------------------------------------------------

def derived_image(observer: VisibilityObserver,
                  traces: Sequence[Trace]) -> Dict[int, Tuple[int, int]]:
    """The final-memory image a single-writer run determines.

    Returns ``line -> (owner core, last program-order store position)``.
    Raises :class:`AssertionError`-style ``ValueError`` when the run
    itself breaks one of the pinning properties (publisher uniqueness,
    completeness) — those are architectural failures, not mismatches.
    """
    image: Dict[int, Tuple[int, int]] = {}
    for cid, trace in enumerate(traces):
        stored: Dict[int, int] = {}
        position = 0
        for uop in trace:
            if uop.kind.is_store:
                stored[line_addr(uop.addr)] = position
            position += 1
        published = {line for _, _, line in observer.events.get(cid, ())}
        missing = sorted(set(stored) - published)
        if missing:
            raise ValueError(
                f"core {cid} never published stored lines "
                f"{[hex(a) for a in missing]}")
        foreign = sorted(published - set(stored))
        if foreign:
            raise ValueError(
                f"core {cid} published lines it never stored "
                f"{[hex(a) for a in foreign]}")
        for line, pos in stored.items():
            if line in image:
                raise ValueError(
                    f"line {line:#x} written by cores {image[line][0]} "
                    f"and {cid}: workload is not single-writer")
            image[line] = (cid, pos)
    return image


def cycle_budget(ref_cycles: int, fault_config: FaultConfig,
                 retry: RetryConfig) -> int:
    """Structural termination bound for a faulted run.

    Every injected delay adds at most ``magnitude`` cycles and every
    refusal costs at most one retry window; both are capped per site by
    ``site_budget``.  The worst case serialises every injection on the
    critical path, so the faulted run cannot legitimately need more
    than the reference plus the total perturbation (plus slack for the
    watchdog granularity).
    """
    sites = len(fault_config.sites)
    delays = fault_config.site_budget * fault_config.magnitude * sites
    refusals = fault_config.site_budget * 3 * (retry.max_delay
                                               + fault_config.magnitude)
    return ref_cycles + delays + refusals + 10_000


# ----------------------------------------------------------------------
# Execution
# ----------------------------------------------------------------------

def _make_system(spec: CampaignSpec, traces: List[Trace]
                 ) -> Tuple[System, VisibilityObserver]:
    config = check_config(spec.cores, spec.mechanism,
                          **(spec.machine or {}))
    if spec.retry_policy != config.retry.policy:
        import dataclasses
        config = dataclasses.replace(
            config, retry=RetryConfig(policy=spec.retry_policy,
                                      seed=spec.seed))
        config.validate()
    system = System(config, [Trace(t.name, list(t)) for t in traces],
                    workload=f"faults:{spec.label()}")
    observer = VisibilityObserver()
    observer.attach(system)
    return system, observer


def run_campaign(spec: CampaignSpec) -> CampaignResult:
    """Run one campaign point: reference, faulted, oracle."""
    traces = build_traces(spec)
    fault_config = spec.fault_config()
    result = CampaignResult(label=spec.label(), seed=spec.seed,
                            mechanism=spec.mechanism,
                            intensity=spec.intensity, outcome="ok")

    # Reference (fault-free) run.
    ref_system, ref_observer = _make_system(spec, traces)
    ref = ref_system.run()
    result.ref_cycles = ref.cycles
    result.ref_committed = ref.committed
    for cid, trace in enumerate(traces):
        ref_observer.check_store_store_order(cid, trace)
    reference_image = derived_image(ref_observer, traces)

    # Faulted run under the invariant-checking controlled loop.
    system, observer = _make_system(spec, traces)
    plan = FaultPlan(spec.seed, fault_config)
    ctx = CheckContext(system=system, traces=traces, observer=observer)
    invariants = system.cores[0].mechanism.modelcheck_invariants()
    scheduler = CheckingScheduler(DefaultScheduler(), ctx, invariants)
    budget = cycle_budget(ref.cycles, fault_config, system.config.retry)
    try:
        with FaultInjector(system, plan):
            faulted = system.run_controlled(scheduler, max_cycles=budget)
    except InvariantViolation as exc:
        result.outcome = "violation"
        result.invariant = exc.invariant
        result.detail = exc.message
    except DeadlockError as exc:
        result.outcome = "deadlock"
        result.detail = str(exc)
        if exc.dump is not None:
            result.dump = exc.dump.to_dict()
    else:
        result.cycles = faulted.cycles
        result.committed = faulted.committed
        try:
            faulted_image = derived_image(observer, traces)
        except ValueError as exc:
            result.outcome = "oracle-mismatch"
            result.detail = str(exc)
        else:
            if faulted_image != reference_image:
                diff = sorted(set(faulted_image.items())
                              ^ set(reference_image.items()))
                result.outcome = "oracle-mismatch"
                result.detail = (f"final-memory image diverged on "
                                 f"{len(diff)} entries: {diff[:4]}")
            elif faulted.committed != ref.committed:
                result.outcome = "oracle-mismatch"
                result.detail = (f"committed {faulted.committed} uops "
                                 f"faulted vs {ref.committed} reference")
    result.total_injections = plan.total_injections
    result.injections = plan.summary()
    return result


def run_campaigns(specs: Sequence[CampaignSpec],
                  workers: int = 1) -> List[CampaignResult]:
    """Run many campaign points, optionally across worker processes.

    A worker that raises or dies charges its own point an ``error``
    outcome (no retries) and the sweep continues — campaign sweeps exist
    to find exactly the seeds that break things, so one broken seed must
    never hide the rest.  Results come back in spec order.
    """
    results: List[object] = [None] * len(specs)
    fan_out(run_campaign, specs, [spec.label() for spec in specs],
            workers, results.__setitem__)
    return [CampaignResult(label=spec.label(), seed=spec.seed,
                           mechanism=spec.mechanism,
                           intensity=spec.intensity, outcome="error",
                           detail=res.message)
            if isinstance(res, TaskFailure) else res
            for spec, res in zip(specs, results)]


def sweep_specs(seeds: Sequence[int], mechanisms: Sequence[str],
                intensities: Sequence[str],
                cores: int = 2, **kwargs) -> List[CampaignSpec]:
    """The cross product a ``repro faults`` sweep runs."""
    return [CampaignSpec(seed=seed, mechanism=mechanism,
                         intensity=intensity, cores=cores, **kwargs)
            for mechanism in mechanisms
            for intensity in intensities
            for seed in seeds]


def render_results(results: Sequence[CampaignResult]) -> str:
    """Human-readable sweep table plus a verdict line."""
    lines = [f"{'campaign':34} {'outcome':16} {'inj':>4} "
             f"{'cycles':>8} {'ref':>8}"]
    for res in results:
        lines.append(
            f"{res.label:34} {res.outcome:16} {res.total_injections:4d} "
            f"{res.cycles:8d} {res.ref_cycles:8d}"
            + (f"  {res.detail}" if res.detail and not res.ok else ""))
    bad = [r for r in results if not r.ok]
    lines.append(
        f"{len(results)} campaigns, {len(results) - len(bad)} ok, "
        f"{len(bad)} failed")
    return "\n".join(lines)
