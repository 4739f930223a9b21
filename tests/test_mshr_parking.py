"""Pinned regression for the parked-request path (MSHR-full retries).

A full MSHR file parks demand requests on the port; every fill retries
them.  Retries that cannot succeed are refused without re-running the
request, but each refusal must still be bookkept exactly as a real one:
the ``mshr.full`` counter, the ``mshr:full`` probe event, and the
``mshr-full`` fault draw.  The pins below were taken from the
re-executing implementation, over every mechanism on the Table-I machine
and on the same machine with a 4-entry L1D MSHR file (where nearly every
store parks), with fault injection off and at ``medium`` intensity, and
with and without a tracer attached.  A dropped refusal moves the
counter; a dropped probe event moves the event count; a dropped fault
draw shifts the fault stream and with it the result.
"""

import dataclasses
import hashlib

import pytest

from repro.common.config import MECHANISMS, table_i
from repro.faults import FaultInjector, FaultPlan, INTENSITIES
from repro.observe import Tracer
from repro.sim.system import System
from repro.workloads import make_trace

BENCH, LENGTH, TRACE_SEED, FAULT_SEED = "502.gcc2", 1000, 3, 5


def machine(name):
    config = table_i()
    if name == "mshr4":
        memory = config.memory
        config = dataclasses.replace(config, memory=dataclasses.replace(
            memory, l1d=dataclasses.replace(memory.l1d, mshrs=4)))
    return config


def run_point(mechanism, machine_name, faults, probe):
    """Simulate one point; returns (sha256 of the result, counters)."""
    config = machine(machine_name).with_mechanism(mechanism)
    system = System(config, [make_trace(BENCH, LENGTH, TRACE_SEED)])
    probe_full = []
    if probe:
        tracer = Tracer(system, max_events=0).attach()
        tracer.bus.subscribe(
            lambda ev: probe_full.append(1) if ev.name == "mshr:full"
            else None)
    plan = None
    if faults:
        plan = FaultPlan(FAULT_SEED, INTENSITIES["medium"])
        FaultInjector(system, plan).attach()
    result = system.run()
    counters = {
        "full": result.stats["system.mem.core0.mshr.full"],
        "merges": result.stats["system.mem.core0.mshr.merges"],
        "fault_refusals": (plan.counts["mshr-full"]
                           if plan is not None else 0),
    }
    if probe:
        counters["probe_full"] = len(probe_full)
    digest = hashlib.sha256(result.canonical_json().encode()).hexdigest()
    return digest, counters


#: (mechanism, machine, faults) -> (sha256, mshr.full, mshr.merges,
#: injected mshr-full refusals).
PINS = {
    ('baseline', 'table_i', False):
        ("f6ae5f230ef24673c9c6762542d25b4a53c9164278a8d13629a8ffddd85b9362",
         0, 705, 0),
    ('baseline', 'table_i', True):
        ("1b53e75fbd1768dc0d12029ac4d535edfb3454414bc69b48d3031879795a957a",
         0, 740, 18),
    ('baseline', 'mshr4', False):
        ("f68a29d293008b6b5ba523ed546504779e216cd086dd125f6227665ab39b4078",
         20078, 755, 0),
    ('baseline', 'mshr4', True):
        ("bd02bdc8a492e826edb3d37df91acbcf365507ee5a65d7ee702b125b74c241d2",
         20169, 906, 30),
    ('ssb', 'table_i', False):
        ("c958db79e37090f82cc3b3d137a090fb45d0e2a75de8cd8295b3e9a91feab65c",
         57597, 13232, 0),
    ('ssb', 'table_i', True):
        ("dbdea62e55150300c6fb6e58e33ecc86796a8b34ae67e48f44e123f22e52a97a",
         57570, 4261, 30),
    ('ssb', 'mshr4', False):
        ("83c85c89159d3a836b65f849b1b816a5fe56587760c97eee978b466fa6c13a69",
         121140, 6626, 0),
    ('ssb', 'mshr4', True):
        ("54e5b801e342762e9acd17827deb3165d13d116d4d0975aa702689cd7faafffa",
         123056, 7510, 30),
    ('csb', 'table_i', False):
        ("02a2810fd77800c1ec0138e387ba43055d1a481769c8c9dcfa89da0a5c162e6c",
         0, 696, 0),
    ('csb', 'table_i', True):
        ("57dd5bae5accd79b79703b17e5639433373941032e67b501b1b21f02b46158b5",
         0, 696, 18),
    ('csb', 'mshr4', False):
        ("f584b0ae03851a44cf3331d29cecbba973025690bc130f01b2e1cbb0e7ac5d63",
         21438, 696, 0),
    ('csb', 'mshr4', True):
        ("4ef528a9be8479682de73ec3174081fea3d46cf5244fad4ed295ba6f9f47a626",
         21363, 696, 30),
    ('spb', 'table_i', False):
        ("277880400a746b0776ae838abe28ae06f5cab6f26cf033aaa888fef322a98902",
         84, 800, 0),
    ('spb', 'table_i', True):
        ("56f9dd9546ea613dc0398e2261b9668ad73cdc96ed69a8a5b03ff80b75d988e5",
         47, 621, 23),
    ('spb', 'mshr4', False):
        ("45e4e1f85a2b61ac2beadd79a0b04a646642ab38e7f78fbf16d4ea3f36594e29",
         20324, 759, 0),
    ('spb', 'mshr4', True):
        ("b574f7e167680bc801be4eccf300c824d92804a108d691a6bb9ff8c569505005",
         20415, 910, 30),
    ('tus', 'table_i', False):
        ("b533e166a8d9bcff6555f4c259c4d0a42588d8323cb501dee31ca64d990f99c4",
         14699, 949, 0),
    ('tus', 'table_i', True):
        ("56be51e04475e0523d819738e976d2c862d9a8d0a6281d49d0cd83f86ea97e39",
         6936, 941, 30),
    ('tus', 'mshr4', False):
        ("7e1768d90b8fa9f468594584e69777ea0c5a0253487f123c0e59fc5da13bbe34",
         73400, 949, 0),
    ('tus', 'mshr4', True):
        ("d340e38c3f41b30487cec0f34cb1b1ab6cd552dd8b0943887428b3289639cacf",
         73492, 949, 30),
}


@pytest.mark.parametrize("probe", [False, True], ids=["noprobe", "probe"])
@pytest.mark.parametrize("faults", [False, True], ids=["nofaults", "faults"])
@pytest.mark.parametrize("machine_name", ["table_i", "mshr4"])
@pytest.mark.parametrize("mechanism", MECHANISMS)
def test_parked_path_pinned(mechanism, machine_name, faults, probe):
    digest, counters = run_point(mechanism, machine_name, faults, probe)
    sha, full, merges, fault_refusals = PINS[mechanism, machine_name, faults]
    assert counters["full"] == full
    assert counters["merges"] == merges
    assert counters["fault_refusals"] == fault_refusals
    if probe:
        # Every counted refusal emits exactly one probe event.
        assert counters["probe_full"] == full
    assert digest == sha

