"""repro — a reproduction of "Temporarily Unauthorized Stores: Write
First, Ask for Permission Later" (Cebrian, Jahre, Ros — MICRO 2024).

The package implements, in pure Python:

* a cycle-level out-of-order core timing model focused on the store
  path (``repro.cpu``),
* a three-level MESI memory hierarchy with a directory, MSHRs, WCBs and
  prefetchers (``repro.mem``, ``repro.coherence``),
* the paper's contribution — Temporarily Unauthorized Stores with its
  Write Ordering Queue, atomic groups, and lex-order authorization unit
  (``repro.core``),
* the four comparison mechanisms: baseline prefetch-at-commit, SSB,
  CSB, and SPB (``repro.mechanisms``),
* x86-TSO and relaxed memory models with operational and axiomatic
  litmus checkers (``repro.models``),
* calibrated synthetic workloads standing in for SPEC CPU2017,
  TensorFlow and Parsec (``repro.workloads``),
* an analytic CAM/SRAM energy and area model for EDP results
  (``repro.energy``),
* and a harness regenerating every figure of the evaluation
  (``repro.harness``).

Quick start::

    from repro import table_i, run_single
    from repro.workloads import make_trace

    config = table_i().with_mechanism("tus")
    result = run_single(config, make_trace("502.gcc5", length=20000))
    print(result.ipc, result.stall_fraction("sb"))
"""

from .common.config import MECHANISMS, SB_SIZE_SWEEP, SystemConfig, table_i
from .sim.results import SimResult
from .sim.system import System, run_single

# Importing registers every mechanism.
from . import mechanisms as _mechanisms  # noqa: F401

__version__ = "1.0.0"

__all__ = ["MECHANISMS", "SB_SIZE_SWEEP", "SystemConfig", "table_i",
           "SimResult", "System", "run_single", "__version__"]
