"""rum-access-methods: a reproduction of "Designing Access Methods: The
RUM Conjecture" (Athanassoulis et al., EDBT 2016).

The library implements the paper's access-method inventory from scratch
over an instrumented simulated block device, so the three RUM overheads
— read amplification (RO), write amplification (UO) and space
amplification (MO) — can be *measured* for every structure, every
workload and every tuning knob.

Quick start::

    from repro import create_method, run_workload, WorkloadSpec

    spec = WorkloadSpec(point_queries=0.5, inserts=0.3, updates=0.2,
                        operations=2000, initial_records=10_000)
    result = run_workload(create_method("btree"), spec)
    print(result.profile)   # RUM(btree: RO=..., UO=..., MO=...)

See DESIGN.md for the full system inventory and EXPERIMENTS.md for the
paper-versus-measured record of every reproduced table and figure.
"""

from repro.core.interfaces import AccessMethod, Capabilities, MethodStats
from repro.core.registry import available_methods, create_method
from repro.core.rum import (
    RUMAccumulator,
    RUMProfile,
    measure_workload,
    measure_workload_batched,
)
from repro.core.space import RUMPoint, project
from repro.storage.device import CostModel, SimulatedDevice
from repro.workloads.generator import WorkloadGenerator, generate_operations
from repro.workloads.runner import WorkloadResult, run_workload
from repro.workloads.trace import load_trace, save_trace
from repro.workloads.spec import MIXES, Operation, OpKind, WorkloadSpec

# 1.1.0: trace events gained a `span` field (repro.obs.spans).  The
# version is the sweep cache's key salt, so bumping it structurally
# invalidates pre-span cached envelopes.
# 1.2.0: batch-first measurement; serialized WorkloadResult envelopes
# gained `operations_executed`, so pre-batch cached envelopes are
# invalidated the same way.
# 1.3.0: the serving tier (repro.serve) — devices now carry "wal"
# blocks and serve runs emit txn-* trace events, so cached envelopes
# from mixed-tier sweeps are invalidated the same way.
__version__ = "1.3.0"

__all__ = [
    "AccessMethod",
    "Capabilities",
    "CostModel",
    "MIXES",
    "MethodStats",
    "OpKind",
    "Operation",
    "RUMAccumulator",
    "RUMPoint",
    "RUMProfile",
    "SimulatedDevice",
    "WorkloadGenerator",
    "WorkloadResult",
    "WorkloadSpec",
    "available_methods",
    "create_method",
    "generate_operations",
    "load_trace",
    "measure_workload",
    "measure_workload_batched",
    "project",
    "run_workload",
    "save_trace",
]
