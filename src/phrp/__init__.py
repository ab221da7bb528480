"""Rationalizability analysis of market statistics under PH preferences.

Given observed prices and purchased quantities over T periods, this package
decides three questions exactly where possible and with verified certificates
otherwise:

* whether the data is rationalizable by a well-behaved positively
  homogeneous utility (``phrp.harp``);
* whether a given goods partition is completely PH-separable
  (``phrp.separability``);
* the minimal number of PH-rational consumers whose demands sum to the
  observed demand (``phrp.collective``).
"""

from .collective import (
    AllocationSolution,
    ClassNumberResult,
    CollectiveResult,
    build_collective_program,
    check_collective,
    class_number,
    split_witness,
    verify_allocation,
)
from .harp import (
    AfriatCertificate,
    CrossGraph,
    HarpResult,
    InvalidCertificateError,
    PiecewiseLinearUtility,
    ViolationCycle,
    build_cross_graph,
    check_harp,
    recover_utility,
    verify_certificate,
)
from .model import (
    Decision,
    MarketStatistics,
    PartitionedStatistics,
    Status,
    load_statistics,
    partition,
    save_statistics,
)
from .separability import (
    InvalidMultipliersError,
    MacroUtility,
    SeparabilityInstance,
    SeparabilityResult,
    build_separability_program,
    check_separability,
    reconstruct_macro_utility,
    reconstruct_subutility,
    verify_separability_solution,
    young_transform,
)

__version__ = "0.1.0"

# the numpy kernels in ``phrp._kernels`` are the only implementation
kernel_backend = "pure"

__all__ = [
    "AfriatCertificate",
    "AllocationSolution",
    "ClassNumberResult",
    "CollectiveResult",
    "CrossGraph",
    "Decision",
    "HarpResult",
    "InvalidCertificateError",
    "InvalidMultipliersError",
    "MacroUtility",
    "MarketStatistics",
    "PartitionedStatistics",
    "PiecewiseLinearUtility",
    "SeparabilityInstance",
    "SeparabilityResult",
    "Status",
    "ViolationCycle",
    "build_collective_program",
    "build_cross_graph",
    "build_separability_program",
    "check_collective",
    "check_harp",
    "check_separability",
    "class_number",
    "kernel_backend",
    "load_statistics",
    "partition",
    "reconstruct_macro_utility",
    "reconstruct_subutility",
    "recover_utility",
    "save_statistics",
    "split_witness",
    "verify_allocation",
    "verify_certificate",
    "verify_separability_solution",
    "young_transform",
]
