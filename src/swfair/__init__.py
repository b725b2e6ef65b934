"""Fair source-coding rate allocation in the Slepian-Wolf region.

The rate region of a lossless multiterminal compression problem is the base
polyhedron of the joint-entropy function.  This package computes fair points
of that region and the machinery around them:

* :mod:`swfair.setfn` - ground sets, entropy oracles (bit-pool coverage
  models and explicit tables), reductions, greedy vertices, validity checks;
* :mod:`swfair.sfm` - submodular function minimization (exhaustive sweep,
  min cut for bit-pool oracles, Fujishige-Wolfe minimum-norm-point) with
  lattice-extreme minimizers;
* :mod:`swfair.flow` - the float-capacity max-flow behind the min cut
  (shortest augmenting paths, Edmonds-Karp), with both residual
  reachability sets;
* :mod:`swfair.split` - the egalitarian engine (one weighted min-norm
  solve confirmed by the splitter's leaf test, returned as a certified
  principal chain) and the paper's recursive splitter with its recursion
  tree and adaptation path;
* :mod:`swfair.fairness` - Shapley values, region membership verification,
  an independent conditional-gradient oracle, and comparison reports;
* :mod:`swfair.experiment` - randomized sweeps of the split-size metrics;
* :mod:`swfair.cli` - the ``swfair`` command-line front end.
"""

from .setfn import (
    BRUTE_FORCE_LIMIT,
    BitPoolSource,
    GroundSet,
    GroundSetTooLargeError,
    IncompleteTableError,
    InvalidReductionError,
    InvalidSubsetError,
    ModelLoadError,
    SetFunction,
    TableSource,
    WeightVector,
    add_modular,
    check_monotone,
    check_submodular,
    conditional_entropy,
    load_source,
    reduce,
    restrict,
    source_from_dict,
    source_to_dict,
)
from .sfm import (
    ConvergenceError,
    SfmResult,
    min_norm_point,
    solve_sfm,
)
from .split import (
    CertificationError,
    Decomposition,
    InternalConsistencyError,
    RateVector,
    SplitNode,
    SplitTree,
    adaptation_path,
    decompose,
    egalitarian,
    recursion_metrics,
    split,
)
from .fairness import (
    FairnessReport,
    MembershipReport,
    build_report,
    egalitarian_oracle_fw,
    exchange_capacity,
    shapley_exact,
    shapley_permutation_average,
    shapley_sampled,
    verify_membership,
)
from .experiment import (
    ExperimentConfig,
    ExperimentRow,
    generate_instance,
    run_experiment,
)

__version__ = "0.1.0"

__all__ = [
    "BRUTE_FORCE_LIMIT",
    "BitPoolSource",
    "CertificationError",
    "ConvergenceError",
    "Decomposition",
    "ExperimentConfig",
    "ExperimentRow",
    "FairnessReport",
    "GroundSet",
    "GroundSetTooLargeError",
    "IncompleteTableError",
    "InternalConsistencyError",
    "InvalidReductionError",
    "InvalidSubsetError",
    "MembershipReport",
    "ModelLoadError",
    "RateVector",
    "SetFunction",
    "SfmResult",
    "SplitNode",
    "SplitTree",
    "TableSource",
    "WeightVector",
    "adaptation_path",
    "add_modular",
    "build_report",
    "check_monotone",
    "check_submodular",
    "conditional_entropy",
    "decompose",
    "egalitarian",
    "egalitarian_oracle_fw",
    "exchange_capacity",
    "generate_instance",
    "load_source",
    "min_norm_point",
    "recursion_metrics",
    "reduce",
    "restrict",
    "run_experiment",
    "shapley_exact",
    "shapley_permutation_average",
    "shapley_sampled",
    "solve_sfm",
    "source_from_dict",
    "source_to_dict",
    "split",
    "verify_membership",
]
