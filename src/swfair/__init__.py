"""Fair source-coding rate allocation in the Slepian-Wolf region.

The rate region of a lossless multiterminal compression problem is the base
polyhedron of the joint-entropy function.  This package computes fair points
of that region and the machinery around them:

* :mod:`swfair.setfn` - ground sets, entropy oracles (bit-pool coverage
  models and explicit tables), weight and rate vectors, contractions, greedy
  vertices, validity checks;
* :mod:`swfair.sfm` - submodular function minimization (min cut for
  bit-pool oracles at any size, exhaustive sweep for any other oracle up to
  ``BRUTE_FORCE_LIMIT`` users) with lattice-extreme minimizers;
* :mod:`swfair.flow` - the user-bit max-flow behind the min cut
  (breadth-first augmenting rounds from a greedy start), with both
  residual reachability sets;
* :mod:`swfair.split` - the paper's recursive splitter, run one depth at a
  time, as the egalitarian engine (its leaves merged into a certified
  principal chain) and with its recursion tree and adaptation path;
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
    InvalidSubsetError,
    ModelLoadError,
    RateVector,
    SetFunction,
    TableSource,
    WeightVector,
    add_modular,
    check_monotone,
    check_submodular,
    conditional_entropy,
    load_source,
    restrict,
    source_from_dict,
    source_to_dict,
)
from .sfm import (
    SfmResult,
    solve_sfm,
)
from .split import (
    CertificationError,
    Decomposition,
    InternalConsistencyError,
    SplitNode,
    SplitTree,
    adaptation_path,
    decompose,
    egalitarian,
    recursion_metrics,
    split,
)
from .fairness import (
    ConvergenceError,
    FairnessReport,
    MembershipReport,
    build_report,
    egalitarian_oracle_fw,
    exchange_capacity,
    shapley_exact,
    shapley_permutation_average,
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
    "recursion_metrics",
    "restrict",
    "run_experiment",
    "shapley_exact",
    "shapley_permutation_average",
    "solve_sfm",
    "source_from_dict",
    "source_to_dict",
    "split",
    "verify_membership",
]
