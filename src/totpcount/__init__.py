"""Approximate counting for self-reducible problems with easy decision.

The package counts by walking: a counting problem is turned into the
branching tree of a nondeterministic machine, a lazy walk on that tree is
sampled at each truncation depth, and the normalizing factors of the
walk's stationary law telescope into the node count -- which equals the
quantity being counted.  On top of that sit an additive-error estimator,
an exact threshold decider, a sub-exhaustive relative approximation
scheme, and acceptance-probability / gap-satisfiability solvers for DNF,
CNF, and monotone circuits.
"""

from .capp import CappResult, GapVerdict, capp, gap_csat
from .chain import AlphaEstimate, burn_in_steps, estimate_alpha, lazy_step
from .errors import (
    MalformedInstanceError,
    NotInTreeError,
    ParseError,
    SizeGuardError,
    TotpcountError,
    UnsupportedFamilyError,
)
from .estimator import (
    CountOutcome,
    EstimateReport,
    EstimatorConfig,
    ExactCount,
    ExceedsThreshold,
    absolute_error_estimate,
    count_up_to,
    estimate_size,
    ras,
    telescoped_size,
)
from .machine import (
    Branch,
    Deterministic,
    Halt,
    HALT,
    InstanceTree,
    SelfReducibleInstance,
    build_branching_tree,
)
from .oracles import (
    ConductanceReport,
    count_computation_paths,
    count_independent_sets,
    count_sat,
    exact_conductance,
    materialize_tree,
    root_mass_exact,
    stationary_exact,
    transition_matrix_exact,
    tv_distance,
)
from .problems import (
    CnfFormula,
    DnfFormula,
    Graph,
    MonotoneCircuit,
    cnf_complement,
    dnf_instance,
    is_instance,
    load_cnf,
    load_circuit,
    load_dnf,
    load_graph,
    monotone_instance,
    save_cnf,
    save_circuit,
    save_dnf,
    save_graph,
)
from .trees import (
    BranchingTree,
    ExplicitTree,
    NodePath,
    exact_size,
    full_binary_tree,
    load_tree,
    materialize,
    random_tree,
    save_tree,
    truncate,
)

__version__ = "0.1.0"
