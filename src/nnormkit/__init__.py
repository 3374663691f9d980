"""Toolkit for Gram-determinant n-norms and their quotient-space norms.

The package computes the standard n-norm of vector tuples under any SPD
inner product, builds the quotient norms obtained by dropping frame vectors,
and machine-checks the axioms, identities, and convergence/boundedness/Cauchy
equivalences those constructions satisfy at desk scale.
"""

from .linalg import (
    DEFAULT_TOL,
    DimensionMismatch,
    SpaceConfig,
    Tolerance,
    determinant,
    gram_matrix,
    hadamard_scale,
    inner,
    rank,
)
from .nnorm import (
    Axiom,
    AxiomReport,
    NNorm,
    Witness,
    check_axioms,
    shift_invariance_check,
    standard_nnorm,
    standard_norm,
)
from .quotient import (
    ClassCollection,
    Frame,
    IndexSet,
    Profile,
    ScaleOutOfRange,
    class1_norm,
    class_collection,
    classm_norm,
    coset_invariance_check,
    in_kept_span,
    is_quotient_zero,
    quotient_norm_axioms,
    quotient_profile,
    random_frame,
    standard_frame,
)
from .topology import (
    AnalyticTraces,
    Conclusion,
    CounterexampleRecord,
    EquivalenceTable,
    Method,
    NormSelection,
    SequenceKind,
    SequenceSpec,
    TracePoint,
    Verdict,
    closed_set_probe,
    constant,
    convergent_power,
    converges_wrt,
    counterexample_r5,
    covering_check,
    custom_sequence,
    divergent_linear,
    emit_trace_csv,
    enumerate_minimal_covers,
    equivalence_matrix,
    eval_sequence,
    full_selection,
    is_bounded_wrt,
    is_cauchy_wrt,
    minimal_cover_size,
    natural_limit,
    oscillating,
    parse_trace_csv,
)

__version__ = "0.1.0"
