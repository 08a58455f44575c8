"""Monte Carlo sparse interpolation of black-box polynomials over prime
fields, using variable-scaling diversification to match terms across
per-variable probing runs."""

from .blackbox import (
    EvaluationOracle,
    SparsePolynomial,
    evaluate,
    format_instance,
    parse_instance,
    poly_equal,
    random_sparse_polynomial,
    read_instance,
    sparse_polynomial,
    write_instance,
)
from .field import (
    FieldContext,
    bounded_dlog,
    factorize,
    find_primitive_root,
    is_primitive_root,
    is_probable_prime,
    sample_nonzero,
)
from .interpolator import (
    FailReason,
    FieldTooSmallError,
    InterpReport,
    InterpolationFailure,
    interpolate,
    mc_pairs,
    min_field_size,
    probe_sequence,
    success_probability_bound,
)
from .solvers import (
    RecurrenceResult,
    TooFewRootsError,
    berlekamp_massey,
    eval_dense,
    find_distinct_roots,
    solve_transposed_vandermonde,
)

__version__ = "0.1.0"
