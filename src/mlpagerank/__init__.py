"""Componentwise-accurate solvers for x = a + Bx^2 and multilinear PageRank."""

from .tensor import (
    PageRankTensor,
    Tensor3,
    apply_bilinear,
    apply_quadratic,
    check_stochastic,
    contract_left,
    contract_right,
    contract_sym,
    read_tensor_text,
    write_tensor_text,
)
from .mmatrix import (
    COL,
    ROW,
    GTHFactors,
    PartialInverse,
    ReducibleMatrixError,
    SingularPivotError,
    TripletMMatrix,
    gth_factor,
    gth_solve,
    null_vector,
    partial_inverse,
    plain_lu_solve,
)
from .solvers import (
    Method,
    Problem,
    SolveReport,
    SolverOptions,
    Start,
    Termination,
    block_jacobi,
    block_jacobi_gth_variant,
    fixed_point,
    newton,
    newton_gth,
    residual,
    solve,
)
from .analysis import (
    BoundReport,
    CwDistance,
    bound_kappa,
    bound_omega,
    componentwise_zero_sum_perturb,
    compute_y,
    cw_distance,
    inverse_cw_bound_check,
    kappa,
    norm_error,
    omega,
)
from .precision import (
    DD,
    MINIMAL,
    STOCHASTIC,
    ReferenceSolution,
    reference_solution,
)
from .ingest import (
    Adjacency,
    EX1_SOLUTION_0_49999,
    EX2_SOLUTION_0_9951,
    build_pagerank_tensor,
    builtin,
    ex1,
    ex2,
    force_sum_one,
    intro,
    random_teleport_vector,
    read_matrix_market,
    three_cycle_tensor,
)

__version__ = "0.1.0"
