"""Kernel machines trained under hard Lukasiewicz-logic constraints,
with multiplier-based detection of removable constraints."""

from __future__ import annotations

__version__ = "0.1.0"

from .analyze import (
    AblationRecord,
    AnalysisError,
    AnalysisReport,
    DeactivationResult,
    GeneralSolution,
    InconsistentSystem,
    SupportLimitExceeded,
    SupportSet,
    ablate_and_compare,
    ablated_problem,
    deactivation_report,
    grounded_entailment,
    logical_coefficients,
    minimal_support_sets,
    removable_constraints,
    solve_problem2,
)
from .constraints import (
    AffineSet,
    CompileError,
    ConstraintBlock,
    ConstraintMatrix,
    assemble_matrix,
    compile_min_affine,
    consistency_blocks,
    matrix_csv,
    pointwise_block,
    to_constraint_block,
)
from .grounding import (
    GroundingError,
    GroundingIndex,
    PredicateDecl,
    SampleSets,
    build_grounding_index,
    build_samples,
    ground_assignment,
    sample_universe,
)
from .kernels import GramMatrix, KernelError, KernelSpec, cross_gram, gram, psd_check
from .logic import (
    Atom,
    Forall,
    Formula,
    FormulaError,
    FragmentReport,
    Implies,
    Neg,
    NnfError,
    ParseError,
    StrongConj,
    StrongDisj,
    WeakConj,
    WeakDisj,
    check_concave_fragment,
    eval_lukasiewicz,
    parse_formula,
    to_nnf,
    to_text,
)
from .problem import Problem, ProblemError, build_training_problem, load_problem, parse_problem
from .solver import (
    DEFAULT_TOLERANCES,
    Infeasible,
    LpRegion,
    LpResult,
    NullspaceBasis,
    QpProblem,
    QpSolution,
    SolverError,
    Tolerances,
    min_norm_solution,
    nnls,
    nullspace,
    solve_qp,
    tolerances_with,
)
from .train import (
    LoadedModel,
    TrainError,
    TrainedModel,
    TrainingProblem,
    assemble_problem,
    load_model,
    solve_primal,
)
