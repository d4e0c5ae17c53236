"""Maximum-entropy estimation of heterogeneous effect distributions
from stratified 2x2 count tables."""

from .closed_form import (
    ConditionalHomogeneousSolution,
    HomogeneousSolution,
    r2_to_variance_bound,
    solve_conditional_homogeneous,
    solve_homogeneous,
)
from .errors import (
    DegenerateTableError,
    DomainError,
    EstimationError,
    ParameterError,
    TableParseError,
    UndefinedStatisticError,
)
from .grid_lp import Atom, CubeGrid, DiscretizedProblem, atoms_from_solution, build_problem
from .lp_solver import (
    InequalityRow,
    LpProblem,
    LpSolution,
    RangeRow,
    relax_and_retry,
    solve,
)
from .model import (
    CategoryCounts,
    JointOutcomeProbs,
    PropensityPrognosisTriple,
    StratifiedTable,
    entropy,
    joint_probs,
    odds_ratio,
    tjur_r2,
)
from .postprocess import (
    Cluster,
    MixtureSolution,
    cluster_atoms,
    mixture_from_solution,
)
from .tables import load_table, loads_table, resample_table, smooth_table

__version__ = "0.1.0"
