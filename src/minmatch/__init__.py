"""Certified small maximal matchings in subcubic graphs."""

from .graph import Edge, Graph, edge, is_k33
from .matching import (
    BoundReport,
    Matching,
    as_matching,
    bound_report,
    gamma_lower_bound,
    is_matching,
    is_maximal,
    matching_within_bound,
)
from .oracle import OracleResult, gamma_exact, gamma_exact_avoiding
from .solver import (
    PendantConstraint,
    SolveCertificate,
    replay,
    select_rule,
    solve,
    solve_all,
    solve_avoiding,
)

__version__ = "0.1.0"
