"""Two-point sequential measurement statistics.

Joint outcome tables with cell sizes, the modified doubly stochastic
condition and its expectation identity, entropy inequalities, quantum
realizations through commuting observable families, thermodynamic
ensemble generators, an exactly solvable free-wavepacket example and a
classical phase-space counterpart.
"""

__version__ = "0.1.0"

from .model import (  # noqa: F401
    JointModel,
    PreconditionError,
    ValidationError,
    WorkDistribution,
    conditional,
    crooks_check,
    entropy_gap,
    is_modified_doubly_stochastic,
    is_permutation_type,
    j_equation_lhs,
    marginals,
    reciprocal_model,
    shannon_entropy,
)
