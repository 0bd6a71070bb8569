"""Finite-scale laboratory for almost chains of sets and their extension operators."""

from .adjust import (
    AdjustmentReport,
    InsertionReceipt,
    adjust_family,
    compatibility_witness,
    insert_point,
    merge_conditions,
)
from .core import (
    AlternationWitness,
    ChainFamily,
    ChainWitness,
    DefectReport,
    GroundSet,
    IndexValue,
    InputError,
    alternation_witness,
    chain_witness,
    family_from_text,
    family_to_text,
    is_barely_alternating,
    validate_almost_chain,
)
from .generators import (
    from_sign_matrix,
    initial_segment_chain,
    marciszewski_family,
    perturbed_chain,
)
from .lineop import (
    HarnessReport,
    LineModel,
    TripleTable,
    apply_operator,
    compute_triples,
    continuity_harness,
    limit_eval_point,
    operator_norm,
)

__all__ = [
    "AdjustmentReport",
    "AlternationWitness",
    "ChainFamily",
    "ChainWitness",
    "DefectReport",
    "GroundSet",
    "HarnessReport",
    "IndexValue",
    "InputError",
    "InsertionReceipt",
    "LineModel",
    "TripleTable",
    "adjust_family",
    "alternation_witness",
    "apply_operator",
    "chain_witness",
    "compatibility_witness",
    "compute_triples",
    "continuity_harness",
    "family_from_text",
    "family_to_text",
    "from_sign_matrix",
    "initial_segment_chain",
    "insert_point",
    "is_barely_alternating",
    "limit_eval_point",
    "marciszewski_family",
    "merge_conditions",
    "operator_norm",
    "perturbed_chain",
    "validate_almost_chain",
]

__version__ = "0.1.0"
