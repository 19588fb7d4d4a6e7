"""Feedback associative-memory laboratory.

Bipolar Hopfield-style networks trained by the Hebbian outer-product rule,
recalled synchronously, asynchronously, or by spreading activity through a
triangular generator matrix ordered by neuron proximity; exhaustive
attractor censuses; Monte Carlo capacity experiments; and seeded
squared-amplitude outcome sampling with discretized case counting.
"""

from ._version import __version__
from .core import (
    BIPOLAR_DTYPE,
    DimensionMismatch,
    MemorySet,
    ParameterError,
    ValidationError,
    as_bipolar,
    normalize_start,
    sgn,
    validate_memory_set,
    validate_proximity,
    validate_weights,
)
from .hebbian import (
    RecallResult,
    energy,
    is_stored,
    recall_async,
    recall_sync,
    recall_sync_iterated,
    train,
)
from .generator import (
    RetrievalReport,
    SpreadOrder,
    SpreadStep,
    SpreadTrace,
    decompose,
    order_from_proximity,
    retrieve_report,
    spread_full,
)
from .analysis import (
    AttractorCensus,
    CapacityReport,
    CapacityRow,
    ComplementAsymmetryReport,
    ComplementFailure,
    capacity_experiment,
    classify,
    complement_asymmetry_probe,
    enumerate_fixed_points,
)
from .quantum import (
    CollapseSelection,
    ReorganizationTable,
    as_amplitudes,
    collapse_as_selection,
    collapse_sample,
    enumerate_reorganizations,
    reorg_count,
)
from .formats import (
    ParseError,
    load_weights,
    parse_memories,
    parse_proximity,
)

__all__ = [
    "__version__",
    "BIPOLAR_DTYPE",
    "DimensionMismatch",
    "MemorySet",
    "ParameterError",
    "ValidationError",
    "as_bipolar",
    "normalize_start",
    "sgn",
    "validate_memory_set",
    "validate_proximity",
    "validate_weights",
    "RecallResult",
    "energy",
    "is_stored",
    "recall_async",
    "recall_sync",
    "recall_sync_iterated",
    "train",
    "RetrievalReport",
    "SpreadOrder",
    "SpreadStep",
    "SpreadTrace",
    "decompose",
    "order_from_proximity",
    "retrieve_report",
    "spread_full",
    "AttractorCensus",
    "CapacityReport",
    "CapacityRow",
    "ComplementAsymmetryReport",
    "ComplementFailure",
    "capacity_experiment",
    "classify",
    "complement_asymmetry_probe",
    "enumerate_fixed_points",
    "CollapseSelection",
    "ReorganizationTable",
    "as_amplitudes",
    "collapse_as_selection",
    "collapse_sample",
    "enumerate_reorganizations",
    "reorg_count",
    "ParseError",
    "load_weights",
    "parse_memories",
    "parse_proximity",
]
