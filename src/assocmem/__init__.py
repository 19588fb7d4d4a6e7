"""Feedback associative-memory laboratory.

Bipolar Hopfield-style networks trained by the Hebbian outer-product rule,
recalled synchronously, asynchronously, or by spreading activity through a
triangular generator matrix ordered by neuron proximity; exhaustive
attractor censuses; Monte Carlo capacity experiments; and seeded
squared-amplitude outcome sampling with discretized case counting.

``_PUBLIC`` names each public symbol once, under the module that defines
it, and ``__all__`` is read from it. ``core``, which every module builds
on, is imported with the package; any other module is imported the first
time one of its names, or the module itself, is asked for (PEP 562), so
``assocmem.train`` loads ``hebbian`` and nothing else.
"""

import importlib

from . import _version, core

_PUBLIC = {
    "_version": ("__version__",),
    "core": (
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
    ),
    "hebbian": (
        "RecallResult",
        "energy",
        "is_stored",
        "recall_async",
        "recall_sync",
        "recall_sync_iterated",
        "train",
    ),
    "generator": (
        "RetrievalReport",
        "SpreadOrder",
        "SpreadStep",
        "SpreadTrace",
        "decompose",
        "order_from_proximity",
        "retrieve_report",
        "spread_full",
    ),
    "analysis": (
        "AttractorCensus",
        "CapacityReport",
        "CapacityRow",
        "ComplementAsymmetryReport",
        "ComplementFailure",
        "capacity_experiment",
        "classify",
        "complement_asymmetry_probe",
        "enumerate_fixed_points",
    ),
    "quantum": (
        "CollapseSelection",
        "ReorganizationTable",
        "as_amplitudes",
        "collapse_as_selection",
        "collapse_sample",
        "enumerate_reorganizations",
        "reorg_count",
    ),
    "formats": (
        "ParseError",
        "load_weights",
        "parse_memories",
        "parse_proximity",
    ),
}

# public name -> the module that defines it
_HOME = {name: module for module, names in _PUBLIC.items() for name in names}

__all__ = list(_HOME)


def __getattr__(name: str):
    """Import the module behind a public name or a submodule on first use, then keep the value."""
    if name in _HOME:
        value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    elif name in _PUBLIC:
        value = importlib.import_module(f"{__name__}.{name}")
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
