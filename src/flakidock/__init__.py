"""FlakiDock: detect and repair flaky container-image build definitions.

A flaky build definition succeeds or fails over time with no change to the
file or project source. This package builds definitions repeatedly to
detect that behavior, reduces failing logs to error-focused excerpts,
retrieves similar repaired examples by embedding similarity, and drives an
iterative generate-validate-feedback repair loop against a pluggable
text-generation provider.

The names below are imported from their modules on first use (PEP 562), so
`import flakidock` stays cheap and commands that never compute with vectors
start without numpy.
"""

import importlib

__version__ = "0.1.0"

# Public name -> the module that defines it.
_EXPORTS = {
    **dict.fromkeys(("BuildEngine", "BuildRecord", "HygienePolicy"), "build_engine"),
    **dict.fromkeys(("ValidationPolicy",), "config"),
    **dict.fromkeys(("DemonstrationRecord", "FlakinessCategory", "load_store", "save_store"), "demo_store"),
    **dict.fromkeys(("DockerfileDoc", "diff_docs", "parse_dockerfile"), "dockerfile_model"),
    **dict.fromkeys(("PreprocessedLog", "RuleSet", "preprocess_log"), "log_preprocess"),
    **dict.fromkeys(("ProviderSet",), "providers"),
    **dict.fromkeys(("RepairSession", "detect_flakiness", "repair_flaky_dockerfile"), "repair_pipeline"),
    **dict.fromkeys(("RepairQuery", "cluster_add", "cosine", "embed", "retrieve_top_k"), "similarity"),
}

__all__ = [*sorted(_EXPORTS), "__version__"]


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value
