"""Quantum versus noncontextual bounds for binary state discrimination.

The package computes, for minimum-error, unambiguous and maximum-confidence
discrimination of an equiprobable binary qubit ensemble, the quantum optimum
and the noncontextual-model optimum of each figure of merit (guessing
probability, inconclusive rate, conclusive confidences), verifies each
closed form against explicit measurement constructions and brute-force
oracles, and emits reproduction CSVs through the ``ctxsd`` CLI.

``import ctxsd`` loads no submodule. A public name, or a submodule read as
an attribute, is imported on its first use (PEP 562), so a command loads
only the modules it runs.
"""

import importlib

__version__ = "0.1.0"

# The public names by the module that defines each.
_HOMES = {
    "bounds": ("BoundSpec", "ConfidencePairCell", "DefinitionalCell", "GapCertificate",
               "Table1Report", "eval_bound", "gap", "nc_mcm_guessing", "nc_mesd_confidences",
               "omega_star", "table1_report"),
    "config": ("DEFAULTS", "Tolerances"),
    "errors": ("ContractError", "CtxsdError", "DegenerateEnsembleError", "DivergenceError",
               "DomainError", "InfeasibleWeightsError", "UndefinedConfidenceError",
               "UsdImpossibleError"),
    "sweeps": ("FIGURE_IDS", "FigureJob", "SweepSpec", "Target", "emit_figure", "run_sweep",
               "table_cmd"),
    "harness": ("VerifyReport", "verify_all"),
    "ncmodel": ("EpistemicState", "NcFigures", "NcScenario", "Region", "ResponseSet",
                "canonical_scenario", "confusability", "mesd_mixed_strategy", "nc_figures",
                "nc_prob", "oracle_max_confidence", "oracle_max_pg",
                "oracle_min_p0_at_max_confidence", "usd_response"),
    "qtheory": ("Ensemble", "Operator2", "Povm", "PureState", "confidence",
                "guessing_probability", "helstrom_povm", "inconclusive_rate", "make_pure_pair",
                "mcm_optimal", "mcm_povm", "mirror", "noisy_ensemble", "usd_optimal", "usd_povm"),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}
_SUBMODULES = frozenset((*_HOMES, "cli", "csvout"))

__all__ = sorted(_HOME)


def __getattr__(name: str):
    """Import the home module of the public ``name``, or the submodule
    ``name``, and keep the value as a module global: the next lookup is a
    plain attribute read and does not come here."""
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    return value
