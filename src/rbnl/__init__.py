"""Realism-based nonlocality of bipartite quantum states.

The package computes the entropic nonlocality quantifier built on local
dephasing maps, together with two Bell-type comparison quantifiers: the
maximal CHSH violation and the violation-volume fraction over measurement
settings. Closed forms for the Werner family sit next to a numeric
optimizer and Monte Carlo estimators so every number has a second route.

Names resolve lazily (PEP 562): `import rbnl` imports no submodule, and the
first use of a name imports its home module. So the Werner closed forms,
which need only `math`, and the `sweep` and `decay` subcommands built on
them run without importing numpy.
"""
from __future__ import annotations

import importlib

__version__ = "0.1.0"

# home module -> the public names it defines; __all__ and the lazy lookup
# both come from this table
_EXPORTS = {
    "linalg": ("partial_trace", "entropy_from_eigenvalues", "von_neumann_entropy"),
    "states": ("PAULIS", "DensityMatrix", "PureState", "PVM", "BlochVector",
               "singlet", "werner", "bloch_pvm", "qutrit_family",
               "random_pure", "random_density",
               "state_to_json", "state_from_json", "load_state", "save_state"),
    "realism": ("LocalPVM", "RealityComponents", "dephase", "irreality",
                "delta_irreality", "make_reality_state", "is_reality_state"),
    "search": ("OptimizerConfig", "SearchDiagnostics"),
    "nonlocality": ("NrbResult", "PureNrbResult", "SchmidtDecomposition",
                    "schmidt", "entanglement_entropy", "nrb", "nrb_pure", "nrb_two_qubit",
                    "werner_dephased_spectra"),
    "bell": ("McConfig", "McEstimate", "correlation_matrix", "nmax_numeric",
             "nvol_quadrature", "nvol_mc"),
    "closed_forms": ("nrb_werner_closed_form", "nmax_werner", "nvol_werner_analytic"),
}
_SUBMODULES = (*_EXPORTS, "cli")
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_HOME]


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later lookups find it without this function
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
