"""Realism-based nonlocality of bipartite quantum states.

The package computes the entropic nonlocality quantifier built on local
dephasing maps, together with two Bell-type comparison quantifiers: the
maximal CHSH violation and the violation-volume fraction over measurement
settings. Closed forms for the Werner family sit next to a numeric
optimizer and Monte Carlo estimators so every number has a second route.
"""
from __future__ import annotations

__version__ = "0.1.0"

from .bell import (ChshSettings, McConfig, McEstimate, ReducedPoint, bfrak,
                   chsh_value, correlation_matrix, correlator, nmax_numeric,
                   nmax_werner, nvol_mc, nvol_quadrature, nvol_werner_analytic)
from .linalg import (Spectrum, entropy_from_eigenvalues, hermitian_spectrum,
                     partial_trace, tensor, von_neumann_entropy)
from .nonlocality import (NrbResult, OptimizerConfig, PureNrbResult,
                          SchmidtDecomposition, SearchDiagnostics,
                          entanglement_entropy, nrb_pure, nrb_two_qubit,
                          nrb_werner_closed_form, schmidt,
                          werner_dephased_spectra)
from .realism import (LocalPVM, RealityComponents, dephase, delta_irreality,
                      irreality, is_reality_state, make_reality_state)
from .states import (PAULIS, BlochVector, DensityMatrix, PureState, PVM,
                     bloch_pvm, load_state, qutrit_family, random_density,
                     random_pure, save_state, singlet, state_from_json,
                     state_to_json, werner)

__all__ = [
    "__version__",
    # linalg
    "Spectrum", "tensor", "partial_trace", "hermitian_spectrum",
    "entropy_from_eigenvalues", "von_neumann_entropy",
    # states
    "PAULIS", "DensityMatrix", "PureState", "PVM", "BlochVector",
    "singlet", "werner", "bloch_pvm", "qutrit_family",
    "random_pure", "random_density",
    "state_to_json", "state_from_json", "load_state", "save_state",
    # realism
    "LocalPVM", "RealityComponents", "dephase", "irreality",
    "delta_irreality", "make_reality_state", "is_reality_state",
    # nonlocality
    "OptimizerConfig", "NrbResult", "SearchDiagnostics", "PureNrbResult",
    "SchmidtDecomposition",
    "schmidt", "entanglement_entropy", "nrb_pure", "nrb_two_qubit",
    "nrb_werner_closed_form", "werner_dephased_spectra",
    # bell
    "ChshSettings", "ReducedPoint", "McConfig", "McEstimate",
    "correlator", "correlation_matrix", "chsh_value",
    "nmax_werner", "nmax_numeric", "bfrak",
    "nvol_werner_analytic", "nvol_quadrature", "nvol_mc",
]
