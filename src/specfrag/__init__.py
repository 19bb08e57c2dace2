"""specfrag: basis-state fragmentation metrics for the regularity-to-chaos
transition in perturbed integrable quantum systems.

Two worked systems are included: the Henon-Heiles oscillator in the real
circular 2D oscillator basis, where its C3v symmetry is exact block
structure (henon_heiles), and the diamagnetic Kepler problem in the m=0
parabolic basis (kepler). The metrics module computes strength functions,
spreading widths, the chaoticity ratio kappa, exact complement projections,
and the first-order estimate W whose 0.5 crossing locates the transition
analytically.
"""
from . import henon_heiles, kepler
from .errors import (
    ConfigurationError,
    ConvergenceError,
    InputError,
    NumericalError,
    SpecfragError,
)
from .linalg import (
    ShellGroup,
    ShellPartition,
    SpectralDecomposition,
    SymmetricMatrix,
    eigh,
    projection_onto_subset,
    random_block_unitary,
)
from .metrics import (
    StateSelection,
    StrengthFunction,
    chaoticity,
    critical_parameter,
    invariance_gap,
    select_eigenstates,
    spreading_width,
    strength_function,
    w_exact,
    w_perturbative,
    w_perturbative_terms,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "henon_heiles",
    "kepler",
    "SpecfragError",
    "InputError",
    "ConfigurationError",
    "NumericalError",
    "ConvergenceError",
    "SymmetricMatrix",
    "SpectralDecomposition",
    "ShellGroup",
    "ShellPartition",
    "eigh",
    "projection_onto_subset",
    "random_block_unitary",
    "StrengthFunction",
    "StateSelection",
    "strength_function",
    "spreading_width",
    "chaoticity",
    "select_eigenstates",
    "w_exact",
    "w_perturbative",
    "w_perturbative_terms",
    "invariance_gap",
    "critical_parameter",
]
