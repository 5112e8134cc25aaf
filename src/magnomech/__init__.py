"""Cavity-mediated phonon-magnon simulator.

Two optical cavity modes dress a mechanical and a magnetostatic oscillator;
the library computes the resulting effective couplings, optical self-energy
sweeps, thermal-noise output spectra, the reduced two-mode non-Hermitian
Hamiltonian with its exceptional points, branch-tracked eigenvalue surfaces,
and dynamical loop transport with chirality diagnostics.

All rates are plain numbers in hertz as labeled (2e7 means a 20 MHz rate);
hbar = 1 throughout.
"""

from .encircle import (
    LoopSpec,
    Trajectory,
    chirality_report,
    energy_fractions,
    evolve,
    evolve_both_directions,
    initial_basis,
    parameters_at,
)
from .ep import (
    EigenPair,
    EpLocation,
    SurfaceResult,
    build_hamiltonian,
    discriminant,
    eigenpairs,
    eigenvalues,
    find_exceptional_points,
    hamiltonian_on_plane,
    monodromy_swapped,
    riemann_surface,
)
from .errors import ConfigError, NumericsError
from .model import (
    EffectiveCoupling,
    OscillatorMode,
    PumpDrive,
    SystemConfig,
    critical_mode,
    effective_couplings,
    susceptibility,
)
from .presets import Preset, get_preset, REGISTRY
from .self_energy import (
    sigma_mm,
    sigma_mr,
    sigma_rm,
    sigma_rr,
    sweep_self_energy,
)
from .spectrum import (
    closed_form_response,
    linear_system_response,
    psd,
    psd_map,
)

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "EffectiveCoupling",
    "EigenPair",
    "EpLocation",
    "LoopSpec",
    "NumericsError",
    "OscillatorMode",
    "Preset",
    "PumpDrive",
    "REGISTRY",
    "SurfaceResult",
    "SystemConfig",
    "Trajectory",
    "build_hamiltonian",
    "chirality_report",
    "closed_form_response",
    "critical_mode",
    "discriminant",
    "effective_couplings",
    "eigenpairs",
    "eigenvalues",
    "energy_fractions",
    "evolve",
    "evolve_both_directions",
    "find_exceptional_points",
    "get_preset",
    "hamiltonian_on_plane",
    "initial_basis",
    "linear_system_response",
    "monodromy_swapped",
    "parameters_at",
    "psd",
    "psd_map",
    "riemann_surface",
    "sigma_mm",
    "sigma_mr",
    "sigma_rm",
    "sigma_rr",
    "susceptibility",
    "sweep_self_energy",
]
