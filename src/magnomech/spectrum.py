"""Thermal-noise output spectra of the driven optical branch.

Two computation routes for the same transfer coefficients:

- linear_system_response: direct solve of the closed six-variable
  frequency-domain system in (b, b~, r, r~, m, m~), where x~[w] means
  x*[-w]. This is the default path and the oracle.
- closed_form_response: analytic elimination of the mechanical and
  magnetic sectors down to a scalar loop equation for b[w]; it agrees
  with the direct solve to numerical precision.

The PSD is the channel-incoherent sum of squared transfer magnitudes
times a flat unit noise level: thermal drives on different modes do not
interfere, and the flat level stands in for a slowly varying thermal
occupation over the narrow band of interest.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import numpy as np

from .errors import ConfigError, NumericsError
from .model import SystemConfig, _checked_grid, effective_couplings, susceptibility

# noise channels: thermal force on phonon/magnon at +w, conjugate partner at -w
R_PLUS, R_MINUS, M_PLUS, M_MINUS = "r+", "r-", "m+", "m-"
ALL_CHANNELS = frozenset((R_PLUS, R_MINUS, M_PLUS, M_MINUS))
_CHANNEL_ORDER = (R_PLUS, R_MINUS, M_PLUS, M_MINUS)

_COND_LIMIT = 1e13  # condition number above this flags parameter pathology


@dataclass(frozen=True)
class NoiseParams:
    unit_psd: float = 1.0
    channels: frozenset = field(default_factory=lambda: ALL_CHANNELS)

    def __post_init__(self):
        if not self.unit_psd >= 0:
            raise ConfigError(f"NoiseParams.unit_psd must be >= 0, got {self.unit_psd!r}")
        bad = set(self.channels) - ALL_CHANNELS
        if bad:
            raise ConfigError(f"unknown noise channels: {sorted(bad)}")


def _rates(config):
    g = effective_couplings(config)
    te = config.te_photon
    ph = config.phonon
    mg = config.magnon
    # magnon-row coupling carries the convention switch; the optical-row
    # coupling is the definition of g_a and stays fixed
    ga_row = g.g_a if config.conjugation_convention == "complex_squared" else np.conj(g.g_a)
    return g, te.gamma, ph.gamma, mg.gamma, ph.omega, mg.omega, config.drive_te.detuning, ga_row


def _assemble(omega, config):
    """Batched system matrix A (n,6,6) and channel drive matrix (n,6,4)."""
    w = np.atleast_1d(np.asarray(omega, dtype=float))
    g, kb, gr, gm, om_r, om_m, db, ga_row = _rates(config)
    ga, gb = g.g_a, g.g_b
    n = w.size
    A = np.zeros((n, 6, 6), dtype=complex)
    A[:, 0, 0] = kb / 2 - 1j * (w + db)
    A[:, 1, 1] = kb / 2 - 1j * (w - db)
    A[:, 2, 2] = gr / 2 - 1j * (w - om_r)
    A[:, 3, 3] = gr / 2 - 1j * (w + om_r)
    A[:, 4, 4] = gm / 2 - 1j * (w - om_m)
    A[:, 5, 5] = gm / 2 - 1j * (w + om_m)
    A[:, 0, 2] = A[:, 0, 3] = 1j * gb
    A[:, 0, 4] = 1j * ga
    A[:, 1, 2] = A[:, 1, 3] = -1j * np.conj(gb)
    A[:, 1, 5] = -1j * np.conj(ga)
    A[:, 2, 0] = 1j * np.conj(gb)
    A[:, 2, 1] = 1j * gb
    A[:, 3, 0] = -1j * np.conj(gb)
    A[:, 3, 1] = -1j * gb
    A[:, 4, 0] = 1j * ga_row
    A[:, 5, 1] = -1j * np.conj(ga_row)
    rhs = np.zeros((n, 6, 4), dtype=complex)
    rhs[:, 2, 0] = np.sqrt(gr)
    rhs[:, 3, 1] = np.sqrt(gr)
    rhs[:, 4, 2] = np.sqrt(gm)
    rhs[:, 5, 3] = np.sqrt(gm)
    return A, rhs


def _solve_coefficients(omega, config):
    """b[w] transfer coefficient per noise channel, shape (n, 4), channel order r+ r- m+ m-."""
    A, rhs = _assemble(omega, config)
    try:
        sol = np.linalg.solve(A, rhs)
    except np.linalg.LinAlgError as exc:
        raise NumericsError(f"frequency-domain system singular: {exc}") from exc
    coeffs = sol[:, 0, :]
    if not np.all(np.isfinite(coeffs)):
        raise NumericsError("frequency-domain solve produced non-finite coefficients")
    return coeffs


def linear_system_response(omega, config: SystemConfig, noise: NoiseParams | None = None):
    """Direct-solve transfer coefficients into b[w] for each enabled unit noise drive.

    Returns {channel: complex coefficient}. Linear in the drives by
    construction; raises NumericsError when the system is near-singular.
    """
    noise = noise or NoiseParams()
    A, rhs = _assemble(omega, config)
    if A.shape[0] != 1:
        raise ConfigError("linear_system_response evaluates one frequency; use psd_map for grids")
    cond = np.linalg.cond(A[0])
    if not np.isfinite(cond) or cond > _COND_LIMIT:
        raise NumericsError(f"frequency-domain system near-singular (condition number {cond:.3e})")
    sol = np.linalg.solve(A[0], rhs[0])
    return {ch: complex(sol[0, k]) for k, ch in enumerate(_CHANNEL_ORDER) if ch in noise.channels}


def _loop_pieces(omega, config):
    """Scalar elimination pieces at one frequency: 1/X, Y and the bare susceptibilities."""
    g, kb, gr, gm, om_r, om_m, db, ga_row = _rates(config)
    chi_r = susceptibility(gr, om_r, omega)
    chi_r_ref = np.conj(susceptibility(gr, om_r, -omega))
    chi_m = susceptibility(gm, om_m, omega)
    d_r = chi_r - chi_r_ref
    x_inv = kb / 2 - 1j * (omega + db) + abs(g.g_b) ** 2 * d_r + g.g_a * ga_row * chi_m
    y = g.g_b**2 * d_r
    return x_inv, y, chi_r, chi_r_ref, chi_m


def closed_form_response(omega, config: SystemConfig):
    """Analytic elimination of the mechanical and magnetic sectors.

    Full channel algebra; matches linear_system_response. Returns
    {channel: complex coefficient} per unit noise amplitude.
    """
    omega = float(omega)
    g = effective_couplings(config)
    gr = config.phonon.gamma
    gm = config.magnon.gamma
    x_inv, y, chi_r, chi_r_ref, chi_m = _loop_pieces(omega, config)
    x_inv_m, y_m, _, _, _ = _loop_pieces(-omega, config)
    if min(abs(x_inv), abs(x_inv_m)) == 0:
        raise NumericsError("closed-form elimination hit a zero loop denominator")
    x = 1 / x_inv
    x_ref = np.conj(1 / x_inv_m)  # X*[-w]
    y_ref = np.conj(y_m)          # Y*[-w]
    den = 1 - x * y * x_ref * y_ref
    if abs(den) < 1e-12:
        raise NumericsError(f"closed-form loop denominator below tolerance (|den| = {abs(den):.3e})")
    chi_m_ref = np.conj(susceptibility(gm, config.magnon.omega, -omega))
    # direct drive vector and its frequency-reflected conjugate, channel order r+ r- m+ m-
    z = np.array([
        -1j * g.g_b * np.sqrt(gr) * chi_r,
        -1j * g.g_b * np.sqrt(gr) * chi_r_ref,
        -1j * g.g_a * np.sqrt(gm) * chi_m,
        0.0,
    ], dtype=complex)
    z_ref = np.array([
        1j * np.conj(g.g_b) * np.sqrt(gr) * chi_r,
        1j * np.conj(g.g_b) * np.sqrt(gr) * chi_r_ref,
        0.0,
        1j * np.conj(g.g_a) * np.sqrt(gm) * chi_m_ref,
    ], dtype=complex)
    coeffs = x * (z - y * x_ref * z_ref) / den
    return {ch: complex(coeffs[k]) for k, ch in enumerate(_CHANNEL_ORDER)}


def psd(omega, config: SystemConfig, noise: NoiseParams | None = None):
    """Output power spectral density: incoherent channel sum of |transfer|^2 times unit_psd."""
    noise = noise or NoiseParams()
    coeffs = _solve_coefficients(omega, config)
    mask = np.array([ch in noise.channels for ch in _CHANNEL_ORDER])
    out = noise.unit_psd * np.sum(np.abs(coeffs[:, mask]) ** 2, axis=1)
    return float(out[0]) if np.ndim(omega) == 0 else out


def psd_map(config_template: SystemConfig, omega_grid, detuning_grid, swept: str = "TE",
            noise: NoiseParams | None = None):
    """PSD over a (frequency, pump-detuning) grid, sweeping the TE or TM drive.

    Returns a float array of shape (n_detuning, n_omega): row k is the
    psd over omega_grid at detuning_grid[k]. Rows are independent;
    evaluation order never changes values.
    """
    if swept not in ("TE", "TM"):
        raise ConfigError(f"swept must be 'TE' or 'TM', got {swept!r}")
    omega_grid = _checked_grid("omega_grid", omega_grid)
    detuning_grid = _checked_grid("detuning_grid", detuning_grid)
    noise = noise or NoiseParams()
    out = np.empty((detuning_grid.size, omega_grid.size))
    for k, det in enumerate(detuning_grid):
        cfg = (config_template.with_drive_detunings(te=det) if swept == "TE"
               else config_template.with_drive_detunings(tm=det))
        out[k] = psd(omega_grid, cfg, noise)
    return out
