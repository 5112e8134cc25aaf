"""Core parameter bundle and the quantities derived directly from it.

Unit convention used across the whole package: every frequency, detuning,
damping and coupling strength is a rate in Hz-as-labeled (a 20 MHz linewidth
is stored as 2e7, a 0.87 THz drive as 8.7e11) with hbar = 1. The model
equations are homogeneous in frequency units, so a single consistent
convention needs no 2*pi bookkeeping.

All frequency-domain evaluation happens in the frame rotating at the
respective pump tone. In that frame the driven optical mode responds with
an effective resonance at minus its pump detuning.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, NumericsError

TM_PHOTON = "tm_photon"
TE_PHOTON = "te_photon"
MAGNON = "magnon"
PHONON = "phonon"

MODE_LABELS = (TM_PHOTON, TE_PHOTON, MAGNON, PHONON)


@dataclass(frozen=True)
class OscillatorMode:
    """One resonant degree of freedom: label, resonance, total and external damping."""

    label: str
    omega: float
    gamma: float
    gamma_ext: float = 0.0

    def __post_init__(self):
        if self.label not in MODE_LABELS:
            raise ConfigError(f"OscillatorMode.label must be one of {MODE_LABELS}, got {self.label!r}")
        for name in ("omega", "gamma", "gamma_ext"):
            if not np.isfinite(getattr(self, name)):
                raise ConfigError(f"OscillatorMode.{name} must be finite")
        if not self.gamma > 0:
            raise ConfigError(f"OscillatorMode.gamma must be positive, got {self.gamma!r}")
        if not 0 <= self.gamma_ext <= self.gamma:
            raise ConfigError(
                f"OscillatorMode.gamma_ext must lie in [0, gamma], got {self.gamma_ext!r} with gamma {self.gamma!r}"
            )


def critical_mode(label, omega, gamma):
    # external coupling at half the total damping maximizes pump transfer
    return OscillatorMode(label=label, omega=omega, gamma=gamma, gamma_ext=gamma / 2)


@dataclass(frozen=True)
class PumpDrive:
    """A pump tone on one optical mode.

    effective_strength bundles the pump amplitude and the single-particle
    coupling into one non-negative knob; the model never needs the factors
    separately. detuning is pump frequency minus mode frequency.
    """

    target: str
    detuning: float
    effective_strength: float

    def __post_init__(self):
        if self.target not in (TM_PHOTON, TE_PHOTON):
            raise ConfigError(f"PumpDrive.target must be an optical mode, got {self.target!r}")
        if not (np.isfinite(self.detuning) and np.isfinite(self.effective_strength)):
            raise ConfigError("PumpDrive fields must be finite")
        if not self.effective_strength >= 0:
            raise ConfigError(f"PumpDrive.effective_strength must be >= 0, got {self.effective_strength!r}")


@dataclass(frozen=True)
class SystemConfig:
    """Full parameter bundle: four modes and two drives."""

    tm_photon: OscillatorMode
    te_photon: OscillatorMode
    magnon: OscillatorMode
    phonon: OscillatorMode
    drive_tm: PumpDrive
    drive_te: PumpDrive

    def __post_init__(self):
        for attr in MODE_LABELS:
            mode = getattr(self, attr)
            if mode.label != attr:
                raise ConfigError(f"SystemConfig.{attr} holds a mode labeled {mode.label!r}")
        if self.drive_tm.target != TM_PHOTON:
            raise ConfigError("SystemConfig.drive_tm must target the tm_photon mode")
        if self.drive_te.target != TE_PHOTON:
            raise ConfigError("SystemConfig.drive_te must target the te_photon mode")

    # sweep helpers; frozen dataclasses so these return fresh bundles
    def with_drive_detunings(self, tm=None, te=None):
        cfg = self
        if tm is not None:
            cfg = replace(cfg, drive_tm=replace(cfg.drive_tm, detuning=float(tm)))
        if te is not None:
            cfg = replace(cfg, drive_te=replace(cfg.drive_te, detuning=float(te)))
        return cfg

    def with_strengths(self, tm=None, te=None):
        cfg = self
        if tm is not None:
            cfg = replace(cfg, drive_tm=replace(cfg.drive_tm, effective_strength=float(tm)))
        if te is not None:
            cfg = replace(cfg, drive_te=replace(cfg.drive_te, effective_strength=float(te)))
        return cfg

    def to_dict(self):
        def mode_dict(m):
            return {"omega": m.omega, "gamma": m.gamma, "gamma_ext": m.gamma_ext}

        return {
            "modes": {attr: mode_dict(getattr(self, attr)) for attr in MODE_LABELS},
            "drives": {
                "tm": {"detuning": self.drive_tm.detuning, "effective_strength": self.drive_tm.effective_strength},
                "te": {"detuning": self.drive_te.detuning, "effective_strength": self.drive_te.effective_strength},
            },
        }

    @classmethod
    def from_dict(cls, data):
        try:
            modes = {
                attr: OscillatorMode(label=attr, **{k: float(v) for k, v in data["modes"][attr].items()})
                for attr in MODE_LABELS
            }
            drives = {
                "drive_tm": PumpDrive(target=TM_PHOTON, **{k: float(v) for k, v in data["drives"]["tm"].items()}),
                "drive_te": PumpDrive(target=TE_PHOTON, **{k: float(v) for k, v in data["drives"]["te"].items()}),
            }
        except (KeyError, TypeError) as exc:
            raise ConfigError(f"malformed config mapping: {exc}") from exc
        unknown = set(data) - {"modes", "drives"}
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        return cls(**modes, **drives)


@dataclass(frozen=True)
class EffectiveCoupling:
    """Pump-enhanced complex coupling rates: g_a bridges photon and magnon, g_b photon and phonon."""

    g_a: complex
    g_b: complex


# Array arithmetic that rounds exactly like Python's scalar arithmetic. numpy's
# vectorised complex loops may fuse multiply-adds and divide by their own
# scheme, so a grid cell could differ in its last bits from the same point
# evaluated alone. On arrays these helpers spell out Python's steps in real
# arithmetic; on scalars they are the plain operators.
def _mul(x, y):
    if not (isinstance(x, np.ndarray) or isinstance(y, np.ndarray)):
        return x * y
    x, y = np.asarray(x, dtype=complex), np.asarray(y, dtype=complex)
    out = (x.real * y.real - x.imag * y.imag).astype(complex)
    out.imag = x.real * y.imag + x.imag * y.real
    return out


def _abs(z):
    return np.hypot(z.real, z.imag) if isinstance(z, np.ndarray) else abs(z)


def _reciprocal(z):
    if not isinstance(z, np.ndarray):
        return 1.0 / z
    wide = np.abs(z.real) >= np.abs(z.imag)  # Smith's scaled division, as in Python's complex quotient
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(wide, z.imag / z.real, z.real / z.imag)
        denom = np.where(wide, z.real + z.imag * ratio, z.real * ratio + z.imag)
        out = (np.where(wide, 1.0, ratio + 0.0) / denom).astype(complex)
        out.imag = np.where(wide, 0.0 - ratio, -1.0) / denom
    return out


def _every(flags):
    return bool(flags.all()) if isinstance(flags, np.ndarray) else bool(flags)


def _finite(x):
    # cmath on scalars: numpy's per-call overhead would dominate the point functions
    return bool(np.isfinite(x).all()) if isinstance(x, np.ndarray) else cmath.isfinite(x)


def _checked_grid(name, grid, increasing=False):
    """A sweep axis as a float array: non-empty, 1-D, strictly monotone (or strictly increasing)."""
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise ConfigError(f"{name} must be a non-empty 1-D grid")
    step = np.sign(np.diff(grid))
    if not (np.all(step == 1) or (not increasing and np.all(step == -1))):
        raise ConfigError(f"{name} must be strictly {'increasing' if increasing else 'monotone'}")
    return grid


def susceptibility(gamma, omega_res, omega):
    """Linear response 1/(gamma/2 - i(omega - omega_res)) of a damped mode.

    Vectorized over omega and omega_res. Pole-free for any gamma > 0.
    """
    if not gamma > 0:
        raise ConfigError(f"susceptibility requires gamma > 0, got {gamma!r}")
    out = _reciprocal(gamma / 2 - 1j * (np.asarray(omega) - omega_res))
    return complex(out) if np.ndim(out) == 0 else out


def te_susceptibility(config: SystemConfig, omega):
    # pump rotating frame: the driven optical mode responds around -detuning
    return susceptibility(config.te_photon.gamma, -config.drive_te.detuning, omega)


def _pump_coupling(mode: OscillatorMode, detuning, strength):
    """Pump-enhanced coupling strength*sqrt(2 gamma_ext)/(gamma - i detuning) of one optical branch.

    Vectorized over detuning and strength, so a whole (drive, detuning)
    grid is one call; a scalar pair gives the scalar rate.
    """
    g = strength * np.sqrt(2 * mode.gamma_ext) / (-1j * detuning + mode.gamma)
    if not _finite(g):
        raise NumericsError("effective coupling evaluated non-finite; check drive and damping values")
    return g


def effective_couplings(config: SystemConfig) -> EffectiveCoupling:
    """Both pump-enhanced coupling rates for the configured drives."""
    g_a = _pump_coupling(config.tm_photon, config.drive_tm.detuning, config.drive_tm.effective_strength)
    g_b = _pump_coupling(config.te_photon, config.drive_te.detuning, config.drive_te.effective_strength)
    return EffectiveCoupling(g_a=complex(g_a), g_b=complex(g_b))
