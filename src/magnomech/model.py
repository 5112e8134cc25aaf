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
import contextlib
import math
from dataclasses import dataclass, fields, replace

import numpy as np

from .errors import ConfigError, NumericsError

TM_PHOTON = "tm_photon"
TE_PHOTON = "te_photon"
MAGNON = "magnon"
PHONON = "phonon"

MODE_LABELS = (TM_PHOTON, TE_PHOTON, MAGNON, PHONON)


def _number(key, value, kind=float):
    """value converted by kind; a value that is not a finite number raises ConfigError naming key."""
    try:
        number = kind(value)
        if _finite(number):
            return number
    except (TypeError, ValueError, OverflowError):
        pass
    raise ConfigError(f"{key!r} must be a finite number, got {value!r}")


def _count(key, value, least):
    """value as an int if it is a whole number >= least; any other value raises ConfigError naming key."""
    number = _number(key, value)
    if number != int(number) or number < least:
        raise ConfigError(f"{key!r} must be a whole number >= {least}, got {value!r}")
    return int(number)


def _frequency(omega, grid=False, key="omega"):
    """omega as a finite Python float, or with grid and axes as a finite float array; else ConfigError naming key."""
    array = grid and not isinstance(omega, float) and np.ndim(omega) > 0
    return _number(key, omega, (lambda w: np.asarray(w, dtype=float)) if array else float)


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
        for name in _FIELDS[OscillatorMode]:  # stored as Python floats, also when given numpy scalars
            object.__setattr__(self, name, _number(f"OscillatorMode.{name}", getattr(self, name)))
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
        for name in _FIELDS[PumpDrive]:  # stored as Python floats, like OscillatorMode's
            object.__setattr__(self, name, _number(f"PumpDrive.{name}", getattr(self, name)))
        if not self.effective_strength >= 0:
            raise ConfigError(f"PumpDrive.effective_strength must be >= 0, got {self.effective_strength!r}")


# The config layout, written once: each entry's override prefix, which is its SystemConfig attribute, its section
# and name in to_dict's mapping, its class, and its first field (label or target) with the value it holds. _FIELDS
# reads each class's numbers, the fields after that first one, off the dataclass, in to_dict's order.
_LAYOUT = {**{label: ("modes", label, OscillatorMode, ("label", label)) for label in MODE_LABELS},
           "drive_tm": ("drives", "tm", PumpDrive, ("target", TM_PHOTON)),
           "drive_te": ("drives", "te", PumpDrive, ("target", TE_PHOTON))}
_FIELDS = {kind: tuple(f.name for f in fields(kind)[1:]) for kind in (OscillatorMode, PumpDrive)}
_KEYS = {f"{prefix}.{name}" for prefix, (_, _, kind, _) in _LAYOUT.items() for name in _FIELDS[kind]}
_PLACES = {f"{section}.{name}" for section, name, _, _ in _LAYOUT.values()}
_SECTIONS = {section for section, _, _, _ in _LAYOUT.values()}


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
        for attr, (_, _, kind, (first, held)) in _LAYOUT.items():  # each mode and drive in its own slot
            entry = getattr(self, attr)
            if not isinstance(entry, kind) or getattr(entry, first) != held:
                raise ConfigError(f"SystemConfig.{attr} takes the {kind.__name__} with {first} {held!r}, got {entry!r}")

    # sweep helpers; frozen dataclasses so these return fresh bundles
    def with_drive_detunings(self, tm=None, te=None):
        return self._with_drives("detuning", tm, te)

    def with_strengths(self, tm=None, te=None):
        return self._with_drives("effective_strength", tm, te)

    def _with_drives(self, name, tm, te):
        drives = {attr: replace(getattr(self, attr), **{name: value})
                  for attr, value in (("drive_tm", tm), ("drive_te", te)) if value is not None}
        return replace(self, **drives) if drives else self

    def to_dict(self):
        tree = {}
        for prefix, (section, name, kind, _) in _LAYOUT.items():
            entry = getattr(self, prefix)
            tree.setdefault(section, {})[name] = {field: getattr(entry, field) for field in _FIELDS[kind]}
        return tree

    @classmethod
    def from_dict(cls, data, overrides=()):
        """The config of to_dict's mapping data, with overrides: (key, value) pairs such as ("magnon.gamma_ext", 1e6).

        Each value is named by its override key, so an override may supply a field that data omits. One ConfigError
        lists every key of data or overrides that names no section, entry or field, before any value is read.
        """
        values = {}
        try:
            for prefix, (section, name, _, _) in _LAYOUT.items():
                entry = data[section][name]
                if not isinstance(entry, dict):
                    raise ConfigError(f"config entry '{section}.{name}' must be a mapping, got {entry!r}")
                values.update((f"{prefix}.{field}", value) for field, value in entry.items())
        except (KeyError, TypeError) as exc:
            raise ConfigError(f"malformed config mapping: {exc}") from exc
        values.update(overrides)
        unknown = sorted(({*data} - _SECTIONS) | ({f"{s}.{name}" for s in _SECTIONS for name in data[s]} - _PLACES)
                         | (values.keys() - _KEYS))
        if unknown:
            raise ConfigError(f"unknown config keys: {unknown}")
        entries = {}
        try:  # a TypeError names a field that neither data nor overrides supplies
            for prefix, (_, _, kind, (first, held)) in _LAYOUT.items():
                entries[prefix] = kind(**{first: held}, **{field: _number(key, values[key]) for field in _FIELDS[kind]
                                                           if (key := f"{prefix}.{field}") in values})
        except TypeError as exc:
            raise ConfigError(f"malformed config mapping: {exc}") from exc
        return cls(**entries)


@dataclass(frozen=True)
class EffectiveCoupling:
    """Pump-enhanced complex coupling rates: g_a bridges photon and magnon, g_b photon and phonon."""

    g_a: complex
    g_b: complex


# Arithmetic that rounds alike on arrays and scalars. numpy's vectorised complex
# loops may fuse multiply-adds and divide by their own scheme, so a grid cell
# could differ in its last bits from the same point evaluated alone. _mul and
# _reciprocal spell out Python's steps in real arithmetic on arrays and are the
# plain operators on scalars; _quotient is numpy's division on arrays and
# spells out numpy's steps in Python floats on scalars.
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


def _quotient(x, y, z):
    """Real x*y over non-zero complex z: numpy's / on arrays, numpy's scaled division in Python floats on scalars.

    Python's own complex quotient scales differently, and rounds apart from numpy's in about two of five draws.
    The scalar steps have a grid cell's bits where numpy's complex division is the unfused Smith loop, as
    test_pump_coupling_point_carries_the_bits_of_its_grid_cell checks; a build that fuses its multiply-adds
    rounds apart. Neither path warns of an overflowing product or cell; the caller reports it.
    """
    if isinstance(x, np.ndarray) or isinstance(z, np.ndarray):
        with np.errstate(over="ignore", invalid="ignore"):
            return x * y / z
    x, re, im = float(x) * y, float(z.real), float(z.imag)  # numpy scalars would warn of an overflow
    if abs(re) >= abs(im):
        rat = im / re
        scl = 1.0 / (re + im * rat)
        return complex((x + 0.0 * rat) * scl, (0.0 - x * rat) * scl)
    rat = re / im
    scl = 1.0 / (im + re * rat)
    return complex((x * rat + 0.0) * scl, (0.0 * rat - x) * scl)


_SCALARS = contextlib.nullcontext()


def _quiet(*values):
    """A context silencing numpy's overflow and invalid warnings if any of values is an array.

    For callers that report non-finite cells themselves. On scalars it does nothing: Python arithmetic
    warns of nothing, and np.errstate costs more than a point evaluation.
    """
    for value in values:
        if isinstance(value, np.ndarray):
            return np.errstate(over="ignore", invalid="ignore")
    return _SCALARS


def _every(flags):
    return bool(flags.all()) if isinstance(flags, np.ndarray) else bool(flags)


def _finite(x):
    # cmath on scalars: numpy's per-call overhead would dominate the point functions
    return bool(np.isfinite(x).all()) if isinstance(x, np.ndarray) else cmath.isfinite(x)


def _at_first(bad, *values):
    """Each of values, broadcast against the flags bad, as a float at the first cell where bad holds."""
    bad = np.asarray(bad)
    k = np.argmax(bad)
    return tuple(float(np.broadcast_to(value, bad.shape).flat[k]) for value in values)


def _require_finite(message, values, where, cause=""):
    """NumericsError if one of values is not finite, naming on a grid the first bad cell by where or else by index."""
    if all(map(_finite, values)):
        return
    if isinstance(values[0], np.ndarray):
        bad = ~np.isfinite(values).all(axis=0)
        cell = zip(where, _at_first(bad, *where.values())) if where else [("index", np.argwhere(bad)[0].tolist())]
        message += " at " + ", ".join(f"{name} {value!r}" for name, value in cell)
    raise NumericsError(message + cause)


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

    Vectorized over array omega or omega_res; scalars give a Python complex. Pole-free for any gamma > 0.
    """
    if not gamma > 0:
        raise ConfigError(f"susceptibility requires gamma > 0, got {gamma!r}")
    z = gamma / 2 - 1j * (omega - omega_res)
    return _reciprocal(z) if isinstance(z, np.ndarray) else 1.0 / complex(z)


def _pump_coupling(mode: OscillatorMode, detuning, strength):
    """Pump-enhanced coupling strength*sqrt(2 gamma_ext)/(gamma - i detuning), over broadcast arrays or at a point.

    A point is a Python complex computed in Python floats. _quotient divides by numpy's steps there,
    so the point carries the bits of its grid cell. A non-finite coupling raises NumericsError naming the
    pumped mode and the first bad cell's strength and detuning.
    """
    g = _quotient(strength, math.sqrt(2 * mode.gamma_ext), -1j * detuning + mode.gamma)
    if not _finite(g):
        raise NumericsError("effective coupling evaluated non-finite for the {} pump at effective_strength {!r}, "
                            "detuning {!r}; check drive and damping values".format(
                                mode.label, *_at_first(~np.isfinite(g), strength, detuning)))
    return g


def _pump_frame(config: SystemConfig, strength_tm, strength_te, det_tm, det_te, omega):
    """Pump couplings g_a, g_b and the TE mode's inverse responses over broadcast (strength, detuning, omega) axes.

    In its pump frame the TE mode responds around -det_te: inv = 1/chi(omega) = gamma/2 - i(omega + det_te),
    and inv_ref = 1/chi~(omega) = gamma/2 - i(omega - det_te) with the reflected chi~(omega) = conj(chi(-omega)).
    They stay inverted because the 6x6 system holds them as entries; the dressing terms take reciprocals.
    """
    g_a = _pump_coupling(config.tm_photon, det_tm, strength_tm)
    g_b = _pump_coupling(config.te_photon, det_te, strength_te)
    half = config.te_photon.gamma / 2
    return g_a, g_b, half - 1j * (omega + det_te), half - 1j * (omega - det_te)


def _drives(config: SystemConfig):
    """(strength_tm, strength_te, det_tm, det_te) of the configured drives, in _pump_frame's order."""
    return (config.drive_tm.effective_strength, config.drive_te.effective_strength,
            config.drive_tm.detuning, config.drive_te.detuning)


def effective_couplings(config: SystemConfig) -> EffectiveCoupling:
    """Both pump-enhanced coupling rates for the configured drives."""
    g_a, g_b, _, _ = _pump_frame(config, *_drives(config), omega=0.0)  # the responses are not needed here
    return EffectiveCoupling(g_a=g_a, g_b=g_b)
