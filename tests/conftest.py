import numpy as np
import pytest

from magnomech.model import (
    OscillatorMode,
    PumpDrive,
    SystemConfig,
    critical_mode,
)


def build_config(omega_m=8.5e8, omega_r=1.15e9, gamma_m=2e7, gamma_r=2e7,
                 kappa_tm=2e7, kappa_te=2e7, strength_tm=0.6e12, strength_te=0.6e12,
                 delta_tm=0.0, delta_te=0.0):
    """One-call config for tests; optical modes critically coupled at zero carrier."""
    return SystemConfig(
        tm_photon=critical_mode("tm_photon", 0.0, kappa_tm),
        te_photon=critical_mode("te_photon", 0.0, kappa_te),
        magnon=OscillatorMode("magnon", omega_m, gamma_m),
        phonon=OscillatorMode("phonon", omega_r, gamma_r),
        drive_tm=PumpDrive("tm_photon", delta_tm, strength_tm),
        drive_te=PumpDrive("te_photon", delta_te, strength_te),
    )


# physically tame parameter ranges (Hz) for property tests, in build_config's keywords
RANGES = {
    "omega_m": (5e8, 1.5e9), "omega_r": (5e8, 1.5e9),
    "gamma_m": (5e6, 5e7), "gamma_r": (5e6, 5e7),
    "kappa_tm": (1e7, 4e7), "kappa_te": (1e7, 4e7),
    "strength_tm": (1e11, 2e12), "strength_te": (1e11, 2e12),
    "delta_tm": (-5e7, 5e7), "delta_te": (-5e7, 5e7),
}


def random_config(rng):
    """Randomized but physically tame parameter draw for property tests."""
    return build_config(**{key: rng.uniform(lo, hi) for key, (lo, hi) in RANGES.items()})


def numpy_config(rng):
    """A config built from numpy scalars, and its twin built from the same values as Python floats.

    The numpy side is built the way a numpy caller (and perfbench's point-queries
    workload) builds one: each value is an element of a drawn float64 array,
    except gamma_m, an np.float32, and strength_te, an np.int64.
    """
    draws = {key: rng.uniform(lo, hi, 1)[0] for key, (lo, hi) in RANGES.items()}
    draws["gamma_m"] = np.float32(draws["gamma_m"])
    draws["strength_te"] = np.int64(draws["strength_te"])
    return build_config(**draws), build_config(**{key: float(value) for key, value in draws.items()})


def bits(z):
    """The exact bits of a complex, as the hex text of its parts: tells -0.0 from 0.0."""
    return z.real.hex(), z.imag.hex()


@pytest.fixture
def rng():
    return np.random.default_rng(20260816)


@pytest.fixture
def config():
    return build_config()
