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


def random_config(rng):
    """Randomized but physically tame parameter draw for property tests."""
    return build_config(
        omega_m=rng.uniform(5e8, 1.5e9),
        omega_r=rng.uniform(5e8, 1.5e9),
        gamma_m=rng.uniform(5e6, 5e7),
        gamma_r=rng.uniform(5e6, 5e7),
        kappa_tm=rng.uniform(1e7, 4e7),
        kappa_te=rng.uniform(1e7, 4e7),
        strength_tm=rng.uniform(1e11, 2e12),
        strength_te=rng.uniform(1e11, 2e12),
        delta_tm=rng.uniform(-5e7, 5e7),
        delta_te=rng.uniform(-5e7, 5e7),
    )


@pytest.fixture
def rng():
    return np.random.default_rng(20260816)


@pytest.fixture
def config():
    return build_config()
