"""Adiabatic transport around closed loops in the (drive, detuning) plane.

A two-component state is carried under the loop-dependent reduced matrix and
projected on the fixed supermode basis of the loop's start point. Each sample
interval's propagator is a product of exact exponentials of fourth-order Magnus
steps (two Gauss points each). Each step's trace part is a scalar: its real
part is banked as log-norm, its imaginary part (the GHz carrier) is a dropped
global phase. The state is renormalized at every sample.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
import numpy as np

from .errors import ConfigError, NumericsError
from .ep import P_UNIT, DELTA_UNIT, eigenpairs, hamiltonian_on_plane
from .model import SystemConfig

GAP_RTOL = 1e-6  # start points closer than this to a degeneracy are rejected
_GAUSS = np.array([0.5 - np.sqrt(3) / 6, 0.5 + np.sqrt(3) / 6])  # Gauss points of a unit step
_BLOCK_STEPS = 2 ** 15  # Magnus steps per batched operator build, bounding the temporaries
_MAX_STEPS = 2 ** 22    # cap on the steps of one pass around the loop


@dataclass(frozen=True)
class LoopSpec:
    center: tuple
    radius_units: float = 1.0
    unit_scale: tuple = (P_UNIT, DELTA_UNIT)
    direction: str = "ccw"
    period: float = 10e-3
    start_phase: float = 0.0
    samples: int = 512

    def __post_init__(self):
        if self.direction not in ("cw", "ccw"):
            raise ConfigError(f"LoopSpec.direction must be 'cw' or 'ccw', got {self.direction!r}")
        if not self.period > 0:
            raise ConfigError("LoopSpec.period must be positive")
        if self.samples < 64:
            raise ConfigError("LoopSpec.samples must be at least 64")
        # radius 0 is allowed: a constant-parameter loop used for stationarity checks
        if not self.radius_units >= 0:
            raise ConfigError("LoopSpec.radius_units must be non-negative")

    @property
    def orientation(self):
        return 1.0 if self.direction == "ccw" else -1.0

    def reversed(self):
        return replace(self, direction="cw" if self.direction == "ccw" else "ccw")


@dataclass(frozen=True)
class Trajectory:
    times: np.ndarray
    theta: np.ndarray
    p_in: np.ndarray
    delta: np.ndarray
    states: np.ndarray      # (n, 2), unit norm at every sample
    log_norm: np.ndarray    # accumulated log of the true state norm
    fractions: np.ndarray   # (n, 2) columns (f_a, f_b), rows sum to 1
    loop: LoopSpec


def _theta_at(loop: LoopSpec, t):
    return loop.start_phase + loop.orientation * 2 * np.pi * np.asarray(t) / loop.period


def _params_at(loop: LoopSpec, t):
    th = _theta_at(loop, t)
    p_c, d_c = loop.center
    rho = loop.radius_units
    return (p_c + rho * np.cos(th) * loop.unit_scale[0],
            d_c + rho * np.sin(th) * loop.unit_scale[1])


def parameters_at(loop: LoopSpec, t):
    """Loop position (p_in, delta) at time t in [0, period]."""
    t = float(t)
    if not 0 <= t <= loop.period:
        raise ConfigError(f"t must lie in [0, period], got {t!r}")
    p, d = _params_at(loop, t)
    return float(p), float(d)


def initial_basis(loop: LoopSpec, config_template: SystemConfig, tie_tm_detuning: bool = False):
    """Supermode basis at the loop start: (v_a, v_b) with 'a' the larger-Re branch."""
    p0, d0 = _params_at(loop, 0.0)
    pair = eigenpairs(hamiltonian_on_plane(config_template, p0, d0, tie_tm_detuning))
    lam_bar = abs(pair.lambda_plus + pair.lambda_minus) / 2
    if abs(pair.lambda_plus - pair.lambda_minus) <= GAP_RTOL * max(lam_bar, 1.0):
        raise ConfigError("loop start point is degenerate within tolerance; shift the start phase or center")
    if pair.lambda_plus.real >= pair.lambda_minus.real:
        return pair.v_plus, pair.v_minus
    return pair.v_minus, pair.v_plus


def energy_fractions(states, basis):
    """Expand states in the (v_a, v_b) basis; return per-sample (f_a, f_b).

    Fractions are ratios of squared expansion magnitudes, so they are
    invariant under rescaling any state by a nonzero complex number.
    """
    v_a, v_b = basis
    m = np.column_stack([v_a, v_b]).astype(complex)
    if abs(np.linalg.det(m)) <= 1e-6:
        raise ConfigError("supermode basis is (numerically) dependent; projection undefined")
    states = np.atleast_2d(np.asarray(states, dtype=complex))
    coeffs = np.linalg.solve(m, states.T).T
    power = np.abs(coeffs) ** 2
    total = power.sum(axis=1, keepdims=True)
    if np.any(total == 0):
        raise ConfigError("cannot project a zero state")
    f_a = power[:, :1] / total
    # complementary by construction so each row sums to exactly 1.0
    return np.hstack([f_a, 1.0 - f_a])


def _transport(loop, config_template, tie_tm_detuning, u0, substeps):
    """Unit states and log-norms at the samples, with `substeps` (a power of 2) Magnus steps per interval."""
    intervals, per_block = loop.samples - 1, max(1, _BLOCK_STEPS // substeps)
    h = loop.period / (intervals * substeps)
    props, growth = [], []
    for first in range(0, intervals, per_block):
        n = np.arange(first * substeps, min(intervals, first + per_block) * substeps)
        t = (n[:, None] + _GAUSS) * h
        # x[:, j] = h * (-iH) at Gauss point j; omega is the step's 4th-order Magnus exponent
        x = -1j * h * hamiltonian_on_plane(config_template, *_params_at(loop, t), tie_tm_detuning)
        omega = (x[:, 0] + x[:, 1]) / 2 + np.sqrt(3) / 12 * (x[:, 1] @ x[:, 0] - x[:, 0] @ x[:, 1])
        tau = (omega[:, 0, 0] + omega[:, 1, 1]) / 2
        w = omega - tau[:, None, None] * np.eye(2)
        s = np.sqrt(w[:, 0, 0] ** 2 + w[:, 0, 1] * w[:, 1, 0])  # s^2 = -det w, w traceless
        # exp(w) = cosh(s) I + sinh(s)/s w exactly; sinc(i s / pi) = sinh(s)/s, finite at s = 0
        steps = np.cosh(s)[:, None, None] * np.eye(2) + np.sinc(1j * s / np.pi)[:, None, None] * w
        steps = steps.reshape(-1, substeps, 2, 2)
        while steps.shape[1] > 1:
            steps = steps[:, 1::2] @ steps[:, ::2]  # later steps on the left
        props.append(steps[:, 0])
        growth.append(tau.real.reshape(-1, substeps).sum(axis=1))
    states, log_norm = [u0], [0.0]
    for prop, g in zip(np.concatenate(props), np.concatenate(growth)):
        u = prop @ states[-1]
        norm = np.linalg.norm(u)
        states.append(u / norm)
        log_norm.append(log_norm[-1] + g + np.log(norm))
    return np.array(states), np.array(log_norm)


def evolve(loop: LoopSpec, config_template: SystemConfig, initial_state=None,
           rtol: float = 1e-8, tie_tm_detuning: bool = False) -> Trajectory:
    """Carry the state once around the loop, renormalizing at every sample.

    The substep count per sample interval starts at 4 and doubles until two
    successive passes agree to rtol at every sample: fractions absolutely,
    log_norm relative to max(1, |log_norm|). Default initial state: the 'a'
    supermode.
    """
    if not 0 < rtol < np.inf:
        raise ConfigError(f"rtol must be finite and positive, got {rtol!r}")
    basis = initial_basis(loop, config_template, tie_tm_detuning)
    if initial_state is None:
        initial_state = basis[0]
    u0 = np.asarray(initial_state, dtype=complex)
    n0 = np.linalg.norm(u0)
    if n0 == 0:
        raise ConfigError("initial_state must be nonzero")
    u0 = u0 / n0
    substeps, previous = 4, None
    while True:
        if (loop.samples - 1) * substeps > _MAX_STEPS:
            raise NumericsError(f"loop transport needs more than {_MAX_STEPS} steps to reach rtol={rtol:g}")
        states, log_norm = _transport(loop, config_template, tie_tm_detuning, u0, substeps)
        if not np.all(np.isfinite(log_norm)):
            raise NumericsError("loop transport overflowed within one sample interval; raise loop.samples")
        fractions = energy_fractions(states, basis)
        if previous is not None and np.all(np.abs(fractions - previous[0]) <= rtol) and np.all(
                np.abs(log_norm - previous[1]) <= rtol * np.maximum(1.0, np.abs(log_norm))):
            break
        previous, substeps = (fractions, log_norm), 2 * substeps
    t_eval = np.linspace(0.0, loop.period, loop.samples)
    th = _theta_at(loop, t_eval)
    p_arr, d_arr = _params_at(loop, t_eval)
    return Trajectory(times=t_eval, theta=np.asarray(th, dtype=float),
                      p_in=np.asarray(p_arr, dtype=float), delta=np.asarray(d_arr, dtype=float),
                      states=states, log_norm=log_norm, fractions=fractions, loop=loop)


@dataclass(frozen=True)
class ChiralityReport:
    final_fraction_difference: float
    max_aligned_difference: float
    amplitude_first: float
    amplitude_second: float
    duration_first: float
    duration_second: float
    align_shift: int
    slope_threshold: float

    def to_dict(self):
        return {
            "final_fraction_difference": self.final_fraction_difference,
            "max_aligned_difference": self.max_aligned_difference,
            "oscillation": {
                "first": {"amplitude": self.amplitude_first, "duration_phase": self.duration_first},
                "second": {"amplitude": self.amplitude_second, "duration_phase": self.duration_second},
            },
            "align_shift": self.align_shift,
            "slope_threshold": self.slope_threshold,
        }


def _oscillation_metrics(traj: Trajectory, slope_threshold):
    f_a = traj.fractions[:, 0]
    amplitude = float(f_a.max() - f_a.min())
    dtheta = 2 * np.pi / max(traj.theta.size - 1, 1)
    slope = np.abs(np.gradient(f_a, dtheta))
    duration = float(np.count_nonzero(slope > slope_threshold) * dtheta)
    return amplitude, duration


def chirality_report(traj_first: Trajectory, traj_second: Trajectory,
                     align_shift: int = 0, slope_threshold: float = 0.5) -> ChiralityReport:
    """Compare two loop traversals (typically opposite directions).

    The second trajectory's fraction series may be re-indexed by
    align_shift samples before comparison (half the sample count realizes
    the half-period phase alignment between opposite traversals of the
    same loop). With align_shift 0 and identical inputs every metric is 0.
    """
    if traj_first.fractions.shape != traj_second.fractions.shape:
        raise ConfigError("trajectories have mismatched sampling; re-run with equal sample counts")
    if traj_first.times.shape != traj_second.times.shape or not np.allclose(
            traj_first.times, traj_second.times):
        raise ConfigError("trajectories cover different time grids")
    f_1 = traj_first.fractions[:, 0]
    f_2_raw = traj_second.fractions[:, 0]
    f_2 = np.roll(f_2_raw, int(align_shift))
    amp_1, dur_1 = _oscillation_metrics(traj_first, slope_threshold)
    amp_2, dur_2 = _oscillation_metrics(traj_second, slope_threshold)
    return ChiralityReport(
        final_fraction_difference=float(abs(f_1[-1] - f_2_raw[-1])),
        max_aligned_difference=float(np.max(np.abs(f_1 - f_2))),
        amplitude_first=amp_1, amplitude_second=amp_2,
        duration_first=dur_1, duration_second=dur_2,
        align_shift=int(align_shift), slope_threshold=float(slope_threshold),
    )
