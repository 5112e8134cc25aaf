"""Adiabatic transport around closed loops in the (drive, detuning) plane.

A two-component state is carried under the loop-dependent reduced matrix and
projected on the fixed supermode basis of the loop's start point. Each sample
interval's propagator is a product of exact exponentials of fourth-order Magnus
steps (two Gauss points each), with the operator taken from ep as its four
entry arrays and every 2x2 product kept as four component arrays, never packed.
Each step's trace part is a scalar: its real part is banked as log-norm, its
imaginary part (the GHz carrier) is a dropped global phase. The state is
renormalized at every sample.

The reversed loop keeps the start phase, so it sits at time t where the loop
sits at period - t. Both directions are therefore formed from one operator
build: the reverse step uses the forward step's two Gauss-point operators in
swapped order, which flips the sign of the Magnus commutator.

The substep count per sample interval runs 4, 8, 16; from there the
pass-to-pass spread of this fourth-order method falls 16x per doubling, so the
run skips to the first count predicted to meet rtol and doubles on only if
that count and its half still disagree.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
import math

import numpy as np

from .errors import ConfigError, NumericsError
from .ep import GAP_RTOL, _degenerate, _ellipse, _loop_axes, _plane, eigenpairs, hamiltonian_on_plane
from .model import SystemConfig, _count, _number

RTOL = 1e-8  # default pass-to-pass agreement at which transport stops doubling its substep count
SLOPE_THRESHOLD = 0.5  # |d f_a / d theta| above which a sample counts toward an oscillation's duration
_GAUSS = np.array([0.5 - np.sqrt(3) / 6, 0.5 + np.sqrt(3) / 6])  # Gauss points of a unit step
_BLOCK_STEPS = 2 ** 15  # Magnus steps per batched operator build, bounding the temporaries
_MAX_STEPS = 2 ** 22    # cap on the steps of one pass around the loop


@dataclass(frozen=True)
class LoopSpec:
    """Elliptic loop: center (p_in, delta) and semi-axes radius = (radius_p, radius_delta), in Hz-as-labeled."""

    center: tuple
    radius: tuple
    direction: str = "ccw"
    period: float = 10e-3
    start_phase: float = 0.0
    samples: int = 512

    def __post_init__(self):
        if self.direction not in ("cw", "ccw"):
            raise ConfigError(f"LoopSpec.direction must be 'cw' or 'ccw', got {self.direction!r}")
        # each number is kept as the Python number it was checked as; an error names its run key
        for name, value in (*zip(("center", "radius"), _loop_axes("LoopSpec", self.center, self.radius)),
                            ("period", _number("loop.period", self.period)),
                            ("start_phase", _number("loop.start_phase", self.start_phase)),
                            ("samples", _count("loop.samples", self.samples, 64))):
            object.__setattr__(self, name, value)
        if self.period <= 0:
            raise ConfigError(f"LoopSpec 'loop.period' must be positive, got {self.period!r}")

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
    substeps: int           # final Magnus steps per sample interval
    passes: int             # passes around the loop, the final one included
    disagreement: dict      # last pass-to-pass maximum per criterion: "fractions", "log_norm"


def _theta_at(loop: LoopSpec, t):
    return loop.start_phase + loop.orientation * 2 * np.pi * np.asarray(t) / loop.period


def _params_at(loop: LoopSpec, t):
    return _ellipse(loop.center, loop.radius, _theta_at(loop, t))


def parameters_at(loop: LoopSpec, t):
    """Loop position (p_in, delta) at time t in [0, period]; a t that is not a finite number raises ConfigError."""
    t = _number("t", t)
    if not 0 <= t <= loop.period:
        raise ConfigError(f"t must lie in [0, period], got {t!r}")
    p, d = _params_at(loop, t)
    return float(p), float(d)


def initial_basis(loop: LoopSpec, config_template: SystemConfig, tie_tm_detuning: bool = False):
    """Supermode basis at the loop start: (v_a, v_b) with 'a' the larger-Re branch."""
    p0, d0 = _params_at(loop, 0.0)
    pair = eigenpairs(hamiltonian_on_plane(config_template, p0, d0, tie_tm_detuning))
    if _degenerate(pair.lambda_plus, pair.lambda_minus, GAP_RTOL):
        raise ConfigError("loop start point is degenerate within tolerance; shift the start phase or center")
    if pair.lambda_plus.real >= pair.lambda_minus.real:
        return pair.v_plus, pair.v_minus
    return pair.v_minus, pair.v_plus


def energy_fractions(states, basis):
    """Expand states in the (v_a, v_b) basis; return per-sample (f_a, f_b).

    Fractions are ratios of squared expansion magnitudes, so they are
    invariant under rescaling any state by a nonzero complex number. The
    basis is refused as dependent by |det| relative to |v_a| |v_b|, so a
    rescaled basis gets the same verdict and the same fractions.
    """
    v_a, v_b = basis
    m = np.column_stack([v_a, v_b]).astype(complex)
    if not np.isfinite(m).all():  # refused before det, which would warn and give nan
        raise ConfigError("supermode basis is not finite; projection undefined")
    if abs(np.linalg.det(m)) <= 1e-6 * np.linalg.norm(v_a) * np.linalg.norm(v_b):
        raise ConfigError("supermode basis is (numerically) dependent; projection undefined")
    states = np.atleast_2d(np.asarray(states, dtype=complex))
    if not np.isfinite(states).all():
        raise ConfigError("cannot project a non-finite state")
    coeffs = np.linalg.solve(m, states.T).T
    power = np.abs(coeffs) ** 2
    total = power.sum(axis=1, keepdims=True)
    if np.any(total == 0):
        raise ConfigError("cannot project a zero state")
    f_a = power[:, :1] / total
    # complementary by construction so each row sums to exactly 1.0
    return np.hstack([f_a, 1.0 - f_a])


def _exponents(entries, e):
    """Half trace and traceless parts of each step's 4th-order Magnus exponent, written out.

    entries are the operator's (h00, h01, h10, h11) at a step's two Gauss points, each of shape (..., 2)
    with the point axis last, and e = -i * step. The exponent is tau * I + mean + comm with mean and comm
    traceless, each given as its (00, 01, 10) components. The step run backward in time swaps its Gauss
    points, which flips the sign of comm alone.
    """
    (a0, a1), (b0, b1), (c0, c1), (d0, d1) = ((h[..., 0], h[..., 1]) for h in entries)
    tau = e * (a0 + d0 + a1 + d1) / 4
    q0, q1 = (a0 - d0) / 2, (a1 - d1) / 2  # traceless halves of the diagonals
    mean = (e * (q0 + q1) / 2, e * (b0 + b1) / 2, e * (c0 + c1) / 2)
    k = np.sqrt(3) / 12 * e * e  # the commutator [x1, x0] of x = e * h
    comm = (k * (b1 * c0 - b0 * c1), 2 * k * (b0 * q1 - b1 * q0), 2 * k * (c1 * q0 - c0 * q1))
    return tau, mean, comm


def _exp_traceless(w00, w01, w10):
    """Components (00, 01, 10, 11) of exp(w) for the traceless w = [[w00, w01], [w10, -w00]].

    exp(w) = cosh(s) I + sinh(s)/s w exactly, with s^2 = -det w; sinc(i s / pi) = sinh(s)/s is
    finite at s = 0, where w is nilpotent and exp(w) = I + w.
    """
    s = np.sqrt(w00 * w00 + w01 * w10)
    ch, sh = np.cosh(s), np.sinc(1j * s / np.pi)
    return ch + sh * w00, sh * w01, sh * w10, ch - sh * w00


def _products(steps, substeps, sense):
    """Ordered product of each run of `substeps` consecutive step propagators, as components.

    Later steps go on the left: the higher index for sense +1, the lower for sense -1, whose time
    runs against the index.
    """
    steps = [c.reshape(-1, substeps) for c in steps]
    late, early = (slice(1, None, 2), slice(0, None, 2))[::sense]
    while steps[0].shape[1] > 1:
        (a, b, c, d), (e, f, g, k) = ([m[:, late] for m in steps], [m[:, early] for m in steps])
        steps = [a * e + b * g, a * f + b * k, c * e + d * g, c * f + d * k]
    return [m[:, 0] for m in steps]


def _carry(props, growth, u0):
    """Unit states and accumulated log-norms at the samples, one interval propagator after another."""
    u, v = complex(u0[0]), complex(u0[1])
    states, log_norm = [(u, v)], [0.0]
    for p00, p01, p10, p11, g in zip(*(c.tolist() for c in props), growth.tolist()):
        u, v = p00 * u + p01 * v, p10 * u + p11 * v
        norm = math.hypot(u.real, u.imag, v.real, v.imag)
        if not 0 < norm < math.inf:
            raise NumericsError("loop transport overflowed within one sample interval; raise loop.samples")
        u, v = u / norm, v / norm
        states.append((u, v))
        log_norm.append(log_norm[-1] + g + math.log(norm))
    return np.array(states), np.array(log_norm)


def _transport(loop, config_template, tie_tm_detuning, u0, substeps, senses):
    """Unit states and log-norms at the samples with `substeps` (a power of 2) Magnus steps per interval.

    One (states, log_norm) pair per sense: +1 runs along the loop, -1 along loop.reversed(). Both
    come from one operator build, since the reversed loop at time t sits where the loop sits at
    period - t: its step k is the loop's step N-1-k with the two Gauss points swapped.
    """
    intervals, per_block = loop.samples - 1, max(1, _BLOCK_STEPS // substeps)
    h = loop.period / (intervals * substeps)
    props, growth = {sense: [] for sense in senses}, []
    for first in range(0, intervals, per_block):
        n = np.arange(first * substeps, min(intervals, first + per_block) * substeps)
        t = (n[:, None] + _GAUSS) * h
        tau, mean, comm = _exponents(_plane(config_template, *_params_at(loop, t), tie_tm_detuning), -1j * h)
        growth.append(tau.real.reshape(-1, substeps).sum(axis=1))
        for sense in senses:  # one direction after the other, so the step temporaries never double
            w = [m + c if sense > 0 else m - c for m, c in zip(mean, comm)]
            props[sense].append(_products(_exp_traceless(*w), substeps, sense))
        del tau, mean, comm, w  # all before the next block's build
    growth = np.concatenate(growth)
    out = []
    for sense in senses:
        p = [np.concatenate(c)[::sense] for c in zip(*props[sense])]
        out.append(_carry(p, growth[::sense], u0))
    return out


def _disagreement(previous, current):
    """Largest pass-to-pass change over the samples: fractions absolutely, log_norm relative to max(1, |log_norm|)."""
    (_, ln0, f0), (_, ln1, f1) = previous, current
    return {"fractions": float(np.max(np.abs(f1 - f0))),
            "log_norm": float(np.max(np.abs(ln1 - ln0) / np.maximum(1.0, np.abs(ln1))))}


def _unit_state(state):
    """state over its norm; anything but a finite, nonzero vector of length 2 (of finite norm) raises ConfigError."""
    try:
        u = np.asarray(state, dtype=complex)
    except (TypeError, ValueError):
        u = np.empty(0)
    with np.errstate(over="ignore"):  # a norm that overflows is refused, as inf
        norm = np.linalg.norm(u) if u.shape == (2,) else 0.0
    if not 0 < norm < math.inf:
        raise ConfigError(f"initial_state must be a finite, nonzero vector of length 2, got {state!r}")
    return u / norm


def _evolve(loop, config_template, initial_state, rtol, tie_tm_detuning, senses):
    if not 0 < rtol < np.inf:
        raise ConfigError(f"rtol must be finite and positive, got {rtol!r}")
    u0 = None if initial_state is None else _unit_state(initial_state)  # checked before the basis is built
    # the reversed loop starts at the same point, so one basis serves both senses
    basis = initial_basis(loop, config_template, tie_tm_detuning)
    if u0 is None:
        u0 = _unit_state(basis[0])
    intervals = loop.samples - 1
    substeps, previous, passes = 4, None, 0
    while True:
        if intervals * substeps > _MAX_STEPS:
            raise NumericsError(f"loop transport needs more than {_MAX_STEPS} steps to reach rtol={rtol:g}")
        runs = [(states, log_norm, energy_fractions(states, basis)) for states, log_norm in
                _transport(loop, config_template, tie_tm_detuning, u0, substeps, senses)]
        passes += 1
        if previous is not None and previous[0] * 2 == substeps:
            spread = [_disagreement(old, new) for old, new in zip(previous[1], runs)]
            worst = max(max(d.values()) for d in spread)
            if worst <= rtol:
                break
        following = 2 * substeps
        if substeps == 16:
            # from here the spread falls 16x per doubling (4th order): go on at the half of the
            # first count predicted to agree, within the step cap, so that count meets its half
            while worst * (16 / following) ** 4 > rtol and intervals * 2 * following <= _MAX_STEPS:
                following *= 2
            following = max(32, following // 2)
        previous, substeps = (substeps, runs), following
    t_eval = np.linspace(0.0, loop.period, loop.samples)
    out = []
    for sense, (states, log_norm, fractions), spread_one in zip(senses, runs, spread):
        one_loop = loop if sense > 0 else loop.reversed()
        p_in, delta = _params_at(one_loop, t_eval)  # float arrays: LoopSpec holds Python floats
        out.append(Trajectory(
            times=t_eval, theta=_theta_at(one_loop, t_eval), p_in=p_in, delta=delta,
            states=states, log_norm=log_norm, fractions=fractions, loop=one_loop,
            substeps=substeps, passes=passes, disagreement=spread_one))
    return out


def evolve(loop: LoopSpec, config_template: SystemConfig, initial_state=None,
           rtol: float = RTOL, tie_tm_detuning: bool = False) -> Trajectory:
    """Carry the state once around the loop, renormalizing at every sample.

    The substep count per sample interval runs 4, 8, 16. From 16 on the pass-to-pass spread
    falls 16x per doubling, so the run jumps to the first count predicted to agree, runs its half
    and it, and doubles on from there until two successive passes agree to rtol at every sample:
    fractions absolutely, log_norm relative to max(1, |log_norm|). Default initial state: the 'a'
    supermode. The trajectory records the final substep count, the passes run and the last
    pass-to-pass spread per criterion.
    """
    return _evolve(loop, config_template, initial_state, rtol, tie_tm_detuning, (1,))[0]


def evolve_both_directions(loop: LoopSpec, config_template: SystemConfig, rtol: float = RTOL,
                           tie_tm_detuning: bool = False):
    """(along loop, along loop.reversed()) trajectories from the 'a' supermode, as `evolve` gives them.

    Both directions come from one operator build per pass and share one substep count: the run
    stops only when both agree to rtol.
    """
    return tuple(_evolve(loop, config_template, None, rtol, tie_tm_detuning, (1, -1)))


def _oscillation(traj: Trajectory):
    """The swing of f_a over the loop and the phase over which |d f_a / d theta| exceeds SLOPE_THRESHOLD."""
    f_a = traj.fractions[:, 0]
    dtheta = 2 * np.pi / max(traj.theta.size - 1, 1)
    slope = np.abs(np.gradient(f_a, dtheta))
    return {"amplitude": float(f_a.max() - f_a.min()),
            "duration_phase": float(np.count_nonzero(slope > SLOPE_THRESHOLD) * dtheta)}


def chirality_report(traj_first: Trajectory, traj_second: Trajectory, align_shift: int = 0) -> dict:
    """Compare two loop traversals (typically opposite directions) in the record `_chirality.json` holds.

    The second trajectory's fraction series may be re-indexed by
    align_shift samples before the pointwise comparison (half the sample
    count realizes the half-period phase alignment between opposite
    traversals of the same loop). With align_shift 0 and identical inputs
    both differences are 0 and the two oscillations are equal.
    """
    if traj_first.fractions.shape != traj_second.fractions.shape:
        raise ConfigError("trajectories have mismatched sampling; re-run with equal sample counts")
    if traj_first.times.shape != traj_second.times.shape or not np.allclose(
            traj_first.times, traj_second.times):
        raise ConfigError("trajectories cover different time grids")
    f_1, f_2 = traj_first.fractions[:, 0], traj_second.fractions[:, 0]
    return {
        "final_fraction_difference": float(abs(f_1[-1] - f_2[-1])),
        "max_aligned_difference": float(np.max(np.abs(f_1 - np.roll(f_2, int(align_shift))))),
        "oscillation": {"first": _oscillation(traj_first), "second": _oscillation(traj_second)},
        "align_shift": int(align_shift),
        "slope_threshold": SLOPE_THRESHOLD,
    }
