"""Reduced two-mode non-Hermitian operator, its eigenvalue surfaces and EPs.

The mechanical and magnetic modes, dressed by the driven optical response
frozen at the magnon resonance, form an effective 2x2 complex
matrix. Exceptional points are parameter points where its two eigenvalues
and eigenvectors coalesce, i.e. zeros of the quadratic discriminant. The
search plane is (common drive strength p_in, TE pump detuning delta); both
drive strengths are tied to p_in and the TM detuning stays at its
configured value unless tie_tm_detuning is set.
"""

from __future__ import annotations

from dataclasses import dataclass
import logging

import numpy as np

from .errors import ConfigError, NumericsError
from .model import (SystemConfig, _abs, _checked_grid, _drives, _every, _finite, _mul, _pump_frame,
                    _reciprocal)
from .self_energy import _dressing, _mediated

log = logging.getLogger(__name__)

# coordinate scaling that conditions the Newton iteration: drive strengths
# move in 1e11 steps, detunings in 1e6 steps on the physically useful window
P_UNIT = 1e11
DELTA_UNIT = 1e6


@dataclass(frozen=True)
class EigenPair:
    lambda_plus: complex
    lambda_minus: complex
    v_plus: np.ndarray
    v_minus: np.ndarray


@dataclass(frozen=True)
class EpLocation:
    p_in: float
    delta: float
    residual: float
    lambda_value: complex
    gap: float

    def to_record(self):
        return {
            "p_in": self.p_in,
            "delta": self.delta,
            "residual": self.residual,
            "lambda_re": self.lambda_value.real,
            "lambda_im": self.lambda_value.imag,
            "gap": self.gap,
        }


def _operator(config, strength_tm, strength_te, det_tm, det_te):
    """Reduced matrix (..., 2, 2) over broadcast strengths and detunings, basis (phonon, magnon).

    Scalars give one matrix; each cell of a stack carries the bits of its own point evaluation.
    """
    # every dressing term is frozen at the magnon resonance
    g_a, g_b, inv, inv_ref = _pump_frame(config, strength_tm, strength_te, det_tm, det_te, config.magnon.omega)
    chi, chi_ref = _reciprocal(inv), _reciprocal(inv_ref)
    del inv, inv_ref  # a loop-transport batch holds 2^16 cells: drop each 1 MB inverse before the 2x2 stack
    args = (g_a, g_b, chi, chi_ref)
    h = np.empty(np.broadcast_shapes(np.shape(g_a), np.shape(g_b)) + (2, 2), dtype=complex)
    h[..., 0, 0] = config.phonon.omega - 0.5j * config.phonon.gamma + _dressing("rr", *args)
    # conj(g_a)*g_b*chi; eliminating the 6x6 system of spectrum gives g_a*conj(g_b)*chi
    # (sigma_rm) here instead, and the two differ unless g_a*conj(g_b) is real
    h[..., 0, 1] = _mediated(np.conj(g_a), g_b, chi)
    h[..., 1, 0] = _dressing("mr", *args)
    h[..., 1, 1] = config.magnon.omega - 0.5j * config.magnon.gamma + _dressing("mm", *args)
    return h


def _checked(h):
    if not _finite(h):
        raise NumericsError("effective 2x2 matrix evaluated non-finite")
    return h


def build_hamiltonian(config: SystemConfig) -> np.ndarray:
    """Assemble the reduced (2, 2) matrix, basis order (phonon, magnon).

    Diagonal: bare complex resonances plus the optical dressing of each
    mode; off-diagonal: the light-mediated couplings. All dressing terms
    are frozen at the magnon resonance.
    """
    return _checked(_operator(config, *_drives(config)))


def hamiltonian_on_plane(config_template: SystemConfig, p_in, delta,
                         tie_tm_detuning: bool = False) -> np.ndarray:
    """Reduced matrix on the (drive strength, TE detuning) plane, built without a config.

    p_in and delta broadcast; the result has their shape plus (2, 2), so scalars give one matrix.
    """
    if not (_finite(p_in) and _finite(delta) and _every(p_in >= 0)):
        raise ConfigError("plane points need finite drive strengths >= 0 and finite detunings")
    det_tm = delta if tie_tm_detuning else config_template.drive_tm.detuning
    return _checked(_operator(config_template, p_in, p_in, det_tm, delta))


def _entries(h):
    # a single matrix yields Python scalars (the point path), a stack yields arrays
    if h.ndim == 2:
        return h.ravel().tolist()
    return h[..., 0, 0], h[..., 0, 1], h[..., 1, 0], h[..., 1, 1]


def discriminant(h):
    """Quadratic discriminant of one 2x2 matrix (a complex) or of a stack; eigenvalues coalesce at its zeros."""
    h00, h01, h10, h11 = _entries(np.asarray(h, dtype=complex))
    d = _mul(h00 - h11, h00 - h11) + _mul(4 * h01, h10)
    return complex(d) if np.ndim(d) == 0 else d


def eigenvalues(h):
    """Closed-form (lambda_plus, lambda_minus) of one 2x2 matrix or a stack; plus takes the principal root."""
    h00, _, _, h11 = _entries(np.asarray(h, dtype=complex))
    tr = h00 + h11
    sq = np.sqrt(discriminant(h))
    return (tr + sq) / 2, (tr - sq) / 2


def _phase_fix(v):
    idx = int(np.argmax(np.abs(v)))
    mag = abs(v[idx])
    if mag == 0:
        return v
    return v * np.conj(v[idx]) / mag


def _eigvec(h, lam):
    # rows of (h - lam) give two null-vector candidates; take the better conditioned
    cand_a = np.array([h[0, 1], lam - h[0, 0]], dtype=complex)
    cand_b = np.array([lam - h[1, 1], h[1, 0]], dtype=complex)
    v = cand_a if np.linalg.norm(cand_a) >= np.linalg.norm(cand_b) else cand_b
    n = np.linalg.norm(v)
    if n == 0:  # exactly diagonal and degenerate: fall back to a coordinate axis
        v = np.array([1.0, 0.0], dtype=complex)
        n = 1.0
    return _phase_fix(v / n)


def eigenpairs(h) -> EigenPair:
    """Closed-form eigen-decomposition of the 2x2 matrix.

    lambda_plus carries the principal square root of the discriminant;
    continuity tracking along sweeps is the surface code's job, not this
    function's.
    """
    h = np.asarray(h, dtype=complex)
    if h.shape != (2, 2) or not np.all(np.isfinite(h)):
        raise NumericsError("eigenpairs expects a finite 2x2 matrix")
    lam_p, lam_m = eigenvalues(h)
    return EigenPair(lambda_plus=complex(lam_p), lambda_minus=complex(lam_m),
                     v_plus=_eigvec(h, lam_p), v_minus=_eigvec(h, lam_m))


def _pair_by_continuity(prev_pair, new_unordered):
    a, b = new_unordered
    p, q = prev_pair
    direct = abs(a - p) + abs(b - q)
    crossed = abs(b - p) + abs(a - q)
    return (a, b) if direct <= crossed else (b, a)


def _by_real_part(a, b):
    return (a, b) if a.real >= b.real else (b, a)


def _track(ref, plus, minus):
    """Match each (plus, minus) pair along a path to its predecessor, the first one to ref."""
    tracked = []
    for vals in zip(plus, minus):
        ref = _pair_by_continuity(ref, vals)
        tracked.append(ref)
    return tracked


@dataclass(frozen=True)
class SurfaceResult:
    p_grid: np.ndarray
    delta_grid: np.ndarray
    lambda1: np.ndarray
    lambda2: np.ndarray
    near_ep: np.ndarray


def riemann_surface(config_template: SystemConfig, p_grid, delta_grid,
                    near_ep_rel: float = 1e-3, tie_tm_detuning: bool = False) -> SurfaceResult:
    """Branch-tracked eigenvalue surfaces over the (p_in, delta) plane.

    Tracking runs row-major: each cell's pair is matched to the previous
    cell in the row (first column matches the row above) by minimizing the
    summed complex displacement. Cells whose eigenvalue gap falls under
    near_ep_rel times the mean eigenvalue magnitude are flagged; branch
    assignment is ambiguous there.
    """
    p_grid = _checked_grid("p_grid", p_grid, increasing=True)
    delta_grid = _checked_grid("delta_grid", delta_grid, increasing=True)
    h = hamiltonian_on_plane(config_template, p_grid[:, None], delta_grid[None, :], tie_tm_detuning)
    plus, minus = (lam.tolist() for lam in eigenvalues(h))
    ref = _by_real_part(plus[0][0], minus[0][0])
    rows = []
    for row_plus, row_minus in zip(plus, minus):
        rows.append(_track(ref, row_plus, row_minus))
        ref = rows[-1][0]
    tracked = np.array(rows, dtype=complex)
    lam1, lam2 = tracked[..., 0], tracked[..., 1]
    scale = np.maximum(_abs(lam1 + lam2) / 2, 1.0)
    near = _abs(lam1 - lam2) <= near_ep_rel * scale
    return SurfaceResult(p_grid=p_grid, delta_grid=delta_grid, lambda1=lam1, lambda2=lam2, near_ep=near)


def _disc_at(config_template, p, delta, tie):
    return discriminant(hamiltonian_on_plane(config_template, p, delta, tie))


def _newton_refine(config_template, seed, region, tie, gap_rtol, max_iter=60):
    (p_lo, p_hi), (d_lo, d_hi) = region
    # working domain: region grown by half a span per side, drive kept physical;
    # out-of-domain probes read as infinitely bad so backtracking retreats
    span_p, span_d = (p_hi - p_lo) / P_UNIT, (d_hi - d_lo) / DELTA_UNIT
    lo = np.array([max(p_lo / P_UNIT - 0.5 * span_p, 0.0), d_lo / DELTA_UNIT - 0.5 * span_d])
    hi = np.array([p_hi / P_UNIT + 0.5 * span_p, d_hi / DELTA_UNIT + 0.5 * span_d])

    def f(s):
        if np.any(s < lo) or np.any(s > hi):
            return np.array([np.inf, np.inf])
        d = _disc_at(config_template, s[0] * P_UNIT, s[1] * DELTA_UNIT, tie)
        return np.array([d.real, d.imag])

    s = np.array([seed[0] / P_UNIT, seed[1] / DELTA_UNIT])
    fs = f(s)
    for _ in range(max_iter):
        norm = np.linalg.norm(fs)
        jac = np.empty((2, 2))
        for k in range(2):
            step = 1e-6 * max(1.0, abs(s[k]))
            sp, sm = s.copy(), s.copy()
            sp[k] += step
            sm[k] -= step
            with np.errstate(invalid="ignore"):
                jac[:, k] = (f(sp) - f(sm)) / (2 * step)
        try:
            delta_s = np.linalg.solve(jac, -fs)
        except np.linalg.LinAlgError:
            log.info("EP Newton stall: singular Jacobian at p=%.6e delta=%.6e", s[0] * P_UNIT, s[1] * DELTA_UNIT)
            return None
        if not np.all(np.isfinite(delta_s)):
            log.info("EP Newton stall: step left the search domain at p=%.6e delta=%.6e", s[0] * P_UNIT, s[1] * DELTA_UNIT)
            return None
        scale = 1.0
        for _ in range(30):
            cand = s + scale * delta_s
            fc = f(cand)
            if np.linalg.norm(fc) < norm:
                s, fs = cand, fc
                break
            scale /= 2
        else:
            break  # no descent direction left; evaluate what we have
        h_here = hamiltonian_on_plane(config_template, s[0] * P_UNIT, s[1] * DELTA_UNIT, tie)
        tr_half = abs((h_here[0, 0] + h_here[1, 1]) / 2)
        if np.linalg.norm(fs) <= (1e-2 * gap_rtol * max(tr_half, 1.0)) ** 2:
            break
    p, d = s[0] * P_UNIT, s[1] * DELTA_UNIT
    pad_p = 1e-9 * (p_hi - p_lo)
    pad_d = 1e-9 * (d_hi - d_lo)
    if not (p_lo - pad_p <= p <= p_hi + pad_p and d_lo - pad_d <= d <= d_hi + pad_d):
        return None
    h_final = hamiltonian_on_plane(config_template, p, d, tie)
    pair = eigenpairs(h_final)
    lam_bar = (pair.lambda_plus + pair.lambda_minus) / 2
    gap = abs(pair.lambda_plus - pair.lambda_minus)
    if gap > gap_rtol * max(abs(lam_bar), 1.0):
        return None
    return EpLocation(p_in=float(p), delta=float(d), residual=abs(_disc_at(config_template, p, d, tie)),
                      lambda_value=complex(lam_bar), gap=float(gap))


def find_exceptional_points(config_template: SystemConfig, region, seeds_per_axis: int = 24,
                            gap_rtol: float = 1e-6, tie_tm_detuning: bool = False):
    """Locate discriminant zeros inside a rectangular (p_in, delta) region.

    Coarse |discriminant| grid supplies seeds at its local minima; each seed
    is refined by a damped Newton iteration on (Re D, Im D) with a central
    finite-difference Jacobian in scaled coordinates. Results are
    deduplicated and each must pass the eigenvalue-gap acceptance bound.
    An empty list means no seed converged, which is a valid outcome.
    """
    (p_lo, p_hi), (d_lo, d_hi) = region
    if not (p_hi > p_lo and d_hi > d_lo):
        raise ConfigError("EP search region must be a non-degenerate rectangle")
    if seeds_per_axis < 8:
        raise ConfigError("seeds_per_axis must be at least 8")
    ps = np.linspace(p_lo, p_hi, seeds_per_axis)
    ds = np.linspace(d_lo, d_hi, seeds_per_axis)
    grid = hamiltonian_on_plane(config_template, ps[:, None], ds[None, :], tie_tm_detuning)
    mag = _abs(discriminant(grid))
    seeds = []
    for i in range(seeds_per_axis):
        for j in range(seeds_per_axis):
            window = mag[max(0, i - 1):i + 2, max(0, j - 1):j + 2]
            if mag[i, j] <= window.min():
                seeds.append((mag[i, j], ps[i], ds[j]))
    seeds.sort(key=lambda t: t[0])
    found = []
    for _, p, d in seeds:
        loc = _newton_refine(config_template, (p, d), region, tie_tm_detuning, gap_rtol)
        if loc is None:
            continue
        if any(abs(loc.p_in - o.p_in) / P_UNIT < 1e-3 and abs(loc.delta - o.delta) / DELTA_UNIT < 1e-3
               for o in found):
            continue
        found.append(loc)
    found.sort(key=lambda l: (l.p_in, l.delta))
    return found


def monodromy_swapped(config_template: SystemConfig, center, radius_p, radius_delta,
                      samples: int = 256, tie_tm_detuning: bool = False) -> bool:
    """Continuity-track the eigenvalue pair once around a closed parameter loop.

    Returns True when one circuit exchanges the two branches (square-root
    branch-point behavior), False when each returns to itself.
    """
    if samples < 16:
        raise ConfigError("monodromy loop needs at least 16 samples")
    thetas = np.linspace(0.0, 2 * np.pi, samples, endpoint=True)
    p_c, d_c = center
    h = hamiltonian_on_plane(config_template, p_c + radius_p * np.cos(thetas),
                             d_c + radius_delta * np.sin(thetas), tie_tm_detuning)
    plus, minus = (lam.tolist() for lam in eigenvalues(h))
    start = _by_real_part(plus[0], minus[0])
    current = _track(start, plus, minus)[-1]
    # after a closed loop the pair either returns or exchanges: matching it to the start swaps it
    return _pair_by_continuity(start, current) != current
