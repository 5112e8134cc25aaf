"""Reduced two-mode non-Hermitian operator, its eigenvalue surfaces and EPs.

The mechanical and magnetic modes, dressed by the driven optical response
frozen at the magnon resonance, form an effective 2x2 complex matrix. Inside
the package it travels as its four entries (h00, h01, h10, h11), Python
complexes at a point and arrays on a grid; only the public hamiltonian_on_plane
and build_hamiltonian pack them into (..., 2, 2) arrays. Exceptional points are
parameter points where its two eigenvalues and eigenvectors coalesce, i.e.
zeros of the quadratic discriminant. The search plane is (common drive strength
p_in, TE pump detuning delta); both drive strengths are tied to p_in and the TM
detuning stays at its configured value unless tie_tm_detuning is set. On that
plane the discriminant is a quadratic in p_in**2 whose coefficients depend on
delta alone, so the EP search is a one-dimensional bisection in delta.
"""

from __future__ import annotations

from dataclasses import dataclass
import math

import numpy as np

from .errors import ConfigError, NumericsError
from .model import (SystemConfig, _abs, _checked_grid, _count, _drives, _every, _finite, _frequency, _mul, _number,
                    _pump_frame, _quiet, _reciprocal, _require_finite)
from .self_energy import _dressing, _mediated

GAP_RTOL = 1e-6  # eigenvalue gap, relative to max(|mean eigenvalue|, 1), at or below which a pair is degenerate
NEAR_EP_REL = 1e-3  # relative gap at or below which a surface cell is flagged near an EP
MONODROMY_SAMPLES = 256  # loop points at which monodromy_swapped tracks the eigenvalue pair


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


def _operator(config, strength_tm, strength_te, det_tm, det_te, **where):
    """Entries (h00, h01, h10, h11) of the reduced matrix, basis (phonon, magnon), over broadcast drive axes.

    Python complexes at a point; arrays on a grid, each cell with the bits of its point. NumericsError if an entry
    is not finite, naming on a grid the first such cell by the arrays in where.
    """
    # every dressing term is frozen at the magnon resonance
    g_a, g_b, inv, inv_ref = _pump_frame(config, strength_tm, strength_te, det_tm, det_te, config.magnon.omega)
    chi = _reciprocal(inv)
    args = (g_a, g_b, chi, _reciprocal(inv_ref))
    del inv, inv_ref  # 1 MB each on a 2^16-cell loop block: freed early, they lower its peak RSS by about 5%
    with _quiet(g_a, g_b, chi):  # an overflowing cell is reported below
        entries = (config.phonon.omega - 0.5j * config.phonon.gamma + _dressing("rr", *args),
                   # conj(g_a)*g_b*chi; eliminating the 6x6 system of spectrum gives g_a*conj(g_b)*chi
                   # (sigma_rm) here instead, and the two differ unless g_a*conj(g_b) is real
                   _mediated(g_a.conjugate(), g_b, chi), _dressing("mr", *args),
                   config.magnon.omega - 0.5j * config.magnon.gamma + _dressing("mm", *args))
    _require_finite("effective 2x2 matrix evaluated non-finite", entries, where)
    return entries


def _pack(h00, h01, h10, h11):
    """The entries as one C-contiguous complex array of their shape plus (2, 2): the public operator layout."""
    if not isinstance(h00, np.ndarray):
        return np.array(((h00, h01), (h10, h11)), dtype=complex)
    return np.stack((h00, h01, h10, h11), axis=-1).reshape(h00.shape + (2, 2))


def build_hamiltonian(config: SystemConfig) -> np.ndarray:
    """Assemble the reduced (2, 2) matrix, basis order (phonon, magnon).

    Diagonal: bare complex resonances plus the optical dressing of each
    mode; off-diagonal: the light-mediated couplings. All dressing terms
    are frozen at the magnon resonance.
    """
    return _pack(*_operator(config, *_drives(config)))


def _plane(config, p_in, delta, tie):
    """_operator's entries at broadcast plane points: p_in and delta as Python floats, or with axes float arrays."""
    p_in, delta = _frequency(p_in, grid=True, key="p_in"), _frequency(delta, grid=True, key="delta")
    if not _every(p_in >= 0):
        raise ConfigError("plane points need drive strengths p_in >= 0")
    return _operator(config, p_in, p_in, delta if tie else config.drive_tm.detuning, delta, p_in=p_in, delta=delta)


def hamiltonian_on_plane(config_template: SystemConfig, p_in, delta,
                         tie_tm_detuning: bool = False) -> np.ndarray:
    """Reduced matrix on the (drive strength, TE detuning) plane, built without a config.

    p_in and delta broadcast (floats, lists or arrays); the result is a C-contiguous array of their shape plus
    (2, 2), so scalars give one matrix. The package's own grids take the four entries from _plane unpacked.
    """
    return _pack(*_plane(config_template, p_in, delta, tie_tm_detuning))


def _entries(h):
    """The four entries of a caller-given matrix: Python complexes for one matrix, arrays for a stack.

    NumericsError unless the last two axes are 2x2, so a (2, 2, 3) array is not read along the wrong axes.
    """
    if h.ndim < 2 or h.shape[-2:] != (2, 2):
        raise NumericsError(f"expected a 2x2 matrix or a stack of them, got shape {h.shape}")
    if h.ndim == 2:
        return h.ravel().tolist()
    return h[..., 0, 0], h[..., 0, 1], h[..., 1, 0], h[..., 1, 1]


def _discriminant(h00, h01, h10, h11):
    return _mul(h00 - h11, h00 - h11) + _mul(4 * h01, h10)


def _roots(h00, h01, h10, h11, **where):
    """(lambda_plus, lambda_minus) of the entries, plus by the principal root: Python complexes or arrays.

    A non-finite eigenvalue, which finite entries give where the discriminant overflows, raises as _require_finite says.
    """
    with _quiet(h00, h01):  # an overflowing cell is reported below
        tr, d = h00 + h11, _discriminant(h00, h01, h10, h11)
        sq = np.sqrt(d) if isinstance(d, np.ndarray) else complex(np.sqrt(d))  # one rounding for both routes
        plus, minus = (tr + sq) / 2, (tr - sq) / 2
    _require_finite("2x2 eigenvalues evaluated non-finite", (plus, minus), where,
           ": the discriminant overflows or an entry is not finite")
    return plus, minus


def _degenerate(plus, minus, rtol):
    """Whether |plus - minus| <= rtol * max(|plus + minus| / 2, 1): the pair coalesces, at a point or per cell."""
    return _abs(plus - minus) <= rtol * np.maximum(_abs(plus + minus) / 2, 1.0)


def discriminant(h):
    """Quadratic discriminant of one 2x2 matrix (a complex) or of a stack; eigenvalues coalesce at its zeros."""
    return _discriminant(*_entries(np.asarray(h, dtype=complex)))


def eigenvalues(h):
    """Closed-form (lambda_plus, lambda_minus) of one 2x2 matrix, as Python complexes, or of a stack.

    plus takes the principal root. NumericsError if an eigenvalue is not finite.
    """
    return _roots(*_entries(np.asarray(h, dtype=complex)))


def _eigvec(h00, h01, h10, h11, lam):
    """Unit null vector of h - lam in Python scalars, its larger-modulus component real and positive."""
    # rows of (h - lam) give two null-vector candidates; take the better conditioned
    cand_a, cand_b = (h01, lam - h00), (lam - h11, h10)
    norm_a, norm_b = (math.hypot(x.real, x.imag, y.real, y.imag) for x, y in (cand_a, cand_b))
    (x, y), n = (cand_a, norm_a) if norm_a >= norm_b else (cand_b, norm_b)
    if n == 0:  # exactly diagonal and degenerate: fall back to a coordinate axis
        x, y, n = 1.0, 0.0, 1.0
    x, y = x / n, y / n
    ref = x if abs(x) >= abs(y) else y
    mag = abs(ref)
    return np.array([x * ref.conjugate() / mag, y * ref.conjugate() / mag], dtype=complex)


def eigenpairs(h) -> EigenPair:
    """Closed-form eigen-decomposition of the 2x2 matrix, in Python scalars but for numpy's square root.

    lambda_plus carries the principal square root of the discriminant, with
    the bits that eigenvalues gives the same matrix in a stack; continuity
    tracking along sweeps is the surface code's job, not this function's.
    NumericsError if the matrix or an eigenvalue is not finite.
    """
    h = np.asarray(h, dtype=complex)
    entries = _entries(h)
    if h.shape != (2, 2) or not all(map(_finite, entries)):
        raise NumericsError("eigenpairs expects a finite 2x2 matrix")
    lam_p, lam_m = _roots(*entries)
    return EigenPair(lambda_plus=lam_p, lambda_minus=lam_m,
                     v_plus=_eigvec(*entries, lam_p), v_minus=_eigvec(*entries, lam_m))


def _track(plus, minus, ref=None):
    """Branches (first, second) of the eigenvalue pairs (plus, minus) stepped along axis 0, vectorized over the rest.

    Each step takes the pairing whose summed complex displacement from the step before is smaller,
    the direct one on a tie. Step 0 is matched to the pair ref, or without one puts the larger real
    part first.
    """
    first, second = np.empty_like(plus), np.empty_like(minus)
    for k, (a, b) in enumerate(zip(plus, minus)):
        if ref is None:
            swap = a.real < b.real
        else:
            swap = _abs(a - ref[0]) + _abs(b - ref[1]) > _abs(b - ref[0]) + _abs(a - ref[1])
        ref = np.where(swap, b, a), np.where(swap, a, b)
        first[k], second[k] = ref
    return first, second


@dataclass(frozen=True)
class SurfaceResult:
    p_grid: np.ndarray
    delta_grid: np.ndarray
    lambda1: np.ndarray
    lambda2: np.ndarray
    near_ep: np.ndarray


def riemann_surface(config_template: SystemConfig, p_grid, delta_grid,
                    tie_tm_detuning: bool = False) -> SurfaceResult:
    """Branch-tracked eigenvalue surfaces over the (p_in, delta) plane.

    Each cell's pair is matched to the previous cell in its row, and the
    first column to the row above, by minimizing the summed complex
    displacement: the first column is tracked down the rows, then every row
    along delta at once. Cells whose eigenvalue gap falls under NEAR_EP_REL
    times the mean eigenvalue magnitude are flagged; branch assignment is
    ambiguous there.
    """
    p_grid = _checked_grid("p_grid", p_grid, increasing=True)
    delta_grid = _checked_grid("delta_grid", delta_grid, increasing=True)
    p_in, delta = p_grid[:, None], delta_grid[None, :]
    plus, minus = _roots(*_plane(config_template, p_in, delta, tie_tm_detuning), p_in=p_in, delta=delta)
    column = _track(plus[:, 0], minus[:, 0])
    lam1, lam2 = (lam.T for lam in _track(plus.T, minus.T, column))
    return SurfaceResult(p_grid=p_grid, delta_grid=delta_grid, lambda1=lam1, lambda2=lam2,
                         near_ep=_degenerate(lam1, lam2, NEAR_EP_REL))


def _bisect(f, lo, hi, f_lo):
    """Narrow a sign change of f on [lo, hi] until no float lies strictly between the ends."""
    mid = (lo + hi) / 2
    while lo < mid < hi:
        f_mid = f(mid)
        if f_mid == 0:
            return mid
        if (f_mid < 0) == (f_lo < 0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
        mid = (lo + hi) / 2
    return mid


def find_exceptional_points(config_template: SystemConfig, region, seeds_per_axis: int = 24,
                            tie_tm_detuning: bool = False):
    """Locate discriminant zeros inside a rectangular (p_in, delta) region.

    On the plane each pump-induced entry of the reduced matrix is p_in**2 times a function of
    delta, so in s = p_in**2 the discriminant is the quadratic (d0 + s*d1)**2 + 4*s**2*m01*m10,
    with d0 = h00 - h11 undriven, m = (h(p_hi) - h(0)) / p_hi**2 and d1 = m00 - m11. An EP is a
    delta where one root s is real, so that F = Im s+ * Im s- changes sign. F is sampled at
    seeds_per_axis detunings, each sign change is bisected to float adjacency, and p_in = sqrt(Re s).
    Each EP must lie in the region and have an eigenvalue gap of at most GAP_RTOL relative to
    max(|mean eigenvalue|, 1). An empty list is a valid outcome. A region that is not a pair of bound
    pairs, or a bound that is not a finite number, raises ConfigError.
    """
    try:
        (p_lo, p_hi), (d_lo, d_hi) = region
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"malformed region {region!r}") from exc
    p_lo, p_hi, d_lo, d_hi = (_number("region", bound) for bound in (p_lo, p_hi, d_lo, d_hi))
    if not (0 <= p_lo < p_hi and d_lo < d_hi):
        raise ConfigError("EP search region must be a non-degenerate rectangle at drive strengths >= 0")
    seeds_per_axis = _count("seeds_per_axis", seeds_per_axis, 8)
    s_hi = p_hi * p_hi  # a Python float ** 2 would raise OverflowError where this gives inf
    if not math.isfinite(s_hi):
        raise NumericsError(f"EP search region reaches p_in = {p_hi!r}, whose square overflows")
    # undriven, so diagonal at every delta; numpy scalars make a pole of s inf at a point, not a ZeroDivisionError
    bare = tuple(map(np.complex128, _plane(config_template, 0.0, d_lo, tie_tm_detuning)))
    d0 = bare[0] - bare[3]
    if d0 == 0:
        return []  # D = s**2 * (...) vanishes only at p_in = 0, where the matrix is diagonal

    @np.errstate(all="ignore")  # a pole of s (d1**2 + 4*m01*m10 = 0) gives non-finite roots, dropped below
    def on_line(delta):
        # F from the roots' sum and product, so no square-root branch cut enters; sqrt(Re s) of the root nearer real
        m00, m01, m10, m11 = ((h - b) / s_hi for h, b in zip(_plane(config_template, p_hi, delta, tie_tm_detuning),
                                                             bare))
        d1 = m00 - m11
        a = d1 * d1 + 4 * m01 * m10
        total, product = -2 * d0 * d1 / a, d0 * d0 / a
        disc = total * total - 4 * product
        f = ((abs(total) ** 2 - abs(disc)) / 4 - product.real) / 2
        plus, minus = total + np.sqrt(disc), total - np.sqrt(disc)
        return f, np.sqrt(np.where(abs(plus.imag) <= abs(minus.imag), plus, minus).real / 2)

    ds = np.linspace(d_lo, d_hi, seeds_per_axis).tolist()
    fs = on_line(np.array(ds))[0].tolist()
    zeros = [d for d, f in zip(ds, fs) if f == 0]
    zeros += [_bisect(lambda d: on_line(d)[0], lo, hi, f_lo)
              for lo, hi, f_lo, f_hi in zip(ds, ds[1:], fs, fs[1:]) if f_lo < 0 < f_hi or f_hi < 0 < f_lo]
    pad_p, pad_d = 1e-9 * (p_hi - p_lo), 1e-9 * (d_hi - d_lo)
    found = []
    for d in zeros:
        p = float(on_line(d)[1])
        if not (p_lo - pad_p <= p <= p_hi + pad_p and d_lo - pad_d <= d <= d_hi + pad_d):
            continue
        entries = _plane(config_template, p, d, tie_tm_detuning)
        plus, minus = _roots(*entries)
        if not _degenerate(plus, minus, GAP_RTOL):
            continue
        found.append(EpLocation(p_in=p, delta=float(d), residual=abs(_discriminant(*entries)),
                                lambda_value=(plus + minus) / 2, gap=abs(plus - minus)))
    found.sort(key=lambda l: (l.p_in, l.delta))
    return found


def _loop_axes(owner, center, radius):
    """center and radius as pairs of Python floats, each number checked under its loop run key.

    Anything but two pairs of finite numbers with semi-axes >= 0 raises ConfigError naming owner;
    a semi-axis may be 0, and radius (0, 0) is a constant-parameter loop.
    """
    pairs = []
    for name, pair in (("center", center), ("radius", radius)):
        keys = (f"loop.{name}_p", f"loop.{name}_delta")
        if np.asarray(pair, dtype=object).shape != (2,):  # as objects, a ragged pair has a shape too
            raise ConfigError(f"{owner}.{name} must be a (p_in, delta) pair, got {pair!r}")
        pairs.append(tuple(map(_number, keys, pair)))
    for key, semi_axis in zip(keys, pairs[1]):  # the radius's keys, from the last pass
        if semi_axis < 0:
            raise ConfigError(f"{owner} semi-axis {key!r} must be >= 0, got {semi_axis!r}")
    return pairs


def _ellipse(center, radius, theta):
    """Point (p_in, delta) at angle theta on the loop with this center and (p_in, delta) semi-axes."""
    (p_c, d_c), (r_p, r_d) = center, radius
    return p_c + r_p * np.cos(theta), d_c + r_d * np.sin(theta)


def monodromy_swapped(config_template: SystemConfig, center, radius, tie_tm_detuning: bool = False) -> bool:
    """Continuity-track the eigenvalue pair once around the loop (center, radius) at MONODROMY_SAMPLES points.

    radius is the (p_in, delta) pair of semi-axes, checked as encircle.LoopSpec checks it. Returns
    True when one circuit exchanges the two branches (square-root branch-point behavior), False when
    each returns to itself.
    """
    center, radius = _loop_axes("monodromy_swapped", center, radius)
    thetas = np.linspace(0.0, 2 * np.pi, MONODROMY_SAMPLES)
    p_in, delta = _ellipse(center, radius, thetas)
    plus, minus = _roots(*_plane(config_template, p_in, delta, tie_tm_detuning), p_in=p_in, delta=delta)
    # one step more, back to the start pair: after an exchanging circuit it arrives swapped
    first, _ = _track(np.append(plus, plus[0]), np.append(minus, minus[0]))
    return bool(first[-1] != first[0])
