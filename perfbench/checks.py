"""Output checks for the benchmark's operations.

No check compares against a stored copy of earlier output. Each one either
recomputes a value by a route written here, apart from the program (closed
forms, exact 2x2 exponentials, numpy.linalg), compares two routes the program
offers, or tests a property the method must have. A check raises CheckFailed
with the offending values; the caller counts the operation as failed.
"""

from __future__ import annotations

import json
import math
import zlib
from dataclasses import dataclass

import numpy as np


class CheckFailed(Exception):
    pass


def require(ok, message):
    if not ok:
        raise CheckFailed(message)


def sample_indices(seed, label, n, k):
    """k distinct row indices of n, fixed by the run seed and the artifact label."""
    rng = np.random.default_rng([seed, zlib.crc32(label.encode())])
    return np.sort(rng.choice(n, size=min(k, n), replace=False))


# --- artifact readers ---------------------------------------------------------

@dataclass
class CsvTable:
    meta: dict
    columns: list
    data: np.ndarray


def read_csv(path) -> CsvTable:
    meta, body = {}, []
    with open(path) as fh:
        for line in fh:
            if line.startswith("# "):
                key, _, value = line[2:].rstrip("\n").partition(": ")
                meta[key] = value
            else:
                body.append(line)
    columns = body[0].strip().split(",")
    text = "".join(body[1:]).strip()
    values = np.array(text.replace("\n", ",").split(","), dtype=float) if text else np.zeros(0)
    return CsvTable(meta, columns, values.reshape(-1, len(columns)))


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def json_table(command, data):
    """The JSON artifact's data section laid out as the CSV data rows."""
    if command == "spectrum":
        omega = np.asarray(data["omega"], dtype=float)
        detuning = np.asarray(data["detuning"], dtype=float)
        psd = np.asarray(data["psd"], dtype=float)
        return np.column_stack([np.tile(omega, detuning.size), np.repeat(detuning, omega.size),
                                psd.ravel()])
    return np.asarray(data["rows"], dtype=float).reshape(len(data["rows"]), -1)


def check_csv_json_agree(command, table: CsvTable, js):
    other = json_table(command, js["data"])
    require(other.shape == table.data.shape,
            f"CSV has shape {table.data.shape}, JSON {other.shape}")
    bad = np.argwhere(~(other == table.data))
    require(bad.size == 0, f"CSV and JSON differ at (row, column) {bad[:3].tolist()}: "
                           f"{[(table.data[i, j], other[i, j]) for i, j in bad[:3]]}")


# --- closed forms written independently of the program --------------------------

def pump_coupling(strength, gamma, gamma_ext, detuning):
    # steady pump amplitude times the bundled coupling: s*sqrt(2 gamma_ext)/(gamma - i detuning)
    return strength * np.sqrt(2 * gamma_ext) / (gamma - 1j * np.asarray(detuning, dtype=float))


def couplings_closed_form(cfg: dict, d_tm=None, d_te=None):
    modes, drives = cfg["modes"], cfg["drives"]
    d_tm = drives["tm"]["detuning"] if d_tm is None else d_tm
    d_te = drives["te"]["detuning"] if d_te is None else d_te
    g_a = pump_coupling(drives["tm"]["effective_strength"], modes["tm_photon"]["gamma"],
                        modes["tm_photon"]["gamma_ext"], d_tm)
    g_b = pump_coupling(drives["te"]["effective_strength"], modes["te_photon"]["gamma"],
                        modes["te_photon"]["gamma_ext"], d_te)
    return g_a, g_b


def sigma_closed_form(which, cfg: dict, d_tm=None, d_te=None, omega=None):
    """Optical self-energy component from its closed form, vectorized over detunings."""
    modes = cfg["modes"]
    d_te_arr = np.asarray(cfg["drives"]["te"]["detuning"] if d_te is None else d_te, dtype=float)
    g_a, g_b = couplings_closed_form(cfg, d_tm, d_te)
    if omega is None:
        omega = modes["phonon"]["omega"] if which == "rr" else modes["magnon"]["omega"]
    kappa = modes["te_photon"]["gamma"]

    def chi(w):
        return 1.0 / (kappa / 2 - 1j * (w + d_te_arr))

    if which == "rr":
        return -1j * np.abs(g_b) ** 2 * (chi(omega) - np.conj(chi(-omega)))
    if which == "mm":
        square = g_a**2 if cfg.get("conjugation_convention", "complex_squared") == "complex_squared" \
            else np.abs(g_a) ** 2
        return -1j * square * chi(omega)
    if which == "mr":
        return -1j * g_a * g_b * chi(omega)
    if which == "rm":
        return -1j * g_a * np.conj(g_b) * chi(omega)
    raise ValueError(f"unknown self-energy component {which!r}")


# --- self-energy artifacts ------------------------------------------------------

def check_sigma_rows(which, cfg: dict, table: CsvTable, rows, eval_omega=None):
    d = table.data
    got = d[rows, 2] + 1j * d[rows, 3]
    want = sigma_closed_form(which, cfg, d[rows, 0], d[rows, 1], eval_omega)
    scale = max(float(np.max(np.hypot(d[:, 2], d[:, 3]))), 1e-300)
    err = np.abs(got - want)
    k = int(np.argmax(err))
    require(err[k] <= 1e-9 * scale,
            f"sigma_{which} row {int(rows[k])}: artifact {got[k]!r}, closed form {complex(want[k])!r}")


def check_rr_antisymmetric(table: CsvTable):
    d = table.data
    detunings = d[:, :2]
    scale_d = float(np.max(np.abs(detunings)))
    require(np.max(np.abs(detunings + detunings[::-1])) <= 1e-9 * scale_d,
            "the sigma_rr grid is not symmetric about zero detuning")
    sigma = d[:, 2] + 1j * d[:, 3]
    scale = float(np.max(np.abs(sigma)))
    worst = np.abs(sigma + sigma[::-1])
    k = int(np.argmax(worst))
    require(worst[k] <= 1e-9 * scale,
            f"sigma_rr not antisymmetric: rows {k} and {len(sigma) - 1 - k} give "
            f"{sigma[k]!r} and {sigma[-1 - k]!r}")


def check_mr_rm_moduli(mr: CsvTable, rm: CsvTable):
    require(mr.data.shape == rm.data.shape and np.array_equal(mr.data[:, :2], rm.data[:, :2]),
            "sigma_mr and sigma_rm artifacts cover different detuning grids")
    a = np.hypot(mr.data[:, 2], mr.data[:, 3])
    b = np.hypot(rm.data[:, 2], rm.data[:, 3])
    rel = np.abs(a - b) / np.maximum(np.maximum(a, b), 1e-300)
    k = int(np.argmax(rel))
    require(rel[k] <= 1e-12, f"row {k}: |sigma_mr| = {a[k]!r} but |sigma_rm| = {b[k]!r}")


# --- spectrum artifacts -----------------------------------------------------------

def check_psd_values(table: CsvTable):
    psd = table.data[:, 2]
    bad = np.flatnonzero(~np.isfinite(psd) | (psd < 0))
    require(bad.size == 0, f"PSD cells not finite or negative at rows {bad[:5].tolist()}: "
                           f"{psd[bad[:5]].tolist()}")


def check_psd_cells(table: CsvTable, rows, cell_psd):
    """cell_psd(omega, detuning) gives the PSD from the program's closed-form route."""
    for r in rows:
        omega, detuning, got = table.data[r]
        want = cell_psd(omega, detuning)
        require(abs(got - want) <= 1e-7 * abs(want) + 1e-300,
                f"PSD row {int(r)} (omega {omega!r}, detuning {detuning!r}): "
                f"direct solve {got!r}, closed form {want!r}")


# --- surface artifacts ------------------------------------------------------------

def check_surface_cells(table: CsvTable, rows, hamiltonian):
    """Eigenvalue pairs obey trace and determinant identities of H = hamiltonian(p, delta)."""
    ref = float(table.meta["reference_frequency"])
    for r in rows:
        p, delta, re1, im1, re2, im2 = table.data[r, :6]
        lam1 = complex(re1 + ref, im1)
        lam2 = complex(re2 + ref, im2)
        h = np.asarray(hamiltonian(p, delta), dtype=complex)
        tr = h[0, 0] + h[1, 1]
        det = h[0, 0] * h[1, 1] - h[0, 1] * h[1, 0]
        require(abs(lam1 + lam2 - tr) <= 1e-9 * abs(tr),
                f"surface cell {int(r)}: lambda1+lambda2 = {lam1 + lam2!r}, tr H = {tr!r}")
        require(abs(lam1 * lam2 - det) <= 1e-9 * abs(lam1) * abs(lam2),
                f"surface cell {int(r)}: lambda1*lambda2 = {lam1 * lam2!r}, det H = {det!r}")


def check_ep_records(records, region, gap_rtol, hamiltonian):
    (p_lo, p_hi), (d_lo, d_hi) = region
    pad_p, pad_d = 1e-9 * (p_hi - p_lo), 1e-9 * (d_hi - d_lo)
    for k, rec in enumerate(records):
        p, d = rec["p_in"], rec["delta"]
        require(p_lo - pad_p <= p <= p_hi + pad_p and d_lo - pad_d <= d <= d_hi + pad_d,
                f"EP {k} at ({p!r}, {d!r}) lies outside the search region {region}")
        lam = np.linalg.eigvals(np.asarray(hamiltonian(p, d), dtype=complex))
        mean = lam.mean()
        gap = abs(lam[0] - lam[1])
        require(gap <= gap_rtol * max(abs(mean), 1.0),
                f"EP {k} at ({p!r}, {d!r}): numpy eigenvalue gap {gap:.6e} exceeds "
                f"{gap_rtol:g} x |lambda| = {gap_rtol * abs(mean):.6e}")


# --- loop transport ---------------------------------------------------------------

@dataclass
class Loop:
    center_p: float
    center_delta: float
    radius: float
    unit_p: float
    unit_delta: float
    orientation: float
    period: float
    start_phase: float
    samples: int

    @classmethod
    def from_run(cls, loop: dict, reverse=False):
        direction = str(loop.get("direction", "ccw"))
        if reverse:
            direction = "cw" if direction == "ccw" else "ccw"
        return cls(float(loop["center_p"]), float(loop["center_delta"]),
                   float(loop.get("radius_units", 1.0)), float(loop.get("unit_p", 1e11)),
                   float(loop.get("unit_delta", 1e6)), 1.0 if direction == "ccw" else -1.0,
                   float(loop.get("period", 10e-3)), float(loop.get("start_phase", 0.0)),
                   int(loop.get("samples", 512)))

    def point(self, theta):
        return (self.center_p + self.radius * self.unit_p * np.cos(theta),
                self.center_delta + self.radius * self.unit_delta * np.sin(theta))

    def theta(self, t):
        return self.start_phase + self.orientation * 2 * np.pi * np.asarray(t) / self.period


@dataclass
class LoopOperator:
    """The program's reduced operator around a loop, as a trigonometric interpolant.

    H is an analytic periodic function of the loop angle, so its Fourier
    series from equally spaced samples converges to machine precision; the
    interpolant is verified against fresh program evaluations off the
    sampling grid before use.
    """

    ks: np.ndarray
    coeffs: np.ndarray  # (len(ks), 2, 2)

    @classmethod
    def sample(cls, loop: Loop, hamiltonian, n=256, verify_at=8, seed=0):
        thetas = 2 * np.pi * np.arange(n) / n
        values = np.array([hamiltonian(*loop.point(th)) for th in thetas], dtype=complex)
        coeffs = np.fft.fft(values, axis=0) / n
        ks = np.fft.fftfreq(n, 1.0 / n).astype(int)
        mag = np.abs(coeffs).max(axis=(1, 2))
        keep = mag > 1e-17 * mag.max()
        require(not keep[n // 2], "operator Fourier series not resolved by the sampling grid")
        op = cls(ks[keep], coeffs[keep])
        off_grid = np.random.default_rng(seed).uniform(0, 2 * np.pi, verify_at)
        direct = np.array([hamiltonian(*loop.point(th)) for th in off_grid], dtype=complex)
        scale = np.abs(values).max()
        err = np.abs(op.at(off_grid) - direct).max()
        require(err <= 1e-12 * scale, f"operator interpolant off by {err:.3e} (scale {scale:.3e})")
        return op

    def at(self, theta):
        theta = np.asarray(theta, dtype=float)
        out = np.zeros(theta.shape + (2, 2), dtype=complex)
        for k, c in zip(self.ks, self.coeffs):
            out += np.exp(1j * k * theta)[..., None, None] * c
        return out


def start_basis(h0):
    """Unit eigenvectors of the start operator, larger-real-part branch first."""
    lam, vec = np.linalg.eig(h0)
    order = np.argsort(-lam.real)
    return vec[:, order[0]], vec[:, order[1]]


def exact_transport(loop: Loop, op: LoopOperator, substeps=64):
    """Fractions and log-norm at the sample times from exact 2x2 exponentials.

    Fourth-order Magnus steps with two Gauss points; each step's exponential
    is exact: the trace part is a scalar factor (its real part is the
    log-norm increment), the traceless part exponentiates as
    cosh(s) I + sinh(s)/s * Omega0 with s^2 = -det(Omega0).
    """
    n_steps = (loop.samples - 1) * substeps
    h = loop.period / n_steps
    t0 = np.arange(n_steps) * h
    c1, c2 = 0.5 - math.sqrt(3) / 6, 0.5 + math.sqrt(3) / 6
    a1 = -1j * op.at(loop.theta(t0 + c1 * h))
    a2 = -1j * op.at(loop.theta(t0 + c2 * h))
    omega = h / 2 * (a1 + a2) + math.sqrt(3) / 12 * h**2 * (a2 @ a1 - a1 @ a2)
    tau = (omega[:, 0, 0] + omega[:, 1, 1]) / 2
    w0 = omega - tau[:, None, None] * np.eye(2)
    s = np.sqrt(w0[:, 0, 0] ** 2 + w0[:, 0, 1] * w0[:, 1, 0])
    small = np.abs(s) < 1e-8
    sinhc = np.where(small, 1 + s**2 / 6, np.sinh(s) / np.where(small, 1, s))
    step = np.cosh(s)[:, None, None] * np.eye(2) + sinhc[:, None, None] * w0
    m00, m01, m10, m11 = (step[:, 0, 0].tolist(), step[:, 0, 1].tolist(),
                          step[:, 1, 0].tolist(), step[:, 1, 1].tolist())
    growth = tau.real.tolist()

    v_a, v_b = start_basis(op.at(loop.theta(0.0)))
    x, y = complex(v_a[0]), complex(v_a[1])
    norm0 = math.sqrt(abs(x) ** 2 + abs(y) ** 2)
    x, y = x / norm0, y / norm0
    log_norm = 0.0
    states, logs = [(x, y)], [0.0]
    for n in range(n_steps):
        x, y = m00[n] * x + m01[n] * y, m10[n] * x + m11[n] * y
        norm = math.sqrt(abs(x) ** 2 + abs(y) ** 2)
        x, y = x / norm, y / norm
        log_norm += growth[n] + math.log(norm)
        if (n + 1) % substeps == 0:
            states.append((x, y))
            logs.append(log_norm)
    coeffs = np.linalg.solve(np.column_stack([v_a, v_b]), np.array(states, dtype=complex).T).T
    power = np.abs(coeffs) ** 2
    return power[:, 0] / power.sum(axis=1), np.array(logs)


def growth_bounds(loop: Loop, op: LoopOperator, substeps=64):
    """Per sample interval, the integrals of the extreme eigenvalues of (H - H^dagger)/2i."""
    n_steps = (loop.samples - 1) * substeps
    t = np.arange(n_steps + 1) * (loop.period / n_steps)
    h = op.at(loop.theta(t))
    d = (h - np.conj(np.swapaxes(h, 1, 2))) / 2j
    mid = (d[:, 0, 0].real + d[:, 1, 1].real) / 2
    radius = np.sqrt(((d[:, 0, 0].real - d[:, 1, 1].real) / 2) ** 2 + np.abs(d[:, 0, 1]) ** 2)
    dt = loop.period / n_steps

    def per_interval(mu):
        cum = np.concatenate([[0.0], np.cumsum((mu[1:] + mu[:-1]) / 2 * dt)])
        marks = cum[::substeps]
        return np.diff(marks)

    return per_interval(mid - radius), per_interval(mid + radius)


def _trajectory_columns(table: CsvTable):
    cols = {name: k for k, name in enumerate(table.columns)}
    d = table.data
    return {name: d[:, k] for name, k in cols.items()}


def check_on_ellipse(table: CsvTable, loop: Loop):
    c = _trajectory_columns(table)
    require(len(c["p_in"]) == loop.samples, f"{len(c['p_in'])} trajectory rows, expected {loop.samples}")
    p, delta = c["p_in"], c["delta"]
    ellipse = (((p - loop.center_p) / (loop.radius * loop.unit_p)) ** 2
               + ((delta - loop.center_delta) / (loop.radius * loop.unit_delta)) ** 2)
    k = int(np.argmax(np.abs(ellipse - 1)))
    require(abs(ellipse[k] - 1) <= 1e-9, f"row {k} ({p[k]!r}, {delta[k]!r}) is off the loop ellipse")


def check_fraction_sum(table: CsvTable):
    c = _trajectory_columns(table)
    total = c["f_a"] + c["f_b"]
    k = int(np.argmax(np.abs(total - 1)))
    require(abs(total[k] - 1) <= 1e-12, f"row {k}: f_a + f_b = {total[k]!r}")


def check_start_row(table: CsvTable):
    c = _trajectory_columns(table)
    f_a, f_b, log_norm = c["f_a"][0], c["f_b"][0], c["log_norm"][0]
    require(abs(f_a - 1) <= 1e-9 and abs(f_b) <= 1e-9 and abs(log_norm) <= 1e-9,
            f"first row is (f_a, f_b, log_norm) = ({f_a!r}, {f_b!r}, {log_norm!r}), expected (1, 0, 0)")


def check_growth_bounds(table: CsvTable, bounds):
    """Each log-norm increment lies within the integrated numerical range of (H - H^+)/2i."""
    lo, hi = bounds
    inc = np.diff(_trajectory_columns(table)["log_norm"])
    slack = 1e-6 * (np.abs(lo) + np.abs(hi)) + 1e-9
    bad = np.flatnonzero((inc < lo - slack) | (inc > hi + slack))
    require(bad.size == 0,
            f"log-norm increment leaves the numerical range of (H - H^+)/2i in interval "
            f"{bad[:1].tolist()}: {inc[bad[:1]].tolist()} not in "
            f"[{lo[bad[:1]].tolist()}, {hi[bad[:1]].tolist()}]")


def check_final_state(table: CsvTable, exact):
    """The last row agrees with exact-exponential transport (fraction and log-norm)."""
    c = _trajectory_columns(table)
    f_ref, log_ref = exact
    f_a, log_norm = c["f_a"][-1], c["log_norm"][-1]
    require(abs(f_a - f_ref[-1]) <= 1e-4,
            f"final f_a {f_a!r}, exact-exponential transport gives {f_ref[-1]!r}")
    require(abs(log_norm - log_ref[-1]) <= 1e-4 * max(1.0, abs(log_ref[-1])),
            f"final log_norm {log_norm!r}, exact-exponential transport gives {log_ref[-1]!r}")


def check_chirality(report: dict, first: CsvTable, second: CsvTable, align_shift, slope_threshold):
    f_1 = first.data[:, first.columns.index("f_a")]
    f_2 = second.data[:, second.columns.index("f_a")]
    dtheta = 2 * np.pi / max(f_1.size - 1, 1)

    def oscillation(f):
        slope = np.abs(np.gradient(f, dtheta))
        return float(f.max() - f.min()), float(np.count_nonzero(slope > slope_threshold) * dtheta)

    amp_1, dur_1 = oscillation(f_1)
    amp_2, dur_2 = oscillation(f_2)
    want = {
        "final_fraction_difference": float(abs(f_1[-1] - f_2[-1])),
        "max_aligned_difference": float(np.max(np.abs(f_1 - np.roll(f_2, int(align_shift))))),
        "oscillation.first.amplitude": amp_1, "oscillation.first.duration_phase": dur_1,
        "oscillation.second.amplitude": amp_2, "oscillation.second.duration_phase": dur_2,
        "align_shift": int(align_shift), "slope_threshold": float(slope_threshold),
    }
    for key, value in want.items():
        node = report
        for part in key.split("."):
            node = node[part]
        require(abs(node - value) <= 1e-12 * max(1.0, abs(value)),
                f"chirality report {key} = {node!r}, recomputed {value!r}")


# --- point queries ------------------------------------------------------------------

def check_coupling(cfg: dict, result):
    g_a, g_b = couplings_closed_form(cfg)
    for name, got, want in (("g_a", result.g_a, g_a), ("g_b", result.g_b, g_b)):
        require(abs(got - want) <= 1e-12 * abs(want) + 1e-300,
                f"coupling {name} = {got!r}, closed form {complex(want)!r}")


def check_sigma(which, cfg: dict, omega, got):
    want = complex(sigma_closed_form(which, cfg, omega=omega))
    require(abs(got - want) <= 1e-10 * abs(want) + 1e-300,
            f"sigma_{which}({omega!r}) = {got!r}, closed form {want!r}")


def check_response_pair(direct: dict, closed: dict):
    scale = max(abs(v) for v in closed.values())
    for ch, value in direct.items():
        require(abs(value - closed[ch]) <= 1e-7 * scale,
                f"channel {ch}: direct solve {value!r}, closed form {closed[ch]!r}")


def check_psd_point(got, closed: dict, unit_psd=1.0):
    want = unit_psd * sum(abs(v) ** 2 for v in closed.values())
    require(math.isfinite(got) and got >= 0 and abs(got - want) <= 1e-7 * want + 1e-300,
            f"psd = {got!r}, closed-form channel sum {want!r}")


def check_eigen(h, pair):
    h = np.asarray(h, dtype=complex)
    scale = float(np.abs(h).max())
    ref = np.linalg.eigvals(h)
    got = np.array([pair.lambda_plus, pair.lambda_minus])
    err = min(np.abs(got - ref).max(), np.abs(got - ref[::-1]).max())
    require(err <= 1e-7 * scale, f"eigenvalues {got.tolist()} vs numpy {ref.tolist()}")
    for lam, v in ((pair.lambda_plus, pair.v_plus), (pair.lambda_minus, pair.v_minus)):
        v = np.asarray(v, dtype=complex)
        require(abs(np.linalg.norm(v) - 1) <= 1e-9, f"eigenvector norm {np.linalg.norm(v)!r}")
        res = np.linalg.norm(h @ v - lam * v)
        require(res <= 1e-7 * scale, f"eigenvector residual {res:.3e} for eigenvalue {lam!r}")
