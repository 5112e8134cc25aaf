"""Named parameter presets and their provenance table.

Each preset bundles a full SystemConfig with the grid/loop definitions its
command needs, plus a citation table pinning every load-bearing number to
a one-line provenance note. verify_registry() re-reads each preset and
checks the stored numbers against that table, so the registry cannot
silently drift from its documentation.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ConfigError
from .model import (MAGNON, PHONON, TE_PHOTON, TM_PHOTON, OscillatorMode, PumpDrive,
                    SystemConfig, critical_mode)


@dataclass(frozen=True)
class Citation:
    path: str
    value: object
    note: str


@dataclass(frozen=True)
class Preset:
    name: str
    command: str
    config: SystemConfig
    run_params: dict
    citations: tuple = ()


def _config(omega_m, omega_r, gamma=2e7, strength_tm=0.0, strength_te=0.0,
            delta_tm=0.0, delta_te=0.0):
    # optical carrier frequencies drop out of every observable (only pump
    # detunings enter), so the photon modes carry omega = 0
    return SystemConfig(
        tm_photon=critical_mode(TM_PHOTON, 0.0, gamma),
        te_photon=critical_mode(TE_PHOTON, 0.0, gamma),
        magnon=OscillatorMode(MAGNON, omega_m, gamma),
        phonon=OscillatorMode(PHONON, omega_r, gamma),
        drive_tm=PumpDrive(TM_PHOTON, delta_tm, strength_tm),
        drive_te=PumpDrive(TE_PHOTON, delta_te, strength_te),
    )


# --- self-energy presets -------------------------------------------------
# tied-rate study: every damping equal, critical coupling, resonators
# degenerate deep in the unresolved-sideband regime (resonance = 0.4 gamma)

_SE_GAMMA = 2e7
_SE_OMEGA = 0.4 * _SE_GAMMA
_SE_STRENGTH = 1e9  # arbitrary amplitude; all outputs scale quadratically with it
_SE_SPAN = 5 * _SE_GAMMA
_SE_CONFIG = _config(omega_m=_SE_OMEGA, omega_r=_SE_OMEGA, gamma=_SE_GAMMA,
                     strength_tm=_SE_STRENGTH, strength_te=_SE_STRENGTH)

_SE_CITATIONS = (
    Citation("config.modes.magnon.gamma", _SE_GAMMA, "tied-rate study: one common damping for all four modes"),
    Citation("config.modes.te_photon.gamma_ext", _SE_GAMMA / 2, "critical coupling: external rate = half the total"),
    Citation("config.modes.magnon.omega", _SE_OMEGA, "unresolved sideband: resonance at 0.4x the damping"),
    Citation("config.modes.phonon.omega", _SE_OMEGA, "degenerate resonators for the detuning study"),
    Citation("config.drives.tm.effective_strength", _SE_STRENGTH, "equal drive strengths on both branches"),
    Citation("config.drives.te.effective_strength", _SE_STRENGTH, "equal drive strengths on both branches"),
)


def _se_preset(name, part, diagonal, n):
    grid = [-_SE_SPAN, _SE_SPAN, n]
    return Preset(
        name=name, command="self-energy", config=_SE_CONFIG,
        run_params={"parts": [part], "diagonal": diagonal, "tm_grid": grid, "te_grid": grid},
        citations=_SE_CITATIONS + (
            Citation("run.tm_grid", grid, "detuning axis spans +-5 dampings"),
        ),
    )


# --- spectrum presets ----------------------------------------------------
# widely split resonators read out through the driven optical branch

_SPEC_OMEGA_M = 1e9 - 1.5e8
_SPEC_OMEGA_R = 1e9 + 1.5e8
_SPEC_WEAK = 0.6e12
_SPEC_STRONG = 3.6e12
_SPEC_OMEGA_GRID = [0.4e9, 2.0e9, 300]
_SPEC_DET_GRID = [-3e7, 1e7, 200]


def _spec_preset(name, swept, strength, fixed_detuning):
    fixed_branch = "tm" if swept == "TE" else "te"
    cfg = _config(omega_m=_SPEC_OMEGA_M, omega_r=_SPEC_OMEGA_R,
                  strength_tm=strength, strength_te=strength,
                  delta_tm=fixed_detuning if fixed_branch == "tm" else 0.0,
                  delta_te=fixed_detuning if fixed_branch == "te" else 0.0)
    return Preset(
        name=name, command="spectrum", config=cfg,
        run_params={"swept": swept, "omega_grid": _SPEC_OMEGA_GRID, "detuning_grid": _SPEC_DET_GRID},
        citations=(
            Citation("config.modes.magnon.omega", _SPEC_OMEGA_M, "magnon 150 MHz below the 1 GHz midpoint"),
            Citation("config.modes.phonon.omega", _SPEC_OMEGA_R, "phonon 150 MHz above the 1 GHz midpoint"),
            Citation("config.modes.magnon.gamma", 2e7, "every damping 20 MHz"),
            Citation("config.drives.tm.effective_strength", strength,
                     "low drive 0.6 THz" if strength == _SPEC_WEAK else "high drive 3.6 THz"),
            Citation(f"config.drives.{fixed_branch}.detuning", fixed_detuning,
                     "non-swept pump fixed on resonance" if fixed_detuning == 0.0
                     else "non-swept pump fixed 3 MHz red"),
            Citation("run.swept", swept, "vertical axis sweeps this pump's detuning"),
        ),
    )


# --- EP-plane presets ----------------------------------------------------
# narrowly split resonators; the (drive strength, TE detuning) plane

_EP_OMEGA_M = 1e9 - 1.6e7
_EP_OMEGA_R = 1e9 + 1.6e7
_EP_DELTA_TM = -3e6
_EP_CONFIG = _config(omega_m=_EP_OMEGA_M, omega_r=_EP_OMEGA_R,
                     strength_tm=0.87e12, strength_te=0.87e12,
                     delta_tm=_EP_DELTA_TM, delta_te=-5e6)
_EP_REGION = [[0.05e12, 1.5e12], [-6e7, 1e7]]

_EP_CITATIONS = (
    Citation("config.modes.magnon.omega", _EP_OMEGA_M, "magnon 16 MHz below the 1 GHz midpoint"),
    Citation("config.modes.phonon.omega", _EP_OMEGA_R, "phonon 16 MHz above the 1 GHz midpoint"),
    Citation("config.modes.phonon.gamma", 2e7, "every damping 20 MHz"),
    Citation("config.drives.tm.detuning", _EP_DELTA_TM, "TM pump fixed 3 MHz red"),
)

_FIG5_RUN = {
    "region": _EP_REGION,
    "p_grid": [0.05e12, 1.5e12, 150],
    "delta_grid": [-6e7, 1e7, 120],
    "seeds_per_axis": 24,
    "tie": False,
}

# --- encircling presets --------------------------------------------------

_LOOP_PERIOD = 1e-4  # desk-scale default; the long-form value is 10e-3
_LOOP_SAMPLES = 512


def _loop_preset(name, center_delta, direction, start_phase):
    loop = {
        "center_p": 0.87e12, "center_delta": center_delta, "radius_p": 1e11, "radius_delta": 1e6,
        "direction": direction, "period": _LOOP_PERIOD, "start_phase": start_phase, "samples": _LOOP_SAMPLES,
    }
    return Preset(
        name=name, command="encircle", config=_EP_CONFIG,
        run_params={"loop": loop, "tie": False},
        citations=_EP_CITATIONS + (
            Citation("run.loop.center_p", 0.87e12, "loop centered at drive 0.87 THz"),
            Citation("run.loop.center_delta", center_delta,
                     "detuning center -5.5 MHz keeps the degeneracy outside the loop"
                     if center_delta == -5.5e6 else "detuning center -4.5 MHz per the enclosing-loop setting"),
            Citation("run.loop.radius_p", 1e11, "loop semi-axis 0.1 THz along the drive axis"),
            Citation("run.loop.radius_delta", 1e6, "loop semi-axis 1 MHz along the detuning axis"),
            Citation("run.loop.period", _LOOP_PERIOD, "desk-scale period 100 us (long-form 10 ms)"),
        ),
    )


def _build_registry():
    presets = [
        _se_preset("fig2a", "rr", True, 201),
        _se_preset("fig2b", "mm", True, 201),
        # one run for two panels: fig2c plots its frequency shift, fig2d its damping shift
        _se_preset("fig2c", "mm", False, 101),
        _se_preset("fig2d", "mm", False, 101),
        Preset(
            name="fig3", command="self-energy", config=_SE_CONFIG,
            run_params={"parts": ["mr", "rm"], "diagonal": False,
                        "tm_grid": [-_SE_SPAN, _SE_SPAN, 101], "te_grid": [-_SE_SPAN, _SE_SPAN, 101]},
            citations=_SE_CITATIONS,
        ),
        _spec_preset("fig4a", "TE", _SPEC_WEAK, 0.0),
        _spec_preset("fig4b", "TE", _SPEC_STRONG, 0.0),
        _spec_preset("fig4c", "TE", _SPEC_STRONG, -3e6),
        _spec_preset("fig4d", "TM", _SPEC_WEAK, 0.0),
        _spec_preset("fig4e", "TM", _SPEC_STRONG, 0.0),
        _spec_preset("fig4f", "TM", _SPEC_STRONG, -3e6),
        Preset(  # the window holds the plane's discriminant zero and the loop centers
            name="fig5", command="surface", config=_EP_CONFIG, run_params=dict(_FIG5_RUN),
            citations=_EP_CITATIONS + (
                Citation("run.seeds_per_axis", 24, "coarse seeding density for the EP search"),
            ),
        ),
        Preset(
            name="fig5_tied", command="surface", config=_EP_CONFIG,
            run_params={**_FIG5_RUN, "tie": True},
            citations=_EP_CITATIONS,
        ),
        _loop_preset("fig6a", -5.5e6, "ccw", 0.0),
        _loop_preset("fig6b", -5.5e6, "cw", 3.141592653589793),
        _loop_preset("fig6c", -4.5e6, "ccw", 0.0),
        _loop_preset("fig6d", -4.5e6, "cw", 3.141592653589793),
    ]
    return {p.name: p for p in presets}


REGISTRY = _build_registry()


def get_preset(name: str) -> Preset:
    try:
        return REGISTRY[name]
    except KeyError:
        raise ConfigError(f"unknown preset {name!r}; available: {', '.join(sorted(REGISTRY))}") from None


def _resolve(tree, dotted):
    node = tree
    for part in dotted.split("."):
        try:
            node = node[part]
        except (KeyError, TypeError):
            raise ConfigError(f"citation path {dotted!r} does not resolve") from None
    return node


def verify_registry():
    """Compare every preset's stored numbers against its citation table.

    Returns a list of mismatch descriptions; empty means the registry and
    its documentation agree.
    """
    problems = []
    for preset in REGISTRY.values():
        tree = {"config": preset.config.to_dict(), "run": preset.run_params}
        for cit in preset.citations:
            try:
                actual = _resolve(tree, cit.path)
            except ConfigError as exc:
                problems.append(f"{preset.name}: {exc}")
                continue
            if actual != cit.value:
                problems.append(
                    f"{preset.name}: {cit.path} is {actual!r} but the citation table says {cit.value!r}")
    return problems
