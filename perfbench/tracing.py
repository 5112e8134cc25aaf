"""Span tracer around the public functions of magnomech's layer modules.

The tracer lives entirely in the benchmark: it replaces each public function
of the layer modules, at every module attribute that refers to it (so calls
through `from .model import effective_couplings` bindings are seen as well as
calls through the defining module) and at every value of a module-level dict
that refers to it (such as a name-to-function dispatch table), with a wrapper
that records one span.
Spans are kept in flat in-memory arrays (name, parent span, start, end) and
written out once, when the run ends. A span's self time is its duration
minus the time its child spans cover.
"""

from __future__ import annotations

import array
import functools
import importlib
import inspect
import logging
import os
import sys
import time

import numpy as np

LAYER_MODULES = ("model", "self_energy", "spectrum", "ep", "encircle", "output", "cli")
# SystemConfig methods that rebuild a validated config for one grid point
CONFIG_REBUILD_METHODS = ("with_drive_detunings", "with_strengths")
# leaf helpers called four times per operator build; a span each would double
# the traced run's overhead on loop-transport, so their time stays in their
# callers' self time
UNTRACED = ("model.susceptibility", "model.te_susceptibility")
SIGMA_FUNCTIONS = ("self_energy.sigma_rr", "self_energy.sigma_mm",
                   "self_energy.sigma_mr", "self_energy.sigma_rm")


class _StallCounter(logging.Handler):
    def __init__(self):
        super().__init__(logging.INFO)
        self.count = 0

    def emit(self, record):
        if record.getMessage().startswith("EP Newton stall"):
            self.count += 1


class Tracer:
    """Install with `install()`, run the traced work, then `uninstall()`."""

    def __init__(self):
        self.names: list[str] = []
        self.name_id = array.array("i")
        self.parent = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.counters = {"riemann_surface.cells": 0, "sweep_self_energy.cells": 0,
                         "find_exceptional_points.found": 0, "psd.points": 0,
                         "output.bytes": 0}
        self._stack = [-1]
        self._patches = []
        self._stalls = _StallCounter()
        self._logger_state = None

    # -- installation -------------------------------------------------------
    def _hook_for(self, qualname):
        counters = self.counters
        if qualname == "ep.riemann_surface":
            def hook(args, kwargs, result):
                counters["riemann_surface.cells"] += int(result.lambda1.size)
        elif qualname == "self_energy.sweep_self_energy":
            def hook(args, kwargs, result):
                counters["sweep_self_energy.cells"] += len(result)
        elif qualname == "ep.find_exceptional_points":
            def hook(args, kwargs, result):
                counters["find_exceptional_points.found"] += len(result)
        elif qualname == "spectrum.psd":
            def hook(args, kwargs, result):
                counters["psd.points"] += int(np.size(args[0] if args else kwargs["omega"]))
        elif qualname in ("output.write_csv", "output.write_json"):
            def hook(args, kwargs, result):
                counters["output.bytes"] += os.path.getsize(args[0] if args else kwargs["path"])
        else:
            hook = None
        return hook

    def _wrap(self, qualname, fn):
        nid = len(self.names)
        self.names.append(qualname)
        hook = self._hook_for(qualname)
        stack = self._stack
        nid_append, parent_append = self.name_id.append, self.parent.append
        start_append, end_append = self.start.append, self.end.append
        end = self.end
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(end)
            nid_append(nid)
            parent_append(stack[-1])
            end_append(0.0)
            stack.append(idx)
            start_append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return traced

    def install(self):
        """Wrap every public layer function wherever magnomech bound it by name."""
        wrappers = {}
        for short in LAYER_MODULES:
            module = importlib.import_module(f"magnomech.{short}")
            for attr, obj in vars(module).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == module.__name__ and f"{short}.{attr}" not in UNTRACED):
                    wrappers[id(obj)] = (obj, self._wrap(f"{short}.{attr}", obj))
        holders = [m for name, m in sorted(sys.modules.items())
                   if name == "magnomech" or name.startswith("magnomech.")]
        for module in holders:
            for attr, obj in list(vars(module).items()):
                entry = wrappers.get(id(obj))
                if entry is not None and entry[0] is obj:
                    self._patches.append((module, attr, obj))
                    setattr(module, attr, entry[1])
                elif isinstance(obj, dict):
                    for key, value in list(obj.items()):
                        entry = wrappers.get(id(value))
                        if entry is not None and entry[0] is value:
                            self._patches.append((obj, key, value))
                            obj[key] = entry[1]
        system_config = importlib.import_module("magnomech.model").SystemConfig
        for attr in CONFIG_REBUILD_METHODS:
            original = system_config.__dict__[attr]
            self._patches.append((system_config, attr, original))
            setattr(system_config, attr, self._wrap(f"model.SystemConfig.{attr}", original))
        ep_log = logging.getLogger("magnomech.ep")
        self._logger_state = (ep_log.level, ep_log.propagate)
        ep_log.setLevel(logging.INFO)
        ep_log.propagate = False
        ep_log.addHandler(self._stalls)
        return self

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._patches.clear()
        ep_log = logging.getLogger("magnomech.ep")
        ep_log.removeHandler(self._stalls)
        if self._logger_state is not None:
            ep_log.setLevel(self._logger_state[0])
            ep_log.propagate = self._logger_state[1]
            self._logger_state = None

    # -- results ------------------------------------------------------------
    def _arrays(self):
        nid = np.frombuffer(self.name_id, dtype=np.int32) if len(self.name_id) else np.zeros(0, np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32) if len(self.parent) else np.zeros(0, np.int32)
        start = np.frombuffer(self.start, dtype=np.float64) if len(self.start) else np.zeros(0)
        end = np.frombuffer(self.end, dtype=np.float64) if len(self.end) else np.zeros(0)
        return nid, parent, start, end

    def write(self, path):
        """Write every span (name table, name id, parent index, start, end) as one .npz file."""
        nid, parent, start, end = self._arrays()
        os.makedirs(os.path.dirname(path), exist_ok=True)
        np.savez(path, names=np.array(self.names), name_id=nid, parent=parent, start=start, end=end)

    def layer_metrics(self):
        """Per-layer counts and times, keyed by metric name (units: count, s, bytes)."""
        nid, parent, start, end = self._arrays()
        n_names = len(self.names)
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
        self_time = dur - child
        calls = np.bincount(nid, minlength=n_names)
        total = np.bincount(nid, weights=dur, minlength=n_names)
        own = np.bincount(nid, weights=self_time, minlength=n_names)
        index = {name: k for k, name in enumerate(self.names)}

        def pick(table, *names):
            return float(sum(table[index[n]] for n in names if n in index))

        # spans nested (at any depth) under encircle.evolve
        in_evolve = np.zeros(dur.size, dtype=bool)
        evolve_id = index.get("encircle.evolve", -1)
        if evolve_id >= 0 and dur.size:
            is_evolve = nid == evolve_id
            idx = np.flatnonzero(has_parent)
            while True:
                parents = parent[idx]
                updated = in_evolve.copy()
                updated[idx] = is_evolve[parents] | in_evolve[parents]
                if np.array_equal(updated, in_evolve):
                    break
                in_evolve = updated
        hop_id = index.get("ep.hamiltonian_on_plane", -1)
        builds = in_evolve & (nid == hop_id)
        build_time = float(dur[builds].sum())

        cli_names = [n for n in self.names if n.startswith("cli.")]
        sigma = SIGMA_FUNCTIONS
        c = self.counters
        return {
            "model.config_rebuilds": int(pick(calls, *(f"model.SystemConfig.{m}" for m in CONFIG_REBUILD_METHODS))),
            "model.effective_couplings.calls": int(pick(calls, "model.effective_couplings")),
            "model.effective_couplings.self_s": pick(own, "model.effective_couplings"),
            "ep.hamiltonian_on_plane.calls": int(pick(calls, "ep.hamiltonian_on_plane")),
            "ep.hamiltonian_on_plane.self_s": pick(own, "ep.hamiltonian_on_plane"),
            "ep.build_hamiltonian.self_s": pick(own, "ep.build_hamiltonian"),
            "ep.eigenpairs.calls": int(pick(calls, "ep.eigenpairs")),
            "ep.eigenpairs.self_s": pick(own, "ep.eigenpairs"),
            "ep.riemann_surface.s": pick(total, "ep.riemann_surface"),
            "ep.riemann_surface.cells": c["riemann_surface.cells"],
            "ep.discriminant.calls": int(pick(calls, "ep.discriminant")),
            "ep.find_exceptional_points.s": pick(total, "ep.find_exceptional_points"),
            "ep.find_exceptional_points.found": c["find_exceptional_points.found"],
            "ep.newton_stalls": self._stalls.count,
            "spectrum.psd.calls": int(pick(calls, "spectrum.psd")),
            "spectrum.psd.points": c["psd.points"],
            "spectrum.psd.self_s": pick(own, "spectrum.psd"),
            "spectrum.psd_map.s": pick(total, "spectrum.psd_map"),
            "spectrum.linear_system_response.self_s": pick(own, "spectrum.linear_system_response"),
            "spectrum.closed_form_response.self_s": pick(own, "spectrum.closed_form_response"),
            "self_energy.sweep_self_energy.s": pick(total, "self_energy.sweep_self_energy"),
            "self_energy.sweep_self_energy.cells": c["sweep_self_energy.cells"],
            "self_energy.sigma.calls": int(pick(calls, *sigma)),
            "self_energy.sigma.self_s": pick(own, *sigma),
            "encircle.evolve.calls": int(pick(calls, "encircle.evolve")),
            "encircle.evolve.s": pick(total, "encircle.evolve"),
            "encircle.operator_builds": int(builds.sum()),
            "encircle.integrator.self_s": pick(total, "encircle.evolve") - build_time,
            "encircle.chirality_report.s": pick(total, "encircle.chirality_report"),
            "output.write_csv.s": pick(total, "output.write_csv"),
            "output.write_json.s": pick(total, "output.write_json"),
            "output.bytes": c["output.bytes"],
            "output.files": int(pick(calls, "output.write_csv", "output.write_json")),
            "cli.self_s": pick(own, *cli_names),
            "cli.invocations": int(pick(calls, "cli.main")),
            "trace.spans": int(dur.size),
        }
