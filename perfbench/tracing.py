"""Outside-in tracing of the program's layers.

The program itself carries no instrumentation.  ``Tracer.install`` wraps,
from outside, every public function of each layer module listed in
``LAYERS`` plus a few named boundaries (``EXTRA_BOUNDARIES``), rebinding
each wrapped function in every ``iiot_netsim`` module namespace that
holds it, so calls made through ``from .x import f`` bindings are seen
too.  ``Tracer.uninstall`` puts every original object back.

Spans (name, start, end, parent, iteration id) are kept in flat arrays
while the run lasts and written out once at the end.  Counters are
recorded at the same boundaries by ``COUNTER_HOOKS``.
"""
from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from array import array
from collections import defaultdict
from pathlib import Path

import numpy as np

PACKAGE = "iiot_netsim"
LAYERS = (
    "rng",
    "sim_engine",
    "reporting",
    "cli",
    "rtt_model",
    "channel_models",
    "qos_state_machine",
    "queueing_model",
)
# (module, attribute path) boundaries that are not public module functions
EXTRA_BOUNDARIES = (
    ("rng", "RngStream.gen"),  # generator construction; traced only on first access
    ("sim_engine", "CentralServer.admit"),
    ("cli", "_write_atomic"),  # every file the CLI writes goes through it
)


def _arg(args: tuple, kwargs: dict, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _sample_count(n_index: int):
    return lambda t, a, k, r: t.count("channel_models.samples", _arg(a, k, n_index, "n"))


COUNTER_HOOKS = {
    "sim_engine.run_simulation": lambda t, a, k, r: t.on_simulation(r),
    "reporting.windowed_series": lambda t, a, k, r: t.count(
        "reporting.records_scanned", len(_arg(a, k, 0, "records"))
    ),
    "reporting.summarize_rtt": lambda t, a, k, r: t.count(
        "reporting.records_scanned", len(_arg(a, k, 0, "records"))
    ),
    "cli._write_atomic": lambda t, a, k, r: t.count(
        "cli.bytes_written", len(_arg(a, k, 1, "text").encode("utf-8"))
    ),
    "channel_models.sample_awgn": lambda t, a, k, r: t.count("channel_models.samples", 1),
    "channel_models.sample_rayleigh_gain": lambda t, a, k, r: t.count("channel_models.samples", 1),
    "channel_models.sample_rician_gain": lambda t, a, k, r: t.count("channel_models.samples", 1),
    "channel_models.sample_awgn_batch": _sample_count(1),
    "channel_models.sample_rayleigh_gain_batch": _sample_count(1),
    "channel_models.sample_rician_gain_batch": _sample_count(1),
    "qos_state_machine.reliability_monte_carlo": lambda t, a, k, r: t.count(
        "qos_state_machine.mc_runs", _arg(a, k, 1, "n_runs")
    ),
    "queueing_model.simulate_mmc": lambda t, a, k, r: t.count(
        "queueing_model.arrivals", _arg(a, k, 1, "arrivals")
    ),
}


def self_times(start: np.ndarray, end: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Each span's duration minus the time its direct children cover.

    Spans come from one thread's call stack, so children lie inside their
    parent and siblings do not overlap; the covered part of the parent is
    then the sum of the children's durations.  parent[i] is the index of
    span i's parent, or -1 for a root.
    """
    dur = end - start
    has_parent = parent >= 0
    covered = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
    return dur - covered


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.name_id = array("q")
        self.iteration = array("q")
        self._stack: list[int] = []
        self.iteration_id = -1
        self.counts: dict[tuple[int, str], float] = defaultdict(float)
        self.capture_results = False
        self.captured: list = []
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _id(self, name: str) -> int:
        i = self._name_ids.get(name)
        if i is None:
            i = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return i

    def open(self, name: str) -> int:
        idx = len(self.start)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.name_id.append(self._id(name))
        self.iteration.append(self.iteration_id)
        self.end.append(float("nan"))
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def count(self, name: str, value: float) -> None:
        self.counts[(self.iteration_id, name)] += value

    def on_simulation(self, result) -> None:
        self.count("sim_engine.records", len(result.records))
        if self.capture_results:
            self.captured.append(result)

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, fn, name: str):
        hook = COUNTER_HOOKS.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if hook is not None:
                hook(tracer, args, kwargs, result)
            return result

        return traced

    def _wrap_lazy_property(self, prop: property, name: str) -> property:
        """Trace RngStream.gen only on the access that builds the generator.

        A generator already held in the ``_gen`` slot is returned untraced.
        A stream class without that slot gets every access traced, so the
        count turns into accesses instead of failing."""
        tracer = self
        fget = prop.fget

        def traced(obj):
            cached = getattr(obj, "_gen", None)
            if cached is not None:
                return cached
            idx = tracer.open(name)
            try:
                return fget(obj)
            finally:
                tracer.close(idx)

        return property(traced, prop.fset, prop.fdel, prop.__doc__)

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every layer boundary; raises if already installed."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        # keyed by id(): module namespaces also hold unhashable values
        wrappers: dict[int, tuple[object, object]] = {}
        for layer in LAYERS:
            mod = sys.modules[f"{PACKAGE}.{layer}"]
            for attr, obj in vars(mod).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                    and not attr.startswith("_")
                ):
                    wrappers[id(obj)] = (obj, self._wrap(obj, f"{layer}.{attr}"))
        for layer, path in EXTRA_BOUNDARIES:
            mod = sys.modules[f"{PACKAGE}.{layer}"]
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(mod, cls_name)
                orig = cls.__dict__[attr]
                name = f"{layer}.{path}"
                if isinstance(orig, property):
                    self._set(cls, attr, self._wrap_lazy_property(orig, name))
                else:
                    self._set(cls, attr, self._wrap(orig, name))
            else:
                obj = getattr(mod, path)
                wrappers[id(obj)] = (obj, self._wrap(obj, f"{layer}.{path}"))
        # rebind in every namespace of the package that holds an original
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._set(mod, attr, hit[1])

    def uninstall(self) -> None:
        """Put back every attribute install() replaced, newest first."""
        while self._restore:
            owner, attr, orig = self._restore.pop()
            setattr(owner, attr, orig)

    # -- results -----------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "name_id": np.frombuffer(self.name_id, dtype=np.int64).copy(),
            "iteration": np.frombuffer(self.iteration, dtype=np.int64).copy(),
        }

    def per_iteration(self, iterations: list[int]) -> dict[str, dict[str, np.ndarray]]:
        """Per span name: calls, total_s and self_s, one row per listed iteration.

        Spans of iterations not listed (set-up, untraced warm-up) are left out.
        """
        a = self.arrays()
        selfs = self_times(a["start"], a["end"], a["parent"])
        dur = a["end"] - a["start"]
        # row of each span's iteration in `iterations`, -1 when not listed
        lut = np.full(int(a["iteration"].max(initial=-1)) + 2, -1, dtype=np.int64)
        for row, it in enumerate(iterations):
            if it + 1 < len(lut):
                lut[it + 1] = row
        rows = lut[a["iteration"] + 1]
        keep = rows >= 0
        n_names = len(self.names)
        shape = (len(iterations), n_names)
        key = rows[keep] * n_names + a["name_id"][keep]

        def table(weights):
            return np.bincount(key, weights=weights, minlength=shape[0] * shape[1]).reshape(shape)

        calls, total, own = table(None), table(dur[keep]), table(selfs[keep])
        return {
            name: {"calls": calls[:, j], "total_s": total[:, j], "self_s": own[:, j]}
            for j, name in enumerate(self.names)
        }

    def counter(self, name: str, iterations: list[int]) -> list[float]:
        return [self.counts.get((it, name), 0.0) for it in iterations]

    def write(self, path: Path) -> None:
        """Spans as .npz arrays plus the name table as JSON next to them."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, **self.arrays())
        path.with_suffix(".names.json").write_text(json.dumps(self.names) + "\n")
