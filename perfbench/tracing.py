"""Per-layer spans and counts, recorded from outside pointersim.

``Tracer.install`` replaces every binding of each traced pointersim function
(in every ``pointersim.*`` namespace that holds it, including the criteria
tuple in ``validation``) and of ``numpy.fft.fft``, ``numpy.fft.ifft`` and
``numpy.linalg.eigh`` with one timing wrapper per function; ``uninstall``
puts the originals back.  Spans nest: a layer's self time is its busy time
minus the busy time of the spans it called.

End-to-end numbers never come from a traced phase.
"""

from __future__ import annotations

import functools
import importlib
import math
import sys
from collections import Counter
from time import perf_counter

import numpy

from workloads import AMPLITUDE_BYTES

LAYERS = {
    "scenarios": ("parse_config", "build_pointer", "resolve_system", "build_coupling_specs",
                  "simulate_pipeline", "run_scenario", "run_sweep", "report_json_text",
                  "reports_csv_text", "sweep_json_text"),
    "pointer": ("moments", "gaussian_pointer", "lg_mode", "displace_momentum"),
    "dynamics": ("make_joint", "apply_couplings", "strong_readout", "postselect",
                 "first_order_pointer"),
    "entanglement": ("two_mode_gaussian", "c_matrix_direct", "c_matrix_from_shifts"),
    "fouriercorr": ("appendix_a_check",),
    "cli": ("main",),
}
CRITERIA = tuple(range(1, 11))
KERNELS = (("numpy.fft", numpy.fft, "fft"), ("numpy.fft", numpy.fft, "ifft"),
           ("numpy.linalg.eigh", numpy.linalg, "eigh"))
# Cells and bytes are computed from array shapes, not measured.
COMPUTED = ("pointer.moments", "dynamics.apply_couplings")

# Seed-code counts for one run_scenario of each bundled scenario.  A binding
# the tracer misses shows up as a lower count.  A change that alters how
# often the pipeline calls these updates the table.
EXPECTED_COUNTS = {
    "seq_corr_full": {"pointer.moments": 2, "scenarios.build_pointer": 2,
                      "dynamics.apply_couplings": 3, "numpy.fft": 24, "numpy.linalg.eigh": 5},
    "lg_probe": {"pointer.moments": 2, "scenarios.build_pointer": 2,
                 "dynamics.apply_couplings": 1, "numpy.fft": 20, "numpy.linalg.eigh": 1},
}


def span_names() -> list[str]:
    names = []
    for module, functions in LAYERS.items():
        for fn in functions:
            if (module, fn) == ("dynamics", "apply_couplings"):
                names += ["dynamics.apply_couplings.single",
                          "dynamics.apply_couplings.simultaneous"]
            else:
                names.append(f"{module}.{fn}")
    return names


def metric_units() -> dict[str, str]:
    """Every per-layer metric a traced run reports, with its unit."""
    units = {}
    for span in span_names():
        units[f"{span}.calls"] = "count/op"
        units[f"{span}.busy_s"] = "s/op"
        units[f"{span}.self_s"] = "s/op"
    for n in CRITERIA:
        units[f"validation.criterion_{n}.busy_s"] = "s/op"
    units.update({
        "numpy.fft.calls": "count/op", "numpy.fft.points": "count/op",
        "numpy.fft.busy_s": "s/op",
        "numpy.linalg.eigh.calls": "count/op", "numpy.linalg.eigh.matrices": "count/op",
        "numpy.linalg.eigh.busy_s": "s/op",
    })
    for layer in COMPUTED:
        units[f"{layer}.cells"] = "count/op"
        units[f"{layer}.computed_bytes"] = "B/op"
    units["trace.op_s_p50"] = "s"
    units["trace.overhead_s"] = "s"
    return units


def _pointersim_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "pointersim" or name.startswith("pointersim."))]


class Tracer:
    def __init__(self):
        self._patches: list[tuple[object, str, object]] = []
        self._originals: dict[int, object] = {}
        self.bindings: Counter = Counter()
        self.reset()

    def reset(self) -> None:
        self.calls: Counter = Counter()
        self.busy: Counter = Counter()
        self.child: Counter = Counter()
        self.work: Counter = Counter()
        self._stack: list[list[float]] = []

    # -- spans -------------------------------------------------------------

    def _span(self, name: str, fn, args, kwargs):
        frame = [0.0]
        self._stack.append(frame)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = perf_counter() - start
            self._stack.pop()
            self.calls[name] += 1
            self.busy[name] += elapsed
            self.child[name] += frame[0]
            if self._stack:
                self._stack[-1][0] += elapsed

    def _layer_wrapper(self, name: str, fn):
        if name == "dynamics.apply_couplings":
            def wrapper(*args, **kwargs):
                state = args[0] if args else kwargs["state"]
                specs = args[1] if len(args) > 1 else kwargs["specs"]
                cells = math.prod(state.grid.shape)
                self.work[f"{name}.cells"] += cells
                self.work[f"{name}.computed_bytes"] += cells * AMPLITUDE_BYTES * state.system_dim
                live = sum(1 for s in specs if s.strength != 0.0)
                branch = "simultaneous" if live > 1 else "single"
                return self._span(f"{name}.{branch}", fn, args, kwargs)
        elif name == "pointer.moments":
            def wrapper(*args, **kwargs):
                phi = args[0] if args else kwargs["phi"]
                cells = math.prod(phi.grid.shape)
                self.work[f"{name}.cells"] += cells
                self.work[f"{name}.computed_bytes"] += cells * AMPLITUDE_BYTES
                return self._span(name, fn, args, kwargs)
        else:
            def wrapper(*args, **kwargs):
                return self._span(name, fn, args, kwargs)
        return functools.wraps(fn)(wrapper)

    def _kernel_wrapper(self, name: str, fn):
        if name == "numpy.fft":
            def wrapper(a, *args, **kwargs):
                self.work["numpy.fft.points"] += numpy.size(a)
                return self._span(name, fn, (a,) + args, kwargs)
        else:
            def wrapper(a, *args, **kwargs):
                self.work["numpy.linalg.eigh.matrices"] += math.prod(numpy.shape(a)[:-2])
                return self._span(name, fn, (a,) + args, kwargs)
        return functools.wraps(fn)(wrapper)

    # -- installation -----------------------------------------------------

    def _patch(self, namespace, attr: str, value) -> None:
        self._patches.append((namespace, attr, getattr(namespace, attr)))
        setattr(namespace, attr, value)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        validation = importlib.import_module("pointersim.validation")
        wrappers: dict[int, object] = {}
        for module, functions in LAYERS.items():
            namespace = importlib.import_module(f"pointersim.{module}")
            for fn_name in functions:
                original = getattr(namespace, fn_name)
                name = f"{module}.{fn_name}"
                wrappers[id(original)] = (original, self._layer_wrapper(name, original), name)
        criteria = validation._CRITERIA_1_9 + (validation.criterion_10_determinism,)
        for number, original in zip(CRITERIA, criteria, strict=True):
            name = f"validation.criterion_{number}"
            wrappers[id(original)] = (original, self._layer_wrapper(name, original), name)
        self._originals = {key: entry[0] for key, entry in wrappers.items()}

        self.bindings = Counter()
        for module in _pointersim_modules():
            for attr, value in list(vars(module).items()):
                if self._originals.get(id(value)) is value:
                    _original, wrapper, name = wrappers[id(value)]
                    self._patch(module, attr, wrapper)
                    self.bindings[name] += 1
                elif isinstance(value, tuple) and any(self._originals.get(id(v)) is v
                                                      for v in value):
                    self._patch(module, attr, tuple(
                        wrappers[id(v)][1] if self._originals.get(id(v)) is v else v
                        for v in value))
        for name, namespace, attr in KERNELS:
            self._patch(namespace, attr, self._kernel_wrapper(name, getattr(namespace, attr)))

        missed = self.missed()
        if missed:
            self.uninstall()
            raise RuntimeError(f"bindings left untraced: {missed}")

    def missed(self) -> list[str]:
        """Bindings in pointersim namespaces still holding an untraced original."""
        found = []
        for module in _pointersim_modules():
            for attr, value in vars(module).items():
                values = value if isinstance(value, tuple) else (value,)
                for v in values:
                    if self._originals.get(id(v)) is v:
                        found.append(f"{module.__name__}.{attr}")
        return found

    def uninstall(self) -> None:
        for namespace, attr, original in reversed(self._patches):
            setattr(namespace, attr, original)
        self._patches = []

    # -- results ----------------------------------------------------------

    def count(self, prefix: str) -> int:
        """Calls of one span, or of all spans under ``prefix.``."""
        return sum(n for name, n in self.calls.items()
                   if name == prefix or name.startswith(prefix + "."))

    def per_op(self, ops: int) -> dict[str, float]:
        """Totals divided by the operations they cover."""
        out = {}
        for span in span_names():
            out[f"{span}.calls"] = self.calls[span] / ops
            out[f"{span}.busy_s"] = self.busy[span] / ops
            out[f"{span}.self_s"] = (self.busy[span] - self.child[span]) / ops
        for n in CRITERIA:
            out[f"validation.criterion_{n}.busy_s"] = self.busy[f"validation.criterion_{n}"] / ops
        for kernel in ("numpy.fft", "numpy.linalg.eigh"):
            out[f"{kernel}.calls"] = self.calls[kernel] / ops
            out[f"{kernel}.busy_s"] = self.busy[kernel] / ops
        for key, total in self.work.items():
            out[key] = total / ops
        for key in metric_units():
            out.setdefault(key, 0.0)
        return out


def check_reference_counts(tracer: Tracer) -> list[str]:
    """Trace one run_scenario of each reference scenario and compare the
    counts with :data:`EXPECTED_COUNTS`.  The tracer must be installed."""
    scenarios = importlib.import_module("pointersim.scenarios")
    errors = []
    for name, expected in EXPECTED_COUNTS.items():
        cfg = scenarios.load_bundled(name)
        tracer.reset()
        scenarios.run_scenario(cfg)
        got = {key: tracer.count(key) for key in expected}
        if got != expected:
            errors.append(f"{name}: traced counts {got}, expected {expected}")
    tracer.reset()
    return errors
