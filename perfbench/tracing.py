"""Per-layer spans recorded from outside deltabox.

`Tracer.install` replaces each traced public function with a wrapper in
every deltabox module namespace that holds it, because modules bind names
such as `partition`, `solve_nu`, `eval_normalized` and `phi_mode` directly
with `from .x import y`.  Spans stay in memory, in columns, and are written
out once the run ends.

A span record holds its function, start, end, parent record, request id,
call count and busy time.  Consecutive calls of one function that have no
traced children and share a parent (the `phi_mode` calls of one
`partial_sum`, say) fold into one record with calls > 1, whose busy time is
the sum of their durations; that keeps millions of leaf calls in bounded
memory.  Self time is busy time minus the busy time of child records.
"""

from __future__ import annotations

import csv
import functools
import gzip
import importlib
import sys
import time
from array import array
from typing import Callable, Dict, List, Optional, Tuple

PACKAGE = "deltabox"

# Traced functions as <module>.<function>, in report order, each with the
# end-to-end metric it should move and on which workload.
LAYERS = (
    # tables req_p50_ms (point queries are mostly parsing and CSV), fourier wall_s
    "cli.main",
    # tables wall_s and p90; no effect on fourier or oracle
    "lattice.nearest_lattice_point",
    "lattice.partition",
    # tables wall_s and p90
    "observables.prob_ratio",
    "observables.expectation_x",
    "observables.amplitude_extrema",
    # tables wall_s (sweep, spectrum); near zero on oracle
    "spectrum.solve_nu",
    "spectrum.dispersion",
    "oracle.analytic_levels",
    # tables wall_s, and oracle wall_s on dense grids
    "wavefn.eval_normalized",
    "wavefn.rho",
    # fourier wall_s and p90, nothing elsewhere
    "fourier.partial_sum",
    "fourier.coeffs_general",
    "fourier.coeffs_upsilon_hat",
    "fourier.coeffs_upsilon_under",
    "fourier.coeffs_upsilon_over",
    "model.phi_mode",
    # oracle wall_s and req_p50_ms
    "oracle.eig_lowest",
    "oracle.compare",
    "oracle.build_hamiltonian",
)

# Layers whose raised exceptions are reported as <layer>.errors: one-sided
# lattice points that `expectation` sweeps skip.
ERROR_COUNTS = ("observables.expectation_x",)


class _NonzeroTerms:
    """fourier.terms: nonzero coefficients of each expansion summed at a point."""

    def __init__(self) -> None:
        self.expansion = None
        self.nonzero = 0

    def __call__(self, args: tuple) -> int:
        expansion = args[0]
        if expansion is not self.expansion:
            self.expansion = expansion
            self.nonzero = sum(1 for _, a in expansion.coefficients if a != 0.0)
        return self.nonzero


def _matrix_nodes(args: tuple) -> int:
    return args[0].N


class Tracer:
    def __init__(self) -> None:
        self.names: List[str] = []
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.request = array("l")
        self.calls = array("L")
        self.busy = array("d")
        self.stack: List[list] = []  # open spans: [name id, start, record or -1]
        self.request_id = -1
        self.recording = False
        self.errors: Dict[str, int] = {}
        self.counters: Dict[str, int] = {"fourier.terms": 0, "oracle.matrix_nodes": 0}
        self.missing: List[str] = []

    # ------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------

    def install(self) -> None:
        """Wrap every function of LAYERS that the installed deltabox has."""
        hooks: Dict[str, Tuple[str, Callable[[tuple], int]]] = {
            "fourier.partial_sum": ("fourier.terms", _NonzeroTerms()),
            "oracle.eig_lowest": ("oracle.matrix_nodes", _matrix_nodes),
        }
        for layer in LAYERS:
            module_name, func_name = layer.rsplit(".", 1)
            try:
                module = importlib.import_module(f"{PACKAGE}.{module_name}")
            except ImportError:
                self.missing.append(layer)
                continue
            original = getattr(module, func_name, None)
            if original is None:
                self.missing.append(layer)
                continue
            wrapper = self._wrap(layer, original, hooks.get(layer))
            for name, mod in list(sys.modules.items()):
                if mod is None or not (name == PACKAGE or name.startswith(PACKAGE + ".")):
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)

    def _wrap(self, layer: str, fn: Callable, hook: Optional[Tuple[str, Callable]]) -> Callable:
        name_id = len(self.names)
        self.names.append(layer)
        self.errors[layer] = 0
        tracer, stack, clock, errors = self, self.stack, time.perf_counter, self.errors
        names, parents, requests = self.name, self.parent, self.request
        ends, calls, busy = self.end, self.calls, self.busy

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            if stack and stack[-1][2] < 0:
                tracer._allocate()
            frame = [name_id, 0.0, -1]
            stack.append(frame)
            frame[1] = clock()
            try:
                return fn(*args, **kwargs)
            except Exception:
                errors[layer] += 1
                raise
            finally:
                now = clock()
                stack.pop()
                rec = frame[2]
                if rec >= 0:
                    ends[rec] = now
                    busy[rec] = now - frame[1]
                else:
                    # A leaf: extend the last record if it is a run of leaf
                    # calls of this function under the same parent span.
                    parent = stack[-1][2] if stack else -1
                    last = len(names) - 1
                    if (
                        last >= 0
                        and parents[last] == parent
                        and names[last] == name_id
                        and requests[last] == tracer.request_id
                    ):
                        ends[last] = now
                        calls[last] += 1
                        busy[last] += now - frame[1]
                    else:
                        tracer._append(name_id, frame[1], now, parent, now - frame[1])
                if hook is not None:
                    tracer.counters[hook[0]] += hook[1](args)

        return traced

    # ------------------------------------------------------------
    # Span records
    # ------------------------------------------------------------

    def _append(self, name_id: int, start: float, end: float, parent: int, busy: float) -> int:
        self.name.append(name_id)
        self.start.append(start)
        self.end.append(end)
        self.parent.append(parent)
        self.request.append(self.request_id)
        self.calls.append(1)
        self.busy.append(busy)
        return len(self.name) - 1

    def _allocate(self) -> None:
        """Give the open span on top of the stack a record: it has a child.

        Every span below the top already has one, for the same reason.  A
        leaf record appended right after its parent's never merges into it,
        because their parents differ.
        """
        frame = self.stack[-1]
        parent = self.stack[-2][2] if len(self.stack) > 1 else -1
        frame[2] = self._append(frame[0], frame[1], 0.0, parent, 0.0)

    # ------------------------------------------------------------
    # Results
    # ------------------------------------------------------------

    def layer_totals(self) -> Dict[str, Tuple[int, float]]:
        """(calls, self seconds) per traced layer."""
        child_busy = [0.0] * len(self.name)
        for rec, parent in enumerate(self.parent):
            if parent >= 0:
                child_busy[parent] += self.busy[rec]
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for rec, name_id in enumerate(self.name):
            calls[name_id] += self.calls[rec]
            self_s[name_id] += self.busy[rec] - child_busy[rec]
        return {layer: (calls[i], self_s[i]) for i, layer in enumerate(self.names)}

    def write_spans(self, path) -> int:
        """Write all span records as gzipped CSV; return the record count."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["record", "name", "start", "end", "parent", "request", "calls", "busy"])
            for rec in range(len(self.name)):
                writer.writerow([
                    rec, self.names[self.name[rec]], repr(self.start[rec]), repr(self.end[rec]),
                    self.parent[rec], self.request[rec], self.calls[rec], repr(self.busy[rec]),
                ])
        return len(self.name)
