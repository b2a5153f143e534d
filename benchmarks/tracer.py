"""In-memory span tracer that wraps clone_sim's layer functions from outside.

Each wrapped call records one span: (name, start_ns, end_ns, parent id),
where the parent is the innermost traced call still open when it began.
Functions are replaced in every ``clone_sim`` module namespace that binds
them, because modules import each other's functions by name (``protocol``
calls its own binding of ``apply_pulse_op``).  Classes are traced through
their ``__init__``, so every construction counts, however it is reached.
Nothing inside ``src/`` changes; ``Tracer.installed()`` puts every
original back on exit.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time

# Traced layer functions, keyed by the module that defines them.  A name
# with a dot is a method, traced on its class.
LAYERS: dict[str, tuple[str, ...]] = {
    "hilbert": ("PureState", "partial_trace", "inner_product", "basis_tuple"),
    "dynamics": (
        "apply_jc", "apply_drive_ge", "apply_drive_ie", "apply_raman",
        "apply_free_evolution", "apply_pulse_op", "build_generator", "evolve_exact",
    ),
    "protocol": ("build_uqcm_schedule", "Slot", "prepare_input", "execute_schedule", "run_uqcm"),
    "verify": (
        "clone_fidelities", "reference_step_state", "target_state",
        "universality_sweep", "SweepResult.to_csv",
    ),
    "checks": (
        "run_all_checks", "check_oracle", "check_unitarity", "check_jc_sector_conservation",
        "check_cnot_truth_table", "check_process_tables", "check_step_conformance",
        "check_basis_run_amplitudes", "check_clone_quality", "check_run_hygiene",
    ),
    "cli": ("main", "perturbed_schedule"),
}

SPAN_NAMES = tuple(f"{module}.{attr}" for module, attrs in LAYERS.items() for attr in attrs)


def self_times(spans: list[tuple[str, int, int, int]]) -> list[int]:
    """Each span's duration minus the part of its interval its children cover."""
    children: list[list[int]] = [[] for _ in spans]
    for sid, (_, _, _, parent) in enumerate(spans):
        if parent >= 0:
            children[parent].append(sid)
    out = []
    for sid, (_, start, end, _) in enumerate(spans):
        covered = 0
        reach = start
        for c_start, c_end in sorted(spans[c][1:3] for c in children[sid]):
            lo, hi = max(c_start, reach), min(c_end, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(end - start - covered)
    return out


class Tracer:
    """Records spans of the LAYERS functions while installed."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, int, int, int]] = []
        self.amplitudes = 0  # complex amplitudes allocated by PureState constructions
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, on_return=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (name, start, end, parent)
            if on_return is not None:
                on_return(args)
            return result

        return traced

    def _count_amplitudes(self, args) -> None:
        self.amplitudes += args[0].amplitudes.size

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        modules = [mod for key, mod in sys.modules.items()
                   if key == "clone_sim" or key.startswith("clone_sim.")]
        for module, attrs in LAYERS.items():
            home = sys.modules[f"clone_sim.{module}"]
            for attr in attrs:
                name = f"{module}.{attr}"
                if "." in attr:
                    cls_name, method = attr.split(".")
                    cls = getattr(home, cls_name)
                    self._patch(cls, method, self._wrap(name, cls.__dict__[method]))
                    continue
                obj = getattr(home, attr)
                if isinstance(obj, type):
                    hook = self._count_amplitudes if attr == "PureState" else None
                    self._patch(obj, "__init__", self._wrap(name, obj.__dict__["__init__"], hook))
                    continue
                traced = self._wrap(name, obj)
                bindings = [(mod, key) for mod in modules
                            for key, value in vars(mod).items() if value is obj]
                for mod, key in bindings:
                    self._patch(mod, key, traced)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def calls(self) -> dict[str, int]:
        out = dict.fromkeys(SPAN_NAMES, 0)
        for name, _, _, _ in self.spans:
            out[name] += 1
        return out

    def self_seconds(self) -> dict[str, float]:
        out = dict.fromkeys(SPAN_NAMES, 0)
        for (name, _, _, _), ns in zip(self.spans, self_times(self.spans)):
            out[name] += ns
        return {name: ns / 1e9 for name, ns in out.items()}

    def write_csv(self, path) -> None:
        """Write the spans as CSV: id, parent, name, start_ns, end_ns."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("id,parent,name,start_ns,end_ns\n")
            for sid, (name, start, end, parent) in enumerate(self.spans):
                handle.write(f"{sid},{parent},{name},{start},{end}\n")
