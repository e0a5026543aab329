"""Per-layer tracing of qscd from outside the package.

``install`` replaces each listed function with a wrapper that records a span
(name, start, end, parent span, operation) and counts calls. A module that
did ``from .permgroup import compose`` holds its own binding, so every qscd
module namespace that holds the original function gets the wrapper. Methods
are replaced on their class. Nothing under src/ is edited.

Self time is a span's duration minus the time of the traced spans directly
inside it. Aggregates cover every call; raw spans are kept in memory up to a
cap and written out when the run ends.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import defaultdict
from time import perf_counter

# (module, attribute) pairs. A dotted attribute is a method on a class;
# "Class.__post_init__" is reported as the class name (construction).
LAYERS = {
    "permgroup": [
        "Permutation.__post_init__", "compose", "inverse", "perm_pow", "sign",
        "random_permutation", "sample_fpf_involution", "sample_cyclic",
    ],
    "qstate": [
        "SparseState.__post_init__", "SparseState.fourier_control", "SparseState.controlled_power",
        "SparseState.translate", "SparseState.phase_by_sign", "SparseState.measure_control",
        "SparseState.measure_full", "SparseState.to_text", "SparseState.from_text",
    ],
    "qscdff": ["gen_plus", "gen_iota", "convert", "distinguish"],
    "qscdcyc": ["gen_cyc", "decode_cyc"],
    "pkc": [
        "keygen", "issue_key_copy", "issue_key_series", "encrypt_ff", "encrypt_cyc",
        "decrypt", "format_ciphertext", "parse_ciphertext",
    ],
    "graphauto": [
        "koebler_reduce", "build_query", "unique_ga_ff_oracle", "automorphisms",
        "PromiseInstance.aut_elements", "coset_sample",
    ],
    "reductions": ["estimate_advantage", "ga_attack"],
    "seeding": ["derive_rng"],
}
# Distinguishers are closures built per call, so they are counted through
# the wrapper the workload passes in (see ``Tracer.distinguisher``).
DISTINGUISHER = "reductions.distinguisher"
SPAN_CAP = 100_000


def span_name(module: str, attr: str) -> str:
    return f"{module}.{attr.removesuffix('.__post_init__')}"


def span_names() -> list[str]:
    names = [span_name(mod, attr) for mod, attrs in LAYERS.items() for attr in attrs]
    return names + [DISTINGUISHER]


class Tracer:
    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(int)
        self.spans: list[tuple] = []
        self.dropped = 0
        self.op = -1
        self._stack: list[list] = []  # [span id, child seconds]
        self._next_id = 0
        self._undo: list[tuple] = []

    def _record(self, name, fn, args, kwargs):
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else -1
        frame = [span_id, 0.0]
        self._stack.append(frame)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._stack.pop()
            duration = end - start
            self.calls[name] += 1
            self.self_s[name] += duration - frame[1]
            if self._stack:
                self._stack[-1][1] += duration
            if len(self.spans) < SPAN_CAP:
                self.spans.append((span_id, parent, self.op, name, start, end))
            else:
                self.dropped += 1

    def _wrap(self, name, fn, after=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result = self._record(name, fn, args, kwargs)
            if after is not None:
                after(args, result)
            return result

        return traced

    def _after_state(self, args, _result):
        support = len(args[0].amps)
        if support > self.counts["qstate.peak_support"]:
            self.counts["qstate.peak_support"] = support

    def _after_query(self, _args, query):
        self.counts["graphauto.query_nodes.total"] += query.node_count
        if query.node_count > self.counts["graphauto.query_nodes.max"]:
            self.counts["graphauto.query_nodes.max"] = query.node_count

    def install(self) -> None:
        hooks = {
            "qstate.SparseState": self._after_state,
            "graphauto.build_query": self._after_query,
        }
        namespaces = [m for key, m in sys.modules.items() if key == "qscd" or key.startswith("qscd.")]
        for module, attrs in LAYERS.items():
            mod = sys.modules[f"qscd.{module}"]
            for attr in attrs:
                name = span_name(module, attr)
                after = hooks.get(name)
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(mod, cls_name)
                    raw = cls.__dict__[meth]
                    if isinstance(raw, classmethod):
                        wrapped = classmethod(self._wrap(name, raw.__func__, after))
                    else:
                        wrapped = self._wrap(name, raw, after)
                    self._undo.append((cls, meth, raw))
                    setattr(cls, meth, wrapped)
                    continue
                original = getattr(mod, attr)
                wrapped = self._wrap(name, original, after)
                for ns in namespaces:
                    for key, value in list(vars(ns).items()):
                        if value is original:
                            self._undo.append((ns, key, original))
                            setattr(ns, key, wrapped)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    def distinguisher(self, dist):
        return self._wrap(DISTINGUISHER, dist)

    def layer_metrics(self, rounds: int) -> dict[str, float]:
        """Calls and self seconds per round for every listed span, plus the counts."""
        out = {}
        for name in span_names():
            out[f"{name}.calls"] = self.calls.get(name, 0) / rounds
            out[f"{name}.self_s"] = self.self_s.get(name, 0.0) / rounds
        out["qstate.peak_support"] = self.counts["qstate.peak_support"]
        out["graphauto.query_nodes.total"] = self.counts["graphauto.query_nodes.total"] / rounds
        out["graphauto.query_nodes.max"] = self.counts["graphauto.query_nodes.max"]
        return out

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(json.dumps({"fields": ["id", "parent", "op", "name", "start", "end"],
                                 "dropped": self.dropped}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


class _Off:
    """Stand-in used while tracing is off: passes distinguishers through untouched."""

    op = -1

    @staticmethod
    def distinguisher(dist):
        return dist


OFF = _Off()
