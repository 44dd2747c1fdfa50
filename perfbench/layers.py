"""Layer tracing from outside the program.

The tracer replaces functions of the hobs modules, by name, with
wrappers that time each call (a span) or count it, and puts the
originals back when uninstalled.  Nothing inside `src/` changes.  A
layer's self time is its spans' time minus the time of the spans nested
in them; the self time left over in the operation itself is `cli.self_s`,
so the self times of one operation add up to its wall time.

Spans are folded, as they close, into per-operation totals keyed by
(parent layer, layer): nogo-d4 opens tens of thousands of spans per
operation, too many to keep one record each.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict

import numpy as np

ROOT = "cli.self_s"

# (module, attribute inside it, layer metric, (count metric, count of one call) or None)
# Names are replaced where the caller looks them up: `hobs.cli` imports most
# entry points by name, so those are patched in `hobs.cli`, not at home.
SPANS = (
    ("hobs.cli", "_load_complex", "cli.load_s", None),
    ("hobs.cli", "_digest", "cli.digest_s", None),
    ("hobs.cli", "validate_hermitian", "spectral.validate_s", None),
    ("hobs.spectral", "DensityMatrix.__post_init__", "spectral.validate_s", None),
    ("hobs.kernel", "spectral_decompose", "spectral.decompose_s", ("spectral.decompose_calls", lambda a, r: 1)),
    ("hobs.spectral", "apply_borel", "spectral.apply_borel_s", None),
    ("hobs.expr", "BorelExpr.eval", "expr.eval_s", ("expr.eval_points", lambda a, r: np.size(a[1]))),
    ("hobs.expr", "BorelExpr.__call__", "expr.eval_s", ("expr.eval_points", lambda a, r: np.size(a[1]))),
    ("hobs.mixed", "_bulk_line_weights", "kernel.line_weights_s", ("kernel.line_weight_rays", lambda a, r: len(a[1]))),
    ("hobs.kernel", "line_weights", "kernel.line_weights_s", ("kernel.line_weight_rays", lambda a, r: 1)),
    ("hobs.contexts", "line_weights", "kernel.line_weights_s", ("kernel.line_weight_rays", lambda a, r: 1)),
    ("hobs.kernel", "_piece_index", "kernel.quantile_s", ("kernel.quantile_points", lambda a, r: np.size(a[1]))),
    ("hobs.contexts", "_piece_index", "kernel.quantile_s", ("kernel.quantile_points", lambda a, r: np.size(a[1]))),
    ("hobs.mixed", "u_from_words", "kernel.u_map_s", None),
    ("hobs.contexts", "orthodoxy_reconstruct", "kernel.reconstruct_s", None),
    ("hobs.mixed", "SampleStream.raw_words", "mixed.philox_s", ("mixed.philox_words", lambda a, r: np.size(r))),
    ("hobs.mixed", "_block_values", "mixed.block_values_s", ("mixed.blocks", lambda a, r: 1)),
    ("hobs.cli", "mc_estimate", "mixed.reduce_s", None),
    ("hobs.cli", "exact_classical_mean", "mixed.exact_mean_s", None),
    ("hobs.cli", "ensemble_from_density", "mixed.ensemble_s", None),
    ("hobs.cli", "nogo_witness", "contexts.witness_s", None),
    ("hobs.contexts", "_compass_polish", "contexts.polish_s", None),
)

# Calls counted without a span of their own.
COUNTS = (
    ("hobs.kernel", "line_mean", lambda parent: "kernel.line_mean_calls"),
    # a gap evaluated inside the polish is an objective call, elsewhere a random ray
    ("hobs.contexts", "orthodoxy_second_moment_gap",
     lambda parent: "contexts.objective_calls" if parent == "contexts.polish_s" else "contexts.random_rays"),
)

TIME_METRICS = tuple(dict.fromkeys([ROOT] + [metric for _, _, metric, _ in SPANS]))
COUNT_METRICS = tuple(dict.fromkeys(
    [count[0] for *_, count in SPANS if count] + ["kernel.line_mean_calls", "contexts.objective_calls", "contexts.random_rays"]))


def _resolve(module: str, attribute: str):
    owner = importlib.import_module(module)
    *path, name = attribute.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


class Tracer:
    def __init__(self):
        self._stack: list[list] = []  # open spans: [layer, child seconds]
        self._calls = defaultdict(lambda: [0, 0.0, 0.0])  # (parent, layer) -> calls, total s, self s
        self._counts = defaultdict(int)
        self._patches = []
        for module, attribute, layer, count in SPANS:
            owner, name = _resolve(module, attribute)
            original = owner.__dict__[name]
            self._patches.append((owner, name, original, self._span(original, layer, count)))
        for module, attribute, metric_of in COUNTS:
            owner, name = _resolve(module, attribute)
            original = owner.__dict__[name]
            self._patches.append((owner, name, original, self._counter(original, metric_of)))
        self.ops: list[dict] = []

    def install(self) -> None:
        for owner, name, _, wrapped in self._patches:
            setattr(owner, name, wrapped)

    def uninstall(self) -> None:
        for owner, name, original, _ in self._patches:
            setattr(owner, name, original)

    def _span(self, fn, layer, count):
        stack, calls, counts, clock = self._stack, self._calls, self._counts, time.perf_counter

        def wrapped(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            frame = [layer, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                parent = stack[-1]
                parent[1] += elapsed
                entry = calls[parent[0], layer]
                entry[0] += 1
                entry[1] += elapsed
                entry[2] += elapsed - frame[1]
            if count:
                counts[count[0]] += count[1](args, result)
            return result

        return wrapped

    def _counter(self, fn, metric_of):
        stack, counts = self._stack, self._counts

        def wrapped(*args, **kwargs):
            if stack:
                counts[metric_of(stack[-1][0])] += 1
            return fn(*args, **kwargs)

        return wrapped

    def begin(self) -> None:
        """Open the operation's root span; call just before the timed region."""
        self._calls.clear()
        self._counts.clear()
        self._stack.append([ROOT, 0.0])

    def end(self, seconds: float, label: str) -> None:
        """Close the root span with the operation's measured wall time."""
        root = self._stack.pop()
        calls = {f"{parent}>{layer}": entry for (parent, layer), entry in self._calls.items()}
        calls[ROOT] = [1, seconds, seconds - root[1]]
        self_s = dict.fromkeys(TIME_METRICS, 0.0)
        for (_, layer), entry in self._calls.items():
            self_s[layer] += entry[2]
        self_s[ROOT] = seconds - root[1]
        counts = dict.fromkeys(COUNT_METRICS, 0)
        counts.update(self._counts)
        self.ops.append({"op": label, "seconds": seconds, "self_s": self_s, "counts": counts, "spans": calls})
