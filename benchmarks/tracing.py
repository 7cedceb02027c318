"""Spans recorded from outside the program, around the public calls of each layer.

`Tracer.install()` replaces each target function with a wrapper that
records a span (name, start, end, parent span, item) in memory.  Modules
import each other's functions by name (`protocol.encode_view`,
`scenes.save_tensor`), so a wrapper is installed wherever a loaded dcpnet
module holds the original object, not only where it is defined.  Ops
that build autograd nodes also get their `_backward` closure wrapped, so
backward time is attributed per op.  `uninstall()` puts every original
back; `clean()` proves it.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter


def _count_graph(tracer, args, result):
    tracer.counts["autodiff.graph_nodes"] += len(result)


def _count_saved_file(tracer, args, result):
    tracer.counts["tensorio.files_per_sample"] += 1
    tracer.counts["tensorio.bytes_per_sample"] += Path(args[0]).stat().st_size


def _count_traffic(tracer, args, result):
    c = result.ledger.counts()
    tracer.counts["protocol.requests_per_frame"] += c["request"]
    tracer.counts["protocol.relevances_per_frame"] += c["relevance"]
    tracer.counts["protocol.grants_per_frame"] += c["grant"]
    tracer.counts["protocol.wire_bytes_per_frame"] += result.ledger.total_wire_bytes


def _wrap_backward(name):
    def hook(tracer, args, result):
        result._backward = tracer.wrap(name, result._backward)

    return hook


# (attribute path under dcpnet, span name, hook run on (args, result) after the span)
TARGETS = [
    ("autodiff.conv2d", "autodiff.conv2d.fwd", _wrap_backward("autodiff.conv2d.bwd")),
    ("autodiff._im2col", "autodiff.im2col", None),
    ("autodiff.conv1x1", "autodiff.conv1x1.fwd", _wrap_backward("autodiff.conv1x1.bwd")),
    ("autodiff.matmul", "autodiff.matmul.fwd", _wrap_backward("autodiff.matmul.bwd")),
    ("autodiff.softmax", "autodiff.softmax.fwd", _wrap_backward("autodiff.softmax.bwd")),
    ("autodiff.cross_entropy", "autodiff.cross_entropy.fwd", _wrap_backward("autodiff.cross_entropy.bwd")),
    ("autodiff.backward", "autodiff.backward", None),
    ("autodiff._toposort", "autodiff.toposort", _count_graph),
    ("network.encode_view", "network.encode_view", None),
    ("network.decode_segmentation", "network.decode_segmentation", None),
    ("smim.encode_query_key", "smim.encode_query_key", None),
    ("smim.self_confidence", "smim.self_confidence", None),
    ("smim.encode_request", "smim.encode_request", None),
    ("smim.candidate_relevance", "smim.candidate_relevance", None),
    ("smim.match_scores", "smim.match_scores", None),
    ("rff.compute_related", "rff.compute_related", None),
    ("rff.fuse", "rff.fuse", None),
    ("protocol.run_frame", "protocol.run_frame", _count_traffic),
    ("training.centralized_forward", "training.forward", None),
    ("training.Adam.step", "training.adam_step", None),
    ("scenes.make_dataset", "scenes.make_dataset", None),
    ("scenes.make_sample", "scenes.make_sample", None),
    ("scenes.generate_world", "scenes.generate_world", None),
    ("scenes.save_dataset", "scenes.save_dataset", None),
    ("scenes.load_dataset", "scenes.load_dataset", None),
    ("tensorio.save_tensor", "tensorio.save_tensor", _count_saved_file),
    ("tensorio.load_tensor", "tensorio.load_tensor", None),
    ("harness.evaluate_dcp", "harness.evaluate_dcp", None),
    ("harness.sweep_request_threshold", "harness.sweep_request_threshold", None),
    ("metrics.split_miou", "metrics.split_miou", None),
    ("metrics.selection_accuracy", "metrics.selection_accuracy", None),
]

# direct children of a run_frame span, by the protocol phase they belong to
PHASES = {
    "network.encode_view": "protocol.phase1_encode",
    "smim.encode_query_key": "protocol.phase2_decide",
    "smim.self_confidence": "protocol.phase2_decide",
    "smim.encode_request": "protocol.phase3_request_relevance",
    "smim.candidate_relevance": "protocol.phase3_request_relevance",
    "smim.match_scores": "protocol.phase3_request_relevance",
    "rff.compute_related": "protocol.phase4_grant_fuse_decode",
    "rff.fuse": "protocol.phase4_grant_fuse_decode",
    "network.decode_segmentation": "protocol.phase4_grant_fuse_decode",
}


def _sites(path: str):
    """Every (owner, attribute, original) that a call to `path` may resolve through."""
    parts = path.split(".")
    owner = sys.modules["dcpnet." + parts[0]]
    for part in parts[1:-1]:
        owner = getattr(owner, part)
    original = getattr(owner, parts[-1])
    if owner is not sys.modules["dcpnet." + parts[0]]:
        return [(owner, parts[-1], original)]  # a method: callers look it up on the class
    return [
        (mod, attr, original)
        for mod_name, mod in sorted(sys.modules.items())
        if mod_name == "dcpnet" or mod_name.startswith("dcpnet.")
        for attr, value in sorted(vars(mod).items())
        if value is original
    ]


class Tracer:
    """In-memory span recorder and the patch table that feeds it."""

    def __init__(self):
        self.sites = [(site, name, hook) for path, name, hook in TARGETS for site in _sites(path)]
        self.spans: list = []
        self.counts: Counter = Counter()
        self.item = 0
        self._stack: list[int] = []

    def wrap(self, name, fn, hook=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)  # reserve the slot children point at
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans[idx] = (name, t0, t1, parent, self.item)
            if hook is not None:
                hook(self, args, result)
            return result

        return wrapper

    def install(self) -> None:
        wrappers = {}
        for (owner, attr, original), name, hook in self.sites:
            if id(original) not in wrappers:
                wrappers[id(original)] = self.wrap(name, original, hook)
            setattr(owner, attr, wrappers[id(original)])

    def uninstall(self) -> None:
        for (owner, attr, original), _, _ in self.sites:
            setattr(owner, attr, original)

    def clean(self) -> bool:
        """True when every patched attribute is the original object again."""
        return all(getattr(owner, attr) is original for (owner, attr, original), _, _ in self.sites)

    def summary(self):
        """Per span name: inclusive seconds, self seconds and calls; plus
        per-phase seconds of run_frame children and the sum of all self time."""
        total, self_s, calls = defaultdict(float), defaultdict(float), Counter()
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        for i, (name, t0, t1, parent, _) in enumerate(self.spans):
            total[name] += t1 - t0
            self_s[name] += t1 - t0 - child[i]
            calls[name] += 1
            if parent >= 0 and self.spans[parent][0] == "protocol.run_frame" and name in PHASES:
                total[PHASES[name]] += t1 - t0
        return total, self_s, calls, sum(self_s.values())
