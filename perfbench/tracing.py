"""In-memory span tracer installed around anoncert's layer boundaries.

Spans are recorded from outside the package: `installed` replaces each
public function listed in LAYER_FUNCTIONS in every anoncert module
namespace that imported it (including its home module, so calls made
inside a layer are traced too), and restores the originals on exit.
Each span is a list [name, start, end, parent index, op id, wire bytes];
spans stay in memory until `write_spans` dumps them once at the end.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import time
from collections import Counter

LAYER_FUNCTIONS = {
    "curve": ("scalar_mul", "point_add", "expand_public", "expand_private",
              "generate_keypair", "random_blinding"),
    "envelope": ("sign", "verify", "ecies_encrypt", "ecies_decrypt",
                 "sym_encrypt", "sym_decrypt", "digest"),
    "certs": ("encode", "decode", "issue_certificate", "verify_certificate",
              "cert_tbs_bytes", "request_tbs_bytes", "forwarded_tbs_bytes",
              "response_tbs_bytes", "ballot_tbs_bytes", "sanitize_details"),
    "actors": ("ee_create_request", "ra_process_request", "ca_process_request",
               "ra_route_response", "ee_process_response", "sign_ballot",
               "verify_ballot"),
}
NAMESPACES = ("curve", "envelope", "certs", "actors", "harness")
LAYERS = ("curve", "envelope", "certs", "actors", "harness", "rng")
ACTOR_STEPS = LAYER_FUNCTIONS["actors"]

NAME, START, END, PARENT, OP, WIRE = range(6)


class Tracer:
    """Records nested spans; `op` tags every span opened while it is set."""

    def __init__(self):
        self.spans: list[list] = []
        self.op = None
        self._stack: list[int] = []

    def wrap(self, name: str, fn, wire=False):
        """Return `fn` wrapped in a span. With `wire`, the span also keeps
        the length of the returned bytes."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, 0]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if wire:
                span[WIRE] = len(out)
            return out

        traced.__wrapped__ = fn
        return traced


def _traced_rng_class(tracer: Tracer, base):
    class TracedRng(base):
        def split(self, label):
            child = super().split(label)
            child.__class__ = TracedRng
            return child

    TracedRng.read = tracer.wrap("rng.read", base.read)
    return TracedRng


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Trace every LAYER_FUNCTIONS entry and the harness's seeded RNG.

    Encodes called from the harness namespace are the top-level wire
    messages, so only their wrapper records wire bytes.
    """
    mods = {name: importlib.import_module(f"anoncert.{name}")
            for name in NAMESPACES}
    patches = []

    def patch(mod, attr, value):
        patches.append((mod, attr, getattr(mod, attr)))
        setattr(mod, attr, value)

    try:
        for layer, names in LAYER_FUNCTIONS.items():
            for fname in names:
                original = getattr(mods[layer], fname)
                span_name = f"{layer}.{fname}"
                inner = tracer.wrap(span_name, original)
                for mod_name, mod in mods.items():
                    if getattr(mod, fname, None) is not original:
                        continue
                    top_level = mod_name == "harness" and fname == "encode"
                    patch(mod, fname, tracer.wrap(span_name, original, wire=True)
                          if top_level else inner)
        harness = mods["harness"]
        patch(harness, "DeterministicRng",
              _traced_rng_class(tracer, harness.DeterministicRng))
        yield tracer
    finally:
        for mod, attr, original in reversed(patches):
            setattr(mod, attr, original)


def summarise(spans: list[list], valid_ops: set) -> dict:
    """Aggregate spans into totals (seconds and counts, not yet per op).

    Self time is a span's duration minus the time its direct children
    cover. Inclusive time of a name counts only spans with no ancestor of
    the same name, so recursive calls (decode of a nested certificate,
    encode inside a tbs builder) are not counted twice.
    """
    child_time = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            child_time[span[PARENT]] += span[END] - span[START]

    calls, inclusive, self_by_name = Counter(), Counter(), Counter()
    self_by_layer = Counter({layer: 0.0 for layer in LAYERS})
    step_muls = Counter()
    valid_muls = wire = 0
    worst_self = root_self = 0.0
    for i, span in enumerate(spans):
        name = span[NAME]
        duration = span[END] - span[START]
        own = duration - child_time[i]
        worst_self = min(worst_self, own)
        calls[name] += 1
        self_by_name[name] += own
        self_by_layer[name.split(".", 1)[0]] += own
        if span[PARENT] < 0:
            root_self += own
        wire += span[WIRE]
        outermost = True
        parent = span[PARENT]
        while parent >= 0:
            ancestor = spans[parent][NAME]
            if ancestor == name:
                outermost = False
            elif name == "curve.scalar_mul" and ancestor.startswith("actors."):
                step_muls[ancestor] += 1
            parent = spans[parent][PARENT]
        if outermost:
            inclusive[name] += duration
        if name == "curve.scalar_mul" and span[OP] in valid_ops:
            valid_muls += 1
    return {
        "calls": calls,
        "inclusive_s": inclusive,
        "self_s": self_by_name,
        "layer_self_s": self_by_layer,
        "step_scalar_muls": step_muls,
        "valid_op_scalar_muls": valid_muls,
        "wire_bytes": wire,
        "most_negative_self_s": worst_self,
        "root_self_s": root_self,
    }


def merge(summaries: list) -> dict:
    """Add up the summaries of several calls."""
    out = {}
    for key, first in summaries[0].items():
        if isinstance(first, Counter):
            total = Counter()
            for summary in summaries:
                total.update(summary[key])  # update() keeps zero entries
            out[key] = total
        elif key == "most_negative_self_s":
            out[key] = min(summary[key] for summary in summaries)
        else:
            out[key] = sum(summary[key] for summary in summaries)
    return out


def layer_metrics(summary: dict, ops: int, valid_ops: int) -> dict:
    """Per-op per-layer metrics: counts per op, times in ms per op."""
    calls, inclusive = summary["calls"], summary["inclusive_s"]
    layer_self = summary["layer_self_s"]

    def per_op(value):
        return value / ops

    def ms(seconds):
        return seconds * 1000.0 / ops

    out = {
        "curve.scalar_mul.calls": per_op(calls["curve.scalar_mul"]),
        "curve.scalar_mul.calls_per_valid_op":
            summary["valid_op_scalar_muls"] / valid_ops,
        "curve.scalar_mul.self_ms": ms(summary["self_s"]["curve.scalar_mul"]),
        "curve.expand_public.calls": per_op(calls["curve.expand_public"]),
        "curve.expand_public.ms": ms(inclusive["curve.expand_public"]),
        "curve.generate_keypair.calls": per_op(calls["curve.generate_keypair"]),
        "curve.generate_keypair.ms": ms(inclusive["curve.generate_keypair"]),
        "envelope.sign.calls": per_op(calls["envelope.sign"]),
        "envelope.sign.ms": ms(inclusive["envelope.sign"]),
        "envelope.verify.calls": per_op(calls["envelope.verify"]),
        "envelope.verify.ms": ms(inclusive["envelope.verify"]),
        "envelope.ecies_encrypt.ms": ms(inclusive["envelope.ecies_encrypt"]),
        "envelope.ecies_decrypt.ms": ms(inclusive["envelope.ecies_decrypt"]),
        "envelope.sym.ms": ms(inclusive["envelope.sym_encrypt"]
                              + inclusive["envelope.sym_decrypt"]),
        "certs.encode.calls": per_op(calls["certs.encode"]),
        "certs.wire_bytes": per_op(summary["wire_bytes"]),
        "certs.decode.ms": ms(inclusive["certs.decode"]),
        "certs.issue_certificate.ms": ms(inclusive["certs.issue_certificate"]),
        "certs.verify_certificate.ms": ms(inclusive["certs.verify_certificate"]),
        "rng.read.calls": per_op(calls["rng.read"]),
        "rng.read.self_ms": ms(summary["self_s"]["rng.read"]),
    }
    for layer in LAYERS[:-1]:  # rng's self time is rng.read.self_ms
        out[f"{layer}.self_ms"] = ms(layer_self[layer])
    for step in ACTOR_STEPS:
        name = f"actors.{step}"
        out[f"{name}.ms"] = ms(inclusive[name])
        out[f"{name}.scalar_mul_calls"] = per_op(summary["step_scalar_muls"][name])
    return out


def write_spans(traces, path) -> None:
    """Write (call index, spans) pairs as JSON lines, one span a line;
    `parent` indexes the spans of the same call."""
    with open(path, "w") as fh:
        for call, spans in traces:
            for i, span in enumerate(spans):
                fh.write(json.dumps({
                    "call": call, "id": i, "name": span[NAME],
                    "start": span[START], "end": span[END],
                    "parent": span[PARENT], "op": span[OP],
                    "wire_bytes": span[WIRE],
                }) + "\n")
