"""Tests of the benchmark's own tracer and ballot-box generator.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import importlib

import pytest

import tracing
import workloads
from anoncert.curve import SECP256R1, TOY, get_curve
from anoncert.rng import DeterministicRng

NAME, PARENT = tracing.NAME, tracing.PARENT


def span(name, start, end, parent=-1, op=None, wire=0):
    return [name, start, end, parent, op, wire]


def test_summarise_self_time_recursion_and_attribution():
    spans = [
        span("harness.run_scenario", 0.0, 10.0),
        span("actors.sign_ballot", 1.0, 5.0, parent=0, op=7),
        span("curve.scalar_mul", 2.0, 4.0, parent=1, op=7),
        span("certs.decode", 6.0, 9.0, parent=0, op=8),
        span("certs.decode", 7.0, 8.0, parent=3, op=8),
        span("certs.encode", 9.0, 9.5, parent=0, wire=100),
    ]
    summary = tracing.summarise(spans, valid_ops={7})
    assert summary["self_s"]["harness.run_scenario"] == pytest.approx(2.5)
    assert summary["self_s"]["actors.sign_ballot"] == pytest.approx(2.0)
    assert summary["inclusive_s"]["certs.decode"] == pytest.approx(3.0)
    assert summary["calls"]["certs.decode"] == 2
    assert summary["step_scalar_muls"] == {"actors.sign_ballot": 1}
    assert summary["valid_op_scalar_muls"] == 1
    assert summary["wire_bytes"] == 100
    assert sum(summary["layer_self_s"].values()) == pytest.approx(10.0)
    assert summary["most_negative_self_s"] == 0.0
    assert summary["root_self_s"] == pytest.approx(2.5)


def _traced_call(root_end, audit_s):
    spans = [span("harness.run_scenario", 0.0, root_end),
             span("curve.scalar_mul", 0.0, 10.0, parent=0, op=(0, 0))]
    return workloads.Call(
        setup_s=0.0, run_s=root_end, loop_s=10.0, audit_s=audit_s,
        latencies_s=[10.0], attempted=1, failed=0, valid_ops={(0, 0)},
        problems=[], summary=tracing.summarise(spans, {(0, 0)}))


def test_attribution_check_fails_on_root_time_outside_the_audit():
    untraced = [_traced_call(10.5, 0.5)]
    metrics, problems = workloads.per_layer(untraced, [_traced_call(10.5, 0.5)])
    assert problems == []
    assert metrics["trace.unattributed_ratio"] == pytest.approx(0.0)
    metrics, problems = workloads.per_layer(untraced, [_traced_call(10.5, 0.1)])
    assert metrics["trace.unattributed_ratio"] == pytest.approx(0.4 / 10.5)
    assert len(problems) == 1 and "no named layer" in problems[0]


def test_installed_traces_nested_calls_and_restores_names():
    mods = {name: importlib.import_module(f"anoncert.{name}")
            for name in tracing.NAMESPACES}
    before = {(m, a): getattr(mod, a) for m, mod in mods.items()
              for a in list(vars(mod)) if not a.startswith("__")}
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        mods["curve"].generate_keypair(get_curve(TOY), DeterministicRng(1))
    after = {(m, a): getattr(mod, a) for m, mod in mods.items()
             for a in list(vars(mod)) if not a.startswith("__")}
    assert after == before
    names = [s[NAME] for s in tracer.spans]
    assert names[0] == "curve.generate_keypair"
    assert "curve.scalar_mul" in names
    assert all(s[PARENT] == 0 for s in tracer.spans
               if s[NAME] == "curve.scalar_mul")


def test_ballot_box_is_seeded_distinct_and_judged_correctly():
    box = workloads.mint_box("test", 0, 9, 6, SECP256R1)
    assert box == workloads.mint_box("test", 0, 9, 6, SECP256R1)
    assert box.ballots != workloads.mint_box("test", 1, 9, 6, SECP256R1).ballots
    assert len(set(box.ballots)) == 9
    assert box.expected.count(False) == 6
    out = workloads.tally_box(box)
    assert out.verdicts == list(box.expected)
    assert out.problems == []
