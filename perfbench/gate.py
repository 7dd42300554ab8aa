"""Correctness gate, run before any timing.

It fails the benchmark when the wire goldens of the seeded 5-voter demo
change, when an honest voter fails, when a transcript leaks across the
view-separation boundary or an invariant breaks, or when a tally gives a
wrong verdict. In a traced run it also checks that tracing changes no
output: the same report, transcript digest and verdicts as untraced.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import shutil
import tempfile

from anoncert import harness
from anoncert.curve import BRAINPOOL_P256R1, SECP256R1

import tracing
import workloads

GOLDEN_SEED = 77
GOLDEN_VOTERS = 5
# sha256 of the `demo --voters 5 --seed 77 --dump-dir D` files, concatenated
# in name order.
GOLDEN_DIGESTS = {
    SECP256R1: "4a5937bb9e55016e495997f31bb984e4b4ea6f4582d24809b9956c9925f295c5",
    BRAINPOOL_P256R1: "d4f9749108d78c619d1a82ad65887bbe6d8df5f546cae1c9fd15e597c8f7bbbb",
}
GATE_BOX_SIZE = 12
GATE_BOX_TAMPERED = 6  # two of each tamper kind


def transcript_digest(directory) -> str:
    h = hashlib.sha256()
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def golden_run(curve_id: str, workdir, traced: bool = False):
    """The seeded golden scenario; returns (report, transcript digest)."""
    cfg = harness.ScenarioConfig(curve_id, GOLDEN_VOTERS, GOLDEN_SEED)
    directory = tempfile.mkdtemp(dir=workdir)
    try:
        with (tracing.installed(tracing.Tracer()) if traced
              else contextlib.nullcontext()):
            report = harness.run_scenario(cfg, dump_dir=directory)
        return report, transcript_digest(directory)
    finally:
        shutil.rmtree(directory)


def _tally_verdicts(box, traced: bool) -> list:
    tracer = tracing.Tracer() if traced else None
    with (tracing.installed(tracer) if traced else contextlib.nullcontext()):
        out = workloads.tally_box(box, tracer)
    return out.verdicts


def run_gate(workload: str, workdir, traced: bool) -> list:
    """Return every problem found; an empty list means the gate passed."""
    problems = []
    for curve_id, want in GOLDEN_DIGESTS.items():
        report, digest = golden_run(curve_id, workdir)
        if digest != want:
            problems.append(f"{curve_id} wire golden: sha256 {digest}, "
                            f"expected {want}")
        problems += [f"{curve_id} golden: {p}"
                     for p in workloads.scenario_problems(report)]
        if traced and workloads.ISSUE_WORKLOADS.get(workload, ("",))[0] == curve_id:
            traced_report, traced_digest = golden_run(curve_id, workdir, True)
            if traced_report.to_json() != report.to_json():
                problems.append(f"{curve_id}: tracing changed the run report")
            if traced_digest != digest:
                problems.append(f"{curve_id}: tracing changed the transcript")

    box = workloads.mint_box("gate", 0, GATE_BOX_SIZE, GATE_BOX_TAMPERED,
                             SECP256R1)
    verdicts = _tally_verdicts(box, traced=False)
    if verdicts != list(box.expected):
        problems.append(f"gate tally: verdicts {verdicts}, expected "
                        f"{list(box.expected)}")
    if traced and workload in workloads.TALLY_WORKLOADS:
        if _tally_verdicts(box, traced=True) != verdicts:
            problems.append("tracing changed the tally verdicts")
    return problems
