"""Workload inputs, the timed op loops, and the metrics computed from them.

Every workload is a closed loop with one client: an op starts only after
the previous one has returned. An op is one voter on `issue-*` (entry of
its `ee_create_request` to the return of its `verify_ballot`, driven by
`harness.run_scenario`) and one ballot on `tally-*` (`certs.decode` plus
`actors.verify_ballot`). A run repeats workload calls, one
`run_scenario` or one freshly minted ballot box each, each on inputs
derived from the seed and the call index, so no input repeats in a run.
"""

from __future__ import annotations

import contextlib
import hashlib
import random
import resource
import statistics
import time
from collections import Counter
from dataclasses import dataclass, field, replace
from itertools import cycle

from cryptography.hazmat.primitives import hashes
from cryptography.hazmat.primitives.asymmetric import ec
from cryptography.hazmat.primitives.asymmetric.utils import decode_dss_signature

from anoncert import actors, certs, harness
from anoncert.curve import (BRAINPOOL_P256R1, SECP256R1, Point, Scalar,
                            generate_keypair, get_curve)
from anoncert.envelope import Signature
from anoncert.errors import AnoncertError
from anoncert.rng import DeterministicRng

import tracing

# Voters per run_scenario call: about 20 calls and 300 voters (for p90)
# in a 50 s run. The harness's O(N^2) view-separation audit is too small
# a share of run_s to show there at any electorate that fits a run (0.04%
# at 16 voters, 0.2% at 150, secp256r1 on a 2-vCPU Xeon), so it is seen
# only in harness.audit_s; a larger electorate would only give fewer
# calls to take run_s's median over.
ISSUE_WORKLOADS = {"issue-brainpool": (BRAINPOOL_P256R1, 16)}
TALLY_WORKLOADS = {"tally-secp256r1": SECP256R1}
BOX_SIZE = 200
TAMPER_EVERY = 10  # one ballot in ten is tampered
TAMPER_KINDS = ("payload", "signature", "certificate")
CANDIDATES = ("alice", "bob", "carol")

_OPENSSL_CURVES = {SECP256R1: ec.SECP256R1}
_ECDSA = ec.ECDSA(hashes.SHA256(), deterministic_signing=True)


@dataclass
class Call:
    """One workload call: a run_scenario, or minting and tallying one box."""

    setup_s: float  # before the first op: provisioning, or minting the box
    run_s: float  # the whole run_scenario, or tallying the whole box
    loop_s: float  # first op start to last op end
    audit_s: float  # last op end to the call's return
    latencies_s: list
    attempted: int
    failed: int
    valid_ops: set
    problems: list
    summary: dict | None = None  # traced calls only
    spans: list = field(default_factory=list)


def scenario_seed(seed, index: int) -> int:
    """Ten-digit rng_seed for call `index`: a fixed digit count keeps the
    per-voter wire bytes (the national_id detail holds the seed) constant."""
    h = hashlib.sha256(f"anoncert-issue:{seed}:{index}".encode()).digest()
    return 10**9 + int.from_bytes(h[:8], "big") % (9 * 10**9)


def scenario_problems(report) -> list:
    """Honest voters failing, view-separation leaks, broken invariants."""
    problems = [f"{v.ee_id}: {v.error}" for v in report.voters
                if v.status != "ok"]
    a = report.assertions
    if not (a["ra_view_separation"] and a["ca_view_separation"]):
        problems.append(f"view-separation leak: RA {a['ra_leaked']} "
                        f"CA {a['ca_leaked']}")
    if not a["all_invariants"]:
        problems.append("all_invariants is false")
    if sum(report.tally.values()) != report.successes:
        problems.append("tally does not count every successful voter")
    return problems


class VoterClock:
    """Times each voter from the entry of its ee_create_request to the
    return of its verify_ballot by wrapping the two names the harness
    imports, and tags the tracer's spans with the voter's op id."""

    def __init__(self, call: int, tracer=None):
        self.call = call
        self.tracer = tracer
        self.starts: list[float] = []
        self.ends: dict[int, float] = {}

    @contextlib.contextmanager
    def installed(self):
        create, verify = harness.ee_create_request, harness.verify_ballot

        def timed_create(*args, **kwargs):
            if self.tracer is not None:
                self.tracer.op = (self.call, len(self.starts))
            self.starts.append(time.perf_counter())
            return create(*args, **kwargs)

        def timed_verify(*args, **kwargs):
            out = verify(*args, **kwargs)
            self.ends[len(self.starts) - 1] = time.perf_counter()
            if self.tracer is not None:
                self.tracer.op = None
            return out

        harness.ee_create_request, harness.verify_ballot = timed_create, timed_verify
        try:
            yield self
        finally:
            harness.ee_create_request, harness.verify_ballot = create, verify


def issue_call(curve_id: str, voters: int, seed, index: int,
               traced: bool) -> Call:
    cfg = harness.ScenarioConfig(curve_id, voters, scenario_seed(seed, index))
    tracer = tracing.Tracer() if traced else None
    clock = VoterClock(index, tracer)
    with contextlib.ExitStack() as stack:
        run = harness.run_scenario
        if tracer is not None:
            stack.enter_context(tracing.installed(tracer))
            run = tracer.wrap("harness.run_scenario", run)
        stack.enter_context(clock.installed())
        start = time.perf_counter()
        report = run(cfg)
        end = time.perf_counter()
    problems = scenario_problems(report)
    ok = [i for i, v in enumerate(report.voters)
          if v.status == "ok" and i in clock.ends]
    latencies = [clock.ends[i] - clock.starts[i] for i in ok]
    # A leak or a broken invariant spoils every voter of the call.
    failed = voters if len(problems) > voters - len(ok) else voters - len(ok)
    first = clock.starts[0] if clock.starts else end
    last = max(clock.ends.values(), default=first)
    valid = {(index, i) for i in ok}
    return Call(
        setup_s=first - start, run_s=end - start, loop_s=last - first,
        audit_s=end - last, latencies_s=latencies, attempted=voters,
        failed=failed, valid_ops=valid, problems=problems,
        summary=tracing.summarise(tracer.spans, valid) if tracer else None,
        spans=tracer.spans if tracer else [],
    )


# --- tally ------------------------------------------------------------------


@dataclass(frozen=True)
class BallotBox:
    """Ballot bytes plus the verdict each must get; the program sees only
    `ca_public`, `now` and the bytes."""

    ca_public: Point
    now: int
    ballots: tuple
    expected: tuple
    expected_tally: dict


def _openssl_signature(key, message: bytes, curve_id: str) -> Signature:
    r, s = decode_dss_signature(key.sign(message, _ECDSA))
    return Signature(Scalar(curve_id, r), Scalar(curve_id, s))


def _flip_scalar_bit(value: int, rand: random.Random, n: int) -> int:
    # Low 248 bits only: the result stays in [1, n-1], so the program still
    # spends its scalar multiplications before rejecting.
    while True:
        out = value ^ (1 << rand.randrange(248))
        if 1 <= out < n:
            return out


def _tamper(ballot: certs.Ballot, kind: str, rand: random.Random, n: int):
    """Corrupt one field so that the ballot still decodes but must be
    rejected: payload bytes, ballot signature, or anonymous-certificate
    bytes (serial, public key or issuer signature)."""
    if kind == "payload":
        data = bytearray(ballot.payload)
        data[rand.randrange(len(data))] ^= rand.randrange(1, 256)
        return replace(ballot, payload=bytes(data))
    if kind == "signature":
        sig = ballot.signature
        if rand.random() < 0.5:
            sig = replace(sig, r=replace(sig.r, value=_flip_scalar_bit(sig.r.value, rand, n)))
        else:
            sig = replace(sig, s=replace(sig.s, value=_flip_scalar_bit(sig.s.value, rand, n)))
        return replace(ballot, signature=sig)
    cert = ballot.anon_cert
    part = rand.choice(("serial", "public_key", "issuer_signature"))
    if part == "serial":
        data = bytearray(cert.serial)
        data[rand.randrange(len(data))] ^= rand.randrange(1, 256)
        cert = replace(cert, serial=bytes(data))
    elif part == "public_key":
        pk = cert.public_key
        cert = replace(cert, public_key=replace(pk, x=pk.x ^ (1 << rand.randrange(248))))
    else:
        sig = cert.issuer_signature
        cert = replace(cert, issuer_signature=replace(
            sig, s=replace(sig.s, value=_flip_scalar_bit(sig.s.value, rand, n))))
    return replace(ballot, anon_cert=cert)


def mint_box(seed, index, size: int, tampered: int, curve_id: str) -> BallotBox:
    """Mint `size` distinct ballots for one election, `tampered` of them
    corrupted (kinds in rotation, positions seeded).

    The CA key comes from the program's generate_keypair, as an authority
    would make it. Voter keys and ECDSA signatures come from OpenSSL
    (RFC 6979, the same signatures `envelope.sign` makes), so the box is
    minted by an independent implementation and minting stays a small
    share of the run.
    """
    rand = random.Random(f"anoncert-tally:{seed}:{index}")
    params = get_curve(curve_id)
    openssl_curve = _OPENSSL_CURVES[curve_id]()
    ca = generate_keypair(params, DeterministicRng(rand.randbytes(32)))
    ca_key = ec.derive_private_key(ca.private.value, openssl_curve)
    kinds = dict(zip(sorted(rand.sample(range(size), tampered)),
                     cycle(TAMPER_KINDS)))
    placeholder = Signature(Scalar(curve_id, 1), Scalar(curve_id, 1))
    ballots, expected, tally = [], [], Counter()
    for i in range(size):
        voter_key = ec.derive_private_key(rand.randrange(1, params.n),
                                          openssl_curve)
        numbers = voter_key.public_key().public_numbers()
        cert = certs.Certificate(
            serial=rand.randbytes(16), subject="", issuer="CA",
            curve_id=curve_id, public_key=Point(curve_id, numbers.x, numbers.y),
            not_before=harness.VALIDITY_WINDOW[0],
            not_after=harness.VALIDITY_WINDOW[1],
            kind=certs.KIND_ANONYMOUS, issuer_signature=placeholder)
        cert = replace(cert, issuer_signature=_openssl_signature(
            ca_key, certs.cert_tbs_bytes(cert), curve_id))
        choice = rand.choice(CANDIDATES)
        ballot = certs.Ballot(choice.encode(), cert, placeholder)
        ballot = replace(ballot, signature=_openssl_signature(
            voter_key, certs.ballot_tbs_bytes(ballot), curve_id))
        if i in kinds:
            ballot = _tamper(ballot, kinds[i], rand, params.n)
        else:
            tally[choice] += 1
        ballots.append(certs.encode(ballot))
        expected.append(i not in kinds)
    return BallotBox(ca.public, harness.SIMULATION_TIME, tuple(ballots),
                     tuple(expected), dict(tally))


@dataclass
class TallyOutcome:
    verdicts: list  # True accepted, False rejected, None raised
    latencies_s: list
    first: float
    last: float
    problems: list


def tally_box(box: BallotBox, tracer=None, call: int = 0) -> TallyOutcome:
    """Decode and verify every ballot once, then count accepted votes."""
    verdicts, latencies, problems = [], [], []
    counted = Counter()
    clock = time.perf_counter
    first = clock()
    for i, blob in enumerate(box.ballots):
        if tracer is not None:
            tracer.op = (call, i)
        start = clock()
        try:
            ballot = certs.decode(blob)
            verdict = (isinstance(ballot, certs.Ballot)
                       and actors.verify_ballot(ballot, box.ca_public, box.now))
        except AnoncertError:
            verdict = False
        except Exception as exc:  # an op that raises is counted, not fatal
            verdict = None
            problems.append(f"ballot {i} raised {type(exc).__name__}: {exc}")
        latencies.append(clock() - start)
        verdicts.append(verdict)
        if verdict:
            counted[ballot.payload.decode(errors="replace")] += 1
    last = clock()
    if tracer is not None:
        tracer.op = None
    if dict(counted) != box.expected_tally:
        problems.append(f"tally {dict(counted)} != expected {box.expected_tally}")
    return TallyOutcome(verdicts, latencies, first, last, problems)


def tally_call(curve_id: str, seed, index: int, traced: bool) -> Call:
    start = time.perf_counter()
    box = mint_box(seed, index, BOX_SIZE, BOX_SIZE // TAMPER_EVERY, curve_id)
    setup = time.perf_counter() - start
    tracer = tracing.Tracer() if traced else None
    with contextlib.ExitStack() as stack:
        run = tally_box
        if tracer is not None:
            stack.enter_context(tracing.installed(tracer))
            run = tracer.wrap("harness.tally", run)
        start = time.perf_counter()
        out = run(box, tracer, index)
        end = time.perf_counter()
    problems = list(out.problems)
    wrong = [i for i, (got, want) in enumerate(zip(out.verdicts, box.expected))
             if got is not want]
    problems += [f"ballot {i}: verdict {out.verdicts[i]}, expected "
                 f"{box.expected[i]}" for i in wrong]
    valid = {(index, i) for i, got in enumerate(out.verdicts) if got is True}
    wrong_set = set(wrong)
    return Call(
        setup_s=setup, run_s=end - start, loop_s=out.last - out.first,
        audit_s=end - out.last,
        latencies_s=[t for i, t in enumerate(out.latencies_s)
                     if i not in wrong_set],
        attempted=len(box.ballots), failed=len(wrong), valid_ops=valid,
        problems=problems,
        summary=tracing.summarise(tracer.spans, valid) if tracer else None,
        spans=tracer.spans if tracer else [],
    )


# --- the timed loop and its metrics -------------------------------------------


def call_function(workload: str, seed):
    if workload in ISSUE_WORKLOADS:
        curve_id, voters = ISSUE_WORKLOADS[workload]
        return lambda index, traced: issue_call(curve_id, voters, seed, index, traced)
    if workload in TALLY_WORKLOADS:
        curve_id = TALLY_WORKLOADS[workload]
        return lambda index, traced: tally_call(curve_id, seed, index, traced)
    raise KeyError(workload)


def measure(call, seconds: float) -> list:
    """Start untraced workload calls until `seconds` have passed; at least
    one."""
    calls = []
    start = time.perf_counter()
    while not calls or time.perf_counter() - start < seconds:
        calls.append(call(len(calls), False))
    return calls


def measure_paired(call, seconds: float) -> tuple[list, list]:
    """Alternate untraced and traced calls until `seconds` have passed, so
    that both see the same machine conditions; at least one pair."""
    untraced, traced = [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        untraced.append(call(2 * len(traced), False))
        traced.append(call(2 * len(traced) + 1, True))
    return untraced, traced


def throughput(calls) -> float:
    loop = sum(c.loop_s for c in calls)
    return sum(len(c.latencies_s) for c in calls) / loop if loop > 0 else 0.0


def end_to_end(calls, import_s: float) -> dict:
    latencies = sorted(x for c in calls for x in c.latencies_s)
    p50 = p90 = 0.0
    if len(latencies) >= 2:
        p50 = statistics.median(latencies) * 1000.0
        p90 = statistics.quantiles(latencies, n=10, method="inclusive")[8] * 1000.0
    return {
        "throughput_per_s": throughput(calls),
        "latency_p50_ms": p50,
        "latency_p90_ms": p90,
        "run_s": statistics.median(c.run_s for c in calls),
        "setup_s": import_s + statistics.median(c.setup_s for c in calls),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


# Counters that must repeat exactly from one call to the next of a run.
# rng.read.calls is left out: rejection sampling on brainpoolP256r1
# discards about a third of the draws, so it depends on the seed.
def deterministic_counters(summary: dict) -> dict:
    out = {f"{name}.calls": count for name, count in summary["calls"].items()
           if name != "rng.read"}
    out.update({f"{name}.scalar_mul_calls": count
                for name, count in summary["step_scalar_muls"].items()})
    out["valid_op_scalar_muls"] = summary["valid_op_scalar_muls"]
    out["certs.wire_bytes"] = summary["wire_bytes"]
    return out


# A traced call's root span (run_scenario, or this benchmark's tally loop)
# covers its whole wall time, so the layer self times always add up to it.
# What the check bounds is the root's self time outside the audit window,
# which the benchmark's own clock measures (last op end to the call's
# return): time spent in the harness body or in functions no layer names.
# It is 0.1-0.2% of wall time today; more than this share fails the run.
ATTRIBUTION_TOLERANCE = 0.01


def per_layer(untraced: list, traced: list) -> tuple[dict, list]:
    """Per-layer metrics of the traced calls, and the problems found while
    checking that the trace is complete and its counters repeat."""
    problems = []
    counters = [deterministic_counters(c.summary) for c in traced]
    for i, other in enumerate(counters[1:], start=1):
        if other != counters[0]:
            diff = sorted(k for k in set(other) | set(counters[0])
                          if other.get(k) != counters[0].get(k))
            problems.append(f"counters of traced call {i} differ from call 0: {diff}")
    combined = tracing.merge([c.summary for c in traced])
    ops = sum(c.attempted for c in traced)
    valid = sum(len(c.valid_ops) for c in traced)
    metrics = tracing.layer_metrics(combined, ops, max(valid, 1))
    metrics["harness.provision_s"] = statistics.median(c.setup_s for c in traced)
    metrics["harness.audit_s"] = statistics.median(c.audit_s for c in traced)
    base = throughput(untraced)
    metrics["trace.overhead_ratio"] = throughput(traced) / base if base else 0.0
    wall = sum(c.run_s for c in traced)
    unattributed = combined["root_self_s"] - sum(c.audit_s for c in traced)
    metrics["trace.unattributed_ratio"] = unattributed / wall
    if unattributed > ATTRIBUTION_TOLERANCE * wall:
        problems.append(f"{unattributed:.6f} s of {wall:.6f} s traced wall "
                        f"time is in no named layer function nor the audit")
    worst = combined["most_negative_self_s"]
    if worst < -1e-6:
        problems.append(f"a span's children outlast it by {-worst:.6f} s")
    return metrics, problems
