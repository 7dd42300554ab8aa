"""Acceptance suite: one test per release criterion, with its stated
runtime budget and tolerance. Each test prints a single pass line so a
`pytest -s tests/test_acceptance.py` run reads as a checklist."""

import time

from click.testing import CliRunner

from anoncert.cli import main
from anoncert.curve import (
    BRAINPOOL_P256R1,
    SECP256R1,
    Scalar,
    expand_private,
    expand_public,
    generate_keypair,
    get_curve,
    scalar_mul,
)
from anoncert.envelope import (
    ecies_decrypt,
    ecies_encrypt,
    sign,
    sym_decrypt,
    sym_encrypt,
    verify,
)
from anoncert.errors import AnoncertError
from anoncert.harness import ScenarioConfig, run_scenario
from anoncert.oracle import run_oracle_suite
from anoncert.rng import DeterministicRng
from anoncert.vectors import PUBLISHED_VECTORS, check_chain


def _report(num, ok, label):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {num}: {label}")
    assert ok, f"criterion {num} failed: {label}"


def _flip_bit(data: bytes, bit: int) -> bytes:
    out = bytearray(data)
    out[bit // 8] ^= 1 << (bit % 8)
    return bytes(out)


def test_criterion_1_golden_vectors_brainpool():
    start = time.monotonic()
    results = check_chain(PUBLISHED_VECTORS[BRAINPOOL_P256R1])
    elapsed = time.monotonic() - start
    per_relation = {r.relation: r.passed for r in results}
    ok = len(per_relation) == 6 and all(per_relation.values()) and elapsed < 1.0
    for r in results:
        if not r.passed:
            print(f"  mismatch in {r.relation}: expected {r.expected}, "
                  f"computed {r.computed}")
    _report(1, ok, f"brainpoolP256r1 chain bit-exact in {elapsed:.3f}s")


def test_criterion_2_golden_vectors_secp256r1():
    start = time.monotonic()
    results = check_chain(PUBLISHED_VECTORS[SECP256R1])
    elapsed = time.monotonic() - start
    ok = (len(results) == 6 and all(r.passed for r in results)
          and elapsed < 1.0)
    _report(2, ok, f"secp256r1 chain bit-exact in {elapsed:.3f}s")


def test_criterion_3_expansion_homomorphism():
    start = time.monotonic()
    failures = 0
    rng = DeterministicRng(b"criterion-3")
    for curve_id in (BRAINPOOL_P256R1, SECP256R1):
        params = get_curve(curve_id)
        for _ in range(1000):
            x = Scalar(curve_id,
                       1 + int.from_bytes(rng.read(32), "big") % (params.n - 1))
            r = Scalar(curve_id,
                       1 + int.from_bytes(rng.read(32), "big") % (params.n - 1))
            if (x.value + r.value) % params.n == 0:
                continue
            left = scalar_mul(expand_private(x, r))
            right = expand_public(scalar_mul(x), r)
            if left != right:
                failures += 1
    elapsed = time.monotonic() - start
    ok = failures == 0 and elapsed < 30.0
    _report(3, ok, f"2000 random homomorphism cases, {failures} failures, "
                   f"{elapsed:.1f}s")


def test_criterion_4_toy_curve_oracle():
    start = time.monotonic()
    report = run_oracle_suite()
    elapsed = time.monotonic() - start
    ok = report.all_ok and report.group_order == 19 and elapsed < 1.0
    for failure in report.failures[:5]:
        print(f"  {failure}")
    _report(4, ok, f"exhaustive order-19 oracle agreement in {elapsed:.3f}s")


def test_criterion_5_end_to_end_scenario():
    start = time.monotonic()
    report = run_scenario(ScenarioConfig(BRAINPOOL_P256R1, 100, 2024))
    elapsed = time.monotonic() - start
    ok = (report.successes == 100
          and sum(report.tally.values()) == 100
          and report.assertions["all_invariants"]
          and elapsed < 60.0)
    _report(5, ok, f"100 voters, 100 verified ballots, private-key "
                   f"invariant holds, {elapsed:.1f}s")


def test_criterion_6_view_separation():
    violations = []
    for seed in range(100):
        report = run_scenario(ScenarioConfig(
            BRAINPOOL_P256R1 if seed % 2 else SECP256R1, 1, seed))
        if not report.assertions["ra_view_separation"]:
            violations.append((seed, "RA", report.assertions["ra_leaked"]))
        if not report.assertions["ca_view_separation"]:
            violations.append((seed, "CA", report.assertions["ca_leaked"]))
    for v in violations[:5]:
        print(f"  leak: {v}")
    _report(6, not violations,
            "100 randomized runs, zero transcript leaks either side")


def test_criterion_7_envelope_and_signature_robustness():
    rng = DeterministicRng(b"criterion-7")
    params = get_curve(BRAINPOOL_P256R1)
    rejected = 0
    total = 0

    pair = generate_keypair(params, rng)
    ct = ecies_encrypt(pair.public, b"robustness target", rng)
    for _ in range(200):
        total += 1
        bit = int.from_bytes(rng.read(4), "big") % (len(ct) * 8)
        try:
            ecies_decrypt(pair.private, _flip_bit(ct, bit))
        except AnoncertError:
            rejected += 1

    key = rng.read(32)
    sct = sym_encrypt(key, b"certificate || blinding", b"aad", rng)
    for _ in range(500):
        total += 1
        bit = int.from_bytes(rng.read(4), "big") % (len(sct) * 8)
        try:
            sym_decrypt(key, _flip_bit(sct, bit), b"aad")
        except AnoncertError:
            rejected += 1

    msg = b"ballot payload"
    sig = sign(pair.private, msg)
    sig_raw = sig.to_bytes()
    for _ in range(300):
        total += 1
        if int.from_bytes(rng.read(1), "big") % 2:
            bit = int.from_bytes(rng.read(4), "big") % (len(msg) * 8)
            bad = verify(pair.public, _flip_bit(msg, bit), sig)
        else:
            bit = int.from_bytes(rng.read(4), "big") % (len(sig_raw) * 8)
            from anoncert.envelope import Signature
            bad = verify(pair.public, msg,
                         Signature.from_bytes(_flip_bit(sig_raw, bit),
                                              params.curve_id))
        if not bad:
            rejected += 1

    deterministic = (sign(pair.private, msg).to_bytes()
                     == sign(pair.private, msg).to_bytes())
    ok = rejected == total and total >= 1000 and deterministic
    _report(7, ok, f"{rejected}/{total} perturbations rejected, "
                   f"deterministic signing holds")


def test_criterion_8_demo_determinism():
    args = ["demo", "--curve", BRAINPOOL_P256R1, "--voters", "5",
            "--seed", "77", "--json"]
    first = CliRunner().invoke(main, args)
    second = CliRunner().invoke(main, args)
    ok = (first.exit_code == 0 and second.exit_code == 0
          and first.output == second.output)
    _report(8, ok, "two demo runs produce byte-identical JSON reports")
