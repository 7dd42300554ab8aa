import dataclasses
import functools
import hashlib
import json
import os
import sys
from collections import Counter
from collections.abc import Mapping

import pytest
from click.testing import CliRunner
from cryptography.hazmat.primitives.asymmetric import ec

from anoncert import actors, certs, curve, harness, oracle, vectors
from anoncert.certs import encode
from anoncert.cli import main
from anoncert.curve import (
    BRAINPOOL_P256R1,
    SECP256R1,
    TOY,
    Point,
    Scalar,
    get_curve,
    scalar_mul,
)
from anoncert.errors import Ineligible, UnknownCurve
from anoncert.harness import ScenarioConfig, run_scenario
from anoncert.oracle import CHECKS, run_oracle_suite
from anoncert.vectors import PUBLISHED_VECTORS, verify_published_vectors
from conftest import spy


class TestScenario:
    def test_ten_voters_brainpool(self):
        report = run_scenario(ScenarioConfig(BRAINPOOL_P256R1, 10, 42))
        assert report.successes == 10
        assert sum(report.tally.values()) == 10
        assert report.assertions["ra_view_separation"]
        assert report.assertions["ca_view_separation"]
        assert report.assertions["all_invariants"]

    def test_single_voter_secp(self):
        report = run_scenario(ScenarioConfig(SECP256R1, 1, 7))
        assert report.successes == 1
        assert report.voters[0].invariant_ok

    def test_deterministic_reports(self):
        cfg = ScenarioConfig(BRAINPOOL_P256R1, 3, 99)
        assert run_scenario(cfg).to_json() == run_scenario(cfg).to_json()

    def test_different_seeds_differ(self):
        a = run_scenario(ScenarioConfig(BRAINPOOL_P256R1, 3, 1))
        b = run_scenario(ScenarioConfig(BRAINPOOL_P256R1, 3, 2))
        assert a.to_json() != b.to_json()

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ScenarioConfig(BRAINPOOL_P256R1, 0, 1)
        with pytest.raises(ValueError):
            ScenarioConfig("no-such-curve", 1, 1)
        for seed in (-1, 2**64):  # the seeded generator takes a u64 seed
            with pytest.raises(ValueError):
                ScenarioConfig(BRAINPOOL_P256R1, 1, seed)

    def test_toy_curve_rejected(self):
        # toy keys are 32-byte strings of mostly zeros, so a toy run would
        # report every voter's secrets as leaked across the views
        with pytest.raises(UnknownCurve):
            ScenarioConfig(TOY, 6, 1)

    def test_refused_ballot_recorded_per_voter(self, monkeypatch):
        refuse_ballot(monkeypatch, 1)
        report = run_scenario(ScenarioConfig(SECP256R1, 3, 7))
        assert [v.status for v in report.voters] == ["ok", "error", "ok"]
        assert report.voters[1].error == \
            "BadSignature: ballot failed verification"
        assert sum(report.tally.values()) == report.successes == 2
        assert report.assertions["ra_view_separation"]
        assert report.assertions["ca_view_separation"]
        assert report.assertions["all_invariants"]

    def test_refused_request_does_not_stop_the_run(self, monkeypatch):
        process = harness.ra_process_request

        def refuse_first(state, req, ee_id, now):
            if ee_id == "voter-0":
                raise Ineligible("refused by the test")
            return process(state, req, ee_id, now)

        monkeypatch.setattr(harness, "ra_process_request", refuse_first)
        report = run_scenario(ScenarioConfig(SECP256R1, 3, 7))
        assert report.voters[0].error == "Ineligible: refused by the test"
        assert [v.status for v in report.voters[1:]] == ["ok", "ok"]
        assert report.successes == 2

    def test_misrouted_response_is_not_delivered(self, monkeypatch):
        # a response reaches only the EE the RA routes it to; any other
        # route is this voter's typed failure, not a finalized credential
        spy(monkeypatch, harness, "ra_route_response",
            lambda out, *_: ("voter-999", out[1]))
        finalized = spy(monkeypatch, harness, "ee_process_response")
        report = run_scenario(ScenarioConfig(SECP256R1, 3, 7))
        assert [v.error for v in report.voters] == [
            "ProtocolStateError: RA routed the response to voter-999"] * 3
        assert report.successes == 0 and report.tally == {}
        assert finalized == []

    def test_dump_path_that_is_a_file_refused_before_any_work(
            self, monkeypatch, tmp_path):
        # the dump would fail only after the whole run had been spent
        made = spy(monkeypatch, harness, "generate_keypair")
        path = tmp_path / "transcript"
        path.write_text("not a directory\n")
        with pytest.raises(ValueError):
            run_scenario(ScenarioConfig(SECP256R1, 3, 7), dump_dir=path)
        assert made == []
        assert path.read_text() == "not a directory\n"

    def test_dump_path_under_a_file_refused_before_any_work(
            self, monkeypatch, tmp_path):
        # no directory can be made below a regular file
        made = spy(monkeypatch, harness, "generate_keypair")
        blocker = tmp_path / "transcript"
        blocker.write_text("not a directory\n")
        with pytest.raises(ValueError, match="not a usable directory"):
            run_scenario(ScenarioConfig(SECP256R1, 3, 7),
                         dump_dir=blocker / "sub")
        assert made == []
        assert blocker.read_text() == "not a directory\n"

    def test_invariant_uses_the_drawn_r_ra(self, monkeypatch):
        # j one too high and k right: the voter still gets a working
        # (k, K), and only the r_RA the EE drew shows that j != i + r_RA.
        # The RA's r_CA needle must still be the r_CA the CA drew, not k - j.
        deltas = iter((1, -1))

        def skewed(x, r):
            n = get_curve(x.curve_id).n
            return Scalar(x.curve_id, (x.value + r.value + next(deltas)) % n)

        ca_draws, draw = [], actors.random_blinding

        def spy_draw(params, rng):
            r = draw(params, rng)
            if sys._getframe(1).f_code is actors.ca_process_request.__code__:
                ca_draws.append(r)
            return r

        forbidden = {}
        monkeypatch.setattr("anoncert.actors.expand_private", skewed)
        monkeypatch.setattr(actors, "random_blinding", spy_draw)
        spy(monkeypatch, harness, "_leaks", lambda out, log, actor, needles:
            forbidden.update({actor: dict(needles)}))
        report = run_scenario(ScenarioConfig(SECP256R1, 1, 7))
        assert report.successes == 1
        assert not report.voters[0].invariant_ok
        assert report.assertions["all_invariants"] is False
        assert len(ca_draws) == 1
        assert forbidden["RA"]["voter-0.r_CA"] == ca_draws[0].to_bytes()

    def test_each_actor_gets_the_bytes_of_its_hop(self, monkeypatch, tmp_path):
        # every step is handed what decodes from the bytes logged for its
        # hop, never the sender's own object
        sent, received = [], []

        def hop(name, received_at, sent_of):
            def hook(out, *args):
                if received_at is not None:
                    received.append(args[received_at])
                if sent_of is not None:
                    sent.append(sent_of(args, out))

            spy(monkeypatch, harness, name, hook)

        hop("ee_create_request", None, lambda args, out: out[0])
        hop("ra_process_request", 1, lambda args, out: out[0])
        hop("ca_process_request", 1, lambda args, out: out[0])
        # the RA passes on the response it was handed
        hop("ra_route_response", 1, lambda args, out: args[1])
        hop("ee_process_response", 1, None)
        report = run_scenario(ScenarioConfig(SECP256R1, 1, 7), dump_dir=tmp_path)
        assert report.successes == 1
        hops = [bytes.fromhex(path.read_text())
                for path in sorted(tmp_path.iterdir())
                if path.name.endswith("_received.hex")]
        assert len(sent) == len(received) == len(hops) == 4
        for from_sender, to_receiver, wire in zip(sent, received, hops):
            assert to_receiver is not from_sender
            assert encode(to_receiver) == wire


def refuse_ballot(monkeypatch, index):
    """Make the harness's check of the `index`-th ballot it casts fail."""
    checked = spy(monkeypatch, harness, "verify_ballot",
                  lambda ok, *_: ok and len(checked) != index + 1)


# The calls one seeded 5-voter run (seed 77) makes, per curve. The CA, RA
# and identity-root keys are derived and loaded once per run (the 3 +).
# Each voter then derives 5 keys: 2 expansion r*G, its own key and 2 ECIES
# ephemeral keys (each ECDH reuses its k*G derivation); the EE builds k's
# key from (k, K) (`check_key_pair`), which derives nothing. On secp256r1
# the u1*G of its 7 verifications adds 7 more; brainpoolP256r1's OpenSSL
# verify derives no private key. Each voter loads 4 public keys: its 2
# ECIES ephemeral points, once per decryption, the I of the request the
# RA verifies, and its K, which `check_key_pair` loads and the ballot's
# verification reuses. It makes 7 signature checks, one per trust
# decision: the RA checks the request and the preexisting certificate,
# the CA the forwarded request, the RA the response it routes, the EE the
# anonymous certificate (not the response's signature), and the tally the
# ballot's certificate and its signature. The Python `_mul`, the only way
# into the comb, computes only the u2*Q of secp256r1's 7 verifications
# (the `mul_add` and `_mul` rows of test_import_paths keep it there): a
# key's first walk builds a table it drops, its second the kept one, so
# the 3 authority keys build 2 and each voter's I and K 1. brainpoolP256r1
# builds no comb table at all.
SIGNATURE_CHECKS = {"verify_signed CertificateRequest": 5,
                    "verify_signed Certificate": 3 * 5,
                    "verify_signed ForwardedRequest": 5,
                    "verify_signed CertificateResponse": 5,
                    "verify_signed Ballot": 5}
LEDGER = {
    BRAINPOOL_P256R1: {"derive_private_key": 3 + 5 * 5,
                       "public_key": 3 + 4 * 5, **SIGNATURE_CHECKS,
                       "_mul": 0, "_build_comb": 0},
    SECP256R1: {"derive_private_key": 3 + (5 + 7) * 5,
                "public_key": 3 + 4 * 5, **SIGNATURE_CHECKS,
                "_mul": 7 * 5, "_build_comb": 3 * 2 + 2 * 5},
}


@functools.cache
def counted(curve_id: str) -> Counter:
    """The calls of the curve's seeded LEDGER run, each under its row."""
    with pytest.MonkeyPatch.context() as mp:
        calls = {"derive_private_key": spy(mp, ec, "derive_private_key"),
                 "public_key": spy(mp, ec.EllipticCurvePublicNumbers,
                                   "public_key"),
                 "_mul": spy(mp, curve, "_mul"),
                 "_build_comb": spy(mp, curve, "_build_comb")}
        checks = [spy(mp, module, "verify_signed")
                  for module in (certs, actors)]
        report = run_scenario(ScenarioConfig(curve_id, 5, 77))
    assert report.successes == 5
    return Counter({row: len(made) for row, made in calls.items()}) + Counter(
        f"verify_signed {type(msg).__name__}"
        for made in checks for msg, _ in made)


def ledger_rows(curve_id: str, *functions) -> list:
    """The LEDGER rows of `functions` on the curve, and the calls its run
    counted under them."""
    return [Counter({row: n for row, n in rows.items()
                     if row.split()[0] in functions})
            for rows in (LEDGER[curve_id], counted(curve_id))]


def test_python_mul_runs_only_inside_verify(named_curve):
    want, calls = ledger_rows(named_curve.curve_id, "_mul", "_build_comb")
    assert calls == want


def test_seven_signature_checks_per_voter(named_curve):
    want, calls = ledger_rows(named_curve.curve_id, "verify_signed")
    assert calls == want


def test_openssl_key_derived_once_per_scalar(named_curve):
    want, calls = ledger_rows(named_curve.curve_id, "derive_private_key")
    assert calls == want


def test_openssl_public_key_loaded_once_per_point(named_curve):
    want, calls = ledger_rows(named_curve.curve_id, "public_key")
    assert calls == want


def held_bytes(obj, out):
    """Add to `out` every bytes value reachable from `obj` through dataclass
    fields, mapping keys and values, and set and tuple members, taking each
    Scalar and Point as its encoding."""
    if isinstance(obj, (Scalar, Point)):
        out.add(obj.to_bytes())
    elif isinstance(obj, bytes):
        out.add(obj)
    elif dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj):
            held_bytes(getattr(obj, f.name), out)
    elif isinstance(obj, Mapping):
        for key, value in obj.items():
            held_bytes(key, out)
            held_bytes(value, out)
    elif isinstance(obj, (set, frozenset, tuple)):
        for member in obj:
            held_bytes(member, out)


@pytest.mark.parametrize("curve_id", [BRAINPOOL_P256R1, SECP256R1])
def test_authority_states_hold_no_voter_secret(monkeypatch, curve_id):
    # The byte-scan audits what each authority saw on the wire; this scans
    # what each one kept. Every state a step returns is walked: the RA's
    # must hold nothing of the blinding or the anonymous credential, the
    # CA's nothing that names the voter.
    ra_states, ca_states, requested, finalized = [], [], [], []
    for name, kept in [("ra_process_request", ra_states),
                       ("ra_route_response", ra_states),
                       ("ca_process_request", ca_states),
                       ("ee_create_request", requested)]:
        spy(monkeypatch, harness, name,
            lambda out, *_, kept=kept: kept.append(out[1]))
    spy(monkeypatch, harness, "ee_process_response",
        lambda out, *_: finalized.append(out))
    report = run_scenario(ScenarioConfig(curve_id, 4, 77))
    assert report.successes == 4
    assert len(requested) == len(finalized) == 4
    ra_held, ca_held = set(), set()
    for state in ra_states:
        held_bytes(state, ra_held)
    for state in ca_states:
        held_bytes(state, ca_held)
    n = get_curve(curve_id).n
    for ee, done in zip(requested, finalized):
        result = done.result
        r_ca = (result.formal_private.value
                - result.temporary_private.value) % n
        ra_secret = {
            "r_RA": ee.secrets.r_ra.to_bytes(),
            "r_CA": Scalar(curve_id, r_ca).to_bytes(),
            "k": result.formal_private.to_bytes(),
            "K": result.anon_cert.public_key.to_bytes(),
            "anon_serial": result.anon_cert.serial,
        }
        ca_secret = {
            "i": ee.private.to_bytes(),
            "I": ee.preexisting_cert.public_key.to_bytes(),
            "preexisting_serial": ee.preexisting_cert.serial,
            "r_RA": ee.secrets.r_ra.to_bytes(),
        }
        # the walk reaches set members: the RA keeps the serials it allows
        assert ee.preexisting_cert.serial in ra_held
        assert [label for label, v in ra_secret.items() if v in ra_held] == []
        assert [label for label, v in ca_secret.items() if v in ca_held] == []


def corrupted_brainpool_k():
    """The published vectors with the first digit of brainpool's K.x zeroed."""
    chain = PUBLISHED_VECTORS[BRAINPOOL_P256R1]
    bad_k = ("0" + chain.K[0][1:], chain.K[1])
    return {BRAINPOOL_P256R1: dataclasses.replace(chain, K=bad_k)}


class TestVectors:
    def test_all_relations_pass(self):
        results = verify_published_vectors()
        assert len(results) == 12
        assert all(r.passed for r in results)

    def test_corrupted_constant_reported_per_relation(self, monkeypatch):
        monkeypatch.setattr(vectors, "PUBLISHED_VECTORS",
                            corrupted_brainpool_k())
        results = verify_published_vectors()
        failed = [r.relation for r in results if not r.passed]
        assert set(failed) == {"K = J + r_CA*G", "k*G = K"}
        assert sum(r.passed for r in results) == 4


class TestOracle:
    def test_suite_passes(self):
        report = run_oracle_suite()
        assert report.group_order == 19
        assert report.all_ok, report.failures

    def test_wrong_group_order_fails_the_verdict(self, monkeypatch):
        enumerate_all = oracle.enumerate_group
        monkeypatch.setattr(oracle, "enumerate_group",
                            lambda *args: enumerate_all(*args)[:-1])
        report = run_oracle_suite()
        assert report.group_order == 18
        assert report.failures == ["group order 18 != declared n 19"]
        assert all(getattr(report, name) for name in CHECKS)
        assert not report.all_ok
        result = CliRunner().invoke(main, ["oracle"])
        assert result.exit_code == 1
        assert "  group order 18 != declared n 19" in result.output.splitlines()

    def test_each_flag_reads_its_own_check(self, monkeypatch):
        mul = oracle.scalar_mul

        def wrong_at_3(k):
            return curve.Point.infinity(TOY) if k.value == 3 else mul(k)

        monkeypatch.setattr(oracle, "scalar_mul", wrong_at_3)
        report = run_oracle_suite()
        assert [name for name in CHECKS if not getattr(report, name)] == [
            "scalar_table_ok"]
        assert len(report.failures) == 1
        assert report.failures[0].startswith("scalar_mul(3, G) = INF")
        result = CliRunner().invoke(main, ["oracle"])
        assert result.exit_code == 1
        assert "[FAIL] scalar_table_ok" in result.output.splitlines()


class TestCli:
    def test_vectors_command(self):
        result = CliRunner().invoke(main, ["vectors"])
        assert result.exit_code == 0
        assert result.output.count("[PASS]") == 12

    def test_vectors_json(self):
        result = CliRunner().invoke(main, ["vectors", "--json"])
        assert result.exit_code == 0
        assert all(entry["passed"] for entry in json.loads(result.output))

    def test_demo_json_deterministic(self):
        args = ["demo", "--curve", SECP256R1, "--voters", "2",
                "--seed", "5", "--json"]
        first = CliRunner().invoke(main, args)
        second = CliRunner().invoke(main, args)
        assert first.exit_code == 0
        assert first.output == second.output

    def test_vectors_failure_shown(self, monkeypatch):
        corrupted = corrupted_brainpool_k()
        monkeypatch.setattr(vectors, "PUBLISHED_VECTORS", corrupted)
        result = CliRunner().invoke(main, ["vectors"])
        assert result.exit_code == 1
        lines = result.output.splitlines()
        failed = lines.index("[FAIL] brainpoolP256r1: k*G = K")
        assert lines[failed + 1].split() == [
            "expected", "".join(corrupted[BRAINPOOL_P256R1].K)]
        assert lines[failed + 2].split()[0] == "computed"

    def test_demo_failure_exit_code(self, monkeypatch):
        refuse_ballot(monkeypatch, 1)
        result = CliRunner().invoke(main, ["demo", "--curve", SECP256R1,
                                           "--voters", "3", "--seed", "7"])
        assert result.exit_code == 1
        assert "successes: 2/3" in result.output
        assert ("  voter-1: BadSignature: ballot failed verification"
                in result.output.splitlines())

    def test_keygen_text(self):
        result = CliRunner().invoke(main, ["keygen", "--curve", SECP256R1])
        assert result.exit_code == 0
        lines = [line.split() for line in result.output.splitlines()]
        assert [line[0] for line in lines] == ["curve:", "private:", "public:"]
        params = get_curve(lines[0][1])
        private = Scalar(params.curve_id, int(lines[1][1], 16))
        assert scalar_mul(private).to_hex() == lines[2][1]

    def test_keygen(self):
        result = CliRunner().invoke(
            main, ["keygen", "--curve", BRAINPOOL_P256R1, "--json"])
        assert result.exit_code == 0
        doc = json.loads(result.output)
        assert len(doc["private"]) == 64
        assert len(doc["public_x"]) == 64

    def test_oracle_command(self):
        result = CliRunner().invoke(main, ["oracle"])
        assert result.exit_code == 0
        assert "[FAIL]" not in result.output

    def test_oracle_json(self):
        result = CliRunner().invoke(main, ["oracle", "--json"])
        assert result.exit_code == 0
        doc = json.loads(result.output)
        assert all(doc[name] for name in (
            "scalar_table_ok", "group_laws_ok", "homomorphism_ok",
            "uniform_expansion_ok"))
        assert doc["failures"] == []

    def test_usage_error_exit_code(self):
        result = CliRunner().invoke(main, ["demo", "--curve", "nope"])
        assert result.exit_code == 2

    @pytest.mark.parametrize("voters", ["0", "-3"])
    def test_voters_below_one_is_usage_error(self, voters):
        result = CliRunner().invoke(main, ["demo", "--voters", voters])
        assert result.exit_code == 2
        assert "--voters" in result.output

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_seed_out_of_range_is_usage_error(self, seed):
        result = CliRunner().invoke(main, ["demo", "--seed", seed])
        assert result.exit_code == 2
        assert "--seed" in result.output

    def test_nonempty_dump_dir_is_usage_error(self, tmp_path):
        # a second run into one directory would mix its files with the first's
        (tmp_path / "0000_EE_sent.hex").write_text("00\n")
        result = CliRunner().invoke(
            main, ["demo", "--voters", "1", "--dump-dir", str(tmp_path)])
        assert result.exit_code == 2
        assert "--dump-dir" in result.output
        assert len(list(tmp_path.iterdir())) == 1

    def test_uncreatable_dump_dir_is_usage_error(self, tmp_path):
        blocker = tmp_path / "transcript"
        blocker.write_text("not a directory\n")
        result = CliRunner().invoke(main, ["demo", "--voters", "1",
                                           "--dump-dir", str(blocker / "sub")])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert "--dump-dir" in result.output
        assert "Traceback" not in result.output

    def test_largest_seed_accepted(self):
        result = CliRunner().invoke(
            main, ["demo", "--voters", "1", "--seed", str(2**64 - 1)])
        assert result.exit_code == 0


class TestTranscriptDump:
    def test_dump_dir_written(self, tmp_path):
        result = CliRunner().invoke(
            main, ["demo", "--curve", SECP256R1, "--voters", "1",
                   "--seed", "4", "--json", "--dump-dir", str(tmp_path)])
        assert result.exit_code == 0
        files = sorted(p.name for p in tmp_path.iterdir())
        assert len(files) == 8  # 4 messages, each logged at sender and receiver
        content = (tmp_path / files[0]).read_text().strip()
        assert content and set(content) <= set("0123456789ABCDEF")

    def test_dump_names_sort_in_delivery_order(self, tmp_path):
        # with 4 digits, 10000_... would sort before 1000_...
        log = [("EE", "sent", bytes([idx % 256])) for idx in range(10_001)]
        harness.dump_transcript(log, tmp_path)
        order = [int(name.split("_")[0]) for name in sorted(os.listdir(tmp_path))]
        assert order == list(range(10_001))

    @pytest.mark.parametrize("curve_id, want", [
        (SECP256R1,
         "4a5937bb9e55016e495997f31bb984e4b4ea6f4582d24809b9956c9925f295c5"),
        (BRAINPOOL_P256R1,
         "d4f9749108d78c619d1a82ad65887bbe6d8df5f546cae1c9fd15e597c8f7bbbb"),
    ])
    def test_seed_77_wire_golden(self, tmp_path, curve_id, want):
        # sha256 of every message of the seeded 5-voter demo, in file-name
        # order; any change to the wire bytes changes it
        result = CliRunner().invoke(
            main, ["demo", "--curve", curve_id, "--voters", "5",
                   "--seed", "77", "--dump-dir", str(tmp_path)])
        assert result.exit_code == 0
        h = hashlib.sha256()
        for path in sorted(tmp_path.iterdir()):
            h.update(path.read_bytes())
        assert h.hexdigest() == want

    @pytest.mark.parametrize("curve_id, want", [
        (SECP256R1,
         "efa1f932e477b5c06a74b91d18af2d42cb9d8250a25dfd68833980e9fc3ebefc"),
        (BRAINPOOL_P256R1,
         "b7bf43c24e22cb02f21d024f553c7022001e7f85fb22e734a0b6b19894156eb2"),
    ])
    def test_seed_77_report_golden(self, curve_id, want):
        # sha256 of the seeded 5-voter `demo --json` report
        result = CliRunner().invoke(
            main, ["demo", "--curve", curve_id, "--voters", "5",
                   "--seed", "77", "--json"])
        assert result.exit_code == 0
        assert hashlib.sha256(result.output.encode()).hexdigest() == want

    @pytest.mark.parametrize("curve_id", [SECP256R1, BRAINPOOL_P256R1])
    def test_seed_77_report_pairs_no_voter_with_a_choice(self, curve_id):
        # the report is public: the tally and each voter's outcome, never
        # which candidate a voter chose, and only the settings a caller gave
        result = CliRunner().invoke(
            main, ["demo", "--curve", curve_id, "--voters", "5",
                   "--seed", "77", "--json"])
        assert result.exit_code == 0
        doc = json.loads(result.output)
        assert doc["config"] == {"curve_id": curve_id, "num_voters": 5,
                                 "rng_seed": 77}
        assert [sorted(v) for v in doc["voters"]] == \
            [["ee_id", "error", "invariant_ok", "status"]] * 5
        assert sum(doc["tally"].values()) == 5
        assert set(doc["tally"]) <= set(harness.CANDIDATES)

    @pytest.mark.parametrize("curve_id, want", [
        (SECP256R1,
         "19e6d5d2166951d68a0c3932f9196ab919b1aa9997522912fcffed8331d6df96"),
        (BRAINPOOL_P256R1,
         "b0e0fa1b0d66b0f624618204f84a59e5f03b546aefa665f30f19bfd093bb17b6"),
    ])
    def test_seed_77_ballot_golden(self, monkeypatch, curve_id, want):
        # ballots never reach the transcript, so the wire golden above does
        # not pin their layout: hash the encodings of the 5 ballots cast
        cast = []
        spy(monkeypatch, harness, "sign_ballot",
            lambda ballot, *_: cast.append(encode(ballot)))
        run_scenario(ScenarioConfig(curve_id, 5, 77))
        assert len(cast) == 5
        assert hashlib.sha256(b"".join(cast)).hexdigest() == want
