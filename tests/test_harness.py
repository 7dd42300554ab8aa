import dataclasses
import hashlib
import json

import pytest
from click.testing import CliRunner

from anoncert.cli import main
from anoncert.curve import BRAINPOOL_P256R1, SECP256R1, TOY
from anoncert.errors import UnknownCurve
from anoncert.harness import PRESETS, ScenarioConfig, run_scenario
from anoncert.oracle import run_oracle_suite
from anoncert.vectors import PUBLISHED_VECTORS, verify_published_vectors


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
            ScenarioConfig(BRAINPOOL_P256R1, 1, 1, candidate_list=())
        with pytest.raises(ValueError):
            ScenarioConfig("no-such-curve", 1, 1)

    def test_toy_curve_rejected(self):
        # toy keys are 32-byte strings of mostly zeros, so a toy run would
        # report every voter's secrets as leaked across the views
        with pytest.raises(UnknownCurve):
            ScenarioConfig(TOY, 6, 1)

    def test_presets_cover_both_curves(self):
        assert set(PRESETS.values()) == {BRAINPOOL_P256R1, SECP256R1}


class TestVectors:
    def test_all_relations_pass(self):
        results = verify_published_vectors()
        assert len(results) == 12
        assert all(r.passed for r in results)

    def test_corrupted_constant_reported_per_relation(self):
        chain = PUBLISHED_VECTORS[BRAINPOOL_P256R1]
        bad_k = ("0" + chain.K[0][1:], chain.K[1])
        corrupted = {BRAINPOOL_P256R1: dataclasses.replace(chain, K=bad_k)}
        results = verify_published_vectors(corrupted)
        failed = [r.relation for r in results if not r.passed]
        assert set(failed) == {"K = J + r_CA*G", "k*G = K"}
        assert sum(r.passed for r in results) == 4


class TestOracle:
    def test_suite_passes(self):
        report = run_oracle_suite()
        assert report.group_order == 19
        assert report.all_ok, report.failures


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

    def test_demo_preset(self):
        result = CliRunner().invoke(
            main, ["demo", "--preset", "citizen-cert", "--voters", "1",
                   "--seed", "3", "--json"])
        assert result.exit_code == 0
        assert json.loads(result.output)["config"]["curve_id"] == SECP256R1

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

    def test_usage_error_exit_code(self):
        result = CliRunner().invoke(main, ["demo", "--curve", "nope"])
        assert result.exit_code == 2


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
