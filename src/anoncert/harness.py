"""Deterministic multi-party scenario runner.

Provisions a CA, an RA, and N end entities from one splittable seeded
generator, drives the full issuance flow per voter, casts and verifies
one ballot each, and byte-scans the per-actor transcripts for material
that must never appear on the wrong side of the trust boundary.

Reports are reproducible: identical config (including seed) yields
byte-identical JSON. Wall-clock timing is therefore kept out of the
JSON report and surfaced separately.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field

from .actors import (
    CaState,
    EeState,
    RaState,
    Transcript,
    ca_process_request,
    ee_create_request,
    ee_process_response,
    ra_process_request,
    ra_route_response,
    sign_ballot,
    verify_ballot,
)
from .certs import KIND_PREEXISTING, encode, issue_certificate
from .curve import OPENSSL_CURVES, Scalar, generate_keypair, get_curve
from .errors import AnoncertError, UnknownCurve
from .rng import DeterministicRng

SIMULATION_TIME = 1_750_000_000  # fixed clock keeps runs reproducible
VALIDITY_WINDOW = (SIMULATION_TIME - 3600, SIMULATION_TIME + 86400)


@dataclass(frozen=True)
class ScenarioConfig:
    curve_id: str
    num_voters: int
    rng_seed: int
    candidate_list: tuple = ("alice", "bob", "carol")

    def __post_init__(self):
        if self.num_voters < 1:
            raise ValueError("num_voters must be >= 1")
        if not self.candidate_list:
            raise ValueError("candidate_list must be nonempty")
        if self.curve_id not in OPENSSL_CURVES:
            raise UnknownCurve(f"scenarios run on {sorted(OPENSSL_CURVES)}, "
                               f"not {self.curve_id!r}")


@dataclass
class VoterOutcome:
    ee_id: str
    status: str  # "ok" | "error"
    error: str = ""
    candidate: str = ""
    invariant_ok: bool = False  # (i + r_RA + r_CA) mod n == k


@dataclass
class RunReport:
    config: ScenarioConfig
    voters: list = field(default_factory=list)
    tally: dict = field(default_factory=dict)
    assertions: dict = field(default_factory=dict)
    elapsed_seconds: float = 0.0

    @property
    def successes(self) -> int:
        return sum(1 for v in self.voters if v.status == "ok")

    def to_json(self) -> str:
        doc = asdict(self)
        del doc["elapsed_seconds"]  # wall clock stays out of the report
        return json.dumps(doc, sort_keys=True, indent=2)


def dump_transcript(transcript: Transcript, directory) -> None:
    """Write each transcript message as an uppercase-hex file for offline
    inspection, numbered in delivery order."""
    import os

    os.makedirs(directory, exist_ok=True)
    for idx, entry in enumerate(transcript.entries):
        name = f"{idx:04d}_{entry.actor}_{entry.direction}.hex"
        with open(os.path.join(directory, name), "w") as fh:
            fh.write(entry.message.hex().upper() + "\n")


def run_scenario(cfg: ScenarioConfig, dump_dir=None) -> RunReport:
    start = time.monotonic()
    params = get_curve(cfg.curve_id)
    root = DeterministicRng(cfg.rng_seed)

    ca_keys = generate_keypair(params, root.split("ca"))
    ra_keys = generate_keypair(params, root.split("ra"))
    identity_keys = generate_keypair(params, root.split("identity-root"))

    transcript = Transcript()
    report = RunReport(config=cfg)

    # provision voters with preexisting certificates
    voters = []
    serials = set()
    for idx in range(cfg.num_voters):
        ee_id = f"voter-{idx}"
        rng = root.split(ee_id)
        keys = generate_keypair(params, rng)
        cert = issue_certificate(
            identity_keys.private, "IdentityRoot", ee_id, keys.public,
            VALIDITY_WINDOW, KIND_PREEXISTING, rng,
        )
        serials.add(cert.serial)
        voters.append((ee_id, rng,
                       EeState(cfg.curve_id, keys, cert)))

    ra = RaState(ra_keys, ca_keys.public, identity_keys.public,
                 frozenset(serials))
    ca = CaState(ca_keys, ra_keys.public)

    ra_forbidden = []  # (label, needle) never allowed in RA transcript
    ca_forbidden = []  # likewise for the CA

    for ee_id, rng, ee in voters:
        outcome = VoterOutcome(ee_id=ee_id, status="error")
        report.voters.append(outcome)
        details = {
            "purpose": "anonymous-voting",
            "election_id": "E1",
            "curve_id": cfg.curve_id,
            "name": f"Citizen {ee_id}",
            "national_id": f"ID-{cfg.rng_seed}-{ee_id}",
        }
        ca_forbidden += [
            (f"{ee_id}.i", ee.original.private.to_bytes()),
            (f"{ee_id}.I", ee.original.public.to_bytes()),
            (f"{ee_id}.preexisting_serial", ee.preexisting_cert.serial),
        ]
        try:
            req, ee = ee_create_request(ee, ra_keys.public, ca_keys.public,
                                        details, rng)
            req_bytes = encode(req)
            transcript.record("EE", "sent", req_bytes, ee_id)
            transcript.record("RA", "received", req_bytes, ee_id)
            r_ra = ee.secrets.r_ra  # as drawn by the EE, gone after finalizing
            ca_forbidden.append((f"{ee_id}.r_RA", r_ra.to_bytes()))

            fwd, ra = ra_process_request(ra, req, ee_id, SIMULATION_TIME)
            fwd_bytes = encode(fwd)
            transcript.record("RA", "sent", fwd_bytes, ee_id)
            transcript.record("CA", "received", fwd_bytes, ee_id)

            resp, ca = ca_process_request(ca, fwd, VALIDITY_WINDOW,
                                          root.split(f"ca-{ee_id}"))
            resp_bytes = encode(resp)
            transcript.record("CA", "sent", resp_bytes, ee_id)
            transcript.record("RA", "received", resp_bytes, ee_id)

            routed_id, resp, ra = ra_route_response(ra, resp)
            transcript.record("RA", "sent", resp_bytes, routed_id)
            transcript.record("EE", "received", resp_bytes, routed_id)

            ee = ee_process_response(ee, resp, ca_keys.public, SIMULATION_TIME)
            result = ee.result
            r_ca_val = (result.formal_private.value
                        - result.temporary_private.value) % params.n
            ra_forbidden += [
                (f"{ee_id}.r_CA", Scalar(cfg.curve_id, r_ca_val).to_bytes()),
                (f"{ee_id}.k", result.formal_private.to_bytes()),
                (f"{ee_id}.K", result.anon_cert.public_key.to_bytes()),
                (f"{ee_id}.anon_serial", result.anon_cert.serial),
            ]

            choice = cfg.candidate_list[
                int.from_bytes(rng.read(4), "big") % len(cfg.candidate_list)]
            ballot = sign_ballot(ee, choice.encode())
            if not verify_ballot(ballot, ca_keys.public, SIMULATION_TIME):
                raise AnoncertError("ballot failed verification")
            outcome.invariant_ok = (
                (ee.original.private.value + r_ra.value + r_ca_val) % params.n
                == result.formal_private.value)
            outcome.candidate = choice
            outcome.status = "ok"
            report.tally[choice] = report.tally.get(choice, 0) + 1
        except AnoncertError as exc:
            outcome.error = f"{type(exc).__name__}: {exc}"

    ra_bytes = transcript.bytes_for("RA")
    ca_bytes = transcript.bytes_for("CA")
    ra_leaks = [label for label, needle in ra_forbidden if needle in ra_bytes]
    ca_leaks = [label for label, needle in ca_forbidden if needle in ca_bytes]
    report.assertions = {
        "ra_view_separation": not ra_leaks,
        "ca_view_separation": not ca_leaks,
        "ra_leaked": ra_leaks,
        "ca_leaked": ca_leaks,
        "all_invariants": all(v.invariant_ok for v in report.voters
                              if v.status == "ok"),
    }
    report.elapsed_seconds = time.monotonic() - start
    if dump_dir is not None:
        dump_transcript(transcript, dump_dir)
    return report
