"""Deterministic multi-party scenario runner.

Provisions a CA, an RA, and N end entities from one splittable seeded
generator, drives the full issuance flow per voter, casts and verifies
one ballot each, and byte-scans the per-actor transcripts for material
that must never appear on the wrong side of the trust boundary.

Every hop goes over the wire: the sender's message is encoded, its bytes
are logged once as sent and once as received, and the receiver gets what
`decode` makes of them as the class it accepts. So each actor processes
exactly the bytes that the byte-scan audits.

Reports are reproducible: identical config (including seed) yields
byte-identical JSON. The report holds no wall-clock time; a caller that
wants one times the call. It is public output: the tally over
`CANDIDATES` and each voter's outcome with its reason, never which voter
chose what.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, field

from .actors import (
    CaState,
    EeState,
    RaState,
    ca_process_request,
    ee_create_request,
    ee_process_response,
    ra_process_request,
    ra_route_response,
    sign_ballot,
    verify_ballot,
)
from .certs import (CertificateRequest, CertificateResponse, ForwardedRequest,
                    KIND_PREEXISTING, decode, encode, issue_certificate)
from .curve import Scalar, generate_keypair, get_curve
from .errors import (AnoncertError, BadSignature, ProtocolStateError,
                     UnknownCurve)
from .rng import DeterministicRng

SIMULATION_TIME = 1_750_000_000  # fixed clock keeps runs reproducible
VALIDITY_WINDOW = (SIMULATION_TIME - 3600, SIMULATION_TIME + 86400)
CANDIDATES = ("alice", "bob", "carol")


@dataclass(frozen=True)
class ScenarioConfig:
    curve_id: str
    num_voters: int
    rng_seed: int

    def __post_init__(self):
        if self.num_voters < 1:
            raise ValueError("num_voters must be >= 1")
        if not 0 <= self.rng_seed < 2**64:
            raise ValueError("rng_seed must be in [0, 2**64 - 1]")
        if get_curve(self.curve_id).openssl_curve is None:
            raise UnknownCurve("scenarios run on a named curve, "
                               f"not {self.curve_id!r}")


@dataclass
class VoterOutcome:
    ee_id: str
    status: str  # "ok" | "error"
    error: str = ""
    invariant_ok: bool = False  # j == (i + r_RA) mod n; k is checked by the EE


@dataclass
class RunReport:
    config: ScenarioConfig
    voters: list = field(default_factory=list)
    tally: dict = field(default_factory=dict)
    assertions: dict = field(default_factory=dict)

    @property
    def successes(self) -> int:
        return sum(1 for v in self.voters if v.status == "ok")

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, indent=2)


def dump_transcript(log: list, directory) -> None:
    """Write each logged message as an uppercase-hex file for offline
    inspection into the existing `directory`, numbered in delivery order
    with every index as wide as the last (at least 4 digits), so the
    names sort in that order."""
    width = max(4, len(str(len(log) - 1)))
    for idx, (actor, direction, message) in enumerate(log):
        name = f"{idx:0{width}d}_{actor}_{direction}.hex"
        with open(os.path.join(directory, name), "w") as fh:
            fh.write(message.hex().upper() + "\n")


def _deliver(log: list, sender: str, receiver: str, msg, cls: type):
    """Carry `msg` over the wire: log its encoding as sent and as received,
    and return the `cls` message the receiver decodes from those bytes."""
    data = encode(msg)
    log.extend(((sender, "sent", data), (receiver, "received", data)))
    return decode(data, cls)


def _leaks(log: list, actor: str, forbidden: list) -> list:
    """Labels of the (label, needle) pairs found in the bytes `actor` saw."""
    seen = b"".join(message for who, _, message in log if who == actor)
    return [label for label, needle in forbidden if needle in seen]


def run_scenario(cfg: ScenarioConfig, dump_dir=None) -> RunReport:
    # files already in dump_dir would mix with this run's transcript, and
    # a path that cannot be a directory would fail the dump only after
    # the whole run, so both are refused before any work
    if dump_dir is not None:
        try:
            os.makedirs(dump_dir, exist_ok=True)
            entries = os.listdir(dump_dir)
        except OSError as exc:
            raise ValueError(f"dump path {dump_dir} is not a usable "
                             f"directory: {exc.strerror}") from None
        if entries:
            raise ValueError(f"dump path {dump_dir} is not an empty directory")
    params = get_curve(cfg.curve_id)
    root = DeterministicRng(cfg.rng_seed)

    ca_keys = generate_keypair(params, root.split("ca"))
    ra_keys = generate_keypair(params, root.split("ra"))
    identity_keys = generate_keypair(params, root.split("identity-root"))

    log = []  # (actor, "sent" | "received", wire bytes), in delivery order
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
        voters.append((ee_id, rng, EeState(keys.private, cert)))

    ra = RaState(ra_keys.private, ca_keys.public, identity_keys.public,
                 frozenset(serials))
    ca = CaState(ca_keys.private, ra_keys.public)

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
            (f"{ee_id}.i", ee.private.to_bytes()),
            (f"{ee_id}.I", ee.preexisting_cert.public_key.to_bytes()),
            (f"{ee_id}.preexisting_serial", ee.preexisting_cert.serial),
        ]
        try:
            req, ee = ee_create_request(ee, ra_keys.public, ca_keys.public,
                                        details, rng)
            r_ra = ee.secrets.r_ra  # as drawn by the EE, gone after finalizing
            ca_forbidden.append((f"{ee_id}.r_RA", r_ra.to_bytes()))

            fwd, ra = ra_process_request(
                ra, _deliver(log, "EE", "RA", req, CertificateRequest),
                ee_id, SIMULATION_TIME)
            resp, ca = ca_process_request(
                ca, _deliver(log, "RA", "CA", fwd, ForwardedRequest),
                VALIDITY_WINDOW, root.split(f"ca-{ee_id}"))
            resp = _deliver(log, "CA", "RA", resp, CertificateResponse)
            route, ra = ra_route_response(ra, resp)
            if route != ee_id:
                raise ProtocolStateError(f"RA routed the response to {route}")
            ee = ee_process_response(
                ee, _deliver(log, "RA", "EE", resp, CertificateResponse),
                ca_keys.public, SIMULATION_TIME)
            result = ee.result
            i = ee.private.value
            # the CA's draw whenever the EE's k*G == K check passed
            r_ca = (result.formal_private.value - i - r_ra.value) % params.n
            ra_forbidden += [
                (f"{ee_id}.r_CA", Scalar(cfg.curve_id, r_ca).to_bytes()),
                (f"{ee_id}.k", result.formal_private.to_bytes()),
                (f"{ee_id}.K", result.anon_cert.public_key.to_bytes()),
                (f"{ee_id}.anon_serial", result.anon_cert.serial),
            ]

            choice = CANDIDATES[
                int.from_bytes(rng.read(4), "big") % len(CANDIDATES)]
            ballot = sign_ballot(ee, choice.encode())
            # the EE's finalize has just verified this certificate under
            # this CA key at this time, so only the ballot signature can fail
            if not verify_ballot(ballot, ca_keys.public, SIMULATION_TIME):
                raise BadSignature("ballot failed verification")
            outcome.invariant_ok = (result.temporary_private.value
                                    == (i + r_ra.value) % params.n)
            outcome.status = "ok"
            report.tally[choice] = report.tally.get(choice, 0) + 1
        except AnoncertError as exc:
            outcome.error = f"{type(exc).__name__}: {exc}"

    ra_leaks = _leaks(log, "RA", ra_forbidden)
    ca_leaks = _leaks(log, "CA", ca_forbidden)
    report.assertions = {
        "ra_view_separation": not ra_leaks,
        "ca_view_separation": not ca_leaks,
        "ra_leaked": ra_leaks,
        "ca_leaked": ca_leaks,
        "all_invariants": all(v.invariant_ok for v in report.voters
                              if v.status == "ok"),
    }
    if dump_dir is not None:
        dump_transcript(log, dump_dir)
    return report
