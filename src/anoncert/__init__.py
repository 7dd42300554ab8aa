"""Anonymous-certificate issuance via additive elliptic-curve key expansion.

An end entity's original keypair (i, I) is blinded twice on its way to an
anonymous certificate: the registration authority derives a temporary
public key J = I + r_RA*G, the certificate authority derives the formal
public key K = J + r_CA*G and certifies it, and the end entity mirrors
both steps on the private side, j = i + r_RA and k = j + r_CA (mod n),
so that (k, K) is a working keypair nobody can link back to (i, I).
"""

from .curve import (
    BRAINPOOL_P256R1,
    CURVES,
    CurveParams,
    KeyPair,
    Point,
    SECP256R1,
    Scalar,
    TOY,
    expand_private,
    expand_public,
    generate_keypair,
    get_curve,
    point_add,
    scalar_add_mod_n,
    scalar_mul,
)
from .harness import RunReport, ScenarioConfig, run_scenario
from .oracle import run_oracle_suite
from .vectors import PUBLISHED_VECTORS, verify_published_vectors

__all__ = [
    "BRAINPOOL_P256R1",
    "CURVES",
    "CurveParams",
    "KeyPair",
    "PUBLISHED_VECTORS",
    "Point",
    "RunReport",
    "SECP256R1",
    "ScenarioConfig",
    "Scalar",
    "TOY",
    "expand_private",
    "expand_public",
    "generate_keypair",
    "get_curve",
    "point_add",
    "run_oracle_suite",
    "run_scenario",
    "scalar_add_mod_n",
    "scalar_mul",
    "verify_published_vectors",
]
