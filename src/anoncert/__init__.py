"""Anonymous-certificate issuance via additive elliptic-curve key expansion.

An end entity's original keypair (i, I) is blinded twice on its way to an
anonymous certificate: the registration authority derives a temporary
public key J = I + r_RA*G, the certificate authority derives the formal
public key K = J + r_CA*G and certifies it, and the end entity mirrors
both steps on the private side, j = i + r_RA and k = j + r_CA (mod n),
so that (k, K) is a working keypair nobody can link back to (i, I).

Each name is imported from the module that defines it, for example
`from anoncert.harness import run_scenario`.
"""

from . import curve, harness
