"""Brute-force oracle over the order-19 desk curve.

Everything here is written independently of the main arithmetic module:
the group is enumerated by scanning the field, addition is chord-and-
tangent recomputed from scratch, and scalar multiplication is literal
repeated addition. The suite then checks the production code against
this oracle exhaustively.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from .curve import TOY, Point, Scalar, expand_public, get_curve, point_add, scalar_mul
from .errors import DegenerateResult

INF = "INF"


def enumerate_group(p: int = 17, a: int = 2, b: int = 2):
    """All affine points on y^2 = x^3 + ax + b over GF(p), plus identity."""
    points = [INF]
    for x in range(p):
        for y in range(p):
            if (y * y - (x ** 3 + a * x + b)) % p == 0:
                points.append((x, y))
    return points


def oracle_add(P, Q, p: int = 17, a: int = 2):
    if P == INF:
        return Q
    if Q == INF:
        return P
    x1, y1 = P
    x2, y2 = Q
    if x1 == x2 and (y1 + y2) % p == 0:
        return INF
    if P == Q:
        lam = (3 * x1 * x1 + a) * pow(2 * y1, p - 2, p) % p
    else:
        lam = (y2 - y1) * pow(x2 - x1, p - 2, p) % p
    x3 = (lam * lam - x1 - x2) % p
    return (x3, (lam * (x1 - x3) - y1) % p)


def oracle_mul(k: int, P, p: int = 17, a: int = 2):
    acc = INF
    for _ in range(k):
        acc = oracle_add(acc, P, p, a)
    return acc


def _to_tuple(P: Point):
    return INF if P.is_infinity else (P.x, P.y)


def _to_point(t) -> Point:
    return Point.infinity(TOY) if t == INF else Point(TOY, t[0], t[1])


@dataclass
class OracleReport:
    """Each `*_ok` flag says whether its check found no failure;
    `failures` lists what each check found, after a wrong group order."""
    group_order: int
    scalar_table_ok: bool
    group_laws_ok: bool
    homomorphism_ok: bool
    uniform_expansion_ok: bool
    failures: list

    @property
    def all_ok(self) -> bool:
        return not self.failures


CHECKS = tuple(f.name for f in fields(OracleReport) if f.name.endswith("_ok"))


def _expand(X, r: int):
    """expand_public(X, r) as an oracle tuple, INF where it degenerates."""
    try:
        return _to_tuple(expand_public(_to_point(X), Scalar(TOY, r)))
    except DegenerateResult:
        return INF


def run_oracle_suite() -> OracleReport:
    params = get_curve(TOY)
    p, a, n = params.p, params.a, params.n
    group = enumerate_group(p, a, params.b)
    g = (params.gx, params.gy)
    order = [] if len(group) == n else [
        f"group order {len(group)} != declared n {n}"]
    found = {name: [] for name in CHECKS}

    # scalar_mul against literal repeated addition, all scalars
    for k in range(n):
        got = _to_tuple(scalar_mul(Scalar(TOY, k)))
        want = oracle_mul(k, g, p, a)
        if got != want:
            found["scalar_table_ok"].append(
                f"scalar_mul({k}, G) = {got}, oracle says {want}")

    # group laws over the whole table, with production addition on tuples
    def add(P, Q):
        return _to_tuple(point_add(_to_point(P), _to_point(Q)))

    laws = found["group_laws_ok"]
    for P in group:
        if add(P, INF) != P:
            laws.append(f"identity law fails at {P}")
        if add(P, INF if P == INF else (P[0], (-P[1]) % p)) != INF:
            laws.append(f"inverse law fails at {P}")
        for Q in group:
            pq = add(P, Q)
            if pq != oracle_add(P, Q, p, a):
                laws.append(f"addition differs at {P} + {Q}")
            if add(Q, P) != pq:
                laws.append(f"commutativity fails at {P}, {Q}")
            for R in group:
                if add(pq, R) != add(P, add(Q, R)):
                    laws.append(f"associativity fails at {P}, {Q}, {R}")

    # expansion homomorphism for every (x, r) pair
    for x in range(1, n):
        X = oracle_mul(x, g, p, a)
        for r in range(1, n):
            got, want = _expand(X, r), oracle_mul((x + r) % n, g, p, a)
            if got != want:
                found["homomorphism_ok"].append(
                    f"homomorphism fails at x={x}, r={r}: {got} != {want}")

    # fixed-J coverage: over all r in [1, n-1] the n-1 outcomes are distinct,
    # each hit exactly once (the degenerate identity counts as one outcome)
    J = oracle_mul(7, g, p, a)
    distinct = len({_expand(J, r) for r in range(1, n)})
    if distinct != n - 1:
        found["uniform_expansion_ok"].append(
            f"fixed-J expansion hit {distinct} distinct outcomes, "
            f"expected {n - 1}")
    return OracleReport(len(group), **{name: not found[name] for name in CHECKS},
                        failures=order + sum(found.values(), []))
