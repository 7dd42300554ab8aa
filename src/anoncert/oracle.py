"""Brute-force oracle over the order-19 desk curve.

Everything here is written independently of the main arithmetic module:
the group is enumerated by scanning the field, addition is chord-and-
tangent recomputed from scratch, and scalar multiplication is literal
repeated addition. The suite then checks the production code against
this oracle exhaustively.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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


def _to_point(t, curve_id: str = TOY) -> Point:
    if t == INF:
        return Point.infinity(curve_id)
    return Point(curve_id, t[0], t[1])


@dataclass
class OracleReport:
    group_order: int = 0
    scalar_table_ok: bool = False
    group_laws_ok: bool = False
    homomorphism_ok: bool = False
    uniform_expansion_ok: bool = False
    failures: list = field(default_factory=list)

    @property
    def all_ok(self) -> bool:
        return (self.scalar_table_ok and self.group_laws_ok
                and self.homomorphism_ok and self.uniform_expansion_ok)


def run_oracle_suite() -> OracleReport:
    params = get_curve(TOY)
    report = OracleReport()
    group = enumerate_group(params.p, params.a, params.b)
    report.group_order = len(group)
    if len(group) != params.n:
        report.failures.append(
            f"group order {len(group)} != declared n {params.n}")

    g = (params.gx, params.gy)

    # scalar_mul against literal repeated addition, all scalars
    report.scalar_table_ok = True
    for k in range(params.n):
        got = scalar_mul(Scalar(TOY, k), params.g)
        want = oracle_mul(k, g, params.p, params.a)
        if _to_tuple(got) != want:
            report.scalar_table_ok = False
            report.failures.append(f"scalar_mul({k}, G) = {_to_tuple(got)}, "
                                   f"oracle says {want}")

    # group laws over the whole table
    report.group_laws_ok = True
    for P in group:
        Pp = _to_point(P)
        if _to_tuple(point_add(Pp, Point.infinity(TOY))) != P:
            report.group_laws_ok = False
            report.failures.append(f"identity law fails at {P}")
        neg = INF if P == INF else (P[0], (-P[1]) % params.p)
        if _to_tuple(point_add(Pp, _to_point(neg))) != INF:
            report.group_laws_ok = False
            report.failures.append(f"inverse law fails at {P}")
        for Q in group:
            Qp = _to_point(Q)
            pq = point_add(Pp, Qp)
            if _to_tuple(pq) != oracle_add(P, Q, params.p, params.a):
                report.group_laws_ok = False
                report.failures.append(f"addition differs at {P} + {Q}")
            if _to_tuple(point_add(Qp, Pp)) != _to_tuple(pq):
                report.group_laws_ok = False
                report.failures.append(f"commutativity fails at {P}, {Q}")
            for R in group:
                left = point_add(pq, _to_point(R))
                right = point_add(Pp, point_add(Qp, _to_point(R)))
                if _to_tuple(left) != _to_tuple(right):
                    report.group_laws_ok = False
                    report.failures.append(
                        f"associativity fails at {P}, {Q}, {R}")

    # expansion homomorphism for every (x, r) pair
    report.homomorphism_ok = True
    for x in range(1, params.n):
        X = oracle_mul(x, g, params.p, params.a)
        for r in range(1, params.n):
            want = oracle_mul((x + r) % params.n, g, params.p, params.a)
            try:
                got = expand_public(_to_point(X), Scalar(TOY, r))
                got_t = _to_tuple(got)
            except DegenerateResult:
                got_t = INF
            if got_t != want:
                report.homomorphism_ok = False
                report.failures.append(
                    f"homomorphism fails at x={x}, r={r}: {got_t} != {want}")

    # fixed-J coverage: over all r in [1, n-1] the n-1 outcomes are distinct,
    # each hit exactly once (the degenerate identity counts as one outcome)
    report.uniform_expansion_ok = True
    J = oracle_mul(7, g, params.p, params.a)
    outcomes = []
    for r in range(1, params.n):
        try:
            outcomes.append(_to_tuple(
                expand_public(_to_point(J), Scalar(TOY, r))))
        except DegenerateResult:
            outcomes.append(INF)
    if len(set(outcomes)) != params.n - 1 or len(outcomes) != params.n - 1:
        report.uniform_expansion_ok = False
        report.failures.append(
            f"fixed-J expansion hit {len(set(outcomes))} distinct outcomes, "
            f"expected {params.n - 1}")
    return report
