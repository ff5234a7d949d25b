"""Shared fixtures-in-plain-functions for the test suite."""
from __future__ import annotations

import random
from fractions import Fraction

from minflag.cli import SweepConfig, sweep_cases
from minflag.minrep import ONE, Q, ZERO, Poly, PolyMatrix, lowering_matrix, psi_raising_matrix
from minflag.rootsys import LieType, RootSystem, build
from minflag.weylorbit import Orbit, orbit

SWEEP = sweep_cases(SweepConfig())


def rs_of(family: str, rank: int) -> RootSystem:
    return build(LieType(family, rank))


def orbit_of(family: str, rank: int, i: int) -> Orbit:
    return orbit(rs_of(family, rank), i)


def sweep_orbits():
    for lt, i in SWEEP:
        yield orbit(build(lt), i)


def random_alcove_coords(rs: RootSystem, rng: random.Random) -> tuple[Fraction, ...]:
    """A random rational point of the closed fundamental alcove.

    Draw nonnegative integers a_j, then pick a denominator at least
    sum q_j a_j so the highest-root value lands in [0, 1].
    """
    q = rs.highest_root.coeffs
    a = [rng.randint(0, 20) for _ in range(rs.rank)]
    bound = sum(qj * aj for qj, aj in zip(q, a))
    den = max(bound, 1) + rng.randint(0, 20)
    return tuple(Fraction(aj, den) for aj in a)


def reference_quantum_operator(orb: Orbit) -> PolyMatrix:
    """A(q) = sum_j E-(j) + q E_psi, summed matrix by matrix.

    The test-only reference the one-pass ``minrep.quantum_operator`` is
    compared against.
    """
    total = psi_raising_matrix(orb).scaled(Q)
    for j in range(1, orb.rs.rank + 1):
        total = total + lowering_matrix(orb, j)
    return total


def reference_char_poly(m: PolyMatrix) -> tuple[Poly, ...]:
    """det(xI - M) by the Berkowitz method run directly over Poly entries.

    The test-only reference ``minrep.char_poly`` is compared against:
    slow, but it shares no code with the graded integer kernel.
    """
    return tuple(_berkowitz([list(r) for r in m.rows()]))


def _berkowitz(rows: list[list[Poly]]) -> list[Poly]:
    n = len(rows)
    if n == 0:
        return [ONE]
    if n == 1:
        return [ONE, -rows[0][0]]
    a = rows[0][0]
    r_vec = rows[0][1:]
    c_vec = [rows[k][0] for k in range(1, n)]
    sub = [row[1:] for row in rows[1:]]

    items = [ONE, -a]
    v = r_vec
    for _ in range(n - 1):
        items.append(-sum((vi * ci for vi, ci in zip(v, c_vec)), ZERO))
        v = [sum((vi * sub[k][j] for k, vi in enumerate(v)), ZERO) for j in range(n - 1)]

    prev = _berkowitz(sub)
    out = []
    for r in range(n + 1):
        acc = ZERO
        for c in range(n):
            k = r - c
            if 0 <= k <= n:
                acc = acc + items[k] * prev[c]
        out.append(acc)
    return out
