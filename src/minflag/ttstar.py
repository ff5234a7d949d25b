"""The Toda dictionary: asymptotic data, alcove points, holomorphic exponents.

Local solutions of the Toda field system under the reality, symmetry and
similarity constraints are classified by their asymptotic data m, a
vector in the real Cartan span recorded here through the simple-root
values (alpha_1(m), ..., alpha_l(m)).  The admissible set is cut out by
alpha_j(m) >= -1 together with the affine condition alpha_0(m) >= -1,
where alpha_0 := -psi gives the face coming from the highest root.

Three coordinate systems are in exact rational bijection:

* asymptotic data m with alpha_j(m) >= -1 for j = 0..l,
* fundamental-alcove points x via x_j = (alpha_j(m) + 1) / s, where the
  constant 2 pi sqrt(-1) factor of the alcove embedding is documented
  but never stored,
* holomorphic exponents (k_0, ..., k_l) via alpha_j(m) = s(k_j + 1) - 1
  and -psi(m) = s(k_0 + 1) - 1, all >= -1.

The distinguished point m = -h_0 (every value -1) sits at the alcove
origin, has exponents k_0 = 0 and k_j = -1, and its connection form is
(1/lambda) A(q) dq/q with A(q) the canonical quantum operator; lambda
stays a formal symbol throughout.  Its m, alcove point and exponents
depend on the root system alone and are computed once per root system.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Optional, Sequence, Union

from .minrep import PolyMatrix, quantum_operator
from .rootsys import RootSystem, diagram_involution, minuscule_weights
from .weylorbit import Orbit, orbit

Rational = Union[Fraction, int]


@dataclass(frozen=True)
class AsymptoticData:
    """Asymptotic data m, stored as the values (alpha_1(m), ..., alpha_l(m))."""

    values: tuple[Fraction, ...]


@dataclass(frozen=True)
class AlcovePoint:
    """A fundamental-alcove point, stored by its simple-root coordinates."""

    coords: tuple[Fraction, ...]


@dataclass(frozen=True)
class DpwExponents:
    """Holomorphic one-form exponents (k_0, k_1, ..., k_l), k_0 first."""

    k: tuple[Fraction, ...]


def asymptotic_data(values: Sequence[Rational]) -> AsymptoticData:
    return AsymptoticData(tuple(Fraction(v) for v in values))


def alcove_point(coords: Sequence[Rational]) -> AlcovePoint:
    return AlcovePoint(tuple(Fraction(c) for c in coords))


def psi_value(rs: RootSystem, values: Sequence[Fraction]) -> Fraction:
    """Evaluate the highest root on a vector given by its simple-root values."""
    return sum(
        (q_j * v for q_j, v in zip(rs.highest_root.coeffs, values)), Fraction(0)
    )


def minus_h0(rs: RootSystem) -> AsymptoticData:
    """The distinguished asymptotic data: every simple-root value is -1."""
    return AsymptoticData((Fraction(-1),) * rs.rank)


def in_asymptotic_set(rs: RootSystem, m: AsymptoticData) -> bool:
    """alpha_j(m) >= -1 for j = 1..l and alpha_0(m) = -psi(m) >= -1."""
    if len(m.values) != rs.rank:
        raise ValueError("asymptotic data has the wrong rank")
    if any(v < -1 for v in m.values):
        return False
    return -psi_value(rs, m.values) >= -1


def in_alcove(rs: RootSystem, x: AlcovePoint) -> bool:
    """All coordinates nonnegative and the highest-root value at most 1."""
    if len(x.coords) != rs.rank:
        raise ValueError("alcove point has the wrong rank")
    if any(c < 0 for c in x.coords):
        return False
    return psi_value(rs, x.coords) <= 1


def asymptotic_to_alcove(rs: RootSystem, m: AsymptoticData) -> AlcovePoint:
    """m -> x with x_j = (alpha_j(m) + 1) / s; exact and bijective."""
    if not in_asymptotic_set(rs, m):
        raise ValueError("asymptotic data outside the admissible set")
    s = rs.coxeter_number
    x = AlcovePoint(tuple((v + 1) / s for v in m.values))
    if not in_alcove(rs, x):
        raise AssertionError(f"admissible {_text(m.values)} maps to {_text(x.coords)}, outside the alcove")
    return x


def alcove_to_asymptotic(rs: RootSystem, x: AlcovePoint) -> AsymptoticData:
    """Exact inverse of ``asymptotic_to_alcove``."""
    if not in_alcove(rs, x):
        raise ValueError("point outside the fundamental alcove")
    s = rs.coxeter_number
    m = AsymptoticData(tuple(s * c - 1 for c in x.coords))
    if not in_asymptotic_set(rs, m):
        raise AssertionError(f"alcove point {_text(x.coords)} maps to inadmissible {_text(m.values)}")
    return m


def dpw_exponents(rs: RootSystem, m: AsymptoticData) -> DpwExponents:
    """Exponents of the holomorphic one-form attached to admissible data.

    k_j = (alpha_j(m) + 1)/s - 1 for j >= 1 and, by the same rule on
    the affine face, k_0 = (-psi(m) + 1)/s - 1.  All components are
    >= -1 exactly when m is admissible.
    """
    if not in_asymptotic_set(rs, m):
        raise ValueError("asymptotic data outside the admissible set")
    s = rs.coxeter_number
    k0 = (-psi_value(rs, m.values) + 1) / s - 1
    rest = tuple((v + 1) / s - 1 for v in m.values)
    out = DpwExponents((k0,) + rest)
    for j, kj in enumerate(out.k):
        if kj < -1:
            raise AssertionError(f"exponent k_{j} = {kj} < -1 for {_text(m.values)}")
    return out


def sigma_fixed(rs: RootSystem, m: AsymptoticData) -> bool:
    """Invariance of the value vector under the diagram involution.

    Automatically true for every type whose involution is the identity;
    only A_n, odd D_n and E6 impose a real condition.
    """
    return _sigma_moved(rs, m) is None


def _sigma_moved(rs: RootSystem, m: AsymptoticData) -> Optional[tuple[int, int]]:
    """The first (j, sigma(j)) whose values differ, sigma the diagram involution, or None."""
    perm = diagram_involution(rs)
    return next(
        ((j, perm[j - 1]) for j in range(1, rs.rank + 1) if m.values[perm[j - 1] - 1] != m.values[j - 1]),
        None,
    )


def _text(values: Sequence[Fraction]) -> str:
    return "(" + ", ".join(str(v) for v in values) + ")"


@dataclass
class DistinguishedSolution:
    """The full dictionary entry at m = -h_0 for one minuscule weight."""

    m: AsymptoticData
    alcove: AlcovePoint
    dpw: DpwExponents
    operator: PolyMatrix


def distinguished_solution(rs: RootSystem, i: int) -> DistinguishedSolution:
    """Assemble the m = -h_0 dictionary entry: origin, exponents (0, -1, ..., -1), A(q).

    m, the alcove point and the exponents come from the per-root-system
    memo ``_toda_data``; A(q) is the orbit's shared ``quantum_operator``.
    """
    if i not in minuscule_weights(rs):
        raise ValueError(f"fundamental weight {i} of {rs} is not minuscule")
    m, alcove, dpw = _toda_data(rs)
    return DistinguishedSolution(m=m, alcove=alcove, dpw=dpw, operator=quantum_operator(orbit(rs, i)))


@lru_cache(maxsize=None)
def _toda_data(rs: RootSystem) -> tuple[AsymptoticData, AlcovePoint, DpwExponents]:
    """-h_0, its alcove point and its exponents, once per root system.

    Raises AssertionError, naming the moved value, when -h_0 is not
    fixed by the diagram involution.
    """
    m = minus_h0(rs)
    moved = _sigma_moved(rs, m)
    if moved:
        j, k = moved
        raise AssertionError(
            f"-h_0 = {_text(m.values)} is not fixed by the diagram involution: "
            f"alpha_{j}(m) = {m.values[j - 1]} moves onto alpha_{k}(m) = {m.values[k - 1]}"
        )
    return m, asymptotic_to_alcove(rs, m), dpw_exponents(rs, m)


def dubrovin_form(orb: Orbit) -> dict[str, str]:
    """The flat connection form built from A(q), as two fields of the ``ttstar`` document.

    lambda is a formal loop symbol in the emitted text and is never
    specialized; the variable change back to the similarity coordinate
    is recorded alongside.  The text is the same for every orbit, and
    A(q) itself is ``DistinguishedSolution.operator``.
    """
    return {"connection_form": "(1/lambda) A(q) dq/q", "variable_change": "t = s z^(1/s), q = z"}
