"""The Toda dictionary: asymptotic data, alcove points, holomorphic exponents.

Local solutions of the Toda field system under the reality, symmetry and
similarity constraints are classified by their asymptotic data m, a
vector in the real Cartan span recorded here through the simple-root
values (alpha_1(m), ..., alpha_l(m)).  The admissible set is cut out by
alpha_j(m) >= -1 together with the affine condition alpha_0(m) >= -1,
where alpha_0 := -psi gives the face coming from the highest root.

Three coordinate systems are in exact rational bijection, written on
the nodes j = 0..l of the extended diagram:

* asymptotic data m with alpha_j(m) >= -1, alpha_0(m) = -psi(m);
* fundamental-alcove points x, x_j = (alpha_j(m) + 1) / s, where the
  constant 2 pi sqrt(-1) factor of the alcove embedding is documented
  but never stored; the affine coordinate is x_0 = 1 - psi(x);
* holomorphic exponents (k_0, ..., k_l) with k_j + 1 = x_j, so
  k_0 = -psi(x).

Hence k_j >= -1 for every j exactly when x lies in the alcove, which
``asymptotic_to_alcove`` asserts: the admissible set has one home there,
and ``dpw_exponents`` reads the exponents off its point.

Each point is a plain tuple: the public functions take a sequence of
``int`` or ``Fraction`` coordinates and return tuples of ``Fraction``.
Every input passes one boundary, ``_exact``, which rejects a float, a
bool or a str coordinate with TypeError and a sequence of the wrong
length with ValueError.

The distinguished point m = -h_0 (every value -1) sits at the alcove
origin, has exponents k_0 = 0 and k_j = -1, and its connection form is
(1/lambda) A(q) dq/q with A(q) the canonical quantum operator; lambda
stays a formal symbol throughout.  Its m, alcove point and exponents
depend on the root system alone and are computed once per root system;
A(q) is not held here, since the ``ttstar`` document reads it from
``minrep.quantum_operator`` as the ``amatrix`` document does.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Optional, Sequence, Union

from .rootsys import RootSystem, diagram_involution

Rational = Union[Fraction, int]
Point = tuple[Fraction, ...]


def _exact(rs: RootSystem, values: Sequence[Rational], what: str) -> Point:
    """values as a tuple of Fraction, one per simple root: the one way in.

    Each coordinate must be an ``int`` or a ``Fraction``; a float, bool
    or str raises TypeError naming its type, as a PolyMatrix coefficient
    does.  A length other than the rank raises ValueError naming what.
    """
    values = tuple(values)
    for v in values:
        if type(v) is not int and type(v) is not Fraction:
            raise TypeError(f"{what} coordinates must be int or Fraction, not {type(v).__name__}")
    if len(values) != rs.rank:
        raise ValueError(f"{what} has the wrong rank")
    return tuple(v if type(v) is Fraction else Fraction(v) for v in values)


def psi_value(rs: RootSystem, values: Sequence[Rational]) -> Fraction:
    """Evaluate the highest root on a vector given by its simple-root values."""
    return sum((q_j * v for q_j, v in zip(rs.highest_root.coeffs, _exact(rs, values, "vector"))), Fraction(0))


def minus_h0(rs: RootSystem) -> Point:
    """The distinguished asymptotic data: every simple-root value is -1."""
    return (Fraction(-1),) * rs.rank


def in_asymptotic_set(rs: RootSystem, m: Sequence[Rational]) -> bool:
    """alpha_j(m) >= -1 for j = 1..l and alpha_0(m) = -psi(m) >= -1."""
    m = _exact(rs, m, "asymptotic data")
    return all(v >= -1 for v in m) and -psi_value(rs, m) >= -1


def in_alcove(rs: RootSystem, x: Sequence[Rational]) -> bool:
    """All coordinates nonnegative and the highest-root value at most 1."""
    x = _exact(rs, x, "alcove point")
    return all(c >= 0 for c in x) and psi_value(rs, x) <= 1


def asymptotic_to_alcove(rs: RootSystem, m: Sequence[Rational]) -> Point:
    """m -> x with x_j = (alpha_j(m) + 1) / s; exact and bijective."""
    m = _exact(rs, m, "asymptotic data")
    if not in_asymptotic_set(rs, m):
        raise ValueError("asymptotic data outside the admissible set")
    s = rs.coxeter_number
    x = tuple((v + 1) / s for v in m)
    if not in_alcove(rs, x):
        raise AssertionError(f"admissible {_text(m)} maps to {_text(x)}, outside the alcove")
    return x


def alcove_to_asymptotic(rs: RootSystem, x: Sequence[Rational]) -> Point:
    """Exact inverse of ``asymptotic_to_alcove``."""
    x = _exact(rs, x, "alcove point")
    if not in_alcove(rs, x):
        raise ValueError("point outside the fundamental alcove")
    s = rs.coxeter_number
    m = tuple(s * c - 1 for c in x)
    if not in_asymptotic_set(rs, m):
        raise AssertionError(f"alcove point {_text(x)} maps to inadmissible {_text(m)}")
    return m


def dpw_exponents(rs: RootSystem, m: Sequence[Rational]) -> Point:
    """Exponents (k_0, k_1, ..., k_l) of the holomorphic one-form attached to admissible data.

    k_j = x_j - 1 on the nodes, x = ``asymptotic_to_alcove(rs, m)``, so
    k_0 = x_0 - 1 = -psi(x).  The admissibility test and the alcove
    check are that function's: every k_j >= -1 exactly when x is in the
    alcove.
    """
    x = asymptotic_to_alcove(rs, m)
    return (-psi_value(rs, x),) + tuple(c - 1 for c in x)


def _sigma_moved(rs: RootSystem, m: Point) -> Optional[tuple[int, int]]:
    """The first (j, sigma(j)) whose values differ, sigma the diagram involution, or None."""
    perm = diagram_involution(rs)
    return next(((j, perm[j - 1]) for j in range(1, rs.rank + 1) if m[perm[j - 1] - 1] != m[j - 1]), None)


def _text(values: Sequence[Fraction]) -> str:
    return "(" + ", ".join(str(v) for v in values) + ")"


def distinguished_solution(rs: RootSystem, i: int) -> tuple[Point, Point, Point]:
    """The m = -h_0 dictionary entry of weight i: (m, alcove origin, exponents (0, -1, ..., -1)).

    The triple depends on the root system alone and comes from the
    per-root-system memo ``_toda_data``; i only has to pass
    ``RootSystem.minuscule_weight``.  It returns only an m that
    ``_toda_data`` has proved fixed by the diagram involution, and
    raises AssertionError otherwise.
    """
    rs.minuscule_weight(i)
    return _toda_data(rs)


@lru_cache(maxsize=None)
def _toda_data(rs: RootSystem) -> tuple[Point, Point, Point]:
    """-h_0, its alcove point and its exponents, once per root system.

    The alcove map runs once: the point is read back off the exponents,
    x_j = k_j + 1 for j = 1..l.  Raises AssertionError, naming the moved
    value, when -h_0 is not fixed by the diagram involution.
    """
    m = minus_h0(rs)
    moved = _sigma_moved(rs, m)
    if moved:
        j, k = moved
        raise AssertionError(
            f"-h_0 = {_text(m)} is not fixed by the diagram involution: "
            f"alpha_{j}(m) = {m[j - 1]} moves onto alpha_{k}(m) = {m[k - 1]}"
        )
    exponents = dpw_exponents(rs, m)
    return m, tuple(c + 1 for c in exponents[1:]), exponents


def dubrovin_form() -> dict[str, str]:
    """The flat connection form built from A(q), as two fields of the ``ttstar`` document.

    lambda is a formal loop symbol in the emitted text and is never
    specialized; the variable change back to the similarity coordinate
    is recorded alongside.  The text is the same for every orbit; A(q)
    itself is the document's "matrix".
    """
    return {"connection_form": "(1/lambda) A(q) dq/q", "variable_change": "t = s z^(1/s), q = z"}
