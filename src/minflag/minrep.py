"""Canonical-basis matrices of minuscule representations, and A(q).

Every weight of a minuscule representation has multiplicity one, so in
the canonical basis every root-vector generator moves each basis vector
to at most one other: lowering by a simple root follows the crystal
edges with coefficient 1, raising is its transpose, and the Cartan
elements act diagonally by the coroot pairings.  The lowering
generators are indexed by the nodes j = 0..l of the extended Dynkin
diagram: node 0 is the affine simple root alpha_0 = -theta, so E-(0) =
E_psi raises by the highest root theta, and it alone carries q in

    A(q) = sum_{j=0..l} q^[j=0] E-(j) = sum_{j=1..l} E-(j) + q * E_psi.

E-(0..l) and E+(1..l) are index maps {source: (target, coefficient)},
each family by its own builder, so a wrong entry in one is not mirrored
into the other: E-(0..l) are ``weylorbit.lowering_maps``, read through
the module, and E+(1..l) are built here; nothing reads an E+(0), and
H(j) needs no map, since the weights' pairings state it.  A(q) sums the
lowering maps' integer coefficients, and the ``brackets`` kernel reads
the bracket relations off the edges and the pairings in one pass over
the basis; ``lowering_matrix`` is the PolyMatrix view of one lowering
map, and ``psi_raising_matrix`` that of E-(0).
A polynomial in q has one form, a dict {q_power: coefficient} with
``int`` keys and nonzero ``int`` values; ``_checked`` validates it and
``poly_text`` prints it.  A PolyMatrix holds its nonzero entries in that
form, {(row, col): {q_power: coeff}} (``PolyMatrix.entries``), which
every check, kernel and writer reads.  PolyMatrix is a sparse container
with no mutators, not an algebra: nothing here adds or multiplies
matrices or polynomials.
The characteristic polynomial is the one place q takes integer values:
a sparse integer Berkowitz kernel runs on A(1), and the q-grading of
A(q) lifts its coefficients back exactly (other matrices are
interpolated exactly from integer values of q).
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Mapping, Optional

from . import brackets, weylorbit
from .weylorbit import Orbit

# a matrix as its nonzero entries {(row, col): {exponent: coefficient}}
_Entries = dict[tuple[int, int], dict[int, int]]


def _checked(coeffs: Mapping[int, int]) -> dict[int, int]:
    """coeffs without its zero terms, each exponent and coefficient checked: the one validator.

    Every exponent and coefficient must be an ``int`` (TypeError) and
    every exponent nonnegative (ValueError), zero terms included.
    """
    c = {}
    for e, v in coeffs.items():
        if type(e) is not int:
            raise TypeError(f"exponents must be int, not {type(e).__name__}")
        if type(v) is not int:
            raise TypeError(f"coefficients must be int, not {type(v).__name__}")
        if e < 0:
            raise ValueError("negative exponents not supported")
        if v:
            c[e] = v
    return c


def poly_text(coeffs: Mapping[int, int]) -> str:
    """A {q_power: nonzero coefficient} dict as text, highest power first: "3*q^2 - q + 1", "0" when empty."""
    if not coeffs:
        return "0"
    out = ""
    for e, v in sorted(coeffs.items(), reverse=True):
        base = "q" if e == 1 else f"q^{e}"
        mon = str(abs(v)) if e == 0 else base if abs(v) == 1 else f"{abs(v)}*{base}"
        sign = "-" if v < 0 else "+"
        out += f" {sign} {mon}" if out else f"-{mon}" if v < 0 else mon
    return out


class PolyMatrix:
    """Square matrix over Z[q], stored sparsely: a container, not an algebra.

    ``entries`` holds its nonzero entries as integer coefficients
    {(row, col): {q_power: coeff}}, the one form every check reads; it is
    shared, not copied, so read it and never change it.  ``with_entry``
    returns a changed copy.  It has no mutators, so the memoized A(q) is
    safe to share.
    """

    __slots__ = ("n", "_e")

    def __init__(self, n: int, entries: Optional[Mapping[tuple[int, int], dict[int, int]]] = None):
        if type(n) is not int:
            raise TypeError(f"matrix size must be int, not {type(n).__name__}")
        if n < 0:
            raise ValueError(f"matrix size must be nonnegative, not {n}")
        self.n = n
        e: _Entries = {}
        if entries:
            for (i, j), v in entries.items():
                if type(i) is not int or type(j) is not int:
                    bad = i if type(i) is not int else j
                    raise TypeError(f"entry positions must be int, not {type(bad).__name__}")
                if not (0 <= i < n and 0 <= j < n):
                    raise ValueError(f"entry ({i},{j}) outside a {n}x{n} matrix")
                if not isinstance(v, dict):
                    raise TypeError(f"entries must be dict, not {type(v).__name__}")
                c = _checked(v)
                if c:
                    e[(i, j)] = c
        self._e = e

    @property
    def entries(self) -> _Entries:
        """The nonzero entries {(row, col): {q_power: coeff}}, shared: read them, never change them."""
        return self._e

    def with_entry(self, i: int, j: int, coeffs: dict[int, int]) -> "PolyMatrix":
        new = PolyMatrix(self.n, {(i, j): coeffs})  # checks the position and the value alone
        new._e = {**self._e, **new._e} if new._e else {k: c for k, c in self._e.items() if k != (i, j)}
        return new

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PolyMatrix):
            return NotImplemented
        return self.n == other.n and self._e == other._e

    def __repr__(self) -> str:
        return f"PolyMatrix(n={self.n}, nnz={len(self._e)})"


def char_poly(m: PolyMatrix) -> tuple[dict[int, int], ...]:
    """Coefficients of det(x I - M), leading first: c with det(xI - M) = sum c[k] x^(n-k).

    Each c[k] is a {q_power: coefficient} dict, {} for zero.  Everything runs through one sparse, division-free integer Berkowitz
    kernel.  When M is homogeneous with deg x = 1 and deg q = s (A(q) is,
    with s the Coxeter number), every term of c[k] has q-degree k/s, so
    the kernel runs once, on M at q = 1, and its a_k lifts to
    c[k] = a_k q^(k/s), or to {} when s does not divide k.  Any other M is
    evaluated at q = 0..D, D the sum over rows of the largest entry
    degree, and each coefficient is interpolated exactly.
    """
    n = m.n
    s = _grading_degree(m)
    if s is not None:
        a = _berkowitz_int(n, _at(m, 1))
        out = []
        for k, ak in enumerate(a):
            if k % s == 0:
                out.append({k // s: ak} if ak else {})
            elif ak:
                raise AssertionError(f"graded with deg q = {s}, yet x^{n - k} has coefficient {ak} at q = 1")
            else:
                out.append({})
        return tuple(out)
    row_degree = [0] * n
    for (i, _j), c in m.entries.items():
        row_degree[i] = max(row_degree[i], max(c))
    values = [_berkowitz_int(n, _at(m, x)) for x in range(sum(row_degree) + 1)]
    return tuple(_interpolate([v[k] for v in values]) for k in range(n + 1))


def _at(m: PolyMatrix, x: int) -> dict[tuple[int, int], int]:
    """The stored (nonzero) entries of M, evaluated at q = x."""
    return {k: sum(v * x**e for e, v in c.items()) for k, c in m.entries.items()}


def _grading_degree(m: PolyMatrix) -> Optional[int]:
    """The s > 0 that makes M homogeneous with deg x = 1 and deg q = s, or None.

    Homogeneous means every entry is one monomial c q^e and the indices
    carry integer degrees d with d(i) = d(j) + 1 - s e for every nonzero
    entry (i, j), the relation ``qchev.grading_check`` checks on A(q)
    through lengths.  Degrees are spread along a spanning forest as
    a + b s with s unknown; each entry closing a cycle then fixes s or
    must agree with it.  Without such a cycle M is nilpotent and any s
    serves, so 1 is returned.
    """
    adjacent: list[list[tuple[int, int, int]]] = [[] for _ in range(m.n)]
    for (i, j), c in m.entries.items():
        if len(c) != 1:
            return None
        (e,) = c
        adjacent[j].append((i, 1, -e))
        adjacent[i].append((j, -1, e))
    degree: list[Optional[tuple[int, int]]] = [None] * m.n
    s = None
    for root in range(m.n):
        if degree[root] is not None:
            continue
        degree[root] = (0, 0)
        stack = [root]
        while stack:
            j = stack.pop()
            a, b = degree[j]
            for i, da, db in adjacent[j]:
                want = (a + da, b + db)
                have = degree[i]
                if have is None:
                    degree[i] = want
                    stack.append(i)
                elif have != want:
                    # have[0] + have[1] s = want[0] + want[1] s fixes s
                    num, den = want[0] - have[0], have[1] - want[1]
                    if den == 0 or num % den or num // den <= 0 or s not in (None, num // den):
                        return None
                    s = num // den
    return 1 if s is None else s


def _berkowitz_int(n: int, entries: Mapping[tuple[int, int], int]) -> list[int]:
    """Coefficients of det(x I - M), leading first, for an integer matrix M.

    Berkowitz's division-free recursion (Berkowitz 1984) over the
    leading principal submatrices: with M_(r+1) = [[M_r, c], [R, a]],
    det(x - M_(r+1)) is the product of the lower-triangular Toeplitz
    matrix with first column (1, -a, -R c, -R M_r c, ..., -R M_r^(r-1) c)
    and the coefficients of det(x - M_r).  Vectors and products stay
    sparse, and the powers stop once M_r^k c vanishes, which makes the
    nearly triangular A(1) cheap.
    """
    rows: list[dict[int, int]] = [{} for _ in range(n)]
    cols: list[dict[int, int]] = [{} for _ in range(n)]
    for (i, j), v in entries.items():
        if v:
            rows[i][j] = v
            cols[j][i] = v
    coeffs = [1]
    for r in range(n):
        t = [1, -rows[r].get(r, 0)]
        row = {j: v for j, v in rows[r].items() if j < r}
        u = {i: v for i, v in cols[r].items() if i < r}
        for k in range(r):
            if not u:
                break
            t.append(-sum(v * u[j] for j, v in row.items() if j in u))
            if k < r - 1:
                nxt: dict[int, int] = {}
                for j, x in u.items():
                    for i, v in cols[j].items():
                        if i < r:
                            nxt[i] = nxt.get(i, 0) + v * x
                u = {i: x for i, x in nxt.items() if x}
        out = [0] * (r + 2)
        nonzero = [(i, c) for i, c in enumerate(coeffs) if c]
        for k, tk in enumerate(t):
            if tk:
                for i, c in nonzero:
                    if i + k > r + 1:
                        break
                    out[i + k] += tk * c
        coeffs = out
    return coeffs


def _interpolate(values: list[int]) -> dict[int, int]:
    """The integer polynomial taking values[x] at q = x, by Newton differences.

    Every division must be exact; a remainder means the values did not
    come from an integer polynomial of degree below len(values).
    """
    newton = list(values)
    for level in range(1, len(newton)):
        for i in range(len(newton) - 1, level - 1, -1):
            newton[i], rest = divmod(newton[i] - newton[i - 1], level)
            if rest:
                raise AssertionError(f"divided difference of order {level} at q = {i} is not an integer")
    # Horner on the Newton form sum newton[k] q (q - 1) ... (q - k + 1)
    coeffs: list[int] = []
    for x in range(len(newton) - 1, -1, -1):
        shifted = [0] + coeffs
        for e, c in enumerate(coeffs):
            shifted[e] -= x * c
        shifted[0] += newton[x]
        coeffs = shifted
    return {e: c for e, c in enumerate(coeffs) if c}


# -- canonical-basis generators ----------------------------------------------

# a generator as {source: (target, coefficient)}: each basis vector goes to at most one other
_IndexMap = dict[int, tuple[int, int]]


def _raising_maps(orb: Orbit) -> list[_IndexMap]:
    """E+(1..l) in one pass, map j - 1 for node j: mu -> (mu + alpha_j, 1) exactly when (mu, alpha_j^vee) = -1.

    Only the bracket relations read them, once per orbit, so nothing is kept.
    """
    maps: list[_IndexMap] = [{} for _ in range(orb.rs.rank)]
    for pos, el in enumerate(orb.elements):
        for j, m in enumerate(el.weight.pairings, 1):
            if m == -1:
                maps[j - 1][pos] = (orb.neighbour(pos, "+", j), 1)
    return maps


def lowering_matrix(orb: Orbit, j: int) -> PolyMatrix:
    """E-(j) for a node j = 0..l: entry (mu - alpha_j, mu) = 1 for each edge; E-(0) is E_psi.

    Anything but an int node, a bool included, raises ValueError.
    """
    if type(j) is not int or not 0 <= j <= orb.rs.rank:
        raise ValueError(f"simple root index {j} out of range")
    return PolyMatrix(orb.size, {(t, c): {0: v} for c, (t, v) in weylorbit.lowering_maps(orb)[j].items()})


def psi_raising_matrix(orb: Orbit) -> PolyMatrix:
    """E_psi = E-(0): entry (mu + theta, mu) = 1 exactly when (mu, theta^vee) = -1."""
    return lowering_matrix(orb, 0)


@lru_cache(maxsize=1)
def quantum_operator(orb: Orbit) -> PolyMatrix:
    """A(q) = sum_j q^[j=0] E-(j), summed from the lowering maps; coinciding entries add.

    The map coefficients add as integers per q-power; a sum of 0 leaves
    no term.  Only the latest orbit's A(q) is kept: consecutive calls on
    one orbit return the same PolyMatrix.
    """
    entries: _Entries = {}
    for j, m in enumerate(weylorbit.lowering_maps(orb)):
        q_power = 1 if j == 0 else 0
        for c, (t, v) in m.items():
            coeffs = entries.setdefault((t, c), {})
            coeffs[q_power] = coeffs.get(q_power, 0) + v
    return PolyMatrix(orb.size, entries)


@dataclass(frozen=True)
class Check:
    """One check's outcome, truthy iff it passed; detail is a summary or the witness."""

    ok: bool
    detail: str

    def __bool__(self) -> bool:
        return self.ok


def _entry_witness(orb: Orbit, got: PolyMatrix, want: PolyMatrix) -> Optional[str]:
    """'at (target, source): got != want' for the first differing entry, or None.

    The matrices are compared in one ``==``, then entry by entry in row
    order; only the differing pair is printed, and a missing entry reads 0.
    """
    if got == want:
        return None
    a, b = got.entries, want.entries
    i, j = next(k for k in sorted(a.keys() | b.keys()) if a.get(k) != b.get(k))
    w = orb.elements
    return f"at ({w[i].weight}, {w[j].weight}): {poly_text(a.get((i, j), {}))} != {poly_text(b.get((i, j), {}))}"


def verify_rep_relations(orb: Orbit) -> Check:
    """Check the l(3l + 1) brackets of E-(0..l), E+(1..l) and H(1..l) that ``brackets`` lists.

    They are read off the index maps A(q) is summed from and the weights'
    pairings, which state H(j), in one pass over the basis
    (``brackets.first_failure``); the check names the first failing
    relation and its first wrong entry in row order.  A generator whose
    target is not in the orbit raises AssertionError from its map
    builder, naming the weight, the root and the target.
    """
    failure = brackets.first_failure(orb.rs.cartan, [el.weight.pairings for el in orb.elements],
                                     weylorbit.lowering_maps(orb), _raising_maps(orb))
    if failure is None:
        return Check(True, f"{orb.rs.rank * (3 * orb.rs.rank + 1)} brackets")
    text, r, c, got, want = failure
    return Check(False, f"{text} at ({orb.elements[r].weight}, {orb.elements[c].weight}): {got} != {want}")
