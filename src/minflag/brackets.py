"""The bracket relations of minuscule generators, read off their index maps.

In the canonical basis of a minuscule representation every root-vector
generator moves each basis vector to at most one other, so E-(0..l)
(``weylorbit.lowering_maps``) and E+(1..l) are index maps {source:
(target, coefficient)}, E-(0) = E_psi lowering by the affine root
alpha_0 = -theta, and each Cartan element H(j) scales basis vector mu
by its pairing (mu, alpha_j^vee), so the weights state H.
``first_failure`` checks on these maps and weights, for j, k = 1..l,

    [E+(j), E-(k)] = delta_jk H(j), and [E+(j), E_psi] = 0 since
    theta + alpha_j is never a root: one family over E-(0..l);
    [H(j), E-(k)] = -a[j][k] E-(k); [H(j), E+(k)] = a[j][k] E+(k),

the l(3l + 1) relations of ``minrep.verify_rep_relations``, in one pass
over the basis.  It builds no matrix and reads no orbit, only the maps,
the pairings and the Cartan matrix, so any maps can be handed to it.
"""
from __future__ import annotations

from collections import defaultdict
from operator import add, sub

# the text of each kind of relation, indexed by kind and formatted only when one fails
_RELATION_TEXT = (
    "[E+({j}), E-({j})] != H({j})",
    "[H({j}), E-({k})] != -a[{j}][{k}] E-({k})",
    "[H({j}), E+({k})] != a[{j}][{k}] E+({k})",
    "[E+({j}), E-({k})] != 0",
    "[E+({j}), E_psi] != 0",
)


def _by_source(n: int, maps: list) -> list:
    """The entries of every map at once, by source: position c -> [(map index, target, coefficient)]."""
    out = [[] for _ in range(n)]
    for i, m in enumerate(maps):
        for c, (t, v) in m.items():
            out[c].append((i, t, v))
    return out


def _commute_column(acc: defaultdict, kind: int, xs: list, ys: list, c: int) -> None:
    """Add column c of [X(j), Y(k)] = X(j) Y(k) - Y(k) X(j), for every j and k, to acc at (kind, j, k, row)."""
    for k, t, b in ys[c]:
        for j, r, a in xs[t]:
            acc[kind, j, k, r] += a * b
    for j, t, a in xs[c]:
        for k, r, b in ys[t]:
            acc[kind, j, k, r] -= a * b


def first_failure(C: list, h: list, low: list, high: list) -> tuple | None:
    """The first failing relation as (text, row, column, found, expected), or None when all hold.

    C is the Cartan matrix, h the pairing tuple of each basis vector (H(j)
    multiplies vector c by h[c][j]), low the maps of E-(0..l), map k for
    node k, and high those of E+(1..l).  Each list of maps is regrouped by
    source once.  One pass over the basis then builds, per column c, the
    entries of every bracket minus its right-hand side in one small dict:
    column c of [X, Y] is X(Y(c)) - Y(X(c)) for all E+(j) against all
    E-(k) at once.  On each edge c -> t of E-(k) or E+(k) one
    tuple comparison tests h[t] against h[c] -+ column k of C for all j.
    The first failing relation is the first in the order: for each j,
    [E+(j), E-(j)]; then for each k, [E+(j), E-(k)], [H(j), E-(k)] and
    [H(j), E+(k)]; then [E+(j), E_psi].  Its entry is its first wrong one
    in row order.
    """
    l = len(C)
    low = low[1:] + low[:1]  # E_psi = E-(0) last: its relations follow every E-(k)'s
    lows, highs = (_by_source(len(h), maps) for maps in (low, high))
    columns = list(zip(*C))
    first = (l,)
    for c, hc in enumerate(h):
        # (kind, j, k, row) -> entry (row, c) of the bracket minus its right-hand side
        acc = defaultdict(int)
        _commute_column(acc, 3, highs, lows, c)
        for j, v in enumerate(hc):
            if v:
                acc[3, j, j, c] -= v
        # an edge c -> t of E-(k) or E+(k), k = 1..l, must step h by -+ column k of C
        for kind, ys, step in ((1, lows, sub), (2, highs, add)):
            for k, t, b in ys[c]:
                if b and k < l and h[t] != tuple(map(step, hc, columns[k])):
                    for j in range(l):
                        acc[kind, j, k, t] += b * (h[t][j] - step(hc[j], columns[k][j]))
        # [E+(j), E-(j)] is kind 0 and [E+(j), E_psi] kind 4; a failure's place
        # (j, k, kind % 3, row, column) sorts in walk order, with k = -1 for kind 0
        for (kind, j, k, r), v in acc.items():
            if v:
                kind = kind if kind < 3 else 0 if j == k else 4 if k == l else 3
                first = min(first, (j, k if kind else -1, kind % 3, r, c, v, kind))
    if first == (l,):
        return None
    j, k, _, r, c, v, kind = first
    want = h[c][j] if kind == 0 and r == c else 0
    if kind in (1, 2):
        # a kind 1 or 2 entry sits on an edge c -> r of map k
        want = (-C[j][k] if kind == 1 else C[j][k]) * (low, high)[kind - 1][k][c][1]
    return _RELATION_TEXT[kind].format(j=j + 1, k=k + 1), r, c, v + want, want
