"""Desk-scale cohomology: exact Betti numbers over Q on finite sector bases.

The differentials are column-sparse, one {row: coefficient} dict per basis
monomial of the domain sector, built by `weight_modules.ColumnBuilder` with
bit operations on the odd parts.  `build_complex` only lists the sector
bases; `betti` builds a column only where clearing keeps it (Chen-Kerber
2011; Ripser, Bauer 2021, builds coboundary columns the same way), about
half of them on gl(n), over a point and over a base alike.

Exact when the base is a point; over a nontrivial base the sectors are
truncated at a base-polynomial degree cap and the results are tagged as
truncated, never claimed exact.

Torus reduction.  Over a point, call a weight-zero odd generator X diagonal
when L_X(g) = i_X(d g) is a scalar multiple of g for every generator g, with
some scalar nonzero (i_X is the derivative by X; on gl(n) the E_ii qualify,
on sl(2) h).  L_X = d i_X + i_X d then acts on each monomial by the sum of
its factors' scalars.  When d^2 = 0, L_X commutes with d and is
null-homotopic, so every block of monomials on which some diagonal X has a
nonzero weight is acyclic (Chevalley-Eilenberg 1948; Hochschild-Serre 1953).
`build_complex` then lists only the joint weight-zero block, which has the
same Betti numbers, and names the X's it used in `FiniteComplex.torus`.
Over a base, with no diagonal X, or with d^2 != 0 it lists the full
complex and `torus` is empty.
"""

from __future__ import annotations

from functools import cached_property
from math import gcd, lcm
from typing import Collection, Dict, List, Optional, Tuple

from .algebra import MonomialKey, odd_positions
from .algebroid import AlgebroidSpec
from .weight_modules import Column, ColumnBuilder, Monomials, Torus


class FiniteComplex:
    def __init__(self, spec: AlgebroidSpec, i: int, sector_bases: List[List[MonomialKey]],
                 cap: Optional[int], torus: Tuple[str, ...] = ()):
        self.spec = spec
        self.i = i
        self.sector_bases = sector_bases
        self.cap = cap          # None when the base is a point
        self.torus = torus      # the diagonal X's of the torus reduction

    @property
    def exact(self) -> bool:
        """Over a point no cap truncates the sectors."""
        return self.cap is None

    @property
    def dims(self) -> List[int]:
        return [len(b) for b in self.sector_bases]

    def columns(self, j: int, skip: Collection[int] = ()) -> List[Column]:
        """d_j by columns, left empty and unbuilt at the indices in `skip`;
        the top sector maps to zero."""
        bases = self.sector_bases
        if j + 1 == len(bases):
            return [{} for _ in bases[j]]
        return self._builder(bases[j], bases[j + 1], skip)

    @cached_property
    def _builder(self) -> ColumnBuilder:
        return ColumnBuilder(self.spec, self.cap)


def _torus(spec: AlgebroidSpec) -> Tuple[Tuple[str, ...], Torus]:
    """The diagonal weight-zero odd generators X (see the module docstring),
    and per generator position its weight under each, scaled per X to
    integers.

    i_X(d g) is read off the terms of d g that contain X: each gives one
    term of i_X(d g), and no two give the same one."""
    table = spec.table
    # X -> {g: the coefficient of g in i_X(d g)}, while no other term was seen
    scalars = {X.position: {} for X in table.odd_generators() if not X.h_weight}
    for g in table.gens:
        unit = ((), 1 << g.position) if g.form_degree else (((g.position, 1),), 0)
        for (even, odd), c in spec.d.value(g).terms.items():
            for k, p in enumerate(odd_positions(odd)):
                found = scalars.get(p)
                if found is None:
                    continue
                if (even, odd ^ (1 << p)) == unit:
                    found[g.position] = -c if k & 1 else c
                else:
                    del scalars[p]
    labels = []
    weights = []
    for p, found in scalars.items():
        if found:
            scale = lcm(*(c.denominator for c in found.values()))
            weights.append({q: int(c * scale) for q, c in found.items()})
            labels.append(str(table.gens[p]))
    return tuple(labels), {g.position: tuple(w.get(g.position, 0) for w in weights)
                           for g in table.gens}


def build_complex(spec: AlgebroidSpec, i: int, cap: int = 4) -> FiniteComplex:
    """List the sector bases of the weight-i subcomplex: the joint
    weight-zero block of the torus reduction when it applies (it reads
    d^2 = 0 off `spec.homological`), the full complex otherwise.  No column
    is built here: `betti` builds them, and refuses a cap that is too
    small."""
    table = spec.table
    point = not table.base_generators()
    labels, weights = _torus(spec) if point else ((), {})
    if labels and not spec.homological.ok:
        labels = ()
    # the full sectors set the length, so the Betti list keeps its zeros
    full = Monomials(spec, i, cap)
    top = max((j for j in range(len(table.odd_generators()) + 1) if full.size(j)), default=0)
    block = Monomials(spec, i, cap, weights) if labels else full
    # every sector is counted, and the first above the limit refused,
    # before any is listed
    for j in range(top + 1):
        block.checked_size(j)
    bases = [block.basis(j) for j in range(top + 1)]
    return FiniteComplex(spec, i, bases, None if point else cap, labels)


def _integral(column: Column) -> Column:
    """The nonzero entries of a column, scaled to integers by the lcm of
    their denominators when any is not an int (a nonzero scale keeps the
    rank)."""
    col = {r: c for r, c in column.items() if c}
    if all(type(c) is int for c in col.values()):
        return col
    scale = lcm(*(c.denominator for c in col.values()))
    return {r: int(c * scale) for r, c in col.items()}


def rank(columns: List[Column]) -> int:
    """Exact rank over Q of a column-sparse matrix.

    Fraction-free elimination on integer columns (rational ones are first
    scaled to integers): each column is reduced against the pivot columns
    found so far, keyed by their largest row, and becomes a new pivot
    column if anything is left.  Reducing by a pivot whose entry is p != 1
    multiplies the column by p / gcd, and the result is divided by the gcd
    of its entries, which keeps them small."""
    return len(_pivots(columns))


def _pivots(columns: List[Column], cleared: Collection[int] = ()) -> Dict[int, Column]:
    """The pivot columns of `rank`'s elimination, keyed by their largest
    row, skipping the columns whose index is in `cleared`."""
    pivots: Dict[int, Column] = {}
    for n, column in enumerate(columns):
        if n in cleared:
            continue
        col = _integral(column)
        while col:
            row = max(col)
            pivot = pivots.get(row)
            if pivot is None:
                pivots[row] = col
                break
            p, c = pivot[row], col[row]
            g = gcd(p, c) if p > 0 else -gcd(p, c)
            p //= g
            c //= g
            # col <- p * col - c * pivot, with p > 0
            if p != 1:
                col = {r: p * v for r, v in col.items()}
            for r, v in pivot.items():
                w = col.get(r, 0) - c * v
                if w:
                    col[r] = w
                else:
                    col.pop(r, None)
            if p != 1 and col:
                g = gcd(*col.values())
                if g != 1:
                    col = {r: v // g for r, v in col.items()}
    return pivots


def betti(c: FiniteComplex) -> List[int]:
    """dim ker d_j minus rank d_(j-1), per sector.

    The ranks are taken in order with clearing (Chen-Kerber 2011): the
    pivot columns of d_(j-1) lie in im d_(j-1), which d_j kills, and are
    triangular on their pivot rows, so with the other basis monomials they
    span sector j.  rank d_j is therefore the rank of the columns of d_j
    whose index is not a pivot row of d_(j-1), and only those are built
    and reduced.

    Over a base a column may leave the cap, and CapClosureError names the
    first that does in sector order, then domain order, as building every
    column would, since that column is kept.  The pivot column of d_(j-1)
    with largest row r is v_r = sum over k <= r of c_k e_k with c_r != 0,
    and v_r = d(u) for some u in sector j-1, so d(v_r) = d^2(u) = 0 and
    c_r d(e_r) = -sum over k < r of c_k d(e_k): a cleared column leaves
    the cap only if an earlier column of its sector does."""
    # ColumnBuilder refuses a span that d leaves, so d^2 = 0 closes it
    if not c.spec.homological.ok:
        raise ValueError("complex is not closed (d^2 != 0)")
    ranks = []
    cleared: Collection[int] = ()
    for j in range(len(c.sector_bases)):
        cleared = _pivots(c.columns(j, cleared), cleared)
        ranks.append(len(cleared))
    return [dim - ranks[j] - (ranks[j - 1] if j else 0) for j, dim in enumerate(c.dims)]
