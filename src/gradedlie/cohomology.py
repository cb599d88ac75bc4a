"""Desk-scale cohomology: exact Betti numbers over Q on finite sector bases.

The differentials are column-sparse, one {row: coefficient} dict per basis
monomial of the domain sector, built by `FiniteComplex.columns` with bit
operations on the odd parts.  `build_complex` only counts the sectors,
and lists none; a sector is listed when first read.  `betti` builds a
column only where clearing keeps it (Chen-Kerber 2011; Ripser, Bauer
2021, builds coboundary columns the same way), about half of them on
gl(n), over a point and over a base alike.

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

Poincare duality.  Over a point at weight 0 the complex is the
Chevalley-Eilenberg complex of the Lie algebra dual to the weight-zero
odd generators, and its top sector n is spanned by their product.  The
product of sectors j and n - j into sector n is a perfect pairing, on a
torus block too once the top monomial lies in it.  d_(n-1) takes the
monomial without Y to tr ad_Y times the top one, up to sign, where
tr ad_Y is the sum over the weight-zero odd g of the coefficient of g in
i_Y(d g).  When every tr ad_Y vanishes (the algebra is unimodular), d
of a product into sector n is zero, so d_(n-1-j) is the adjoint of d_j
up to sign and rank d_(n-1-j) = rank d_j (Koszul 1950; Hazewinkel 1970).
`_torus` reads the traces in its pass over d's terms.  When the top
sector has dimension 1 and every trace is zero, `betti` builds and
reduces d_0 ... d_((n-1)//2) only, which lists sectors 0 ... (n-1)//2 + 1,
and mirrors the other ranks.  aff(1), whose trace is not zero, has Betti
numbers [1, 1, 0], not the mirror image of its dimensions [1, 2, 1].
"""

from __future__ import annotations

from collections import abc
from functools import cached_property
from math import gcd, lcm
from typing import (Collection, Dict, Iterator, List, Mapping, NamedTuple, Optional, Sequence,
                    Tuple)

from .algebra import EvenPart, MonomialKey, Scalar, _leibniz_into, monomial_str
from .algebroid import AlgebroidSpec
from .weight_modules import Monomials, Torus, top_degree

Column = Dict[int, Scalar]


class CapClosureError(RuntimeError):
    """The base-polynomial degree cap does not close the complex."""


class LazyBasis(abc.Sequence):
    """The basis of sector (i, j) of a `Monomials`: counted, and refused
    with BasisSizeError above MAX_BASIS_SIZE, when made; listed by
    `Monomials.basis` when first read.  Its length is the count, so it is
    known without listing."""

    def __init__(self, monomials: Monomials, j: int):
        self._monomials, self._j = monomials, j
        self._size = monomials.checked_size(j)

    def __len__(self) -> int:
        return self._size

    @cached_property
    def keys(self) -> List[MonomialKey]:
        return self._monomials.basis(self._j)

    def __getitem__(self, n):
        return self.keys[n]

    def __iter__(self) -> Iterator[MonomialKey]:
        return iter(self.keys)


class FiniteComplex:
    """The weight-i subcomplex over `spec`, or its torus block, by sectors:
    `sector_bases[j]` is the basis of sector j, `cap` the base-degree cap
    (None over a point), `torus` the diagonal X's of the torus reduction
    and `traces` those of `_torus(spec)` when the maker has read them
    (without them `betti` takes every rank).

    `build_complex` lists its sectors lazily: every sector is counted when
    the complex is made, but listed only when something first reads it,
    so `dims` lists nothing and `betti` lists only the sectors it
    reduces."""

    def __init__(self, spec: AlgebroidSpec, i: int, sector_bases: Sequence[Sequence[MonomialKey]],
                 cap: Optional[int], torus: Tuple[str, ...] = (),
                 traces: Optional[Mapping[int, Scalar]] = None):
        self.spec = spec
        self.i = i
        self.sector_bases = sector_bases
        self.cap = cap
        self.torus = torus
        self.traces = traces

    @property
    def dims(self) -> List[int]:
        return [len(b) for b in self.sector_bases]

    def columns(self, j: int, skip: Collection[int] = ()) -> List[Column]:
        """d_j by columns: one {row of sector j+1: coefficient} dict per
        monomial of sector j, nonzero entries only, left empty and unbuilt
        at the indices in `skip`; the top sector maps to zero.

        A column is the image of its monomial under the Leibniz kernel,
        `algebra._leibniz_into`, on d's term lists kept on `spec.d`, with
        each image term looked up among the rows of sector j+1.  The kernel
        multiplies even parts too, so this serves every sector, over a point
        or a base.

        Raises CapClosureError when an image term that does not cancel in
        its column is outside sector j+1 (the truncated span at base-degree
        cap `cap` does not close); it names the first such term in
        `apply`'s term order."""
        bases = self.sector_bases
        if j + 1 == len(bases):
            return [{} for _ in range(len(bases[j]))]
        index: Dict[EvenPart, Dict[int, int]] = {}
        for n, (even, odd) in enumerate(bases[j + 1]):
            index.setdefault(even, {})[odd] = n
        terms = self.spec.d.leibniz_terms
        return [{} if n in skip else self._column(key, index, terms)
                for n, key in enumerate(bases[j])]

    def _column(self, key: MonomialKey, index: Mapping[EvenPart, Mapping[int, int]],
                terms: Mapping[int, list]) -> Column:
        """The column of one monomial, given the rows of the next sector by
        even part and odd mask: the kernel's image is keyed the same way,
        so each term's row is one lookup by odd mask."""
        image: dict = {}
        _leibniz_into(image, 1, key, terms)
        column: Column = {}
        for even, odds in image.items():
            rows = index.get(even, {})
            try:
                column.update({rows[odd]: v for odd, v in odds.items() if v})
            except KeyError as missing:
                table = self.spec.table
                raise CapClosureError(
                    f"base degree cap {self.cap} does not close the complex: "
                    f"d({monomial_str(table, key)}) contains "
                    f"{monomial_str(table, (even, missing.args[0]))}") from None
        return column


class TorusScan(NamedTuple):
    labels: Tuple[str, ...]     # the diagonal weight-zero odd generators X
    weights: Torus              # per generator position, its weight under each X
    traces: Dict[int, Scalar]   # per weight-zero odd Y, sum of the coefficients of
                                # g in i_Y(d g) over the weight-zero odd g


def _torus(spec: AlgebroidSpec) -> TorusScan:
    """The diagonal weight-zero odd generators X (see the module docstring),
    per generator position its weight under each, scaled per X to
    integers (no position when there is no X), and per weight-zero odd Y
    the trace that decides Poincare duality.

    i_X(d g) is read off d's term lists: a term t of d g that contains X
    gives one term of i_X(d g), and no two give the same one, so X is
    diagonal when every such t is X g, up to its coefficient c.  i_X
    takes X to the front, past the factors of t below it: |t| - 1 less
    those above it, whose parity is bit X of t's parity mask, and |t| is
    1 + the form degree of g.  So g has coefficient -c or c in i_X(d g)."""
    table = spec.table
    zero = [X.position for X in table.odd_generators() if not X.h_weight]
    candidates = sum(1 << p for p in zero)
    diagonal = candidates   # the X's no term has ruled out so far
    # X -> {g: the coefficient of g in i_X(d g)}
    scalars: Dict[int, Dict[int, Scalar]] = {p: {} for p in zero}
    traces: Dict[int, Scalar] = dict.fromkeys(zero, 0)
    terms = spec.d.leibniz_terms
    for g in table.gens:
        # the factors of g as a term: (even part, odd mask)
        unit, bit = ((), 1 << g.position) if g.form_degree else (((g.position, 1),), 0)
        traced = g.position in traces
        for e, odds in terms.get(g.position, ()):
            for t, parity, c in odds:
                x = t ^ bit
                if e == unit and t & bit == bit and x & candidates and not x & (x - 1):
                    # t = X g: every other factor of t is ruled out
                    diagonal &= ~t | x
                    p = x.bit_length() - 1
                    v = -c if (parity >> p) + g.form_degree & 1 else c
                    scalars[p][g.position] = v
                    if traced:
                        traces[p] += v
                else:
                    diagonal &= ~t
    labels = []
    weights = []
    for p, found in scalars.items():
        if found and diagonal >> p & 1:
            scale = lcm(*(c.denominator for c in found.values()))
            weights.append({q: int(c * scale) for q, c in found.items()})
            labels.append(str(table.gens[p]))
    columns = [[w.get(q, 0) for q in range(len(table.gens))] for w in weights]
    return TorusScan(tuple(labels), dict(enumerate(zip(*columns))), traces)


def build_complex(spec: AlgebroidSpec, i: int, cap: int = 4) -> FiniteComplex:
    """The weight-i subcomplex: the joint weight-zero block of the torus
    reduction when it applies (it reads d^2 = 0 off `spec.homological`),
    the full complex otherwise.  Every sector is counted, and the first
    above the size limit refused, before any is listed; a sector is listed
    only when first read, and no column is built here: `betti` builds
    them, and refuses a cap that is too small."""
    table = spec.table
    point = not table.base_generators()
    labels, weights, traces = _torus(spec) if point else ((), {}, None)
    if labels and not spec.homological.ok:
        labels = ()
    # the full sectors set the length, so the Betti list keeps its zeros
    block = Monomials(spec, i, cap, weights if labels else None)
    bases = [LazyBasis(block, j) for j in range(top_degree(spec, i) + 1)]
    return FiniteComplex(spec, i, bases, None if point else cap, labels, traces)


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


def _mirrors(c: FiniteComplex, dims: List[int]) -> bool:
    """Whether Poincare duality gives the upper half of the ranks of c,
    whose sectors have dimensions `dims`: over a point at weight 0, with a
    one-dimensional top sector and every trace of `_torus` zero (see the
    module docstring), read off the traces the complex carries."""
    if c.cap is not None or c.i or dims[-1] != 1 or c.traces is None:
        return False
    return not any(c.traces.values())


def betti(c: FiniteComplex) -> List[int]:
    """dim ker d_j minus rank d_(j-1), per sector.

    The ranks are taken in order with clearing (Chen-Kerber 2011): the
    pivot columns of d_(j-1) lie in im d_(j-1), which d_j kills, and are
    triangular on their pivot rows, so with the other basis monomials they
    span sector j.  rank d_j is therefore the rank of the columns of d_j
    whose index is not a pivot row of d_(j-1), and only those are built
    and reduced.

    Poincare duality.  Over a point at weight 0, when the top sector n has
    dimension 1 and every tr ad_Y vanishes, rank d_(n-1-j) = rank d_j (see
    the module docstring).  Then only d_0 ... d_((n-1)//2) are built and
    reduced, so only sectors 0 ... (n-1)//2 + 1 are listed, and the other
    ranks are mirrored; every sector's dimension is its count.  A base, a
    positive weight, a nonzero trace (aff(1)) or a complex made without
    its traces takes every rank.

    Over a base a column may leave the cap, and CapClosureError names the
    first that does in sector order, then domain order, as building every
    column would, since that column is kept.  The pivot column of d_(j-1)
    with largest row r is v_r = sum over k <= r of c_k e_k with c_r != 0,
    and v_r = d(u) for some u in sector j-1, so d(v_r) = d^2(u) = 0 and
    c_r d(e_r) = -sum over k < r of c_k d(e_k): a cleared column leaves
    the cap only if an earlier column of its sector does."""
    # FiniteComplex.columns refuses a span that d leaves, so d^2 = 0 closes it
    if not c.spec.homological.ok:
        raise ValueError("complex is not closed (d^2 != 0)")
    dims = c.dims
    n = len(dims) - 1
    reduced = (n + 1) // 2 if _mirrors(c, dims) else n + 1
    ranks = []
    cleared: Collection[int] = ()
    for j in range(reduced):
        cleared = _pivots(c.columns(j, cleared), cleared)
        ranks.append(len(cleared))
    # rank d_j = rank d_(n-1-j), and the top sector maps to zero
    ranks += [ranks[n - 1 - j] if j < n else 0 for j in range(reduced, n + 1)]
    return [dim - ranks[j] - (ranks[j - 1] if j else 0) for j, dim in enumerate(dims)]
