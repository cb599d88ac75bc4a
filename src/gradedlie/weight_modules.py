"""Weight decomposition of the CE complex.

W^(i,j) is spanned by monomials in positive-weight generators only:
symmetric powers of the positive even fibers times exterior products of
positive-weight odd generators, with total bi-weight (i, j).  This realises
the quotient of weight-i forms by the ideal generated by weight-zero forms
of positive form degree.

Every basis here is the set of monomials of one multi-degree, so one
enumerator, `Monomials`, counts and lists them all, and
`Monomials(spec, i, cap, torus, positive).basis(j)` is the one way to list
one: the W^(i,j) bases (`positive=True`), the sectors of the weight-i
subcomplex, and the torus blocks of `cohomology`.  Base
generators weigh nothing in h-weight or form degree, so it enumerates the
fibre monomials and takes the base polynomials of degree <= cap as a free
factor.  d_E maps each sector to the next; `cohomology.FiniteComplex.columns`
builds it by columns.
"""

from __future__ import annotations

from math import comb
from operator import itemgetter
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from .algebra import Element, EvenPart, GeneratorTable, MonomialKey
from .algebroid import AlgebroidSpec


class BasisSizeError(ValueError):
    """A requested basis has more monomials than MAX_BASIS_SIZE, or its
    count needs more than MAX_DP_STATES states."""


# A basis is counted before it is listed, so a larger one is refused before
# any of it is listed.  The limit is several times the largest sector of
# gl(4) (12 870 monomials).
MAX_BASIS_SIZE = 50_000
# The counting DP keeps its states for listing, so a block whose count needs
# more of them is refused while it is counted.  The budget is several times
# gl(6)'s torus block (65 742 states); gl(7)'s needs 792 540.
MAX_DP_STATES = 250_000


SpecOrTable = Union[AlgebroidSpec, GeneratorTable]


def _table(spec: SpecOrTable) -> GeneratorTable:
    return spec.table if isinstance(spec, AlgebroidSpec) else spec


Torus = Mapping[int, Tuple[int, ...]]   # generator position -> integer weights


class Monomials:
    """The monomials of h-weight i, sector by sector (form degree j).

    They are products of all generators, or with `positive` of the
    positive-weight ones only (the W^(i, .) monomials), of base degree at
    most `cap`.  With `torus`, which gives each fibre generator's integer
    weight under each of r commuting operators (missing positions weigh
    zero), only monomials of torus weight zero are kept; a monomial weighs
    the sum of its factors' weights.  A torus is taken over a point only.

    Base generators have h-weight 0 and form degree 0, so a sector is its
    fibre monomials times the C(cap + nb, nb) monomials of degree <= cap in
    the nb base generators.  A dynamic programme over the fibre generators,
    in global order, records for each suffix of them the (h-weight, form
    degree, torus weight) totals it can reach and in how many ways, so a
    sector is counted before it is listed, and listed without visiting a
    fibre monomial outside it."""

    def __init__(self, spec: SpecOrTable, i: int, cap: int = 0,
                 torus: Optional[Torus] = None, positive: bool = False):
        table = _table(spec)
        self.i, self._cap, self._torus, self._positive = i, cap, torus, positive
        self._bases = () if positive else table.base_generators()
        if torus and self._bases:
            raise ValueError("a torus block is taken over a point only")
        self._base_count = comb(max(cap, 0) + len(self._bases), len(self._bases))
        zero = (0,) * len(next(iter(torus.values()), ())) if torus else ()
        # per fibre generator that fits in weight i, its largest exponent and
        # the contribution of one factor: (h-weight, form degree, torus
        # weights); e factors contribute e times as much
        factors = []
        for g in table.gens:
            if g.kind == "base" or g.h_weight > i or positive and not g.h_weight:
                continue
            top = 1 if g.form_degree else i // g.h_weight
            t = torus.get(g.position, zero) if torus else zero
            factors.append((g, top, (g.h_weight, g.form_degree) + t))
        # A vector is stored as one integer, its digits in base B, so sums of
        # vectors are sums of ints.  m bounds i and every digit of every sum
        # of contributions, so the vectors compared below differ by digits in
        # [-2m, 2m], which B = 2m + 1 tells apart.  Digit 0, the h-weight, is
        # never negative, so it is the code mod B.
        self._m = m = max([i] + [sum(top * abs(v[c]) for _g, top, v in factors)
                                 for c in range(2 + len(zero))])
        self._base = b = 2 * m + 1
        # an odd factor is taken before it is left out, so that the walk
        # lists the odd parts under each even part in position-tuple order
        self._factors = []
        for g, top, v in factors:
            unit = self._code(v)
            exponents = (1, 0) if g.form_degree else range(top + 1)
            self._factors.append((g, [(e, e * unit) for e in exponents]))
        # Every target has torus weight zero, so a total of factors k, k+1,
        # ... is kept only if factors 0..k-1 can bring each torus digit back
        # to zero: per digit they reach [low, high], the sums over them of
        # top * min(v, 0) and of top * max(v, 0), so the total must lie in
        # [-high, -low].  A total of factors k+1, ... already lies in that
        # range for factors 0..k, which differs only at the digits where
        # factor k weighs something, so checks[k] lists those digits with
        # the range for factors 0..k-1: (B^digit, m - high, m - low).
        # Every digit of a total lies in [-m, m], so total + off, with off
        # the code of (m, m, ...), has digit d of the total plus m in its
        # base-B digit d, with no carry.
        low, high = [0] * len(zero), [0] * len(zero)
        checks = []
        for _g, top, v in factors:
            weighs = [(d, t) for d, t in enumerate(v[2:]) if t]
            checks.append([(b ** (2 + d), m - high[d], m - low[d]) for d, _t in weighs])
            for d, t in weighs:
                if t > 0:
                    high[d] += top * t
                else:
                    low[d] += top * t
        off = self._code([m] * (2 + len(zero)))
        reach: Dict[int, int] = {0: 1}
        self._reach = [reach]
        states = 1
        for k in range(len(factors) - 1, -1, -1):
            g, options = self._factors[k]
            # leaving factor k out keeps every total, whose h-weight is at
            # most i already
            nxt: Dict[int, int] = dict(reach)
            for e, v in options:
                if not e:
                    continue
                for state, n in reach.items():
                    s = state + v
                    if not g.h_weight or s % b <= i:
                        nxt[s] = nxt.get(s, 0) + n
            if checks[k]:
                kept = {}
                for s, n in nxt.items():
                    x = s + off
                    for power, lo, hi in checks[k]:
                        if not lo <= x // power % b <= hi:
                            break
                    else:
                        kept[s] = n
                nxt = kept
            reach = nxt
            self._reach.append(reach)
            states += len(reach)
            if states > MAX_DP_STATES:
                raise BasisSizeError(f"{self._label('*')} is too large to count: it needs "
                                     f"more than the budget of {MAX_DP_STATES} states")
        self._reach.reverse()   # _reach[k]: the totals of factors k, k+1, ...

    def _code(self, vector: Sequence[int]) -> int:
        code = 0
        for x in reversed(vector):
            code = code * self._base + x
        return code

    def size(self, j: int) -> int:
        """The number of monomials in sector (i, j)."""
        # m bounds the form degree; a negative i has no monomials, and as
        # digit 0 it would break the codes
        if self.i < 0 or not 0 <= j <= self._m:
            return 0
        return self._base_count * self._reach[0].get(self._code((self.i, j)), 0)

    def checked_size(self, j: int) -> int:
        """The number of monomials in sector (i, j), refused with
        BasisSizeError above MAX_BASIS_SIZE."""
        size = self.size(j)
        if size > MAX_BASIS_SIZE:
            raise BasisSizeError(f"{self._label(j)} has {size} basis monomials, above "
                                 f"the limit of {MAX_BASIS_SIZE}")
        return size

    def basis(self, j: int) -> List[MonomialKey]:
        """The monomials of sector (i, j), sorted; refused above
        MAX_BASIS_SIZE after counting them."""
        if not self.checked_size(j):
            return []
        fibre = self._walk(self._code((self.i, j)))
        # base positions lead the global order, so a base monomial is a
        # prefix of the even part
        keys = [(prefix + even, odd) for prefix in self._base_monomials()
                for even, odd in fibre]
        # stable, so the odd parts under each even part keep the walk's
        # order: keys sort as (even part, odd positions)
        keys.sort(key=itemgetter(0))
        return keys

    def _base_monomials(self) -> List[Tuple[Tuple[int, int], ...]]:
        """The even parts of the base monomials of degree <= cap, in time
        linear in their number."""
        parts = [((), max(self._cap, 0))]   # (even part, degree left)
        for g in reversed(self._bases):
            parts = [(((g.position, e),) + part if e else part, left - e)
                     for part, left in parts for e in range(left + 1)]
        return [part for part, _left in parts]

    def _label(self, j: Union[int, str]) -> str:
        if self._torus:
            return f"torus block of sector ({self.i},{j})"
        if self._positive:
            return f"W^({self.i},{j})"
        return f"sector ({self.i},{j}) at base degree cap {self._cap}"

    def _walk(self, total: int) -> List[MonomialKey]:
        """The fibre monomials whose factors' contributions sum to `total`,
        in the order of a depth-first walk over the factors, found level by
        level: each partial monomial is extended by each option of the next
        factor in turn, and kept only while the factors after it can still
        reach what is left, so no level holds more than the result.  A
        factor left out keeps the partial monomial as it is."""
        level = [(total, (), 0)]   # (left to reach, even part, odd part)
        for k, (g, options) in enumerate(self._factors):
            reach = self._reach[k + 1]
            p = g.position
            nxt: List[Tuple[int, EvenPart, int]] = []
            append = nxt.append
            if g.form_degree:
                bit, unit = 1 << p, options[0][1]   # taken, then left out
                for item in level:
                    need, even, odd = item
                    if need - unit in reach:
                        append((need - unit, even, odd | bit))
                    if need in reach:
                        append(item)
            else:
                for item in level:
                    need, even, odd = item
                    for e, v in options:
                        if need - v in reach:
                            append((need - v, even + ((p, e),), odd) if e else item)
            level = nxt
        return [(even, odd) for _left, even, odd in level]


def top_degree(spec: SpecOrTable, i: int) -> int:
    """The largest form degree of a monomial of h-weight i, 0 when there is
    none: every weight-zero odd generator, and the most positive-weight
    odd generators whose weights leave a sum of even fibre weights.  Base
    factors change neither, so the cap does not enter."""
    if i < 0:
        return 0
    table = _table(spec)
    evens = {g.h_weight for g in table.gens if g.kind == "even_fiber" and g.h_weight <= i}
    # filled[w]: w is a sum of even fibre weights
    filled = [True] + [False] * i
    for w in range(1, i + 1):
        filled[w] = any(filled[w - e] for e in evens if e <= w)
    zero = 0
    most = {0: 0}   # weight of some positive-weight odd factors -> most factors
    for g in table.odd_generators():
        if not g.h_weight:
            zero += 1
            continue
        for w, n in list(most.items()):
            if w + g.h_weight <= i and most.get(w + g.h_weight, -1) <= n:
                most[w + g.h_weight] = n + 1
    best = [n for w, n in most.items() if filled[i - w]]
    return zero + max(best) if best else 0


def _multichoose(n: int, k: int) -> int:
    if k == 0:
        return 1
    return comb(n + k - 1, k) if n > 0 else 0


def dim_w(spec: SpecOrTable, i: int, j: int) -> int:
    """Closed-form dimension of W^(i,j): sum over (l_u, m_u) with
    sum_u u*(l_u + m_u) = i and sum_u m_u = j of products of symmetric and
    exterior power dimensions of the weight-u blocks."""
    if j > i or i < 0 or j < 0:
        return 0
    table = _table(spec)
    k = table.degree
    b = {u: 0 for u in range(1, k + 1)}
    c = {u: 0 for u in range(1, k + 1)}
    for g in table.gens:
        if g.h_weight:
            (c if g.form_degree else b)[g.h_weight] += 1

    def rec(u: int, weight_left: int, odd_left: int) -> int:
        if u > k:
            return 1 if weight_left == 0 and odd_left == 0 else 0
        total = 0
        for l in range(weight_left // u + 1):
            for m in range(min(c[u], odd_left, (weight_left - u * l) // u) + 1):
                rest = weight_left - u * (l + m)
                total += _multichoose(b[u], l) * comb(c[u], m) * rec(u + 1, rest, odd_left - m)
        return total

    if i == 0:
        return 1 if j == 0 else 0
    return rec(1, i, j)


def homogenization_projector(e: Element, k: int) -> Element:
    """Weight-k homogenization projector: the terms of h-weight exactly k."""
    if k < 0:
        raise ValueError("projector weight must be non-negative")
    table = e.table
    return Element(table, {key: c for key, c in e.terms.items()
                           if table.key_bi_weight(key).h_weight == k})
