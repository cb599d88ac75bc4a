"""Weight decomposition of the CE complex.

W^(i,j) is spanned by monomials in positive-weight generators only:
symmetric powers of the positive even fibers times exterior products of
positive-weight odd generators, with total bi-weight (i, j).  This realises
the quotient of weight-i forms by the ideal generated by weight-zero forms
of positive form degree.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, combinations_with_replacement
from math import comb
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from .algebra import Element, Generator, GeneratorTable, MonomialKey, Scalar, monomial_str
from .algebroid import AlgebroidSpec
from .derivations import apply


class CapClosureError(RuntimeError):
    """The base-polynomial degree cap does not close the complex."""


class BasisSizeError(ValueError):
    """A requested basis has more monomials than MAX_BASIS_SIZE."""


# Bases are listed eagerly, so a larger one is refused after counting it.
# The limit is several times the largest sector of gl(4) (12 870 monomials).
MAX_BASIS_SIZE = 50_000


def _check_size(label: str, size: int) -> None:
    if size > MAX_BASIS_SIZE:
        raise BasisSizeError(f"{label} has {size} basis monomials, above the limit "
                             f"of {MAX_BASIS_SIZE}")


SpecOrTable = Union[AlgebroidSpec, GeneratorTable]


def _table(spec: SpecOrTable) -> GeneratorTable:
    return spec.table if isinstance(spec, AlgebroidSpec) else spec


@dataclass
class WeightModuleBasis:
    i: int
    j: int
    keys: List[MonomialKey]            # coefficient-1 monomials, graded-lex order
    spec: SpecOrTable

    def __len__(self) -> int:
        return len(self.keys)

    def elements(self) -> List[Element]:
        table = _table(self.spec)
        return [Element(table, {k: 1}) for k in self.keys]

    def labels(self) -> List[str]:
        table = _table(self.spec)
        return [monomial_str(table, k) for k in self.keys]


def _positive_even(table: GeneratorTable) -> Tuple[Generator, ...]:
    return tuple(g for g in table.even_generators() if g.h_weight > 0)


def _positive_odd(table: GeneratorTable) -> Tuple[Generator, ...]:
    return tuple(g for g in table.odd_generators() if g.h_weight > 0)


def _even_multisets(gens: Sequence[Generator], weight: int):
    """Yield even parts ((position, exponent), ...) of total h-weight `weight`."""
    def rec(idx: int, remaining: int, acc):
        if remaining == 0:
            yield tuple(acc)
            return
        if idx == len(gens):
            return
        g = gens[idx]
        max_e = remaining // g.h_weight
        for e in range(max_e, -1, -1):
            if e:
                acc.append((g.position, e))
            yield from rec(idx + 1, remaining - e * g.h_weight, acc)
            if e:
                acc.pop()
    yield from rec(0, weight, [])


def w_basis(spec: SpecOrTable, i: int, j: int) -> WeightModuleBasis:
    """Monomial basis of W^(i,j): products of positive-weight generators with
    total bi-weight (i, j)."""
    if i < 1:
        raise ValueError("w_basis requires weight i >= 1")
    _check_size(f"W^({i},{j})", dim_w(spec, i, j))
    table = _table(spec)
    evens = _positive_even(table)
    odds = _positive_odd(table)
    keys: List[MonomialKey] = []
    for subset in combinations(odds, j):
        odd_w = sum(g.h_weight for g in subset)
        if odd_w > i:
            continue
        odd_part = tuple(sorted(g.position for g in subset))
        for even_part in _even_multisets(evens, i - odd_w):
            keys.append((tuple(sorted(even_part)), odd_part))
    keys.sort()
    return WeightModuleBasis(i, j, keys, spec)


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
    for g in _positive_even(table):
        b[g.h_weight] += 1
    for g in _positive_odd(table):
        c[g.h_weight] += 1

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


def _base_monomials(table: GeneratorTable, cap: int):
    """All monomials in base generators of total degree <= cap, as even parts."""
    base = table.base_generators()
    out = [()]
    for d in range(1, cap + 1):
        for combo in combinations_with_replacement(base, d):
            acc: Dict[int, int] = {}
            for g in combo:
                acc[g.position] = acc.get(g.position, 0) + 1
            out.append(tuple(sorted(acc.items())))
    return out


def sector_size(spec: SpecOrTable, i: int, j: int, cap: int) -> int:
    """The number of monomials in `sector_basis(spec, i, j, cap)`, counted
    without listing them."""
    table = _table(spec)
    ys = sum(1 for g in table.odd_generators() if g.h_weight == 0)
    base = comb(len(table.base_generators()) + max(cap, 0), max(cap, 0))
    return base * sum(comb(ys, q) * dim_w(spec, i, j - q) for q in range(min(j, ys) + 1))


def sector_basis(spec: SpecOrTable, i: int, j: int, cap: int) -> List[MonomialKey]:
    """Monomial basis of the (i, j) sector of the weight-i subcomplex:
    base polynomials of degree <= cap, times exterior products of weight-0
    odd generators, times W^(i, .) monomials."""
    _check_size(f"sector ({i},{j}) at base degree cap {cap}", sector_size(spec, i, j, cap))
    table = _table(spec)
    ys = tuple(g for g in table.odd_generators() if g.h_weight == 0)
    keys: List[MonomialKey] = []
    for q in range(min(j, len(ys)) + 1):
        jw = j - q
        if i == 0:
            if jw != 0:
                continue
            w_keys: List[MonomialKey] = [((), ())]
        else:
            if jw > i:
                continue
            w_keys = w_basis(spec, i, jw).keys
        for y_subset in combinations(ys, q):
            y_part = tuple(sorted(g.position for g in y_subset))
            for wk in w_keys:
                for base_even in _base_monomials(table, cap):
                    even = tuple(sorted(base_even + wk[0]))
                    odd = tuple(sorted(y_part + wk[1]))
                    keys.append((even, odd))
    keys.sort()
    return keys


Torus = Mapping[int, Tuple[int, ...]]   # generator position -> integer weights


class TorusBlock:
    """The monomials of the weight-i subcomplex over a point on which every
    torus weight vanishes, sector by sector.

    `torus` gives each generator's integer weight under each of r commuting
    operators (missing positions weigh zero); a monomial weighs the sum of
    its factors' weights.  A dynamic programme over the generators, in
    global order, records for each suffix of them the (h-weight, form
    degree, torus weight) totals it can reach and in how many ways, so a
    sector of the block is counted before it is listed, and listed without
    visiting a monomial outside it."""

    def __init__(self, spec: SpecOrTable, i: int, torus: Torus):
        table = _table(spec)
        if table.base_generators():
            raise ValueError("torus blocks are defined over a point only")
        zero = (0,) * len(next(iter(torus.values()), ()))
        # per generator that fits in weight i, per exponent, its contribution
        # (h-weight, form degree, torus weights)
        factors = []
        for g in table.gens:
            if g.h_weight <= i:
                top = 1 if g.form_degree else i // g.h_weight
                t = torus.get(g.position, zero)
                factors.append((g, [(e, (e * g.h_weight, e * g.form_degree)
                                     + tuple(e * x for x in t)) for e in range(top + 1)]))
        # A vector is stored as one integer, its digits in base B, so sums of
        # vectors are sums of ints.  m bounds i and every digit of every sum
        # of contributions, so the vectors compared below differ by digits
        # in [-2m, 2m], which B = 2m + 1 tells apart.  Digit 0 is the
        # h-weight, never negative, so it is the code mod B; digit 1 is the
        # form degree.
        self._m = m = max([i] + [sum(max(abs(v[c]) for _e, v in opts) for _g, opts in factors)
                                 for c in range(2 + len(zero))])
        self._base = base = 2 * m + 1
        self._factors = [(g, [(e, self._code(v)) for e, v in opts]) for g, opts in factors]
        self.i = i
        reach: Dict[int, int] = {0: 1}
        self._reach = [reach]
        for _g, options in reversed(self._factors):
            nxt: Dict[int, int] = {}
            for state, n in reach.items():
                for _e, v in options:
                    s = state + v
                    if s % base <= i:   # h-weight at most i
                        nxt[s] = nxt.get(s, 0) + n
            reach = nxt
            self._reach.append(reach)
        self._reach.reverse()   # _reach[k]: the totals of factors k, k+1, ...

    def _code(self, vector: Sequence[int]) -> int:
        return sum(x * self._base ** c for c, x in enumerate(vector))

    def size(self, j: int) -> int:
        """The number of block monomials in sector (i, j)."""
        if not 0 <= j <= self._m:   # m bounds the form degree of a monomial
            return 0
        return self._reach[0].get(self._code((self.i, j)), 0)

    def basis(self, j: int) -> List[MonomialKey]:
        """The block monomials of sector (i, j), sorted as `sector_basis`
        sorts them; refused above MAX_BASIS_SIZE after counting them."""
        _check_size(f"torus block of sector ({self.i},{j})", self.size(j))
        keys: List[MonomialKey] = []
        if self.size(j):
            self._walk(0, self._code((self.i, j)), [], [], keys)
        keys.sort()
        return keys

    def _walk(self, k: int, need: int, even: list, odd: list,
              keys: List[MonomialKey]) -> None:
        if k == len(self._factors):
            keys.append((tuple(even), tuple(odd)))
            return
        g, options = self._factors[k]
        reach = self._reach[k + 1]
        for e, v in options:
            if need - v not in reach:
                continue
            if e and g.form_degree:
                odd.append(g.position)
            elif e:
                even.append((g.position, e))
            self._walk(k + 1, need - v, even, odd, keys)
            if e:
                (odd if g.form_degree else even).pop()


def subcomplex_check(spec: AlgebroidSpec, i: int, base_degree_cap: int = 2) -> bool:
    """Re-verify that d_E preserves the weight-i sector: d of every spanning
    monomial (up to the base-degree cap) is h-homogeneous of weight i."""
    table = spec.table
    max_j = len(table.odd_generators())
    for j in range(max_j + 1):
        for key in sector_basis(spec, i, j, base_degree_cap):
            image = apply(spec.d, Element(table, {key: 1}))
            if not (image.is_zero() or image.is_bihomogeneous((i, j + 1))):
                return False
    return True


Column = Dict[int, Scalar]


def differential_columns(spec: AlgebroidSpec, domain: Sequence[MonomialKey],
                         codomain: Sequence[MonomialKey], cap: int) -> List[Column]:
    """Column-sparse matrix of d_E from the span of `domain` to the span of
    `codomain`: one {codomain row: coefficient} dict per domain monomial,
    nonzero entries only.

    Raises CapClosureError when an image term is not in `codomain` (the
    truncated span at base-degree cap `cap` does not close)."""
    table = spec.table
    index = {k: n for n, k in enumerate(codomain)}
    columns: List[Column] = []
    for key in domain:
        column: Column = {}
        for k, c in apply(spec.d, Element(table, {key: 1})).terms.items():
            row = index.get(k)
            if row is None:
                raise CapClosureError(
                    f"base degree cap {cap} does not close the complex: "
                    f"d({monomial_str(table, key)}) contains {monomial_str(table, k)}")
            column[row] = c
        columns.append(column)
    return columns


@dataclass
class SectorMatrix:
    """The induced differential from the (i, j) sector to the (i, j+1) sector."""
    i: int
    j: int
    domain: List[MonomialKey]
    codomain: List[MonomialKey]
    columns: List[Column]   # columns[col] = {codomain row: coefficient}

    @property
    def shape(self) -> Tuple[int, int]:
        return (len(self.codomain), len(self.domain))


def induced_differential_matrix(spec: AlgebroidSpec, i: int, j: int,
                                base_degree_cap: int = 4) -> SectorMatrix:
    """Matrix of d_E on the monomial basis of the (i, j) sector.

    Raises CapClosureError when an image term has base degree beyond the cap
    (the truncated span does not close)."""
    domain = sector_basis(spec, i, j, base_degree_cap)
    codomain = sector_basis(spec, i, j + 1, base_degree_cap)
    return SectorMatrix(i, j, domain, codomain,
                        differential_columns(spec, domain, codomain, base_degree_cap))


def homogenization_projector(e: Element, k: int) -> Element:
    """Weight-k homogenization projector: the terms of h-weight exactly k."""
    if k < 0:
        raise ValueError("projector weight must be non-negative")
    return e.weight_component(k)
