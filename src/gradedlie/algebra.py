"""Exact graded-commutative algebra on bi-weighted generators.

Generators carry a bi-weight (h_weight, form_degree): the first component is
the weight under the homogeneity action, the second the cohomological degree.
Single generators have form degree 0 (even) or 1 (odd); odd generators
anticommute and square to zero.  Coefficients are exact rationals, stored as
`int` unless a rational actually enters (a non-integral `Fraction` or a
division): int products are far cheaper than `Fraction` ones, and `str`,
`==` and `hash` agree between `n` and `Fraction(n)`.

Sign convention: Koszul, with odd factors stored in the global generator
order and the sign normalised on insertion.  The global order is
(kind, h_weight, name, index), so all even factors precede all odd ones.
The odd factors of a monomial are an int mask, so a product of odd parts is
zero when they meet (a & b), and its sign is one popcount.  Keys sort and
print by their odd positions in increasing order (`odd_positions`).

Two kernels add into a dict: `_mul_into`, a monomial times some terms,
into a dict of keys to coefficients, and `_leibniz_into`, a derivation
given by its values on the generators applied to a monomial by the graded
Leibniz rule, into a dict of even parts to dicts of odd masks to
coefficients, so that each term costs one int-keyed entry.  The second is
the only place that rule is written out: `apply`,
`cohomology.FiniteComplex.columns` and `partial_derivative` all call it.

Elements are immutable: no operation changes an Element's `terms` after it
is built, so an operation may return an operand as it is (x + 0 is x), and
`GeneratorTable.gen` returns one shared Element per generator of its table.
The public constructor `Element(table, terms)` drops zero coefficients.  The
private `_element(table, terms)` skips that filter and takes `terms` as its
own; it is used only where no zero can occur: a generator, a nonzero scalar,
a negation, a nonzero scalar multiple, a product of one term by at most one
term, a sum, and vectors that are already filtered
(`superconnection._SpecMemo`, `_leibniz_element`).  A sum filters only
what it cancels: neither operand holds a zero, so `__add__` deletes each
key whose coefficients add to zero and checks no other.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from typing import Mapping, NamedTuple, Optional, Sequence, Tuple, Union


class AlgebraError(ValueError):
    pass


class CoefficientSizeError(AlgebraError):
    """A coefficient has more digits than str() converts (sys.get_int_max_str_digits())."""


class BiWeight(NamedTuple):
    h_weight: int
    form_degree: int

    def __add__(self, other):  # type: ignore[override]
        return BiWeight(self.h_weight + other[0], self.form_degree + other[1])


KINDS = ("base", "even_fiber", "odd_fiber")
_KIND_ORDER = {k: n for n, k in enumerate(KINDS)}


class Generator(NamedTuple):
    name: str
    index: int            # 1-based index within its block
    h_weight: int
    form_degree: int      # 0 or 1
    kind: str
    position: int         # slot in the canonical global order

    def __str__(self) -> str:
        return f"{self.name}[{self.index}]"


# A monomial key is (even, odd) with even = ((position, exponent), ...) sorted
# by position, exponent >= 1, and odd an int mask: bit p is set when the odd
# generator at position p is a factor.
EvenPart = Tuple[Tuple[int, int], ...]
OddPart = int
MonomialKey = Tuple[EvenPart, OddPart]

Scalar = Union[int, Fraction]
GenRef = Union[Generator, str, Tuple[str, int]]


class GeneratorTable:
    """Frozen chart: named generator blocks with a fixed total order."""

    def __init__(self, declarations: Sequence[Tuple[str, str, int, int]]):
        seen = set()
        gens = []
        blocks = []
        for name, kind, h_weight, dim in declarations:
            if name in seen:
                raise AlgebraError(f"duplicate generator block name {name!r}")
            seen.add(name)
            if kind not in KINDS:
                raise AlgebraError(f"unknown generator kind {kind!r}")
            if dim < 1:
                raise AlgebraError(f"block {name!r} has non-positive dimension")
            if h_weight < 0:
                raise AlgebraError(f"block {name!r} has negative weight")
            if kind == "base" and h_weight != 0:
                raise AlgebraError(f"base block {name!r} must have weight 0")
            if kind == "even_fiber" and h_weight == 0:
                raise AlgebraError(
                    f"even fiber block {name!r} with weight 0 would be a second base block")
            blocks.append((name, kind, h_weight, dim))
            fd = 1 if kind == "odd_fiber" else 0
            for i in range(1, dim + 1):
                gens.append((name, i, h_weight, fd, kind))
        gens.sort(key=lambda g: (_KIND_ORDER[g[4]], g[2], g[0], g[1]))
        self.gens: Tuple[Generator, ...] = tuple(
            Generator(name, i, w, fd, kind, pos)
            for pos, (name, i, w, fd, kind) in enumerate(gens))
        self.blocks: Tuple[Tuple[str, str, int, int], ...] = tuple(blocks)
        # Weight-zero generators lead each parity in the global order, so the
        # weight-zero factors of a monomial are those at positions below these
        # two cuts: one in the even part (base), one in the odd part.
        self.zero_cuts: Tuple[int, int] = (
            sum(1 for g in self.gens if g.kind == "base"),
            next((g.position for g in self.gens if g.form_degree and g.h_weight),
                 len(self.gens)))
        self._by_name = {(g.name, g.index): g for g in self.gens}
        self._h_weights: Tuple[int, ...] = tuple(g.h_weight for g in self.gens)
        # (name, index) -> the generator as an Element, built on first `gen`
        self._elements: dict = {}

    @property
    def degree(self) -> int:
        return max((g.h_weight for g in self.gens), default=0)

    def generator(self, name: str, index: int = 1) -> Generator:
        try:
            return self._by_name[(name, index)]
        except KeyError:
            raise AlgebraError(f"unknown generator {name}[{index}]") from None

    def resolve(self, ref: GenRef) -> Generator:
        """A generator given as a Generator, a name (index 1) or (name, index)."""
        if isinstance(ref, Generator):
            return ref
        if isinstance(ref, str):
            return self.generator(ref)
        return self.generator(*ref)

    def generators(self, kind: Optional[str] = None) -> Tuple[Generator, ...]:
        if kind is None:
            return self.gens
        return tuple(g for g in self.gens if g.kind == kind)

    def even_generators(self) -> Tuple[Generator, ...]:
        return tuple(g for g in self.gens if g.form_degree == 0)

    def odd_generators(self) -> Tuple[Generator, ...]:
        return tuple(g for g in self.gens if g.form_degree == 1)

    def base_generators(self) -> Tuple[Generator, ...]:
        return self.generators("base")

    def _h_weight(self, key: MonomialKey) -> int:
        h = self._h_weights
        hw = 0
        for p, e in key[0]:
            hw += h[p] * e
        # the odd factors below the cut weigh 0; the others are read off
        # the mask bit by bit
        cut = self.zero_cuts[1]
        odd = key[1] >> cut
        while odd:
            low = odd & -odd
            hw += h[cut + low.bit_length() - 1]
            odd ^= low
        return hw

    def key_bi_weight(self, key: MonomialKey) -> BiWeight:
        return BiWeight(self._h_weight(key), key[1].bit_count())

    def gen(self, name: str, index: int = 1) -> "Element":
        """The generator as an Element: one shared Element per generator of
        this table, built on first use."""
        e = self._elements.get((name, index))
        if e is None:
            g = self.generator(name, index)
            if g.form_degree:
                key: MonomialKey = ((), 1 << g.position)
            else:
                key = (((g.position, 1),), 0)
            e = self._elements[name, index] = _element(self, {key: 1})
        return e

    def scalar(self, value: Scalar) -> "Element":
        c = _coefficient(value)
        if c == 0:
            return _element(self, {})
        return _element(self, {((), 0): c})

    def zero(self) -> "Element":
        return Element(self, {})

    def one(self) -> "Element":
        return self.scalar(1)

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        return isinstance(other, GeneratorTable) and sorted(self.blocks) == sorted(other.blocks)

    def __hash__(self) -> int:
        return hash(tuple(sorted(self.blocks)))

    def __repr__(self) -> str:
        parts = ", ".join(f"{n}:{k}({w},dim {d})" for n, k, w, d in self.blocks)
        return f"GeneratorTable({parts})"


def _coefficient(value: Scalar) -> Scalar:
    """The exact coefficient of `value`: an int when it is integral."""
    if type(value) is int:
        return value
    c = value if type(value) is Fraction else Fraction(value)
    return c.numerator if c.denominator == 1 else c


def _merge_even(a: EvenPart, b: EvenPart) -> EvenPart:
    """The product of two even parts, concatenated without a merge when one
    lies wholly before the other (base factors before fiber factors)."""
    if not a:
        return b
    if not b:
        return a
    if a[-1][0] < b[0][0]:
        return a + b
    if b[-1][0] < a[0][0]:
        return b + a
    acc = dict(a)
    for p, e in b:
        acc[p] = acc.get(p, 0) + e
    return tuple(sorted(acc.items()))


def odd_positions(odd: OddPart) -> Tuple[int, ...]:
    """The positions of the factors of an odd part, in increasing order:
    the order keys sort and print in."""
    out = []
    while odd:
        low = odd & -odd
        out.append(low.bit_length() - 1)
        odd ^= low
    return tuple(out)


def _parity(odd: OddPart) -> int:
    """The parity mask of an odd part: bit q is set when an odd number of
    its factors lie above q, the XOR of the bits of odd >> 1 from q up, by
    doubling shifts.  popcount(b & _parity(a)) then has the parity of the
    inversions of the shuffle a.b, the pairs (x of a, y of b) with y < x."""
    parity = odd >> 1
    shift = 1
    while shift < odd.bit_length():
        parity ^= parity >> shift
        shift <<= 1
    return parity


def _mul_into(acc: dict, coeff: Scalar, mono: MonomialKey,
              terms: Mapping[MonomialKey, Scalar]) -> None:
    """Add coeff * (mono * terms) into the dict `acc` of monomial keys to
    coefficients.

    One coefficient product per term, an int product when both are ints;
    entries may cancel to zero in `acc`, which the Element built from it
    drops.  A term whose odd part meets that of `mono` gives zero; the
    others have sign (-1)^popcount(o & parity(mo)) for mo.o, the shuffle's
    inversions.  For a one-factor o the inversions are the factors of mo
    above it, popcount(mo >> o.bit_length()), and no parity mask is built."""
    me, mo = mono
    parity = None   # the parity mask of mo, built when a term first needs it
    for (e, o), c in terms.items():
        sign = 0
        if o and mo:
            if o & mo:
                continue
            if o & (o - 1):
                if parity is None:
                    parity = _parity(mo)
                sign = (o & parity).bit_count()
            else:
                sign = (mo >> o.bit_length()).bit_count()
        key = (_merge_even(me, e), o | mo)
        v = coeff * c
        if sign & 1:
            v = -v
        old = acc.get(key)
        acc[key] = v if old is None else old + v


def _leibniz_into(acc: dict, coeff: Scalar, key: MonomialKey,
                  terms: Mapping[int, list]) -> None:
    """Add coeff * D(key) into `acc`, a dict of even parts to dicts of odd
    masks to coefficients, for the derivation D whose value on the
    generator at position p is terms[p], absent when zero, listed by even
    part: one (even part e, [(odd part t, `_parity(t)`, coefficient), ...])
    per e.  This is the graded Leibniz rule, the one implementation of it
    (`derivations.apply`, `derivations.is_homological`,
    `cohomology.FiniteComplex.columns`, `Element.partial_derivative`).

    D(key) is the sum over the factors g of key of D(g) times key with g
    removed, D(g) first, even factors before odd ones.  An even factor g^n
    leaves g^(n-1) and contributes n D(g).  The k-th odd factor has sign
    (-1)^k: the Leibniz sign (-1)^(b_D k) times the sign of moving D(g),
    of form degree 1 + b_D, to the front.  A term t of D(g) then meets the
    odd part r of the rest: it gives zero when t & r, and otherwise the
    sign of the shuffle t.r, (-1)^popcount(r & parity(t)).  One sign test
    and one int-keyed entry per term, one even-part product per even part
    that a term reaches, and no product when the factor's coefficient is
    1; entries may cancel to zero in `acc`.  An even part enters `acc`
    with its first term, so flattening `acc` lists the terms grouped by
    even part, in the order their even parts were first reached."""
    even, odd = key
    # per factor with D(g) != 0: (even part of the rest, odd part of the
    # rest, coefficient, sign parity, terms of D(g))
    parts = []
    for n, (p, exp) in enumerate(even):
        values = terms.get(p)
        if values:
            rest = even[:n] + (((p, exp - 1),) if exp > 1 else ()) + even[n + 1:]
            parts.append((rest, odd, coeff * exp if exp > 1 else coeff, 0, values))
    # the odd factors in increasing position, lowest bit first
    sign = 0
    bits = odd
    while bits:
        low = bits & -bits
        values = terms.get(low.bit_length() - 1)
        if values:
            parts.append((even, odd ^ low, coeff, sign, values))
        bits ^= low
        sign ^= 1
    for rest_even, rest, factor, sign, values in parts:
        for e, odds in values:
            bucket = None
            for t, parity, c in odds:
                if t & rest:
                    continue
                v = c if factor == 1 else factor * c
                if (sign + (rest & parity).bit_count()) & 1:
                    v = -v
                if bucket is None:
                    image = _merge_even(rest_even, e) if e else rest_even
                    bucket = acc.get(image)
                    if bucket is None:
                        bucket = acc[image] = {}
                m = rest | t
                old = bucket.get(m)
                bucket[m] = v if old is None else old + v


def _leibniz_element(table: GeneratorTable, acc: dict) -> "Element":
    """The Element of an accumulator filled by `_leibniz_into`, its zero
    entries dropped."""
    return _element(table, {(even, odd): v for even, odds in acc.items()
                            for odd, v in odds.items() if v})


class Element:
    """Canonical sparse element: a dict of monomial keys to rational coefficients."""

    __slots__ = ("table", "terms")

    def __init__(self, table: GeneratorTable, terms: dict):
        self.table = table
        self.terms = {k: c for k, c in terms.items() if c != 0}

    # -- queries ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def bi_weights(self) -> set:
        return {self.table.key_bi_weight(k) for k in self.terms}

    def bi_weights_str(self) -> str:
        """The bi-weights of the terms, sorted and written as messages write
        a wanted bi-weight: "(0, 1), (1, 1)"."""
        return ", ".join(f"({h}, {j})" for h, j in sorted(self.bi_weights()))

    def is_bihomogeneous(self, bw: Tuple[int, int]) -> bool:
        h, j = bw
        weight = self.table._h_weight
        return all(k[1].bit_count() == j and weight(k) == h for k in self.terms)

    # -- arithmetic ------------------------------------------------------

    def _check(self, other: "Element") -> None:
        if self.table is not other.table and self.table != other.table:
            raise AlgebraError("elements over different generator tables")

    def __add__(self, other: Union["Element", Scalar]) -> "Element":
        if type(other) is not Element and isinstance(other, (int, Fraction)):
            other = self.table.scalar(other)
        self._check(other)
        if not other.terms:
            return self
        if not self.terms:
            return other
        terms = dict(self.terms)
        for k, c in other.terms.items():
            # a key new to self keeps c as it is: 0 + c would cost an
            # int + Fraction addition
            old = terms.get(k)
            if old is None:
                terms[k] = c
            else:
                c += old
                if c:
                    terms[k] = c
                else:
                    del terms[k]
        return _element(self.table, terms)

    def __radd__(self, other: Scalar) -> "Element":
        return self + other

    def __sub__(self, other: Union["Element", Scalar]) -> "Element":
        if type(other) is not Element and isinstance(other, (int, Fraction)):
            other = self.table.scalar(other)
        return self + (-other)

    def __rsub__(self, other: Scalar) -> "Element":
        return (-self) + other

    def __neg__(self) -> "Element":
        return _element(self.table, {k: -c for k, c in self.terms.items()})

    def __mul__(self, other: Union["Element", Scalar]) -> "Element":
        if type(other) is not Element and isinstance(other, (int, Fraction)):
            c = _coefficient(other)
            if not c:
                return _element(self.table, {})
            return _element(self.table, {k: v * c for k, v in self.terms.items()})
        self._check(other)
        terms: dict = {}
        for key, c in self.terms.items():
            _mul_into(terms, c, key, other.terms)
        if len(self.terms) == 1 and len(other.terms) <= 1:
            # one product of nonzero coefficients, or none: no zero
            return _element(self.table, terms)
        return Element(self.table, terms)

    def __rmul__(self, other: Scalar) -> "Element":
        return self * other

    def __pow__(self, n: int) -> "Element":
        if n < 0:
            raise AlgebraError("negative powers are not defined")
        if n == 0:
            return self.table.one()
        square = self
        while not n & 1:
            square = square * square
            n >>= 1
        out = square
        n >>= 1
        while n:
            square = square * square
            if n & 1:
                out = out * square
            n >>= 1
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, Element):
            return NotImplemented
        return self.table == other.table and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.table, tuple(sorted(self.terms.items()))))

    # -- graded operations ----------------------------------------------

    def partial_derivative(self, g: Generator) -> "Element":
        """Graded left derivative with respect to a single generator: the
        derivation that takes g to 1 and every other generator to 0."""
        values = {g.position: [((), [(0, 0, 1)])]}
        acc: dict = {}
        for key, c in self.terms.items():
            _leibniz_into(acc, c, key, values)
        return _leibniz_element(self.table, acc)

    def map_to(self, table: GeneratorTable) -> "Element":
        """Translate into another table by (name, index); generators that
        `table` lacks become 0.  No sign is taken, so both tables must order
        the generators they share the same way.  That holds when each shared
        block has the same kind and weight in both, as for the sub-table of
        `AlgebroidSpec.restricted` and the larger tables of
        `cotangent_prolongation` and `algebroid_prolongation`."""
        moved = {}   # position here -> position in `table`
        for g in self.table.gens:
            h = table._by_name.get((g.name, g.index))
            if h is not None:
                moved[g.position] = h.position
        terms: dict = {}
        for (even, odd), c in self.terms.items():
            positions = odd_positions(odd)
            if all(p in moved for p, _e in even) and all(p in moved for p in positions):
                # shared generators keep their relative order, so no sign
                key = (tuple(sorted((moved[p], e) for p, e in even)),
                       sum(1 << moved[p] for p in positions))
                terms[key] = terms.get(key, 0) + c
        return Element(table, terms)

    # -- printing --------------------------------------------------------

    def sorted_keys(self) -> list:
        bi_weight = self.table.key_bi_weight
        return sorted(self.terms, key=lambda k: (bi_weight(k), k[0], odd_positions(k[1])))

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        chunks = []
        for n, key in enumerate(self.sorted_keys()):
            c = self.terms[key]
            factors = monomial_str(self.table, key)
            mag = abs(c)
            try:
                body = str(mag) if factors == "1" else factors if mag == 1 else f"{mag}*{factors}"
            except ValueError:
                raise CoefficientSizeError(
                    f"a coefficient has more than {sys.get_int_max_str_digits()} digits, "
                    f"too many to print") from None
            if n == 0:
                chunks.append(body if c > 0 else f"-{body}")
            else:
                chunks.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(chunks)

    __repr__ = __str__


def _element(table: GeneratorTable, terms: dict) -> Element:
    """An Element that takes `terms` as its own, unfiltered: for callers
    whose coefficients are all nonzero (see the module docstring)."""
    e = Element.__new__(Element)
    e.table = table
    e.terms = terms
    return e


def monomial_str(table: GeneratorTable, key: MonomialKey) -> str:
    even, odd = key
    factors = []
    for p, e in even:
        g = table.gens[p]
        factors.append(f"{g}^{e}" if e > 1 else str(g))
    for p in odd_positions(odd):
        factors.append(str(table.gens[p]))
    return "*".join(factors) if factors else "1"
