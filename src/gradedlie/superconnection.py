"""Representation-up-to-homotopy data of a weighted spec.

The induced differential on the weight-i module splits by the number of
weight-zero odd factors p: D = sum_p D_p, where D_0 is the fiberwise
boundary, D_1 the connection part and D_p (p >= 2) the higher homotopies.
Blocks are stored sparsely on the W-basis monomials; the extension to the
whole module follows the Leibniz rule
D_p(w . m) = [p = 1] d_A(w) . m + (-1)^|w| w . D_p(m).

The module operators compute fraction-free, on vectors of ints keyed by
module-monomial ids interned per spec.  Each maps an int vector over a
denominator to another, by `apply(vec, den)` and by `square(vec, den)`;
`total`, `flatness_cascade` and `apply_gauge` use nothing else.  Two kinds
share that protocol:

- The Leibniz extension of some blocks (extracted or given components; a
  gauge's raising part N is the same without the Leibniz part).  The
  Leibniz part L_d d(a).w of each module monomial a.w, where L_d is the
  lcm of d's denominators, is computed once per spec and shared by every
  extension over it.  Each adds only its block part (-1)^|a| a.D(w),
  scaled by its own integer L, and keeps each image it computes.  Its
  blocks are int vectors over module ids, so a.D(w) is one lookup per term
  in a product table kept per spec: a.m for each weight-zero part a and
  module monomial m, as a sign and an id, or nothing when a and m share a
  y.  A spec meets few of either (100 e7 gauges at weight 2: 8 parts a and
  109 monomials).  Its square keeps D^2 of each module monomial it meets,
  the operator applied to the kept image, and sums these kept squares,
  which is exact because D is Q-linear.
- The chain phi^-1 D phi that `apply_gauge` gives its result, over the
  parent's operator D and phi's N.  phi is module-linear and D obeys
  Leibniz, so phi^-1 D phi (a.w) = d(a).w + (-1)^|a| a.phi^-1 D phi(w): the
  chain is exactly the Leibniz extension of the gauged blocks.  Its square
  is phi^-1 D^2 phi, so a gauged cascade reads D's kept squares, which
  every gauge shares and which are empty on a flat D, and computes images
  only for N.  When D is itself a chain, the
  new one is built over the Leibniz extension of the gauged object's
  blocks, which equals D, so chains never nest.

Operators pass int vectors with one tracked denominator, the product of
the scales applied, and divide once per output block entry, in
`_SpecMemo.split`; a passing cascade divides nothing.  The public Element
entry points (`total`, `apply_to`, `apply_inverse`) convert to and from the
same int vectors.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import Dict, List, NamedTuple, Optional, Tuple

from .algebra import (BiWeight, Element, GeneratorTable, MonomialKey, Scalar, _element,
                      _mul_into, monomial_str)
from .algebroid import AlgebroidSpec
from .derivations import apply
from .weight_modules import Monomials


class GaugeError(ValueError):
    pass


# A module vector: module-monomial id -> int; its value is the vector over a
# denominator carried beside it.
Vector = Dict[int, int]
_ONE: MonomialKey = ((), 0)


def _y_count(table: GeneratorTable, key: MonomialKey) -> int:
    return (key[1] & ((1 << table.zero_cuts[1]) - 1)).bit_count()


def _split_key(table: GeneratorTable, key: MonomialKey):
    """Split a monomial into its weight-zero part (base evens and y's) and
    its positive-weight part (the W-monomial), at the table's cuts."""
    even, odd = key
    even_cut, odd_cut = table.zero_cuts
    e = bisect_left(even, (even_cut,))
    y = odd & ((1 << odd_cut) - 1)
    return (even[:e], y), (even[e:], odd ^ y)


def split_by_y_count(table: GeneratorTable, e: Element) -> Dict[int, Element]:
    parts: Dict[int, Dict] = {}
    for key, c in e.terms.items():
        parts.setdefault(_y_count(table, key), {})[key] = c
    return {p: Element(table, terms) for p, terms in parts.items()}


def _denominators(values) -> int:
    """The lcm of the denominators of the coefficients of some Elements."""
    # A list, not a generator: star-unpacking a generator here left up to
    # 2 000 tuples per size on the interpreter's free lists between full
    # collections, which showed in peak RSS.
    return lcm(*[c.denominator for v in values for c in v.terms.values()])


def _scaled(e: Element, scale: int) -> Dict[MonomialKey, int]:
    """The coefficients of `e` times `scale`, a multiple of their denominators."""
    return {k: c.numerator * (scale // c.denominator) for k, c in e.terms.items()}


def _quotient(v: int, den: int) -> Scalar:
    if den == 1:
        return v
    q, r = divmod(v, den)
    return Fraction(v, den) if r else q


class _SpecMemo:
    """The module monomials one spec's operators have met, their Leibniz
    images and a product table, kept on the spec (see `_memo`).

    Every module monomial gets an int id, its index in `keys`; `parts[id]`
    is its split (a, w) at the table's cuts, with the weight-zero part a
    given by its own int id, an index in `zeros`.  `y_counts[id]` and
    `weights[id]` are its y-count and bi-weight, read once when it is
    interned.  `leibniz(id)` is L_d d(a).w, with
    L_d = `scale` the lcm of d's denominators.  `rows[a]` maps a module id
    m to `times(a, m)`: (sign, id of a.keys[m]) when a.keys[m] = sign
    keys[id], or None when they share a y and the product vanishes; a row
    fills on first use, so each product is computed once per spec."""

    def __init__(self, spec: AlgebroidSpec):
        # the table and d, not the spec, so that the memo holds no cycle
        self.table = spec.table
        self.d = spec.d
        self.scale = _denominators(spec.d.action.values())
        self.ids: Dict[MonomialKey, int] = {}
        self.keys: List[MonomialKey] = []
        self.parts: List[Tuple[int, MonomialKey]] = []
        self.y_counts: List[int] = []
        self.weights: List[BiWeight] = []
        self.zero_ids: Dict[MonomialKey, int] = {}
        self.zeros: List[MonomialKey] = []
        self.rows: List[Dict[int, Optional[Tuple[int, int]]]] = []
        self._leibniz: Dict[int, Vector] = {}

    def intern(self, key: MonomialKey) -> int:
        n = self.ids.get(key)
        if n is None:
            n = self.ids[key] = len(self.keys)
            self.keys.append(key)
            a, w = _split_key(self.table, key)
            z = self.zero_ids.get(a)
            if z is None:
                z = self.zero_ids[a] = len(self.zeros)
                self.zeros.append(a)
                self.rows.append({})
            self.parts.append((z, w))
            self.y_counts.append(a[1].bit_count())
            self.weights.append(self.table.key_bi_weight(key))
        return n

    def times(self, a: int, m: int) -> Optional[Tuple[int, int]]:
        """The product zeros[a].keys[m], as (sign, id) or None when it
        vanishes, computed on first use and kept in `rows[a]`."""
        row = self.rows[a]
        if m in row:
            return row[m]
        terms: dict = {}
        _mul_into(terms, 1, self.zeros[a], {self.keys[m]: 1})
        product = row[m] = next(((c, self.intern(k)) for k, c in terms.items()), None)
        return product

    def leibniz(self, n: int) -> Vector:
        image = self._leibniz.get(n)
        if image is None:
            z, w = self.parts[n]
            a = self.zeros[z]
            terms: dict = {}
            if a != _ONE:
                da = apply(self.d, Element(self.table, {a: 1}))
                w_terms = {w: 1}
                for k, c in _scaled(da, self.scale).items():
                    _mul_into(terms, c, k, w_terms)
            image = self._leibniz[n] = {self.intern(k): c for k, c in terms.items() if c}
        return image

    def vector(self, e: Element) -> Tuple[Vector, int]:
        """`e` as an int vector over the lcm of its denominators."""
        den = _denominators([e])
        return {self.intern(k): c for k, c in _scaled(e, den).items()}, den

    def element(self, vec: Vector, den: int) -> Element:
        """The Element vec / den; a vector holds no zero entry, so neither
        does the Element, nor any from `split`."""
        keys = self.keys
        return _element(self.table, {keys[n]: _quotient(v, den) for n, v in vec.items()})

    def split(self, vec: Vector, den: int) -> Dict[int, Element]:
        """The Element vec / den split by y-count, one division per entry."""
        keys, y_counts = self.keys, self.y_counts
        parts: Dict[int, Dict] = {}
        for n, v in vec.items():
            parts.setdefault(y_counts[n], {})[keys[n]] = _quotient(v, den)
        return {p: _element(self.table, terms) for p, terms in parts.items()}


def _memo(spec: AlgebroidSpec) -> _SpecMemo:
    """The spec's memo, made on first use and kept as an attribute of the
    spec, so that it lives and dies with it."""
    memo = spec.__dict__.get("_superconnection_memo")
    if memo is None:
        memo = spec._superconnection_memo = _SpecMemo(spec)
    return memo


class _Extension:
    """An operator given on W-basis monomials, extended to the module.

    Without the Leibniz part the extension is module-linear,
    a.w -> a.op(w).  With it, it is the odd Leibniz extension
    a.w -> d(a).w + (-1)^|a| a.op(w).

    The arithmetic is fraction-free.  At construction the blocks are summed
    over p per W-basis key, multiplied by one integer scale L and interned
    into int vectors over module ids; L is the lcm of the blocks'
    denominators and, with the Leibniz part, of L_d (the memo's `scale`).
    L times the image of a module monomial is the memo's Leibniz image
    times L / L_d, plus the block part a.op(w), read term by term off the
    memo's product table; it is computed once and kept in `images`.  L^2
    times its square, the operator applied to that image, is kept in
    `squares` when first asked for.  A call maps an int vector v to
    L op(v), an int vector too; `apply` maps v / den to L op(v) / (L den),
    and `square` sums the kept squares into L^2 op^2(v) / (L^2 den).  The
    blocks must not change after construction."""

    def __init__(self, memo: _SpecMemo, blocks: Dict[int, Dict[MonomialKey, Element]],
                 leibniz: bool = False):
        self.memo = memo
        values = [v for blk in blocks.values() for v in blk.values()]
        self.scale = lcm(_denominators(values), memo.scale if leibniz else 1)
        self._leibniz = self.scale // memo.scale if leibniz else 0
        self.blocks: Dict[MonomialKey, Vector] = {}
        for blk in blocks.values():
            for key, v in blk.items():
                summed = self.blocks.setdefault(key, {})
                for k, c in _scaled(v, self.scale).items():
                    m = memo.intern(k)
                    summed[m] = summed.get(m, 0) + c
        self.images: Dict[int, Vector] = {}
        self.squares: Dict[int, Vector] = {}

    def image(self, n: int) -> Vector:
        """L times the image of the module monomial with id `n`."""
        image = self.images.get(n)
        if image is not None:
            return image
        memo = self.memo
        a, w = memo.parts[n]
        f = self._leibniz
        sign = -1 if f and memo.y_counts[n] & 1 else 1
        row = memo.rows[a]
        # the block part: a.m is one monomial for each m, so no two of its
        # terms meet
        image = {}
        for m, c in self.blocks.get(w, {}).items():
            product = row[m] if m in row else memo.times(a, m)
            if product is not None:
                image[product[1]] = sign * product[0] * c
        if f:
            leibniz = {k: f * c for k, c in memo.leibniz(n).items()}
            for k, c in image.items():
                leibniz[k] = leibniz.get(k, 0) + c
            image = {k: c for k, c in leibniz.items() if c}
        self.images[n] = image
        return image

    def square_of(self, n: int) -> Vector:
        """L^2 times the square of the module monomial with id `n`, the
        operator applied to its kept image."""
        square = self.squares[n] = self(self.image(n))
        return square

    def _sum(self, vec: Vector, kept: Dict[int, Vector], make) -> Vector:
        """sum_n vec[n] kept[n], with `make(n)` filling what is not kept."""
        acc: Vector = {}
        for n, c in vec.items():
            image = kept.get(n)
            if image is None:
                image = make(n)
            for k, v in image.items():
                acc[k] = acc.get(k, 0) + c * v
        return {k: v for k, v in acc.items() if v}

    def __call__(self, vec: Vector) -> Vector:
        return self._sum(vec, self.images, self.image)

    def apply(self, vec: Vector, den: int) -> Tuple[Vector, int]:
        return self(vec), den * self.scale

    def square(self, vec: Vector, den: int) -> Tuple[Vector, int]:
        """The kept squares summed: the operator is Q-linear, so this is
        two applications, over den L^2."""
        return self._sum(vec, self.squares, self.square_of), den * self.scale ** 2


def _gauge(N: _Extension, vec: Vector, den: int) -> Tuple[Vector, int]:
    """phi = 1 + N on vec / den, over den L_N."""
    scale = N.scale
    out = {n: scale * c for n, c in vec.items()}
    for n, c in N(vec).items():
        out[n] = out.get(n, 0) + c
    return {n: c for n, c in out.items() if c}, den * scale


def _gauge_inverse(N: _Extension, vec: Vector, den: int) -> Tuple[Vector, int]:
    """The finite Neumann series phi^-1 = sum_k (-N)^k on vec / den.  The
    k-th term N^k(vec) is over den L_N^k; with K the last nonzero one, the
    sum is over den L_N^K, and each term is added once, times
    (-1)^k L_N^(K - k)."""
    if not vec:
        return vec, den
    terms = [vec]
    while True:
        term = N(terms[-1])
        if not term:
            break
        terms.append(term)
    scale = N.scale
    top = len(terms) - 1
    out: Vector = {}
    for k, term in enumerate(terms):
        f = scale ** (top - k)
        if k & 1:
            f = -f
        for n, c in term.items():
            out[n] = out.get(n, 0) + f * c
    return {n: c for n, c in out.items() if c}, den * scale ** top


class _Gauged:
    """The operator phi^-1 D phi, over an operator D (of either kind) and
    phi's raising part N on D's memo.  It keeps no images of its own: D
    keeps D's and N keeps N's.  Its square is phi^-1 D^2 phi, one pass
    through D's kept squares."""

    def __init__(self, D, N: _Extension):
        self.memo = D.memo
        self.D = D
        self.N = N

    def apply(self, vec: Vector, den: int) -> Tuple[Vector, int]:
        return _gauge_inverse(self.N, *self.D.apply(*_gauge(self.N, vec, den)))

    def square(self, vec: Vector, den: int) -> Tuple[Vector, int]:
        return _gauge_inverse(self.N, *self.D.square(*_gauge(self.N, vec, den)))


class SuperconnectionComponents:
    """The blocks D_p of the weight-i module operator on the W-basis keys.
    The operator they define is built on first use and kept on the object,
    with the image of each module monomial under it: to change a block,
    build a new object."""

    def __init__(self, spec: AlgebroidSpec, i: int,
                 blocks: Dict[int, Dict[MonomialKey, Element]],
                 basis_keys: Optional[List[MonomialKey]] = None):
        self.spec = spec
        self.i = i
        self.blocks = blocks
        self.basis_keys = [] if basis_keys is None else basis_keys

    @cached_property
    def _operator(self):
        """sum_p D_p, the Leibniz extension of the blocks; `apply_gauge`
        sets the equal chain phi^-1 D phi in its place."""
        return _Extension(_memo(self.spec), self.blocks, leibniz=True)

    def component(self, p: int, key: MonomialKey) -> Element:
        return self.blocks.get(p, {}).get(key, self.spec.table.zero())

    def degrees(self) -> List[int]:
        return sorted(p for p, blk in self.blocks.items()
                      if any(not v.is_zero() for v in blk.values()))

    def total(self, e: Element) -> Element:
        """The reassembled operator sum_p D_p on a module element."""
        D = self._operator
        return D.memo.element(*D.apply(*D.memo.vector(e)))


def _module_basis_keys(spec: AlgebroidSpec, i: int) -> List[MonomialKey]:
    """The W^(i, j) monomials for j = 0..i, from one enumerator."""
    monomials = Monomials(spec, i, positive=True)
    keys: List[MonomialKey] = []
    for j in range(i + 1):
        keys.extend(monomials.basis(j))
    return keys


def extract_components(spec: AlgebroidSpec, i: int) -> SuperconnectionComponents:
    """Read off the superconnection blocks: apply d_E to each W-basis monomial
    and sort the image terms by their number of weight-zero odd factors."""
    if not 1 <= i <= spec.degree:
        raise ValueError(f"module weight {i} out of range 1..{spec.degree}")
    table = spec.table
    keys = _module_basis_keys(spec, i)
    blocks: Dict[int, Dict[MonomialKey, Element]] = {}
    for key in keys:
        image = apply(spec.d, Element(table, {key: 1}))
        for p, part in split_by_y_count(table, image).items():
            blocks.setdefault(p, {})[key] = part
    return SuperconnectionComponents(spec, i, blocks, keys)


class CascadeReport(NamedTuple):
    passed: bool
    residuals: Dict[int, Dict[str, Element]]   # level p -> basis label -> residual

    def __bool__(self) -> bool:
        return self.passed


def flatness_cascade(c: SuperconnectionComponents) -> CascadeReport:
    """Check sum_{a+b=p} D_a D_b = 0 on every W-basis monomial, per level p.

    D_a raises the y-count by exactly a, so level p is the y-count-p part
    of D^2(m), which the operator's `square` gives as an int vector over
    its denominator."""
    D = c._operator
    memo = D.memo
    residuals: Dict[int, Dict[str, Element]] = {}
    for key in c.basis_keys:
        r, den = D.square({memo.intern(key): 1}, 1)
        if r:
            for p, part in memo.split(r, den).items():
                residuals.setdefault(p, {})[monomial_str(c.spec.table, key)] = part
    return CascadeReport(not residuals, residuals)


class GaugeTransformation:
    """Unipotent module automorphism: identity plus blocks phi_p (p >= 1)
    that raise the A-form degree by p and lower the module degree by p.
    Block keys are weight-i W-basis monomials.  The raising part, scaled to
    integers, and the image of each module monomial under it are kept on
    the object: to change a block, build a new object."""

    def __init__(self, spec: AlgebroidSpec, i: int,
                 blocks: Dict[int, Dict[MonomialKey, Element]]):
        self.spec = spec
        self.i = i
        self.blocks = blocks
        table = spec.table
        # the weights and y-counts of keys and terms, read off the memo
        memo = _memo(spec)
        intern, weights, y_counts = memo.intern, memo.weights, memo.y_counts
        for p, blk in blocks.items():
            if p < 1:
                raise GaugeError("gauge blocks must have p >= 1 (p = 0 is the identity)")
            for key, val in blk.items():
                n = intern(key)
                bw = weights[n]
                if memo.zeros[memo.parts[n][0]] != _ONE or bw.h_weight != self.i:
                    raise GaugeError(
                        f"gauge block p={p} key {monomial_str(table, key)} is not a "
                        f"weight-{self.i} W-basis monomial")
                ids = [intern(k) for k in val.terms]
                if any(weights[m] != bw for m in ids):
                    raise GaugeError(
                        f"gauge block p={p} on {monomial_str(table, key)} is not "
                        f"degree preserving")
                if any(y_counts[m] != p for m in ids):
                    raise GaugeError(
                        f"gauge block p={p} on {monomial_str(table, key)} has terms "
                        f"with a different A-form degree")
        # N = phi - id, the strictly raising part, extended module-linearly
        self._raising = _Extension(memo, self.blocks)

    def _over(self, memo: _SpecMemo) -> _Extension:
        """N on the ids of `memo`, a spec over the same table."""
        if self._raising.memo is memo:
            return self._raising
        return _Extension(memo, self.blocks)

    def apply_to(self, e: Element) -> Element:
        memo = self._raising.memo
        return memo.element(*_gauge(self._raising, *memo.vector(e)))

    def apply_inverse(self, e: Element) -> Element:
        """Finite Neumann series (1 + N)^-1 = sum (-N)^k."""
        memo = self._raising.memo
        return memo.element(*_gauge_inverse(self._raising, *memo.vector(e)))


def identity_gauge(spec: AlgebroidSpec, i: int) -> GaugeTransformation:
    return GaugeTransformation(spec, i, {})


def apply_gauge(c: SuperconnectionComponents,
                phi: GaugeTransformation) -> SuperconnectionComponents:
    """Components of phi^-1 . D . phi, split by A-form degree: one int chain
    per W-basis monomial, divided once per output block entry.  The result
    keeps the chain as its operator, which equals the Leibniz extension of
    its blocks, so its cascade reuses the images of c's operator.  A gauge
    of a gauged object chains over the Leibniz extension of c's blocks,
    the operator equal to c's chain, so a chain is never more than one
    level deep."""
    if phi.spec.table != c.spec.table or phi.i != c.i:
        raise GaugeError("gauge transformation over a different sector family")
    D = c._operator
    if isinstance(D, _Gauged):
        D = _Extension(D.memo, c.blocks, leibniz=True)
    memo = D.memo
    D = _Gauged(D, phi._over(memo))
    blocks: Dict[int, Dict[MonomialKey, Element]] = {}
    for key in c.basis_keys:
        for p, part in memo.split(*D.apply({memo.intern(key): 1}, 1)).items():
            blocks.setdefault(p, {})[key] = part
    gauged = SuperconnectionComponents(c.spec, c.i, blocks, list(c.basis_keys))
    gauged._operator = D
    return gauged


def compose_gauges(phi: GaugeTransformation,
                   psi: GaugeTransformation) -> GaugeTransformation:
    """The gauge transformation phi . psi."""
    if phi.spec.table != psi.spec.table or phi.i != psi.i:
        raise GaugeError("gauge transformations over different sector families")
    table = phi.spec.table
    keys = _module_basis_keys(phi.spec, phi.i)
    blocks: Dict[int, Dict[MonomialKey, Element]] = {}
    for key in keys:
        m = Element(table, {key: 1})
        image = phi.apply_to(psi.apply_to(m)) - m
        for p, part in split_by_y_count(table, image).items():
            if p >= 1:
                blocks.setdefault(p, {})[key] = part
    return GaugeTransformation(phi.spec, phi.i, blocks)
