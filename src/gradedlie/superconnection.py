"""Representation-up-to-homotopy data of a weighted spec.

The induced differential on the weight-i module splits by the number of
weight-zero odd factors p: D = sum_p D_p, where D_0 is the fiberwise
boundary, D_1 the connection part and D_p (p >= 2) the higher homotopies.
Blocks are stored sparsely on the W-basis monomials; the extension to the
whole module follows the Leibniz rule
D_p(w . m) = [p = 1] d_A(w) . m + (-1)^|w| w . D_p(m).

The module operators (the summed D, and a gauge's raising part) compute
fraction-free: each clears the denominators of its blocks, and of d_A,
with one integer scale at construction, keeps the image of every module
monomial it has met as a scaled-int table, and divides each nonzero output
coefficient once.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from typing import Dict, List, Optional

from .algebra import Element, GeneratorTable, MonomialKey, Scalar, _mul_into, monomial_str
from .algebroid import AlgebroidSpec
from .derivations import Derivation, apply
from .weight_modules import Monomials


class GaugeError(ValueError):
    pass


def _y_count(table: GeneratorTable, key: MonomialKey) -> int:
    return bisect_left(key[1], table.zero_cuts[1])


def _split_key(table: GeneratorTable, key: MonomialKey):
    """Split a monomial into its weight-zero part (base evens and y's) and
    its positive-weight part (the W-monomial), at the table's cuts."""
    even, odd = key
    even_cut, odd_cut = table.zero_cuts
    e = bisect_left(even, (even_cut,))
    o = bisect_left(odd, odd_cut)
    return (even[:e], odd[:o]), (even[e:], odd[o:])


def split_by_y_count(table: GeneratorTable, e: Element) -> Dict[int, Element]:
    parts: Dict[int, Dict] = {}
    for key, c in e.terms.items():
        parts.setdefault(_y_count(table, key), {})[key] = c
    return {p: Element(table, terms) for p, terms in parts.items()}


def _scaled(e: Element, scale: int) -> Dict[MonomialKey, int]:
    """The coefficients of `e` times `scale`, a multiple of their denominators."""
    return {k: c.numerator * (scale // c.denominator) for k, c in e.terms.items()}


class _Extension:
    """An operator given on W-basis monomials, extended to the module.

    Without `d` the extension is module-linear, a.w -> a.op(w).  With the
    derivation `d` it is the odd Leibniz extension
    a.w -> d(a).w + (-1)^|a| a.op(w).

    The arithmetic is fraction-free.  At construction the blocks and the
    values of `d` are multiplied by one integer scale L, the lcm of all their
    denominators, into int tables, the blocks summed over p per W-basis key.
    The image of a module monomial a.w is computed once, from those tables,
    and kept in `images` for every later call.  A call multiplies its input
    by the lcm Le of the input's own denominators, accumulates int
    products, and divides each nonzero output coefficient once by L.Le,
    keeping an integral quotient as an int.  The blocks and `d` must not
    change after construction."""

    def __init__(self, table: GeneratorTable, blocks: Dict[int, Dict[MonomialKey, Element]],
                 d: Optional[Derivation] = None):
        values = [v for blk in blocks.values() for v in blk.values()]
        if d is not None:
            values += d.action.values()
        self.table = table
        self.scale = lcm(*[c.denominator for v in values for c in v.terms.values()])
        self.blocks: Dict[MonomialKey, Dict[MonomialKey, int]] = {}
        for blk in blocks.values():
            for key, v in blk.items():
                summed = self.blocks.setdefault(key, {})
                for k, c in _scaled(v, self.scale).items():
                    summed[k] = summed.get(k, 0) + c
        self.d = None if d is None else Derivation(table, d.bi_degree, {
            p: Element(table, _scaled(v, self.scale)) for p, v in d.action.items()})
        self.images: Dict[MonomialKey, Dict[MonomialKey, int]] = {}

    def _image(self, key: MonomialKey) -> Dict[MonomialKey, int]:
        """L times the image of the module monomial `key`."""
        table = self.table
        a_key, w_key = _split_key(table, key)
        image: dict = {}
        sign = 1
        if self.d is not None:
            da = apply(self.d, Element(table, {a_key: 1}))
            _mul_into(image, 1, w_key, da.terms, mono_first=False)
            if len(a_key[1]) & 1:
                sign = -1
        op_w = self.blocks.get(w_key)
        if op_w:
            _mul_into(image, sign, a_key, op_w)
        return {k: c for k, c in image.items() if c}

    def __call__(self, e: Element) -> Element:
        terms = e.terms
        # A list, not a generator: star-unpacking a generator here left up to
        # 2 000 tuples per size on the interpreter's free lists between full
        # collections, which showed in peak RSS.
        le = lcm(*[c.denominator for c in terms.values()])
        images = self.images
        acc: Dict[MonomialKey, int] = {}
        for key, c in terms.items():
            image = images.get(key)
            if image is None:
                image = images[key] = self._image(key)
            c = c.numerator * (le // c.denominator)
            for k, v in image.items():
                acc[k] = acc.get(k, 0) + c * v
        div = self.scale * le
        out: Dict[MonomialKey, Scalar] = {}
        for k, v in acc.items():
            if v:
                q, r = divmod(v, div)
                out[k] = Fraction(v, div) if r else q
        return Element(self.table, out)


@dataclass
class SuperconnectionComponents:
    """The blocks D_p of the weight-i module operator on the W-basis keys.
    Their per-key sum, scaled to integers, and the image of each module
    monomial under it are kept on the object: to change a block, build a
    new object."""

    spec: AlgebroidSpec
    i: int
    blocks: Dict[int, Dict[MonomialKey, Element]]
    basis_keys: List[MonomialKey] = field(default_factory=list)

    def __post_init__(self):
        self._extension = _Extension(self.spec.table, self.blocks, self.spec.d)

    def component(self, p: int, key: MonomialKey) -> Element:
        return self.blocks.get(p, {}).get(key, self.spec.table.zero())

    def degrees(self) -> List[int]:
        return sorted(p for p, blk in self.blocks.items()
                      if any(not v.is_zero() for v in blk.values()))

    def total(self, e: Element) -> Element:
        """The reassembled operator sum_p D_p on a module element."""
        return self._extension(e)


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


@dataclass
class CascadeReport:
    passed: bool
    residuals: Dict[int, Dict[str, Element]]   # level p -> basis label -> residual

    def __bool__(self) -> bool:
        return self.passed


def flatness_cascade(c: SuperconnectionComponents) -> CascadeReport:
    """Check sum_{a+b=p} D_a D_b = 0 on every W-basis monomial, per level p.

    D_a raises the y-count by exactly a, so level p is the y-count-p part
    of D(D(m))."""
    table = c.spec.table
    residuals: Dict[int, Dict[str, Element]] = {}
    for key in c.basis_keys:
        m = Element(table, {key: 1})
        for p, r in split_by_y_count(table, c.total(c.total(m))).items():
            residuals.setdefault(p, {})[monomial_str(table, key)] = r
    return CascadeReport(not residuals, residuals)


@dataclass
class GaugeTransformation:
    """Unipotent module automorphism: identity plus blocks phi_p (p >= 1)
    that raise the A-form degree by p and lower the module degree by p.
    Block keys are weight-i W-basis monomials.  The raising part, scaled to
    integers, and the image of each module monomial under it are kept on
    the object: to change a block, build a new object."""

    spec: AlgebroidSpec
    i: int
    blocks: Dict[int, Dict[MonomialKey, Element]]

    def __post_init__(self):
        table = self.spec.table
        for p, blk in self.blocks.items():
            if p < 1:
                raise GaugeError("gauge blocks must have p >= 1 (p = 0 is the identity)")
            for key, val in blk.items():
                bw = table.key_bi_weight(key)
                if _split_key(table, key)[0] != ((), ()) or bw.h_weight != self.i:
                    raise GaugeError(
                        f"gauge block p={p} key {monomial_str(table, key)} is not a "
                        f"weight-{self.i} W-basis monomial")
                if not (val.is_zero() or val.is_bihomogeneous(bw)):
                    raise GaugeError(
                        f"gauge block p={p} on {monomial_str(table, key)} is not "
                        f"degree preserving")
                if any(_y_count(table, k) != p for k in val.terms):
                    raise GaugeError(
                        f"gauge block p={p} on {monomial_str(table, key)} has terms "
                        f"with a different A-form degree")
        self._extension = _Extension(table, self.blocks)

    def _raise_once(self, e: Element) -> Element:
        """The strictly raising part N = phi - id, extended module-linearly."""
        return self._extension(e)

    def apply_to(self, e: Element) -> Element:
        return e + self._raise_once(e)

    def apply_inverse(self, e: Element) -> Element:
        """Finite Neumann series (1 + N)^-1 = sum (-N)^k."""
        out = e
        term = e
        while True:
            term = -self._raise_once(term)
            if term.is_zero():
                return out
            out = out + term


def identity_gauge(spec: AlgebroidSpec, i: int) -> GaugeTransformation:
    return GaugeTransformation(spec, i, {})


def apply_gauge(c: SuperconnectionComponents,
                phi: GaugeTransformation) -> SuperconnectionComponents:
    """Components of phi^-1 . D . phi, split by A-form degree."""
    if phi.spec.table != c.spec.table or phi.i != c.i:
        raise GaugeError("gauge transformation over a different sector family")
    table = c.spec.table
    blocks: Dict[int, Dict[MonomialKey, Element]] = {}
    for key in c.basis_keys:
        m = Element(table, {key: 1})
        image = phi.apply_inverse(c.total(phi.apply_to(m)))
        for p, part in split_by_y_count(table, image).items():
            blocks.setdefault(p, {})[key] = part
    return SuperconnectionComponents(c.spec, c.i, blocks, list(c.basis_keys))


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
