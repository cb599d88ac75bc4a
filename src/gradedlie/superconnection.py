"""Representation-up-to-homotopy data of a weighted spec.

The induced differential on the weight-i module splits by the number of
weight-zero odd factors p: D = sum_p D_p, where D_0 is the fiberwise
boundary, D_1 the connection part and D_p (p >= 2) the higher homotopies.
Blocks are stored sparsely on the W-basis monomials; the extension to the
whole module follows the Leibniz rule
D_p(w . m) = [p = 1] d_A(w) . m + (-1)^|w| w . D_p(m).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from .algebra import Element, GeneratorTable, MonomialKey, _mul_into, monomial_str
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


def _summed_blocks(blocks: Dict[int, Dict[MonomialKey, Element]]) -> Dict[MonomialKey, Element]:
    """Per W-basis key, the sum of its blocks over all p."""
    summed: Dict[MonomialKey, Element] = {}
    for blk in blocks.values():
        for key, v in blk.items():
            summed[key] = summed[key] + v if key in summed else v
    return summed


def _extend(table: GeneratorTable, summed: Dict[MonomialKey, Element], e: Element,
            d: Optional[Derivation] = None) -> Element:
    """Extend an operator given on W-basis monomials to the module.

    Without `d` the extension is module-linear, a.w -> a.op(w).  With the
    derivation `d` it is the odd Leibniz extension
    a.w -> d(a).w + (-1)^|a| a.op(w); d(a) is computed once per
    weight-zero key a within the call."""
    out: dict = {}
    d_of: Dict[MonomialKey, dict] = {}
    for key, coeff in e.terms.items():
        a_key, w_key = _split_key(table, key)
        if d is not None:
            da = d_of.get(a_key)
            if da is None:
                da = d_of[a_key] = apply(d, Element(table, {a_key: 1})).terms
            _mul_into(out, coeff, w_key, da, mono_first=False)
            if len(a_key[1]) & 1:
                coeff = -coeff
        op_w = summed.get(w_key)
        if op_w is not None:
            _mul_into(out, coeff, a_key, op_w.terms)
    return Element(table, out)


@dataclass
class SuperconnectionComponents:
    """The blocks D_p of the weight-i module operator on the W-basis keys.
    Their per-key sum is taken once, at construction: to change a block,
    build a new object."""

    spec: AlgebroidSpec
    i: int
    blocks: Dict[int, Dict[MonomialKey, Element]]
    basis_keys: List[MonomialKey] = field(default_factory=list)

    def __post_init__(self):
        self._summed = _summed_blocks(self.blocks)

    def component(self, p: int, key: MonomialKey) -> Element:
        return self.blocks.get(p, {}).get(key, self.spec.table.zero())

    def degrees(self) -> List[int]:
        return sorted(p for p, blk in self.blocks.items()
                      if any(not v.is_zero() for v in blk.values()))

    def total(self, e: Element) -> Element:
        """The reassembled operator sum_p D_p on a module element."""
        return _extend(self.spec.table, self._summed, e, self.spec.d)


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
    that raise the A-form degree by p and lower the module degree by p."""

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
                if not (val.is_zero() or val.is_bihomogeneous(bw)):
                    raise GaugeError(
                        f"gauge block p={p} on {monomial_str(table, key)} is not "
                        f"degree preserving")
                if any(_y_count(table, k) != p for k in val.terms):
                    raise GaugeError(
                        f"gauge block p={p} on {monomial_str(table, key)} has terms "
                        f"with a different A-form degree")
        self._summed = _summed_blocks(self.blocks)

    def _raise_once(self, e: Element) -> Element:
        """The strictly raising part N = phi - id, extended module-linearly."""
        return _extend(self.spec.table, self._summed, e)

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
