"""Derivations of the graded algebra: Leibniz extension, commutators, Q^2 = 0."""

from __future__ import annotations

from functools import cached_property
from typing import Dict, Mapping, NamedTuple, Tuple

from .algebra import (Element, EvenPart, Generator, GeneratorTable, _leibniz_element,
                      _leibniz_into, _parity)


class DerivationError(ValueError):
    pass


class Derivation:
    """A derivation given by its values on generators, extended by the graded
    Leibniz rule.  bi_degree = (shift in h-weight, shift in form degree)."""

    def __init__(self, table: GeneratorTable, bi_degree: Tuple[int, int],
                 action: Mapping[int, Element]):
        self.table = table
        self.bi_degree = bi_degree
        self.action = action    # position -> value

    @cached_property
    def leibniz_terms(self) -> Dict[int, list]:
        """The nonzero values by position, as `algebra._leibniz_into` reads
        them, their terms grouped by even part: built on first use and
        kept, as `action` is never changed."""
        out = {}
        for p, v in self.action.items():
            groups: Dict[EvenPart, list] = {}
            for (e, t), c in v.terms.items():
                groups.setdefault(e, []).append((t, _parity(t), c))
            if groups:
                out[p] = list(groups.items())
        return out

    def value(self, g: Generator) -> Element:
        return self.action.get(g.position, self.table.zero())

    def __call__(self, e: Element) -> Element:
        return apply(self, e)

    def is_zero(self) -> bool:
        return all(v.is_zero() for v in self.action.values())

    def __eq__(self, other) -> bool:
        if not isinstance(other, Derivation):
            return NotImplemented
        if self.table != other.table or self.bi_degree != other.bi_degree:
            return False
        positions = set(self.action) | set(other.action)
        return all(
            self.action.get(p, self.table.zero()) == other.action.get(p, other.table.zero())
            for p in positions)

    def __hash__(self) -> int:
        return hash((self.table, self.bi_degree))

    def __repr__(self) -> str:
        parts = "; ".join(
            f"D({self.table.gens[p]}) = {v}" for p, v in sorted(self.action.items())
            if not v.is_zero())
        return f"Derivation{self.bi_degree}[{parts or '0'}]"


def make_derivation(table: GeneratorTable, bi_degree: Tuple[int, int],
                    action: Mapping) -> Derivation:
    """Build a derivation from generator values.

    `action` maps Generator (or (name, index), or name for index 1) to Element.
    Unassigned generators default to zero.  Every value must be bi-homogeneous
    of the generator's bi-weight shifted by `bi_degree`.
    """
    a, b = bi_degree
    resolved: Dict[int, Element] = {}
    for key, val in action.items():
        g = table.resolve(key)
        if val.table != table:
            raise DerivationError(f"value for {g} lives over a different table")
        resolved[g.position] = val
    for pos, val in resolved.items():
        g = table.gens[pos]
        want = (g.h_weight + a, g.form_degree + b)
        if not val.is_bihomogeneous(want):
            raise DerivationError(
                f"value for {g} must be bi-homogeneous of bi-weight {want}, "
                f"got weights {val.bi_weights_str()}")
    return Derivation(table, (a, b), resolved)


def apply(D: Derivation, e: Element) -> Element:
    """Leibniz extension: D(uv) = D(u)v + (-1)^(b_D * |u|) u D(v), by the
    one Leibniz kernel, `algebra._leibniz_into`, on each term of `e`."""
    if D.table != e.table:
        raise DerivationError("derivation and element over different tables")
    terms = D.leibniz_terms
    acc: dict = {}
    for key, c in e.terms.items():
        _leibniz_into(acc, c, key, terms)
    return _leibniz_element(e.table, acc)


def graded_commutator(D1: Derivation, D2: Derivation) -> Derivation:
    """[D1, D2] = D1 D2 - (-1)^(b1 b2) D2 D1, as a derivation."""
    if D1.table != D2.table:
        raise DerivationError("derivations over different tables")
    table = D1.table
    sign = (-1) ** (D1.bi_degree[1] * D2.bi_degree[1])
    action = {}
    for g in table.gens:
        v = apply(D1, D2.value(g)) - sign * apply(D2, D1.value(g))
        if not v.is_zero():
            action[g.position] = v
    bi_degree = (D1.bi_degree[0] + D2.bi_degree[0], D1.bi_degree[1] + D2.bi_degree[1])
    return Derivation(table, bi_degree, action)


class HomologicalReport(NamedTuple):
    ok: bool
    residuals: Dict[str, Element]   # generator name -> D(D(g)) when nonzero

    def __bool__(self) -> bool:
        return self.ok


def is_homological(D: Derivation) -> HomologicalReport:
    """Check D^2 = 0 on generators (sufficient by Leibniz, as D^2 = [D,D]/2
    is itself a derivation for odd D)."""
    if D.bi_degree[1] % 2 == 0:
        raise DerivationError(
            "D^2 = 0 is the homological condition only for odd form-degree shift")
    # apply(D, D.value(g)) for each g with a value, without an Element
    # for a residual that is zero
    terms = D.leibniz_terms
    residuals = {}
    for g in D.table.gens:
        if g.position not in terms:
            continue
        v = D.action[g.position]
        acc: dict = {}
        for key, c in v.terms.items():
            _leibniz_into(acc, c, key, terms)
        if any(any(odds.values()) for odds in acc.values()):
            residuals[str(g)] = _leibniz_element(v.table, acc)
    return HomologicalReport(not residuals, residuals)
