"""Derivations of the graded algebra: Leibniz extension, commutators, Q^2 = 0."""

from __future__ import annotations

from typing import Dict, Mapping, NamedTuple, Tuple

from .algebra import Element, Generator, GeneratorTable, _mul_into, odd_positions


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

    def value(self, g: Generator) -> Element:
        return self.action.get(g.position, self.table.zero())

    def __call__(self, e: Element) -> Element:
        return apply(self, e)

    def is_zero(self) -> bool:
        return all(v.is_zero() for v in self.action.values())

    def __eq__(self, other) -> bool:
        if not isinstance(other, Derivation):
            return NotImplemented
        if self.table != other.table:
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
                f"got weights {sorted(val.bi_weights())}")
    return Derivation(table, (a, b), resolved)


def apply(D: Derivation, e: Element) -> Element:
    """Leibniz extension: D(uv) = D(u)v + (-1)^(b_D * |u|) u D(v).

    On a monomial this is the sum over its factors g of D(g) times the
    monomial with g removed.  An even factor g^n gives n D(g) g^(n-1).  For
    the odd factor with k odd factors before it, the Leibniz sign
    (-1)^(b_D k) and the sign of moving D(g), of form degree 1 + b_D, to the
    front give (-1)^k together."""
    if D.table != e.table:
        raise DerivationError("derivation and element over different tables")
    action = D.action
    out: dict = {}
    for (even, odd), c in e.terms.items():
        for n, (p, exp) in enumerate(even):
            dv = action.get(p)
            if dv is None or not dv.terms:
                continue
            rest = even[:n] + (((p, exp - 1),) if exp > 1 else ()) + even[n + 1:]
            _mul_into(out, c * exp if exp > 1 else c, (rest, odd), dv.terms,
                      mono_first=False)
        for k, p in enumerate(odd_positions(odd)):
            dv = action.get(p)
            if dv is None or not dv.terms:
                continue
            _mul_into(out, -c if k & 1 else c, (even, odd ^ (1 << p)), dv.terms,
                      mono_first=False)
    return Element(e.table, out)


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
    residuals = {}
    for g in D.table.gens:
        r = apply(D, D.value(g))
        if not r.is_zero():
            residuals[str(g)] = r
    return HomologicalReport(not residuals, residuals)
