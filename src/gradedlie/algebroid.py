"""Weighted Lie algebroid data.

An AlgebroidSpec is a chart (GeneratorTable) together with the Chevalley-Eilenberg-de
Rham derivation d_E of bi-degree (0,1).  Structure-function tables are an
alternative presentation: the anchor-type coefficients Q_I^A (so that
d X^A = sum_I Y^I Q_I^A) and bracket constants Q_IJ^K with
[s_I, s_J] = sum_K Q_IJ^K s_K, entering the differential as
d Y^K = -sum_{I<J} Q_IJ^K Y^I Y^J.  Internally the derivation is canonical
and the tables are recovered by reading off coefficients.

The structure equations (anchor compatibility and Jacobi) are d_E^2 = 0 on
the generators, so `check_structure_equations` reads both families off the
spec's one d^2 report, `AlgebroidSpec.homological`, instead of evaluating
them on the tables.
"""

from __future__ import annotations

from functools import cached_property
from math import comb
from typing import Dict, Mapping, NamedTuple, Tuple

from .algebra import Element, GenRef, Generator, GeneratorTable, odd_positions
from .derivations import Derivation, HomologicalReport, is_homological, make_derivation


class SpecError(ValueError):
    pass


class AlgebroidSpec:
    """A weighted Lie algebroid in a homogeneous chart."""

    def __init__(self, table: GeneratorTable, differential: Derivation):
        if differential.table != table:
            raise SpecError("differential over a different table")
        if differential.bi_degree != (0, 1):
            raise SpecError(f"d_E must have bi-degree (0, 1), got {differential.bi_degree}")
        self.table = table
        self.d = differential

    # -- constructors ----------------------------------------------------

    @classmethod
    def from_differential(cls, table: GeneratorTable,
                          action: Mapping) -> "AlgebroidSpec":
        """Spec from d_E assignments on generators (unassigned default to 0)."""
        return cls(table, make_derivation(table, (0, 1), action))

    @classmethod
    def from_tables(cls, table: GeneratorTable,
                    anchor: Mapping, bracket: Mapping) -> "AlgebroidSpec":
        """Spec from structure-function tables.

        anchor: (even ref, odd ref) -> polynomial coefficient Q_I^A, so that
            d X^A = sum_I Y^I Q_I^A.  Coefficients must be bi-homogeneous of
            weight (w(A) - w(I), 0), so a nonzero entry of negative slot
            weight is an error; entries for the same pair add up.
        bracket: (odd I, odd J, odd K) -> Q_IJ^K, either triangle; the
            antisymmetric extension is normalised at ingestion and
            inconsistent double entries are an error.

        Each entry goes straight into d_E: Y^I Q_I^A into d X^A, and
        -Y^I Y^J Q_IJ^K (I before J) into d Y^K.
        """
        action: Dict[Generator, Element] = {}
        for (a_ref, i_ref), val in anchor.items():
            A = table.resolve(a_ref)
            I = table.resolve(i_ref)
            if A.form_degree != 0 or I.form_degree != 1:
                raise SpecError(f"anchor entry ({A}, {I}) must pair an even with an odd generator")
            q = val if isinstance(val, Element) else table.scalar(val)
            if q.is_zero():
                continue
            slot = A.h_weight - I.h_weight
            if not q.is_bihomogeneous((slot, 0)):
                raise SpecError(
                    f"anchor coefficient for ({A}, {I}) must be bi-homogeneous of "
                    f"bi-weight ({slot}, 0), got weights {q.bi_weights_str()}")
            action[A] = action.get(A, table.zero()) + table.gen(I.name, I.index) * q

        seen: Dict[Tuple[int, int, int], Element] = {}
        for (i_ref, j_ref, k_ref), val in bracket.items():
            I = table.resolve(i_ref)
            J = table.resolve(j_ref)
            K = table.resolve(k_ref)
            if not (I.form_degree == J.form_degree == K.form_degree == 1):
                raise SpecError(f"bracket entry ({I}, {J}, {K}) must involve odd generators only")
            if I.position == J.position:
                raise SpecError(f"bracket entry ({I}, {I}, {K}) violates antisymmetry")
            q = val if isinstance(val, Element) else table.scalar(val)
            if I.position > J.position:
                I, J = J, I
                q = -q
            if q.is_zero():
                continue
            slot = K.h_weight - I.h_weight - J.h_weight
            if not q.is_bihomogeneous((slot, 0)):
                raise SpecError(
                    f"bracket coefficient for ({I}, {J}, {K}) must be bi-homogeneous of "
                    f"bi-weight ({slot}, 0), got weights {q.bi_weights_str()}")
            key = (I.position, J.position, K.position)
            if key in seen:
                if seen[key] != q:
                    raise SpecError(
                        f"inconsistent double entry for bracket ({I}, {J}, {K})")
                continue
            seen[key] = q
            action[K] = action.get(K, table.zero()) \
                - table.gen(I.name, I.index) * table.gen(J.name, J.index) * q

        return cls(table, make_derivation(table, (0, 1), action))

    # -- structure-table read-off ---------------------------------------

    @property
    def degree(self) -> int:
        return self.table.degree

    @cached_property
    def homological(self) -> HomologicalReport:
        """The d_E^2 = 0 report, `is_homological(self.d)`: evaluated on first
        use and kept, so `check`, `build_complex` and `betti` share one
        evaluation per spec."""
        return is_homological(self.d)

    def anchor_coeff(self, I: GenRef, A: GenRef) -> Element:
        """Q_I^A: the coefficient of Y^I in d X^A."""
        I = self.table.resolve(I)
        A = self.table.resolve(A)
        out: Dict = {}
        for (even, odd), c in self.d.value(A).terms.items():
            if odd == 1 << I.position:
                out[(even, 0)] = c
        return Element(self.table, out)

    def bracket_coeff(self, I: GenRef, J: GenRef, K: GenRef) -> Element:
        """Q_IJ^K with [s_I, s_J] = sum Q_IJ^K s_K (antisymmetric in I, J)."""
        I = self.table.resolve(I)
        J = self.table.resolve(J)
        K = self.table.resolve(K)
        if I.position == J.position:
            return self.table.zero()
        sign = 1
        if I.position > J.position:
            I, J = J, I
            sign = -1
        out: Dict = {}
        for (even, odd), c in self.d.value(K).terms.items():
            if odd == 1 << I.position | 1 << J.position:
                # d Y^K = -sum_{I<J} Q_IJ^K Y^I Y^J
                out[(even, 0)] = -c
        return Element(self.table, out) * sign

    # -- operations ------------------------------------------------------

    def restricted(self, max_weight: int) -> "AlgebroidSpec":
        keep = [b for b in self.table.blocks if b[2] <= max_weight]
        sub = GeneratorTable(keep)
        action = {}
        for g in sub.gens:
            orig = self.table.generator(g.name, g.index)
            action[g] = self.d.value(orig).map_to(sub)
        return AlgebroidSpec(sub, make_derivation(sub, (0, 1), action))

    def __eq__(self, other) -> bool:
        if not isinstance(other, AlgebroidSpec):
            return NotImplemented
        return self.table == other.table and self.d == other.d

    def __repr__(self) -> str:
        return f"AlgebroidSpec(degree {self.degree}, {self.table!r})"


def degree_zero_restriction(spec: AlgebroidSpec) -> AlgebroidSpec:
    """Restrict to the underlying degree-zero algebroid: keep weight-0
    generators, set all positive-weight generators to zero."""
    return spec.restricted(0)


def tower_truncation(spec: AlgebroidSpec, i: int) -> AlgebroidSpec:
    """Truncate along the tower: drop generators of h-weight > i."""
    if not 1 <= i <= spec.degree:
        raise SpecError(f"truncation level {i} out of range 1..{spec.degree}")
    return spec.restricted(i)


class StructureReport(NamedTuple):
    passed: bool
    residuals: Dict[str, Dict[str, Element]]
    checked: Dict[str, int] = {}

    def __bool__(self) -> bool:
        return self.passed


def check_structure_equations(spec: AlgebroidSpec) -> StructureReport:
    """The Lie algebroid structure equations, read off d_E^2 on generators.

    Two families (Vaintrob 1997).  Anchor compatibility on the odd pair
    (I, J) and the even coordinate X^A is the coefficient of Y^I Y^J in
    d_E^2 X^A; the Jacobi identity on the odd triple (I, J, L), component K,
    is the coefficient of Y^I Y^J Y^L in d_E^2 Y^K.  Every term of d_E^2 on
    a generator lies in exactly one of these labels, so the families pass
    together iff d_E^2 = 0.  The d^2 report is `spec.homological`, shared
    with the rest of `check`; `checked` counts the labels, C(n,2)*m anchor
    and C(n,3)*n Jacobi ones for n odd and m even generators.
    """
    table = spec.table
    d_squared = spec.homological.residuals
    found: Dict = {}   # (odd positions, generator position) -> its terms
    for g in table.gens:
        r = d_squared.get(str(g))
        if r is not None:
            for (even, odd), c in r.terms.items():
                found.setdefault((odd_positions(odd), g.position), {})[(even, 0)] = c
    residuals: Dict[str, Dict[str, Element]] = {"anchor": {}, "jacobi": {}}
    for (odd, k), terms in sorted(found.items()):
        g = table.gens[k]
        label = f"({','.join(str(table.gens[p]) for p in odd)})->{g}"
        residuals["jacobi" if g.form_degree else "anchor"][label] = Element(table, terms)
    n = len(table.odd_generators())
    m = len(table.gens) - n
    checked = {"anchor": comb(n, 2) * m, "jacobi": comb(n, 3) * n}
    return StructureReport(spec.homological.ok, residuals, checked)
