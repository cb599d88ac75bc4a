"""Constructors for the standard families of weighted Lie algebroids:
cotangent prolongations, tangent bundles of graded bundles, algebroid
prolongations, weighted Lie algebras, and a handful of canned instances
used throughout the test-suite and the CLI.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Mapping, Sequence, Tuple

from .algebra import Element, GenRef, Generator, GeneratorTable
from .algebroid import AlgebroidSpec, SpecError
from .derivations import make_derivation


def cotangent_prolongation(a: AlgebroidSpec) -> AlgebroidSpec:
    """The cotangent prolongation T*A of a degree-0 algebroid A: the
    cotangent lift of d_A (Grabowski-Urbanski, Ann. Global Anal. Geom. 15,
    1997).

    Each generator g of A gets a momentum pi_g of weight 1 and the other
    parity: y^i gets z_i of bi-weight (1,0), x^a gets p_a of bi-weight
    (1,1).  With the Hamiltonian H = sum_g d_A(g) pi_g, by graded left
    derivatives,
        d g = d_A g,    d z_i = dH/dy^i,    d p_a = -dH/dx^a,
    that is, in structure functions,
        d z_i = Q_i^a p_a + y^j Q_ji^k z_k,
        d p_a = -y^i dQ_i^b/dx^a p_b - (1/2) y^i y^j dQ_ji^k/dx^a z_k.
    """
    if a.degree != 0:
        raise SpecError("cotangent prolongation needs a degree-0 algebroid")
    base = a.table.base_generators()
    odds = a.table.odd_generators()
    used = {b[0] for b in a.table.blocks}
    for name in ("z", "p"):
        if name in used:
            raise SpecError(f"generator name {name!r} already used in the base chart")
    decls = list(a.table.blocks) + [("z", "even_fiber", 1, len(odds))]
    if base:
        decls.append(("p", "odd_fiber", 1, len(base)))
    table = GeneratorTable(decls)

    momenta = [(g, ("z", n + 1)) for n, g in enumerate(odds)]
    momenta += [(g, ("p", n + 1)) for n, g in enumerate(base)]
    action: Dict[GenRef, Element] = {}
    hamiltonian = table.zero()
    for g, pi in momenta:
        dg = a.d.value(g).map_to(table)
        action[(g.name, g.index)] = dg
        hamiltonian = hamiltonian + dg * table.gen(*pi)
    for g, pi in momenta:
        dh = hamiltonian.partial_derivative(table.generator(g.name, g.index))
        action[pi] = dh if g.form_degree else -dh
    return AlgebroidSpec(table, make_derivation(table, (0, 1), action))


ChartBlocks = Sequence[Tuple[str, int, int]]   # (name, h_weight, dim)


def _chart_table(blocks: ChartBlocks) -> List[Tuple[str, str, int, int]]:
    decls = []
    for name, w, dim in blocks:
        decls.append((name, "base" if w == 0 else "even_fiber", w, dim))
    return decls


def tangent_graded_bundle(blocks: ChartBlocks) -> AlgebroidSpec:
    """The tangent weighted algebroid of a graded bundle: every even
    generator acquires an odd partner of the same weight, the differential
    sends each generator to its partner (the canonical de Rham differential)."""
    decls = _chart_table(blocks)
    for name, w, dim in blocks:
        decls.append((f"d{name}", "odd_fiber", w, dim))
    table = GeneratorTable(decls)
    action: Dict[Generator, Element] = {}
    for name, w, dim in blocks:
        for i in range(1, dim + 1):
            action[table.generator(name, i)] = table.gen(f"d{name}", i)
    return AlgebroidSpec(table, make_derivation(table, (0, 1), action))


def algebroid_prolongation(a: AlgebroidSpec, blocks: ChartBlocks) -> AlgebroidSpec:
    """Prolongation of a graded bundle (given by its positive-weight even
    blocks over the same base) along a degree-0 algebroid:
    d x = y Q, d y = bracket terms, d z_w = dz_w, d dz_w = 0."""
    if a.degree != 0:
        raise SpecError("prolongation needs a degree-0 algebroid")
    if any(w < 1 for _n, w, _d in blocks):
        raise SpecError("prolongation blocks must have positive weight "
                        "(the base comes from the algebroid)")
    used = {b[0] for b in a.table.blocks}
    for name, _w, _d in blocks:
        if name in used or f"d{name}" in used:
            raise SpecError(f"block name {name!r} collides with the base chart")
    decls = list(a.table.blocks)
    for name, w, dim in blocks:
        decls.append((name, "even_fiber", w, dim))
        decls.append((f"d{name}", "odd_fiber", w, dim))
    table = GeneratorTable(decls)
    action: Dict[Generator, Element] = {}
    for g in a.table.gens:
        action[table.generator(g.name, g.index)] = a.d.value(g).map_to(table)
    for name, w, dim in blocks:
        for i in range(1, dim + 1):
            action[table.generator(name, i)] = table.gen(f"d{name}", i)
    return AlgebroidSpec(table, make_derivation(table, (0, 1), action))


def weighted_lie_algebra(table: GeneratorTable, anchor: Mapping,
                         bracket: Mapping) -> AlgebroidSpec:
    """A weighted Lie algebroid over a point, from structure tables."""
    if table.base_generators():
        raise SpecError("a weighted Lie algebra has no base generators")
    return AlgebroidSpec.from_tables(table, anchor, bracket)


# -- canned instances -----------------------------------------------------

def tangent_algebroid(dim: int) -> AlgebroidSpec:
    """A = TM with d x^a = dx^a."""
    return tangent_graded_bundle([("x", 0, dim)])


def abelian_lie_algebra(dim: int) -> AlgebroidSpec:
    table = GeneratorTable([("xi", "odd_fiber", 0, dim)])
    return AlgebroidSpec.from_differential(table, {})


def aff1() -> AlgebroidSpec:
    """The 2-dim non-abelian Lie algebra, with d xi1 = 0, d xi2 = xi1 xi2."""
    table = GeneratorTable([("xi", "odd_fiber", 0, 2)])
    return AlgebroidSpec.from_differential(
        table, {("xi", 2): table.gen("xi", 1) * table.gen("xi", 2)})


def sl2() -> AlgebroidSpec:
    """sl(2) in the standard basis (e, f, h) = (s1, s2, s3):
    [s1,s2] = s3, [s3,s1] = 2 s1, [s3,s2] = -2 s2."""
    table = GeneratorTable([("xi", "odd_fiber", 0, 3)])
    s = lambda i: ("xi", i)
    return AlgebroidSpec.from_tables(table, {}, {
        (s(1), s(2), s(3)): 1,
        (s(3), s(1), s(1)): 2,
        (s(3), s(2), s(2)): -2,
    })


def action_aff1_line() -> AlgebroidSpec:
    """The action algebroid of aff(1) on the line: rho(s1) = d/dx,
    rho(s2) = x d/dx, [s1, s2] = s1."""
    table = GeneratorTable([("x", "base", 0, 1), ("y", "odd_fiber", 0, 2)])
    x = table.gen("x")
    return AlgebroidSpec.from_tables(
        table,
        {(("x", 1), ("y", 1)): 1, (("x", 1), ("y", 2)): x},
        {(("y", 1), ("y", 2), ("y", 1)): 1})


def e3_chart() -> GeneratorTable:
    """The degree-2 chart (x^a; z^alpha, u^delta; y^i, w^l; v^p) with
    dims (2; 3, 1; 2, 2; 1)."""
    return GeneratorTable([
        ("x", "base", 0, 2),
        ("z", "even_fiber", 1, 3),
        ("u", "even_fiber", 2, 1),
        ("y", "odd_fiber", 0, 2),
        ("w", "odd_fiber", 1, 2),
        ("v", "odd_fiber", 2, 1),
    ])


def e7_instance() -> AlgebroidSpec:
    """A concrete homological degree-2 weighted algebroid on the e3 chart,
    with nonzero boundary, connection, and curvature-type blocks."""
    t = e3_chart()
    x1, x2 = t.gen("x", 1), t.gen("x", 2)
    y1, y2 = t.gen("y", 1), t.gen("y", 2)
    z1, z2, z3 = t.gen("z", 1), t.gen("z", 2), t.gen("z", 3)
    w1, w2 = t.gen("w", 1), t.gen("w", 2)
    u1 = t.gen("u", 1)
    v1 = t.gen("v", 1)
    action = {
        ("x", 1): y1,
        ("x", 2): y2,
        ("z", 1): w1,
        ("z", 2): w2,
        ("z", 3): x1 * w1 + y1 * z1,
        ("u", 1): v1 + z1 * w2 - z2 * w1 + z3 * w1 + y1 * z1 * z2,
        ("v", 1): -2 * w1 * w2 - y1 * z1 * w1 + y1 * z2 * w1 + y1 * z1 * w2,
    }
    return AlgebroidSpec.from_differential(t, action)


def adjoint_instance() -> AlgebroidSpec:
    """Cotangent prolongation of the aff(1) action algebroid on the line."""
    return cotangent_prolongation(action_aff1_line())


# The canned examples by name (as `gradedlie example NAME` takes it), each a
# zero-argument constructor.
EXAMPLES: Dict[str, Callable[[], AlgebroidSpec]] = {
    "abelian2": lambda: abelian_lie_algebra(2),
    "adjoint": adjoint_instance,
    "aff1": aff1,
    "e7": e7_instance,
    "prolongation": lambda: algebroid_prolongation(action_aff1_line(), [("z", 1, 1)]),
    "sl2": sl2,
    "tangent-graded": lambda: tangent_graded_bundle([("x", 0, 2), ("z", 1, 3), ("u", 2, 1)]),
    "tangent2": lambda: tangent_algebroid(2),
}
