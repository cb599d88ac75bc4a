import random
from fractions import Fraction

import pytest

from gradedlie.algebra import Element, GeneratorTable
from gradedlie.algebroid import (AlgebroidSpec, SpecError,
                                 check_structure_equations,
                                 degree_zero_restriction)
from gradedlie.derivations import is_homological
from gradedlie.constructions import (EXAMPLES, abelian_lie_algebra,
                                     action_aff1_line, adjoint_instance, aff1,
                                     algebroid_prolongation,
                                     cotangent_prolongation, e7_instance,
                                     sl2, tangent_algebroid,
                                     tangent_graded_bundle,
                                     weighted_lie_algebra)

from conftest import random_degree0_tables, random_poly, unipotent_twist


def _generic_rank2_algebroid():
    """Symbolic chart: 2-dim base, rank-2 odd block, generic polynomial
    anchor and bracket coefficients (not required to be homological)."""
    table = GeneratorTable([("x", "base", 0, 2), ("y", "odd_fiber", 0, 2)])
    x1, x2 = table.gen("x", 1), table.gen("x", 2)
    anchor = {
        (("x", 1), ("y", 1)): 2 + x1,
        (("x", 2), ("y", 1)): x1 * x2,
        (("x", 1), ("y", 2)): 3 * x2,
        (("x", 2), ("y", 2)): 1 + x1 ** 2,
    }
    bracket = {
        (("y", 1), ("y", 2), ("y", 1)): 5 + x2,
        (("y", 1), ("y", 2), ("y", 2)): x1 - 1,
    }
    return AlgebroidSpec.from_tables(table, anchor, bracket), anchor, bracket


def _lift_cases():
    """The generic rank-2 algebroid, and random tables over a base (most
    fail the structure equations; the formulas hold regardless)."""
    rng = random.Random(74)
    cases = [_generic_rank2_algebroid()[0]]
    while len(cases) < 25:
        table, anchor, bracket = random_degree0_tables(rng)
        if table.base_generators():
            cases.append(AlgebroidSpec.from_tables(table, anchor, bracket))
    return cases


def _lifted(a):
    """T*A with its generators as elements: y, z and p, and the structure
    functions of A lifted to its chart."""
    prol = cotangent_prolongation(a)
    t = prol.table
    lift = lambda e: e.map_to(t)
    base = a.table.base_generators()
    odds = a.table.odd_generators()
    y = [t.gen(g.name, g.index) for g in odds]
    z = [t.gen("z", i + 1) for i in range(len(odds))]
    p = [t.gen("p", n + 1) for n in range(len(base))]
    q = lambda i, a_: lift(a.anchor_coeff(odds[i], base[a_]))
    c = lambda i, j, k: lift(a.bracket_coeff(odds[i], odds[j], odds[k]))
    return prol, y, z, p, q, c


def test_cotangent_prolongation_fiber_formula():
    """d z_i = Q_i^a p_a + y^j Q_ji^k z_k."""
    for a in _lift_cases():
        prol, y, z, p, q, c = _lifted(a)
        t = prol.table
        for i in range(len(y)):
            want = t.zero()
            for a_ in range(len(p)):
                want = want + q(i, a_) * p[a_]
            for j in range(len(y)):
                for k in range(len(y)):
                    want = want + y[j] * c(j, i, k) * z[k]
            assert prol.d.value(t.generator("z", i + 1)) == want


def test_cotangent_prolongation_momentum_formula():
    """d p_a = -y^i dQ_i^b/dx^a p_b - (1/2) y^i y^j dQ_ji^k/dx^a z_k."""
    for a in _lift_cases():
        prol, y, z, p, q, c = _lifted(a)
        t = prol.table
        for a_, xb in enumerate(a.table.base_generators()):
            xg = t.generator(xb.name, xb.index)
            want = t.zero()
            for i in range(len(y)):
                for b in range(len(p)):
                    want = want - y[i] * q(i, b).partial_derivative(xg) * p[b]
            for i in range(len(y)):
                for j in range(len(y)):
                    for k in range(len(y)):
                        want = want - Fraction(1, 2) * y[i] * y[j] \
                            * c(j, i, k).partial_derivative(xg) * z[k]
            assert prol.d.value(t.generator("p", a_ + 1)) == want


def test_cotangent_prolongation_homological_iff_input_valid():
    rng = random.Random(71)
    assert is_homological(adjoint_instance().d).ok
    for _ in range(5):
        spec = unipotent_twist(rng, action_aff1_line())
        assert is_homological(cotangent_prolongation(spec).d).ok
    broken, _a, _b = _generic_rank2_algebroid()
    assert not is_homological(broken.d).ok
    assert not is_homological(cotangent_prolongation(broken).d).ok


def test_cotangent_prolongation_refuses_a_used_name():
    """The momenta are named z and p, so a base chart with a block of
    either name is refused."""
    for blocks in ([("z", "odd_fiber", 0, 1)],
                   [("p", "base", 0, 1), ("y", "odd_fiber", 0, 1)]):
        spec = AlgebroidSpec.from_differential(GeneratorTable(blocks), {})
        with pytest.raises(SpecError, match="already used in the base chart"):
            cotangent_prolongation(spec)


def test_prolongation_then_restriction_round_trip():
    a = action_aff1_line()
    back = degree_zero_restriction(cotangent_prolongation(a))
    assert back.table == a.table
    for g in a.table.gens:
        assert back.d.value(back.table.generator(g.name, g.index)) == a.d.value(g)


def test_tangent_graded_bundle_always_homological():
    rng = random.Random(72)
    for _ in range(10):
        k = rng.randint(1, 3)
        blocks = [("x", 0, rng.randint(1, 2))]
        for w in range(1, k + 1):
            blocks.append((f"z{w}", w, rng.randint(1, 2)))
        spec = tangent_graded_bundle(blocks)
        assert is_homological(spec.d).ok


def test_tangent_graded_restriction_is_tangent_algebroid():
    spec = tangent_graded_bundle([("x", 0, 2), ("z", 1, 3)])
    base = degree_zero_restriction(spec)
    want = tangent_algebroid(2)
    assert base.table == want.table
    for g in base.table.gens:
        assert base.d.value(g) == want.d.value(g)


def test_algebroid_prolongation_reduces_to_tangent_case():
    blocks = [("z", 1, 2)]
    via_tm = algebroid_prolongation(tangent_algebroid(1), blocks)
    assert is_homological(via_tm.d).ok
    direct = tangent_graded_bundle([("x", 0, 1), ("z", 1, 2)])
    for g in direct.table.gens:
        h = via_tm.table.generator(g.name, g.index)
        assert via_tm.d.value(h).map_to(direct.table) == direct.d.value(g)


def test_algebroid_prolongation_homological_for_valid_input():
    rng = random.Random(73)
    for _ in range(5):
        a = unipotent_twist(rng, action_aff1_line())
        spec = algebroid_prolongation(a, [("z", 1, 2), ("u", 2, 1)])
        assert is_homological(spec.d).ok


def test_weighted_lie_algebra_rejects_base():
    table = GeneratorTable([("x", "base", 0, 1), ("y", "odd_fiber", 0, 1)])
    with pytest.raises(SpecError):
        weighted_lie_algebra(table, {}, {})


def test_weighted_lie_algebra_smallest_nonabelian():
    # aff(1) acting on a 1-dim weight-1 core
    table = GeneratorTable([("z", "even_fiber", 1, 1),
                            ("y", "odd_fiber", 0, 2),
                            ("w", "odd_fiber", 1, 1)])
    spec = AlgebroidSpec.from_differential(table, {
        ("z", 1): table.gen("y", 1) * table.gen("z", 1) + table.gen("w", 1),
        ("y", 2): table.gen("y", 1) * table.gen("y", 2),
        ("w", 1): table.gen("y", 1) * table.gen("w", 1),
    })
    assert is_homological(spec.d).ok


def test_shipped_specs_complete():
    assert sorted(EXAMPLES) == ["abelian2", "adjoint", "aff1", "e7", "prolongation",
                                "sl2", "tangent-graded", "tangent2"]
