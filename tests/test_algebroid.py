import random
from fractions import Fraction

import pytest

from gradedlie.algebra import GeneratorTable
from gradedlie.algebroid import (AlgebroidSpec, SpecError,
                                 check_structure_equations,
                                 degree_zero_restriction, tower_truncation)
from gradedlie.derivations import is_homological
from gradedlie.constructions import (EXAMPLES, action_aff1_line,
                                     adjoint_instance, aff1, e7_instance, sl2)

from conftest import random_degree0_tables, unipotent_twist


def test_shipped_specs_homological():
    for name, make in EXAMPLES.items():
        spec = make()
        assert is_homological(spec.d).ok, name
        assert check_structure_equations(spec).passed, name


def test_structure_equations_on_valid_tables():
    for spec in [aff1(), sl2(), action_aff1_line()]:
        report = check_structure_equations(spec)
        assert report.passed, report.residuals


def test_structure_vs_homological_agreement():
    rng = random.Random(31)
    for _ in range(60):
        table, anchor, bracket = random_degree0_tables(rng)
        spec = AlgebroidSpec.from_tables(table, anchor, bracket)
        assert check_structure_equations(spec).passed == is_homological(spec.d).ok


def test_twisted_specs_stay_valid():
    rng = random.Random(32)
    for seed in [sl2(), action_aff1_line()]:
        for _ in range(10):
            spec = unipotent_twist(rng, seed)
            assert check_structure_equations(spec).passed
            assert is_homological(spec.d).ok


def test_single_coefficient_mutants_fail_both():
    rng = random.Random(33)
    table = sl2().table
    xi = lambda i: table.gen("xi", i)
    spec = AlgebroidSpec.from_tables(table, {}, {
        (("xi", 1), ("xi", 2), ("xi", 3)): 1,
        (("xi", 3), ("xi", 1), ("xi", 1)): 2,
        (("xi", 3), ("xi", 2), ("xi", 2)): -3,   # perturbed from -2
    })
    assert not check_structure_equations(spec).passed
    assert not is_homological(spec.d).ok


def test_bracket_antisymmetry_normalization():
    table = GeneratorTable([("xi", "odd_fiber", 0, 2)])
    a = AlgebroidSpec.from_tables(table, {}, {(("xi", 1), ("xi", 2), ("xi", 1)): 1})
    b = AlgebroidSpec.from_tables(table, {}, {(("xi", 2), ("xi", 1), ("xi", 1)): -1})
    g1 = table.gens[0]
    assert a.d.value(g1) == b.d.value(g1)


def test_bracket_coeff_antisymmetric():
    """Q_IJ^K = -Q_JI^K and Q_II^K = 0 as read off d_E, on valid, random and
    twisted specs (check_structure_equations has no antisymmetry family)."""
    rng = random.Random(37)
    specs = [make() for make in EXAMPLES.values()]
    specs += [AlgebroidSpec.from_tables(*random_degree0_tables(rng)) for _ in range(10)]
    specs += [unipotent_twist(rng, sl2()), unipotent_twist(rng, aff1())]
    for spec in specs:
        odds = spec.table.odd_generators()
        for I in odds:
            for J in odds:
                for K in odds:
                    q = spec.bracket_coeff(I, J, K)
                    assert q == -spec.bracket_coeff(J, I, K)
                    assert I != J or q.is_zero()


def test_from_tables_round_trip():
    """Random tables, written in either triangle, with some bracket entries
    in both and some anchor entries split over two refs of one pair, read
    back through anchor_coeff and bracket_coeff as the normalised input."""
    rng = random.Random(38)
    for _ in range(40):
        table, anchor, bracket = random_degree0_tables(rng)
        written_anchor = {}
        for (a_ref, i_ref), q in anchor.items():
            if rng.random() < 0.3:
                half = q * Fraction(1, 2)
                written_anchor[(a_ref, i_ref)] = half
                written_anchor[(table.resolve(a_ref), i_ref)] = q - half
            else:
                written_anchor[(a_ref, i_ref)] = q
        written_bracket = {}
        for (i_ref, j_ref, k_ref), q in bracket.items():
            side = rng.choice(["upper", "lower", "both"])
            if side != "lower":
                written_bracket[(i_ref, j_ref, k_ref)] = q
            if side != "upper":
                written_bracket[(j_ref, i_ref, k_ref)] = -q
        spec = AlgebroidSpec.from_tables(table, written_anchor, written_bracket)
        odds = table.odd_generators()
        for A in table.base_generators():
            for I in odds:
                want = anchor.get(((A.name, A.index), (I.name, I.index)), table.zero())
                assert spec.anchor_coeff(I, A) == want
        for I in odds:
            for J in odds:
                for K in odds:
                    ref = lambda g: (g.name, g.index)
                    upper = bracket.get((ref(I), ref(J), ref(K)))
                    lower = bracket.get((ref(J), ref(I), ref(K)))
                    want = upper if upper is not None else \
                        -lower if lower is not None else table.zero()
                    assert spec.bracket_coeff(I, J, K) == want


def test_negative_slot_weight_entry_rejected():
    """A nonzero entry whose coefficient would need a negative weight is a
    SpecError naming the entry; a zero one is ignored."""
    table = GeneratorTable([("x", "base", 0, 1), ("y", "odd_fiber", 0, 1),
                            ("w", "odd_fiber", 1, 2)])
    with pytest.raises(SpecError) as err:
        AlgebroidSpec.from_tables(table, {(("x", 1), ("w", 1)): 1}, {})
    assert str(err.value).startswith("anchor coefficient for (x[1], w[1]) must be "
                                     "bi-homogeneous of bi-weight (-1, 0)")
    with pytest.raises(SpecError) as err:
        AlgebroidSpec.from_tables(table, {}, {(("w", 2), ("y", 1), ("y", 1)): 3})
    assert str(err.value).startswith("bracket coefficient for (y[1], w[2], y[1]) must "
                                     "be bi-homogeneous of bi-weight (-1, 0)")
    spec = AlgebroidSpec.from_tables(table, {(("x", 1), ("w", 1)): 0},
                                     {(("w", 1), ("w", 2), ("y", 1)): 0})
    assert spec.d.is_zero()


def test_inconsistent_double_entry_rejected():
    table = GeneratorTable([("xi", "odd_fiber", 0, 2)])
    with pytest.raises(SpecError):
        AlgebroidSpec.from_tables(table, {}, {
            (("xi", 1), ("xi", 2), ("xi", 1)): 1,
            (("xi", 2), ("xi", 1), ("xi", 1)): 1,
        })


def test_coefficient_read_off_round_trip():
    spec = action_aff1_line()
    table = spec.table
    x1 = table.generator("x", 1)
    y1, y2 = table.generator("y", 1), table.generator("y", 2)
    assert spec.anchor_coeff(y1, x1) == table.one()
    assert spec.anchor_coeff(y2, x1) == table.gen("x", 1)
    assert spec.bracket_coeff(y1, y2, y1) == table.one()
    assert spec.bracket_coeff(y2, y1, y1) == -table.one()


def test_degree_zero_restriction():
    spec = adjoint_instance()
    base = degree_zero_restriction(spec)
    assert base.degree == 0
    assert is_homological(base.d).ok
    want = action_aff1_line()
    assert base.table == want.table
    for g in base.table.gens:
        assert base.d.value(g) == want.d.value(g)


def test_tower_truncation():
    spec = e7_instance()
    level1 = tower_truncation(spec, 1)
    assert level1.degree == 1
    assert is_homological(level1.d).ok
    assert tower_truncation(spec, 2).table == spec.table
    with pytest.raises(SpecError):
        tower_truncation(spec, 3)


def test_anchor_weight_validation():
    table = GeneratorTable([("x", "base", 0, 1),
                            ("z", "even_fiber", 1, 1),
                            ("y", "odd_fiber", 0, 1)])
    with pytest.raises(SpecError):
        AlgebroidSpec.from_tables(
            table, {(("x", 1), ("y", 1)): table.gen("z")}, {})
