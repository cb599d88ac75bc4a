import random

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
