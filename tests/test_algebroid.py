import random
from fractions import Fraction

import pytest

from gradedlie.algebra import GeneratorTable
from gradedlie.algebroid import (AlgebroidSpec, SpecError,
                                 check_structure_equations,
                                 degree_zero_restriction, tower_truncation)
from gradedlie.derivations import is_homological
from gradedlie.dsl import parse, to_algebroid_spec
from gradedlie.constructions import (EXAMPLES, action_aff1_line,
                                     adjoint_instance, aff1, e7_instance, sl2)

from conftest import (assert_structure_matches_tables, mutate_coefficient,
                      random_degree0_tables, unipotent_twist)


def test_shipped_specs_homological():
    for name, make in EXAMPLES.items():
        spec = make()
        assert is_homological(spec.d).ok, name
        assert assert_structure_matches_tables(spec).passed, name


def test_structure_equations_on_valid_tables():
    for spec in [aff1(), sl2(), action_aff1_line()]:
        report = check_structure_equations(spec)
        assert report.passed, report.residuals


def test_structure_vs_homological_agreement():
    """The report read off d^2 against the table oracle: random tables over
    a point or a base, the anchored specs and twists of them, and
    single-coefficient mutants of each."""
    rng = random.Random(31)
    specs = [AlgebroidSpec.from_tables(*random_degree0_tables(rng)) for _ in range(60)]
    for make in (action_aff1_line, adjoint_instance, e7_instance):
        spec = make()
        specs.append(spec)
        if make is not e7_instance:
            specs += [unipotent_twist(rng, spec) for _ in range(3)]
    specs += [mutate_coefficient(rng, spec) for spec in specs[60:] for _ in range(4)]
    verdicts = set()
    for spec in specs:
        report = assert_structure_matches_tables(spec)
        verdicts.add((report.passed, bool(report.residuals["anchor"]),
                      bool(report.residuals["jacobi"])))
    assert {(True, False, False), (False, True, False), (False, False, True),
            (False, True, True)} <= verdicts


def test_twisted_specs_stay_valid():
    rng = random.Random(32)
    for seed in [sl2(), action_aff1_line(), adjoint_instance()]:
        for _ in range(10):
            spec = unipotent_twist(rng, seed)
            assert assert_structure_matches_tables(spec).passed
            assert is_homological(spec.d).ok


def test_jacobi_anchor_term_sign():
    """A Jacobi failure carried by the anchor term, worked by hand.  With
    rho(y1) = d/dx, rho(y2) = x d/dx, [y1, y2] = y1 and [y1, dz] = 2x dz,
    the dz-component of [[y1, y2], dz] + cyclic is
    -(rho(y2)(-2x) + [dz, y1]^dz [y1, y2]^y1) = -(-2x - 2x) = 4x (the other
    terms of the cyclic sum vanish), the coefficient of y1 y2 dz in d^2 dz.  The anchor family passes, and an
    anchor term of the opposite sign would cancel the bracket term."""
    spec = to_algebroid_spec(parse(
        "algebroid jac degree 1\nbase x weight 0 dim 1\nodd y weight 0 dim 2\n"
        "even z weight 1 dim 1\nodd dz weight 1 dim 1\nd x[1] = y[1] + x[1]*y[2]\n"
        "d y[1] = -y[1]*y[2]\nd dz[1] = -2*x[1]*y[1]*dz[1]\n"))
    report = assert_structure_matches_tables(spec)
    assert not report.passed
    assert report.residuals == {
        "anchor": {}, "jacobi": {"(y[1],y[2],dz[1])->dz[1]": spec.table.gen("x") * 4}}
    assert report.checked == {"anchor": 3 * 2, "jacobi": 1 * 3}


def test_twisted_tangent_bundle_passes():
    """A twisted degree-2 tangent-graded bundle, d^2 = 0: every Jacobi
    label vanishes, though the bracket has base-dependent constants
    (Q_{dx2,dz3}^{dz1} = 3/2 - 6 x1 after the twist), so an anchor term of
    the wrong sign reads -12 on (dx[1],dx[2],dz[3])->dz[1]."""
    spec = to_algebroid_spec(parse(
        "algebroid r degree 2\nbase x weight 0 dim 2\neven z weight 1 dim 3\n"
        "even u weight 2 dim 1\nodd dx weight 0 dim 2\nodd dz weight 1 dim 3\n"
        "odd du weight 2 dim 1\n"
        "d x[1] = dx[1] + 1/2*dx[2] - 2*x[1]*dx[2]\nd x[2] = dx[2] - 2*x[2]*dx[2]\n"
        "d z[1] = dz[1] + 3*dz[2] - 1/2*dz[3] + 3*x[1]*dz[3]\n"
        "d z[2] = dz[2] + 1/2*dz[3]\nd z[3] = dz[3]\nd u[1] = du[1]\n"
        "d dx[1] = 2*dx[1]*dx[2]\n"
        "d dz[1] = -3*dx[1]*dz[3] - 3/2*dx[2]*dz[3] + 6*x[1]*dx[2]*dz[3]\n"))
    assert spec.homological.ok
    assert assert_structure_matches_tables(spec).passed


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
