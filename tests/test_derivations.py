import random

import pytest

from gradedlie.algebra import GeneratorTable
from gradedlie.derivations import (DerivationError, apply, graded_commutator,
                                   is_homological, make_derivation)
from gradedlie.constructions import aff1, e7_instance, sl2

from conftest import random_element


@pytest.fixture
def chart():
    return GeneratorTable([("x", "base", 0, 1),
                           ("z", "even_fiber", 1, 1),
                           ("y", "odd_fiber", 0, 1),
                           ("w", "odd_fiber", 1, 1)])


def test_leibniz_random(chart):
    d = make_derivation(chart, (0, 1), {
        ("x", 1): chart.gen("y"),
        ("z", 1): chart.gen("w"),
    })
    rng = random.Random(21)
    for _ in range(30):
        a = random_element(rng, chart)
        b = random_element(rng, chart)
        lhs = d(a * b)
        rhs = chart.zero()
        for ka, ca in a.terms.items():
            ea = type(a)(chart, {ka: ca})
            sign = (-1) ** chart.key_bi_weight(ka).form_degree
            rhs = rhs + d(ea) * b
        rhs = rhs + _signed_right(chart, a, d, b)
        assert lhs == rhs


def _signed_right(chart, a, d, b):
    out = chart.zero()
    for ka, ca in a.terms.items():
        ea = type(a)(chart, {ka: ca})
        sign = (-1) ** chart.key_bi_weight(ka).form_degree
        out = out + (ea * d(b)) * sign
    return out


def test_bi_homogeneity_enforced(chart):
    with pytest.raises(DerivationError):
        make_derivation(chart, (0, 1), {("x", 1): chart.gen("z")})


def test_linearity(chart):
    d = make_derivation(chart, (0, 1), {("x", 1): chart.gen("y")})
    rng = random.Random(22)
    a = random_element(rng, chart)
    b = random_element(rng, chart)
    assert d(a + b) == d(a) + d(b)
    assert d(3 * a) == 3 * d(a)


def test_constants_killed(chart):
    d = make_derivation(chart, (0, 1), {("x", 1): chart.gen("y")})
    assert d(chart.one()).is_zero()
    assert d(chart.scalar(7)).is_zero()


def test_is_homological_examples():
    assert is_homological(aff1().d).ok
    assert is_homological(sl2().d).ok
    assert is_homological(e7_instance().d).ok


def test_is_homological_failure_names_generator():
    table = GeneratorTable([("xi", "odd_fiber", 0, 3)])
    xi = lambda i: table.gen("xi", i)
    # [s3,s1] = 3 s1, [s3,s2] = -2 s2, [s1,s2] = s3 fails Jacobi
    d = make_derivation(table, (0, 1), {
        ("xi", 1): 3 * xi(1) * xi(3),
        ("xi", 2): -2 * xi(2) * xi(3),
        ("xi", 3): -xi(1) * xi(2),
    })
    report = is_homological(d)
    assert not report.ok
    assert any("xi" in label for label in report.residuals)


def test_graded_commutator_of_d_with_itself():
    spec = e7_instance()
    dd = graded_commutator(spec.d, spec.d)
    assert all(dd.value(g).is_zero() for g in spec.table.gens)


def test_even_form_degree_shift_rejected(chart):
    d = make_derivation(chart, (1, 2), {("x", 1): chart.gen("y") * chart.gen("w")})
    with pytest.raises(DerivationError):
        is_homological(d)


def test_equality_agrees_with_hash(chart):
    """Derivations that differ only in bi-degree are unequal, as their
    hashes differ; a zero value equals an unassigned one."""
    a = make_derivation(chart, (0, 1), {})
    b = make_derivation(chart, (1, 0), {})
    assert a != b and len({a, b}) == 2
    c = make_derivation(chart, (0, 1), {("x", 1): chart.gen("y")})
    same = make_derivation(chart, (0, 1), {("x", 1): chart.gen("y"), ("z", 1): chart.zero()})
    assert c == same and len({c, same}) == 1
