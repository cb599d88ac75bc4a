import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradedlie.algebra import AlgebraError, BiWeight, Element, GeneratorTable, _merge_even
from gradedlie.constructions import e3_chart
from gradedlie.weight_modules import homogenization_projector

from conftest import h_pullback, odd_mask, random_element, tuple_key
from test_coefficients import product_by_sorting


@pytest.fixture
def chart():
    return e3_chart()


def test_canonical_generator_order(chart):
    kinds = [g.kind for g in chart.gens]
    first_odd = kinds.index("odd_fiber")
    assert all(k != "odd_fiber" for k in kinds[:first_odd])
    assert all(k == "odd_fiber" for k in kinds[first_odd:])
    weights = [g.h_weight for g in chart.gens if g.kind == "odd_fiber"]
    assert weights == sorted(weights)


def test_table_validation():
    with pytest.raises(AlgebraError):
        GeneratorTable([("x", "base", 1, 1)])
    with pytest.raises(AlgebraError):
        GeneratorTable([("z", "even_fiber", 0, 1)])
    with pytest.raises(AlgebraError):
        GeneratorTable([("x", "base", 0, 1), ("x", "odd_fiber", 0, 1)])


def test_odd_squares_vanish(chart):
    y = chart.gen("y", 1)
    assert (y * y).is_zero()
    w = chart.gen("w", 2)
    assert (w * w).is_zero()


def test_odd_anticommute_even_commute(chart):
    y1, y2 = chart.gen("y", 1), chart.gen("y", 2)
    assert y1 * y2 == -(y2 * y1)
    z1, z2 = chart.gen("z", 1), chart.gen("z", 2)
    assert z1 * z2 == z2 * z1
    assert z1 * y1 == y1 * z1


def test_koszul_sign_triple(chart):
    y1, y2 = chart.gen("y", 1), chart.gen("y", 2)
    w1 = chart.gen("w", 1)
    # moving w1 across two odd factors costs two sign flips
    assert w1 * y1 * y2 == y1 * y2 * w1
    assert w1 * y1 * y2 == -(y1 * w1 * y2)


def test_ring_laws_random(chart):
    rng = random.Random(11)
    for _ in range(40):
        a = random_element(rng, chart)
        b = random_element(rng, chart)
        c = random_element(rng, chart)
        assert (a + b) * c == a * c + b * c
        assert (a * b) * c == a * (b * c)
        assert a * chart.one() == a
        assert a * chart.zero() == chart.zero()


def test_graded_commutativity_random(chart):
    rng = random.Random(12)
    for _ in range(40):
        a = random_element(rng, chart)
        b = random_element(rng, chart)
        # compare on bi-homogeneous pieces, where the Koszul sign is defined
        for ka, ca in a.terms.items():
            for kb, cb in b.terms.items():
                ea = Element(chart, {ka: ca})
                eb = Element(chart, {kb: cb})
                ja = chart.key_bi_weight(ka).form_degree
                jb = chart.key_bi_weight(kb).form_degree
                sign = (-1) ** (ja * jb)
                assert ea * eb == (eb * ea) * sign


def test_bi_weight_additivity(chart):
    z1, u1, w1 = chart.gen("z", 1), chart.gen("u", 1), chart.gen("w", 1)
    m = z1 * u1 * w1
    (key,) = m.terms
    assert chart.key_bi_weight(key) == BiWeight(4, 1)


def test_weight_component_partition(chart):
    rng = random.Random(13)
    for _ in range(20):
        e = random_element(rng, chart)
        total = chart.zero()
        for k in range(0, 15):
            total = total + homogenization_projector(e, k)
        assert total == e


def test_h_pullback_is_algebra_map(chart):
    rng = random.Random(14)
    t = Fraction(3, 2)
    for _ in range(20):
        a = random_element(rng, chart)
        b = random_element(rng, chart)
        assert h_pullback(a * b, t) == h_pullback(a, t) * h_pullback(b, t)
        assert h_pullback(a + b, t) == h_pullback(a, t) + h_pullback(b, t)


def test_h_pullback_scales_by_weight(chart):
    z1, w1 = chart.gen("z", 1), chart.gen("w", 1)
    u1 = chart.gen("u", 1)
    t = Fraction(2)
    assert h_pullback(z1 * w1, t) == 4 * z1 * w1
    assert h_pullback(u1, t) == 4 * u1
    assert h_pullback(chart.gen("x", 1), t) == chart.gen("x", 1)


def test_partial_derivative(chart):
    x1 = chart.gen("x", 1)
    x2 = chart.gen("x", 2)
    g1 = chart.generator("x", 1)
    e = 3 * x1 ** 2 * x2 + x2
    assert e.partial_derivative(g1) == 6 * x1 * x2
    assert (x1 ** 3).partial_derivative(g1) == 3 * x1 ** 2


def test_large_power_is_one_monomial(chart):
    pos = chart.generator("x", 1).position
    assert (chart.gen("x", 1) ** 1000003).terms == {(((pos, 1000003),), 0): 1}


def test_power_matches_repeated_multiplication(chart):
    x1, y1, w1 = chart.gen("x", 1), chart.gen("y", 1), chart.gen("w", 1)
    odd = y1 - Fraction(2, 3) * x1 * w1
    even = Fraction(1, 5) * chart.gen("z", 1) + chart.gen("u", 1) - 7
    for base in (x1 + 1, y1, odd, even, 2 * x1 * chart.gen("z", 1) - y1 + 3):
        product = chart.one()
        for n in range(7):
            assert base ** n == product
            product = product * base
    assert (y1 ** 2).is_zero()
    with pytest.raises(AlgebraError):
        odd ** -1


def test_printing_canonical(chart):
    e = Fraction(3, 2) * chart.gen("x", 1) ** 2 * chart.gen("w", 1)
    assert str(e) == "3/2*x[1]^2*w[1]"
    assert str(chart.zero()) == "0"
    assert str(chart.one()) == "1"


def test_monomial_str_round_trip_via_parser(chart):
    from gradedlie.dsl import parse_expression
    rng = random.Random(15)
    for _ in range(30):
        e = random_element(rng, chart)
        assert parse_expression(chart, str(e)) == e


def even_parts(lo, hi):
    """Even parts with positions in [lo, hi) and exponents 1..3."""
    return st.dictionaries(st.integers(lo, hi - 1), st.integers(1, 3),
                           max_size=4).map(lambda d: tuple(sorted(d.items())))


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(st.sampled_from([0, 5, 10]).flatmap(
    lambda lo: st.tuples(even_parts(5, 10), even_parts(lo, lo + 5))))
def test_merge_even_matches_dict_merge(parts):
    """b's positions lie before a's, among them, sharing some, or after
    them: the product is the exponent-wise sum, in position order."""
    a, b = parts
    acc = dict(a)
    for p, e in b:
        acc[p] = acc.get(p, 0) + e
    expected = tuple(sorted(acc.items()))
    assert _merge_even(a, b) == expected
    assert _merge_even(b, a) == expected


E3 = e3_chart()
# ints, Fractions (integral ones and zero among them) and Fraction(1)
COEFFS = st.one_of(st.integers(-3, 3), st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3)),
                   st.just(Fraction(1)))
KEYS = st.tuples(
    st.dictionaries(st.sampled_from([g.position for g in E3.even_generators()]),
                    st.integers(1, 2), max_size=2).map(lambda d: tuple(sorted(d.items()))),
    st.sets(st.sampled_from([g.position for g in E3.odd_generators()]),
            max_size=3).map(odd_mask))
ELEMENTS = st.dictionaries(KEYS, COEFFS, max_size=4).map(lambda t: Element(E3, t))


def reference_sum(a, b):
    terms = dict(a.terms)
    for k, c in b.terms.items():
        terms[k] = terms.get(k, 0) + c
    return Element(E3, terms)


def reference_product(a, b):
    acc = {}
    for key, c in a.terms.items():
        acc = product_by_sorting(acc, c, key, b.terms)
    return Element(E3, acc)


def assert_same_terms(got, want):
    """The same terms, no zero kept, and an int wherever the reference
    has one."""
    assert got.terms == want.terms
    assert all(c != 0 for c in got.terms.values())
    assert all(type(got.terms[k]) is int for k, c in want.terms.items() if type(c) is int)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(ELEMENTS, ELEMENTS, COEFFS, st.integers(0, 3))
def test_element_fast_paths_match_public_constructor(a, b, s, n):
    """Every operation against a reference built through the public,
    filtering constructor, with the product by sorting and counting."""
    neg_b = Element(E3, {k: -c for k, c in b.terms.items()})
    scalar = Element(E3, {((), 0): s})
    assert_same_terms(a + b, reference_sum(a, b))
    assert_same_terms(a + s, reference_sum(a, scalar))
    assert_same_terms(s + a, reference_sum(a, scalar))
    assert_same_terms(-b, neg_b)
    assert_same_terms(a - b, reference_sum(a, neg_b))
    assert_same_terms(a - s, reference_sum(a, -scalar))
    assert_same_terms(a * b, reference_product(a, b))
    scaled = Element(E3, {k: c * s for k, c in a.terms.items()})
    assert_same_terms(a * s, scaled)
    assert_same_terms(s * a, scaled)
    power = Element(E3, {((), 0): 1})
    for _ in range(n):
        power = reference_product(power, a)
    assert_same_terms(a ** n, power)
    assert_same_terms(E3.scalar(s), scalar)
    for bw in {E3.key_bi_weight(k) for k in a.terms} | {(1, 1)}:
        assert a.is_bihomogeneous(bw) == all(E3.key_bi_weight(k) == bw for k in a.terms)


def test_generators_and_unknown_generators(chart):
    for g in chart.gens:
        key = ((), 1 << g.position) if g.form_degree else (((g.position, 1),), 0)
        assert chart.gen(g.name, g.index).terms == {key: 1}
    for name, index in [("q", 1), ("y", 3), ("x", 0)]:
        with pytest.raises(AlgebraError) as err:
            chart.gen(name, index)
        assert str(err.value) == f"unknown generator {name}[{index}]"


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(ELEMENTS, ELEMENTS, st.integers(0, 15))
def test_sum_holds_no_zero_coefficient(a, b, chosen):
    """`__add__` filters only the keys it cancels: a plus b with a's terms
    negated on the keys `chosen` picks (all of them, some or none) cancels
    exactly those keys, in either order, and a + (-a) is zero."""
    keys = sorted(a.terms, key=tuple_key)
    cancelled = {k for n, k in enumerate(keys) if chosen >> n & 1}
    minus = Element(E3, {**b.terms, **{k: -a.terms[k] for k in cancelled}})
    for total in (a + minus, minus + a):
        assert all(c != 0 for c in total.terms.values())
        assert not cancelled & set(total.terms)
        assert_same_terms(total, reference_sum(a, minus))
    assert (a + (-a)).terms == {} and (a - a).terms == {}


def test_gen_shares_one_element_per_generator(chart):
    """`gen` returns one Element per (name, index), equal to the generator
    built afresh; an equal table builds its own."""
    twin = GeneratorTable(chart.blocks)
    assert twin == chart
    for g in chart.gens:
        key = ((), 1 << g.position) if g.form_degree else (((g.position, 1),), 0)
        e = chart.gen(g.name, g.index)
        assert chart.gen(g.name, g.index) is e
        assert e == Element(chart, {key: 1})
        other = twin.gen(g.name, g.index)
        assert other is not e and other.terms is not e.terms
        assert other.table is twin and other == Element(twin, {key: 1})
    name = chart.gens[0].name
    assert chart.gen(name) is chart.gen(name, 1)
