"""Property tests: the DSL print/parse round trip, the structure equations
against d^2 = 0 and the table oracle on twisted specs, the Leibniz kernel
(apply and partial derivatives against the factor-by-factor oracle), the
product (associativity and graded commutativity), and the order of keys
with mask odd parts.
Derandomized and bounded, so every run draws the same examples."""

import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gradedlie.algebra import Element, odd_positions
from gradedlie.algebroid import AlgebroidSpec, check_structure_equations
from gradedlie.constructions import (EXAMPLES, action_aff1_line, adjoint_instance, aff1,
                                     e3_chart, sl2)
from gradedlie.derivations import apply, is_homological, make_derivation
from gradedlie.dsl import (document_from_spec, parse, parse_expression,
                           print_document, to_algebroid_spec)

from gradedlie.weight_modules import Monomials

from cli_corpus import SPECS
from conftest import (apply_by_factors, assert_structure_matches_tables, gl_spec,
                      mutate_coefficient, odd_tuple, random_chart, random_degree0_tables,
                      random_derivation, random_element, tuple_key, unipotent_twist)

BOUNDED = settings(derandomize=True, database=None, deadline=None, max_examples=40)
RANDOMS = st.randoms(use_true_random=False)


@BOUNDED
@given(RANDOMS)
def test_element_print_parse_round_trip(rng):
    table = e3_chart()
    e = random_element(rng, table, terms=rng.randint(0, 5), max_exp=3)
    assert parse_expression(table, str(e)) == e


@settings(BOUNDED, max_examples=30)
@given(RANDOMS, st.sampled_from(sorted(EXAMPLES)), st.booleans())
def test_spec_print_parse_round_trip(rng, name, from_tables):
    if from_tables:
        spec = AlgebroidSpec.from_tables(*random_degree0_tables(rng))
    else:
        spec = EXAMPLES[name]()
    text = print_document(document_from_spec(name.replace("-", "_"), spec))
    doc = parse(text)
    assert print_document(doc) == text
    assert to_algebroid_spec(doc) == spec


@settings(BOUNDED, max_examples=30)
@given(RANDOMS, st.sampled_from([aff1, sl2, action_aff1_line, adjoint_instance]),
       st.booleans())
def test_structure_equations_iff_homological_on_twists(rng, make, mutate):
    spec = unipotent_twist(rng, make())
    if mutate:
        spec = mutate_coefficient(rng, spec)
    assert check_structure_equations(spec).passed == is_homological(spec.d).ok
    assert_structure_matches_tables(spec)


@settings(BOUNDED, max_examples=60)
@given(RANDOMS, st.sampled_from([-1, 0, 1]), st.sampled_from([-1, 0, 1, 2]))
def test_apply_matches_factor_oracle(rng, weight_shift, form_shift):
    table = random_chart(rng)
    D = random_derivation(rng, table, (weight_shift, form_shift))
    for _ in range(3):
        e = random_element(rng, table, terms=rng.randint(0, 4))
        assert apply(D, e) == apply_by_factors(D, e)


@settings(BOUNDED, max_examples=60)
@given(RANDOMS, st.booleans())
def test_partial_derivative_matches_factor_oracle(rng, odd):
    """The derivative by an even or odd generator g is the derivation that
    takes g to 1 and the other generators to 0."""
    table = random_chart(rng)
    gens = [g for g in table.gens if g.form_degree == odd]
    assume(gens)
    g = rng.choice(gens)
    D = make_derivation(table, (-g.h_weight, -g.form_degree), {g: table.one()})
    for _ in range(3):
        e = random_element(rng, table, terms=rng.randint(0, 4))
        for f in (e, e * table.gen(g.name, g.index)):
            assert f.partial_derivative(g) == apply_by_factors(D, f)


def _parity_parts(e):
    """The even and odd form-degree parts of e."""
    parts = ({}, {})
    for key, c in e.terms.items():
        parts[key[1].bit_count() % 2][key] = c
    return [Element(e.table, part) for part in parts]


@BOUNDED
@given(RANDOMS)
def test_product_associative_and_graded_commutative(rng):
    table = random_chart(rng)
    x, y, z = (random_element(rng, table, terms=rng.randint(0, 4)) for _ in range(3))
    assert (x * y) * z == x * (y * z)
    for p, xp in enumerate(_parity_parts(x)):
        for q, yq in enumerate(_parity_parts(y)):
            assert xp * yq == yq * xp * (-1) ** (p * q)


@pytest.mark.parametrize("name", [path.name for path in sorted(SPECS.glob("*.spec"))]
                         + ["gl3", "gl4"])
def test_keys_sort_in_position_tuple_order(name):
    """Odd parts are masks, but keys sort as they did when odd parts were
    position tuples: `sorted_keys` of random elements, which sets printed
    term order, and every basis `Monomials` lists, which sets basis order
    and so which columns clearing skips."""
    if name.startswith("gl"):
        spec = gl_spec(int(name[2:]))
    else:
        spec = to_algebroid_spec(parse((SPECS / name).read_text(encoding="utf-8")))
    table = spec.table
    rng = random.Random(name)
    for _ in range(50):
        e = random_element(rng, table, terms=rng.randint(0, 6))
        want = sorted(e.terms, key=lambda k: (table.key_bi_weight(k), tuple_key(k)))
        assert e.sorted_keys() == want
        for even, odd in e.terms:
            assert odd_positions(odd) == odd_tuple(odd)
    for i in range(spec.degree + 1):
        for positive in (False, True) if i else (False,):
            monomials = Monomials(spec, i, 2, positive=positive)
            for j in range(len(table.odd_generators()) + 1):
                keys = monomials.basis(j)
                assert keys == sorted(keys, key=tuple_key)
