"""Property tests: the DSL print/parse round trip, the parser against
Element arithmetic on expression trees, the structure equations
against d^2 = 0 and the table oracle on twisted specs, the Leibniz kernel
(apply and partial derivatives against the factor-by-factor oracle), the
product (associativity and graded commutativity), the order of keys
with mask odd parts, and Betti numbers under a relabelling of the
generators.
Derandomized and bounded, so every run draws the same examples."""

import random
import re
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gradedlie.algebra import Element, GeneratorTable, odd_positions
from gradedlie.algebroid import AlgebroidSpec, check_structure_equations
from gradedlie.cohomology import betti, build_complex
from gradedlie.constructions import (EXAMPLES, action_aff1_line, adjoint_instance, aff1,
                                     e3_chart, sl2)
from gradedlie.derivations import apply, is_homological, make_derivation
from gradedlie.dsl import (document_from_spec, parse, parse_expression,
                           print_document, to_algebroid_spec)

from gradedlie.weight_modules import Monomials

from cli_corpus import SPECS
from conftest import (apply_by_factors, assert_structure_matches_tables, gl_spec,
                      heisenberg_spec, mutate_coefficient, odd_tuple, random_chart,
                      random_degree0_tables, random_derivation, random_element, tuple_key,
                      unipotent_twist, upper_nilpotent_spec)

BOUNDED = settings(derandomize=True, database=None, deadline=None, max_examples=40)
RANDOMS = st.randoms(use_true_random=False)


@BOUNDED
@given(RANDOMS)
def test_element_print_parse_round_trip(rng):
    table = e3_chart()
    e = random_element(rng, table, terms=rng.randint(0, 5), max_exp=3)
    assert parse_expression(table, str(e)) == e


# Expression trees over a chart with base, even and odd generators.  A tree
# is a sum (first term, [(op, term), ...]); a term a list of factors; a
# factor (unary signs, primary); a primary an atom or a parenthesised tree,
# with an optional power.
EXPRESSION_CHART = GeneratorTable([("x", "base", 0, 2), ("z", "even_fiber", 1, 2),
                                   ("xi", "odd_fiber", 0, 2), ("p", "odd_fiber", 1, 1)])
ATOM_NAMES = [("x", 1), ("x", 2), ("z", 1), ("z", 2), ("xi", 1), ("xi", 2), ("p", 1)]


def random_tree(rng, groups=None):
    """An expression tree: few generators, so odd factors repeat and sums
    cancel; atom powers up to 3, p/q literals and zero, up to two unary
    signs per factor, and at most two groups, with powers up to 2, so
    that the tree stays small."""
    groups = [2] if groups is None else groups

    def primary():
        roll = rng.random()
        if groups[0] and roll < 0.2:
            groups[0] -= 1
            return ("group", random_tree(rng, groups), rng.choice([None, None, 0, 1, 2]))
        power = rng.choice([None, None, 0, 1, 2, 3])
        if roll < 0.65:
            return ("gen", rng.choice(ATOM_NAMES), power)
        return ("num", (rng.randint(0, 4), rng.choice([None, None, 1, 2, 3])), power)

    def term():
        return [(rng.choices("+-", k=rng.choice([0, 0, 0, 1, 2])), primary())
                for _ in range(rng.randint(1, 3))]

    return term(), [(rng.choice("+-"), term()) for _ in range(rng.randint(0, 3))]


def render(tree):
    """The DSL text of an expression tree."""
    def primary(node):
        kind, body, power = node
        if kind == "gen":
            text = "{}[{}]".format(*body)
        elif kind == "num":
            text = str(body[0]) if body[1] is None else "{}/{}".format(*body)
        else:
            text = f"({render(body)})"
        return text if power is None else f"{text}^{power}"

    def term(factors):
        return "*".join("".join(signs) + primary(node) for signs, node in factors)

    first, rest = tree
    return " ".join([term(first)] + [f"{op} {term(t)}" for op, t in rest])


def evaluate(table, tree):
    """The Element of an expression tree, folded by Element + - * ** in the
    order the text reads: no text is parsed."""
    def primary(node):
        kind, body, power = node
        if kind == "gen":
            value = table.gen(*body)
        elif kind == "num":
            value = table.scalar(body[0] if body[1] is None else Fraction(*body))
        else:
            value = evaluate(table, body)
        return value if power is None else value ** power

    def factor(signs, node):
        value = primary(node)
        for sign in reversed(signs):
            value = -value if sign == "-" else value
        return value

    def term(factors):
        value = factor(*factors[0])
        for f in factors[1:]:
            value = value * factor(*f)
        return value

    first, rest = tree
    value = term(first)
    for op, t in rest:
        value = value + term(t) if op == "+" else value - term(t)
    return value


@settings(BOUNDED, max_examples=150)
@given(RANDOMS)
def test_parse_expression_agrees_with_element_arithmetic(rng):
    """Parsing an expression gives the Element its tree folds to by Element
    arithmetic, term order included: atoms with powers (odd squares
    vanish), p/q literals and zero, unary signs, parentheses, and sums
    that cancel."""
    tree = random_tree(rng)
    text = render(tree)
    want = evaluate(EXPRESSION_CHART, tree)
    got = parse_expression(EXPRESSION_CHART, text)
    assert got == want, text
    assert list(got.terms) == list(want.terms), text


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


def relabelled(text, rng):
    """A printed spec with the indices within each generator block permuted
    at random, by rewriting its text."""
    dims = re.findall(r"^\w+ (\w+) weight -?\d+ dim (\d+)$", text, re.M)
    perms = {name: rng.sample(range(1, int(n) + 1), int(n)) for name, n in dims}
    return re.sub(r"(\w+)\[(\d+)\]",
                  lambda m: f"{m[1]}[{perms[m[1]][int(m[2]) - 1]}]", text)


LABELLED_SPECS = {"sl2": sl2, "aff1": aff1, "h7": lambda: heisenberg_spec(3),
                  "n4": lambda: upper_nilpotent_spec(4), "gl3": lambda: gl_spec(3)}


@settings(BOUNDED, max_examples=25)
@given(RANDOMS, st.sampled_from(sorted(LABELLED_SPECS)))
def test_betti_numbers_do_not_depend_on_the_labelling(rng, name):
    """Permuting the indices within each generator block keeps the Betti
    numbers, on twists of sl(2) and aff(1), h_7, n+(gl(4)) and gl(3).  The
    permutation rewrites the printed spec, which is parsed again."""
    spec = LABELLED_SPECS[name]()
    if name in ("sl2", "aff1"):
        spec = unipotent_twist(rng, spec)
    text = relabelled(print_document(document_from_spec(name, spec)), rng)
    spec_relabelled = to_algebroid_spec(parse(text))
    assert betti(build_complex(spec_relabelled, 0)) == betti(build_complex(spec, 0))


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
