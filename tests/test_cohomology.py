import itertools
import pathlib
import random
from fractions import Fraction

import pytest

from gradedlie.algebroid import AlgebroidSpec
from gradedlie.cohomology import betti, build_complex, rank
from gradedlie.constructions import (abelian_lie_algebra, aff1, sl2,
                                     tangent_algebroid, weighted_lie_algebra)
from gradedlie.weight_modules import CapClosureError

from conftest import brute_force_rank, to_dense, unipotent_twist


def test_rank_against_brute_force_random():
    rng = random.Random(61)
    for _ in range(50):
        rows = rng.randint(0, 4)
        cols = rng.randint(0, 4)
        columns = [{r: Fraction(c) for r in range(rows)
                    if (c := rng.randint(-3, 3))} for _ in range(cols)]
        assert rank(columns) == brute_force_rank(to_dense(columns, rows))


def test_betti_abelian_plane():
    c = build_complex(abelian_lie_algebra(2), 0)
    assert c.exact
    assert c.dims == [1, 2, 1]
    assert betti(c) == [1, 2, 1]


def test_betti_aff1():
    c = build_complex(aff1(), 0)
    assert betti(c) == [1, 1, 0]


def test_betti_sl2():
    c = build_complex(sl2(), 0)
    assert betti(c) == [1, 0, 0, 1]


def test_betti_gl3():
    # [E_ij, E_kl] = delta_jk E_il - delta_li E_kj, with E_ij -> xi[3(i-1)+j]
    from gradedlie.algebra import GeneratorTable
    table = GeneratorTable([("xi", "odd_fiber", 0, 9)])
    e = lambda i, j: ("xi", 3 * (i - 1) + j)
    bracket = {}
    for i, j, k, l in itertools.product(range(1, 4), repeat=4):
        if (i, j) >= (k, l):
            continue
        if j == k:
            bracket[(e(i, j), e(k, l), e(i, l))] = 1
        if l == i:
            bracket[(e(i, j), e(k, l), e(k, j))] = -1
    c = build_complex(weighted_lie_algebra(table, {}, bracket), 0)
    assert c.exact
    assert c.dims == [1, 9, 36, 84, 126, 126, 84, 36, 9, 1]
    # H(gl3) = Lambda(e1, e3, e5): Poincare polynomial (1+t)(1+t^3)(1+t^5)
    assert betti(c) == [1, 1, 0, 1, 1, 1, 1, 0, 1, 1]


def test_betti_invariant_under_twist():
    rng = random.Random(62)
    for _ in range(5):
        spec = unipotent_twist(rng, sl2())
        assert betti(build_complex(spec, 0)) == [1, 0, 0, 1]


def test_truncated_tangent_line():
    # de Rham on the line, truncated at polynomial degree cap
    c = build_complex(tangent_algebroid(1), 0, cap=3)
    assert not c.exact
    assert c.cap == 3
    # kernel of d/dx on polynomials of degree <= 3 is the constants;
    # the image misses the top-degree form
    assert betti(c) == [1, 1]


def test_complex_is_closed():
    for spec in [aff1(), sl2(), abelian_lie_algebra(3)]:
        assert build_complex(spec, 0).is_closed()


def test_complex_not_closed_when_d_squared_nonzero():
    from gradedlie.dsl import parse, to_algebroid_spec
    text = (pathlib.Path(__file__).parent.parent / "specs" / "broken.spec").read_text()
    c = build_complex(to_algebroid_spec(parse(text)), 0)
    assert c.dims == [1, 3, 3, 1]
    assert not c.is_closed()
    with pytest.raises(ValueError):
        betti(c)


def test_weighted_lie_algebra_exact_sectors():
    from gradedlie.algebra import GeneratorTable
    table = GeneratorTable([("z", "even_fiber", 1, 1),
                            ("y", "odd_fiber", 0, 1),
                            ("w", "odd_fiber", 1, 1)])
    spec = AlgebroidSpec.from_differential(
        table, {("z", 1): table.gen("w", 1)})
    c = build_complex(spec, 1)
    assert c.exact
    # d z = w is acyclic in weight 1
    assert betti(c) == [0] * len(c.dims)
