import pathlib
import random
from fractions import Fraction
from math import comb

import pytest

from gradedlie import weight_modules
from gradedlie.algebra import Element, GeneratorTable, monomial_str
from gradedlie.algebroid import AlgebroidSpec
from gradedlie.cohomology import _torus, build_complex
from gradedlie.derivations import apply
from gradedlie.dsl import parse, to_algebroid_spec
from gradedlie.constructions import (EXAMPLES, algebroid_prolongation, e3_chart,
                                     e7_instance, sl2, tangent_graded_bundle)
from gradedlie.weight_modules import (BasisSizeError, CapClosureError, ColumnBuilder,
                                      Monomials, dim_w, homogenization_projector,
                                      sector_basis, w_basis)

from conftest import (apply_by_factors, brute_force_monomials, brute_force_w_dim, gl_spec,
                      odd_tuple, projector_by_derivative, random_chart, random_element,
                      to_dense, unipotent_twist)

SPECS = pathlib.Path(__file__).parent.parent / "specs"


def test_e3_dimensions():
    t = e3_chart()
    assert dim_w(t, 1, 0) == 3
    assert dim_w(t, 1, 1) == 2
    assert dim_w(t, 2, 0) == 7
    assert dim_w(t, 2, 1) == 7
    assert dim_w(t, 2, 2) == 1
    assert len(w_basis(t, 2, 2)) == 1
    assert w_basis(t, 2, 2).labels() == ["w[1]*w[2]"]


def test_empty_above_diagonal():
    t = e3_chart()
    for i in range(1, 5):
        for j in range(i + 1, i + 4):
            assert dim_w(t, i, j) == 0
            assert len(w_basis(t, i, j)) == 0


def test_dim_matches_basis_and_brute_force_random():
    rng = random.Random(41)
    for _ in range(30):
        c = random_chart(rng)
        for i in range(1, 5):
            for j in range(0, i + 2):
                n = dim_w(c, i, j)
                assert n == len(w_basis(c, i, j))
                assert n == brute_force_w_dim(c, i, j)


def test_sector_size_matches_enumeration():
    # negative weights have no monomials, and a negative cap lists as cap 0;
    # caps up to 5 on the charts with two base generators check the order of
    # the base monomials times the fibre monomials
    for name, make in sorted(EXAMPLES.items()):
        spec = make()
        top = 5 if len(spec.table.base_generators()) == 2 else 2
        for i in range(-3, spec.degree + 1):
            for cap in range(-1, top + 1):
                oracle = brute_force_monomials(spec.table, i, cap)
                for j in range(len(spec.table.odd_generators()) + 2):
                    keys = sector_basis(spec, i, j, cap)
                    assert keys == oracle.get(j, []), (name, i, j, cap)
                    assert Monomials(spec, i, cap).size(j) == len(keys), (name, i, j, cap)


def test_w_basis_matches_enumeration_random():
    rng = random.Random(23)
    for _ in range(20):
        c = random_chart(rng, max_dim=2)
        for i in range(1, 4):
            oracle = brute_force_monomials(c, i, positive=True)
            for j in range(0, i + 2):
                assert w_basis(c, i, j).keys == oracle.get(j, [])


def test_basis_size_guard_counts_before_listing(monkeypatch):
    def no_listing(*_args):
        raise AssertionError("a basis above the limit was listed")
    monkeypatch.setattr(Monomials, "_walk", no_listing)
    wide = GeneratorTable([("y", "odd_fiber", 0, 40)])
    sizes = [Monomials(wide, 0, 4).size(j) for j in range(41)]
    assert sizes == [comb(40, j) for j in range(41)]
    assert sum(sizes) == 2 ** 40
    with pytest.raises(BasisSizeError) as err:
        sector_basis(wide, 0, 20, 4)
    assert str(err.value) == ("sector (0,20) at base degree cap 4 has 137846528820 "
                              "basis monomials, above the limit of 50000")
    tall = GeneratorTable([("s", "even_fiber", 1, 40), ("z", "even_fiber", 6, 1)])
    assert dim_w(tall, 6, 0) == comb(45, 6) + 1
    with pytest.raises(BasisSizeError) as err:
        w_basis(tall, 6, 0)
    assert str(err.value).startswith("W^(6,0) has 8145061 basis monomials")


def test_torus_block_count_listing_and_filter_agree():
    """Per sector: the block's count, its listing, and every monomial of the
    sector filtered by torus weight are the same."""
    prolonged = algebroid_prolongation(sl2(), [("z", 1, 1), ("u", 2, 1)])
    for spec, weights in [(gl_spec(3), [0]), (gl_spec(4), [0]), (prolonged, [1, 2])]:
        labels, torus = _torus(spec)
        assert labels
        for i in weights:
            block = Monomials(spec, i, torus=torus)
            oracle = brute_force_monomials(spec.table, i, torus=torus)
            for j in range(len(spec.table.odd_generators()) + 2):
                keys = block.basis(j)
                assert block.size(j) == len(keys)
                assert keys == oracle.get(j, [])


def test_torus_block_random_weights():
    """The enumerator against the filtered enumeration on random charts over
    a point, with random integer weights (not only those of a torus).  A
    torus over a base is refused."""
    rng = random.Random(19)
    for _ in range(25):
        decls = [("y", "odd_fiber", 0, rng.randint(1, 4))]
        for w in (1, 2):
            if rng.random() < 0.7:
                decls.append((f"z{w}", "even_fiber", w, rng.randint(1, 2)))
            if rng.random() < 0.7:
                decls.append((f"w{w}", "odd_fiber", w, rng.randint(1, 2)))
        table = GeneratorTable(decls)
        r = rng.randint(1, 2)
        torus = {g.position: tuple(rng.randint(-4, 4) for _ in range(r)) for g in table.gens}
        for i in range(4):
            block = Monomials(table, i, torus=torus)
            oracle = brute_force_monomials(table, i, torus=torus)
            for j in range(len(table.odd_generators()) + 2):
                keys = block.basis(j)
                assert block.size(j) == len(keys)
                assert keys == oracle.get(j, [])
    based = GeneratorTable([("x", "base", 0, 1), ("y", "odd_fiber", 0, 1)])
    for weights in ({0: (1,)}, {1: (1,)}):
        with pytest.raises(ValueError):
            Monomials(based, 0, 2, weights)


def test_torus_block_guard_counts_the_block(monkeypatch):
    def no_listing(*_args):
        raise AssertionError("a block above the limit was listed")
    spec = gl_spec(4)
    # the largest full sector has 12 870 monomials, its block 426
    monkeypatch.setattr(weight_modules, "MAX_BASIS_SIZE", 426)
    assert max(build_complex(spec, 0).dims) == 426
    monkeypatch.setattr(weight_modules, "MAX_BASIS_SIZE", 425)
    with pytest.raises(BasisSizeError):
        build_complex(spec, 0)
    monkeypatch.setattr(Monomials, "_walk", no_listing)
    block = Monomials(spec, 0, torus=_torus(spec)[1])
    assert block.size(8) == 426
    with pytest.raises(BasisSizeError) as err:
        block.basis(8)
    assert str(err.value) == ("torus block of sector (0,8) has 426 basis monomials, "
                              "above the limit of 425")


def test_huge_cap_refused_at_basis(monkeypatch):
    """A cap that puts every nonempty sector above the limit is refused by
    listing the first nonempty sector, with its size, which is still
    counted; a weight with no monomials stays empty at any cap."""
    monkeypatch.setattr(weight_modules, "MAX_BASIS_SIZE", 2)
    gap = GeneratorTable([("x", "base", 0, 1), ("y", "odd_fiber", 0, 1),
                          ("u", "even_fiber", 2, 1), ("v", "odd_fiber", 2, 1)])
    refused = 0
    for table in (EXAMPLES["adjoint"]().table, e7_instance().table, gap):
        nb = len(table.base_generators())
        for i in range(table.degree + 1):
            for cap in range(4):
                oracle = brute_force_monomials(table, i, cap)
                first = min(oracle, default=None)
                if comb(cap + nb, nb) <= 2 or first is None:
                    block = Monomials(table, i, cap)
                    assert all(block.size(j) == len(oracle.get(j, ()))
                               for j in range(len(table.odd_generators()) + 1))
                    continue
                refused += 1
                block = Monomials(table, i, cap)
                assert block.size(first) == len(oracle[first])
                with pytest.raises(BasisSizeError) as err:
                    block.basis(first)
                assert str(err.value) == (
                    f"sector ({i},{first}) at base degree cap {cap} has "
                    f"{len(oracle[first])} basis monomials, above the limit of 2")
    assert refused == 17
    huge = Monomials(gap, 1, 10**9)
    assert [huge.size(j) for j in range(3)] == [0, 0, 0]
    assert [huge.basis(j) for j in range(3)] == [[], [], []]


def test_dp_states_do_not_depend_on_the_cap():
    """The base is a free factor, so the DP over the fibre generators has the
    same states at every cap."""
    for make in (EXAMPLES["adjoint"], e7_instance, EXAMPLES["tangent-graded"]):
        spec = make()
        for i in range(spec.degree + 1):
            assert Monomials(spec, i, 0)._reach == Monomials(spec, i, 10**9)._reach


def test_basis_keys_positive_weight_only():
    t = e3_chart()
    for key in w_basis(t, 2, 1).keys:
        for pos, _exp in key[0]:
            assert t.gens[pos].h_weight > 0
        for pos in odd_tuple(key[1]):
            assert t.gens[pos].h_weight > 0


def test_wedge_of_weight_modules_lands_in_higher_weight():
    t = e3_chart()
    for a in w_basis(t, 1, 1).elements():
        for b in w_basis(t, 1, 0).elements():
            prod = a * b
            if prod.is_zero():
                continue
            keys2 = set(w_basis(t, 2, 1).keys)
            assert set(prod.terms) <= keys2


def test_tangent_graded_bundle_dims():
    spec = tangent_graded_bundle([("x", 0, 2), ("z", 1, 3), ("u", 2, 1)])
    assert dim_w(spec, 1, 1) == 3
    assert dim_w(spec, 2, 1) == 10


def test_subcomplex_preserved():
    """d maps sector (i, j) into sector (i, j+1): ColumnBuilder refuses any
    image term outside the codomain.  d raises the base degree of e7 by at
    most 1, so the codomain takes cap 3 over a domain at cap 2."""
    spec = e7_instance()
    for i in range(1, 3):
        for j in range(len(spec.table.odd_generators()) + 1):
            domain = sector_basis(spec, i, j, 2)
            ColumnBuilder(spec, 3)(domain, sector_basis(spec, i, j + 1, 3))


def _sector_matrix(spec, i, j, cap):
    """(domain, codomain, columns) of d_E from sector (i, j) to (i, j+1)."""
    domain = sector_basis(spec, i, j, cap)
    codomain = sector_basis(spec, i, j + 1, cap)
    return domain, codomain, ColumnBuilder(spec, cap)(domain, codomain)


def test_induced_matrix_squares_to_zero():
    spec = tangent_graded_bundle([("x", 0, 1), ("z", 1, 2), ("u", 2, 1)])
    dom0, cod0, m0 = _sector_matrix(spec, 2, 0, 3)
    _dom1, cod1, m1 = _sector_matrix(spec, 2, 1, 3)
    a = to_dense(m1, len(cod1))
    b = to_dense(m0, len(cod0))
    assert a and b
    for r in range(len(a)):
        for c in range(len(dom0)):
            assert sum(a[r][k] * b[k][c] for k in range(len(b))) == 0


def _columns_match_factors(spec, domain, codomain, cap):
    """ColumnBuilder against `apply_by_factors`, which shares no code with
    the Leibniz kernel: each column is the image of its domain monomial,
    or, when the image has a term outside the codomain, building the
    column raises CapClosureError naming such a term, the first in
    `apply`'s term order.  Returns the number of refused columns."""
    table = spec.table
    rows = {k: n for n, k in enumerate(codomain)}
    builder = ColumnBuilder(spec, cap)
    expected, refused = [], set()
    for n, key in enumerate(domain):
        image = apply_by_factors(spec.d, Element(table, {key: 1}))
        outside = [k for k in image.terms if k not in rows]
        if outside:
            first = next(k for k in apply(spec.d, Element(table, {key: 1})).terms
                         if k not in rows)
            assert first in outside
            with pytest.raises(CapClosureError) as err:
                builder([key], codomain)
            assert str(err.value) == (
                f"base degree cap {cap} does not close the complex: d({monomial_str(table, key)}) "
                f"contains {monomial_str(table, first)}")
            refused.add(n)
            expected.append({})
        else:
            expected.append({rows[k]: c for k, c in image.terms.items()})
    # one call builds every column that is not refused
    assert builder(domain, codomain, refused) == expected
    return len(refused)


def test_matrix_columns_match_direct_application():
    """The column builder against `apply_by_factors` on every sector of the
    shipped specs and EXAMPLES at caps 2 and 4, on the gl(3) and gl(4)
    torus blocks, and on the full sectors of seeded unipotent twists of
    gl(3), whose coefficients are Fractions and which have no torus."""
    specs = [to_algebroid_spec(parse(path.read_text())) for path in sorted(SPECS.glob("*.spec"))]
    specs += [make() for make in EXAMPLES.values()]
    sectors = refused = 0
    for spec in specs:
        top = len(spec.table.odd_generators())
        for i in range(spec.degree + 1):
            for cap in (2, 4):
                monomials = Monomials(spec, i, cap)
                bases = [monomials.basis(j) for j in range(top + 2)]
                for j in range(top + 1):
                    refused += _columns_match_factors(spec, bases[j], bases[j + 1], cap)
                    sectors += 1
    assert sectors > 200 and refused
    for n in (3, 4):
        bases = build_complex(gl_spec(n), 0).sector_bases
        for j in range(len(bases) - 1):
            assert not _columns_match_factors(gl_spec(n), bases[j], bases[j + 1], None)
    rng = random.Random(65)
    for _ in range(2):
        spec = unipotent_twist(rng, gl_spec(3))
        assert not _torus(spec)[0]
        assert any(type(c) is Fraction for v in spec.d.action.values() for c in v.terms.values())
        bases = [Monomials(spec, 0).basis(j) for j in range(10)]
        for j in range(9):
            assert not _columns_match_factors(spec, bases[j], bases[j + 1], None)


def test_cap_closure_error():
    """The refusal names the domain monomial and the image term that leaves
    the span, in the words the CLI prints."""
    spec = e7_instance()
    # d z[3] contains x[1]*w[1], so no finite base-degree cap closes the span
    with pytest.raises(CapClosureError):
        _sector_matrix(spec, 2, 0, 4)
    with pytest.raises(CapClosureError) as err:
        build_complex(spec, 2, 4)
    assert str(err.value) == ("base degree cap 4 does not close the complex: "
                              "d(x[1]*x[2]^3*z[1]*z[3]) contains x[1]^2*x[2]^3*z[1]*w[1]")


def _leibniz_order(spec, key):
    """The monomials of the Leibniz sum of d on an odd `key`, cancelled
    ones included, in the order `apply` first meets them: factor by factor,
    and within a factor g in the order of the terms of d(g)."""
    table = spec.table
    even, odd = key
    order = {}
    for p in odd_tuple(odd):
        rest = Element(table, {(even, odd ^ 1 << p): 1})
        for term in (spec.d.action.get(p, table.zero()) * rest).terms:
            order.setdefault(term, None)
    return list(order)


def test_cap_closure_error_only_for_a_surviving_term():
    """A term of the Leibniz sum that cancels within its column may lie
    outside the codomain without a refusal; a surviving term outside it is
    refused, the first in apply's term order, even when a cancelled one
    comes before it in the sum."""
    spec = gl_spec(3)
    table = spec.table
    bases = [Monomials(spec, 0).basis(j) for j in range(10)]
    found = None
    for j in range(9):
        for key in bases[j]:
            image = apply(spec.d, Element(table, {key: 1}))
            order = _leibniz_order(spec, key)
            cancelled = [n for n, k in enumerate(order) if k not in image.terms]
            if cancelled and any(k in image.terms for k in order[cancelled[0]:]):
                found = j, key, image, order, cancelled[0]
                break
        if found:
            break
    assert found
    j, key, image, order, first = found
    codomain = [k for k in bases[j + 1] if k != order[first]]
    rows = {k: n for n, k in enumerate(codomain)}
    assert ColumnBuilder(spec, 4)([key], codomain) == [
        {rows[k]: c for k, c in image.terms.items()}]
    # drop the terms that come after the cancelled one too
    gone = set(order[first:])
    codomain = [k for k in bases[j + 1] if k not in gone]
    survivor = next(k for k in image.terms if k in gone)
    with pytest.raises(CapClosureError) as err:
        ColumnBuilder(spec, 4)([key], codomain)
    assert str(err.value) == ("base degree cap 4 does not close the complex: "
                              f"d({monomial_str(table, key)}) contains "
                              f"{monomial_str(table, survivor)}")


def test_projector_laws_random():
    rng = random.Random(42)
    t = e3_chart()
    for _ in range(50):
        e = random_element(rng, t)
        parts = [homogenization_projector(e, k) for k in range(20)]
        assert parts == [projector_by_derivative(e, k) for k in range(20)]
        total = t.zero()
        for k, p in enumerate(parts):
            total = total + p
            assert homogenization_projector(p, k) == p
            for l in range(20):
                if l != k:
                    assert homogenization_projector(p, l).is_zero()
        assert total == e


def test_projector_commutes_with_differential():
    rng = random.Random(43)
    spec = e7_instance()
    for _ in range(30):
        e = random_element(rng, spec.table)
        for k in range(6):
            lhs = homogenization_projector(apply(spec.d, e), k)
            rhs = apply(spec.d, homogenization_projector(e, k))
            assert lhs == rhs == projector_by_derivative(apply(spec.d, e), k)
