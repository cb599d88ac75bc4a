import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradedlie.algebra import Element, GeneratorTable, monomial_str
from gradedlie.algebroid import AlgebroidSpec
from gradedlie.derivations import apply
from gradedlie.constructions import adjoint_instance, e7_instance
from gradedlie.superconnection import (GaugeError, GaugeTransformation,
                                       SuperconnectionComponents, apply_gauge,
                                       compose_gauges, extract_components,
                                       flatness_cascade, identity_gauge,
                                       split_by_y_count)
from gradedlie.weight_modules import sector_basis, w_basis

from conftest import random_coeff


def random_gauge(rng, spec, i):
    """Random unipotent gauge on the weight-i module: phi_p lowers the
    A-form grading target by p, raising y-count by p."""
    table = spec.table
    blocks = {}
    keys = []
    for j in range(i + 1):
        keys.extend(w_basis(spec, i, j).keys)
    ys = [g for g in table.odd_generators() if g.h_weight == 0]
    for p in range(1, len(ys) + 1):
        blk = {}
        for key in keys:
            bw = table.key_bi_weight(key)
            target = table.zero()
            # candidate terms: p weight-0 odd factors times a W-monomial of
            # the same total bi-weight
            jw = bw.form_degree - p
            if jw < 0:
                continue
            from itertools import combinations
            for ysub in combinations(ys, p):
                for wk in w_basis(spec, i, jw).keys:
                    cand = tuple(sorted(g.position for g in ysub))
                    full = (wk[0], tuple(sorted(cand + wk[1])))
                    if len(full[1]) != len(cand) + len(wk[1]):
                        continue
                    if table.key_bi_weight(full) != bw:
                        continue
                    c = random_coeff(rng, zero_bias=0.6)
                    if c:
                        target = target + Element(table, {full: c})
            if not target.is_zero():
                blk[key] = target
        if blk:
            blocks[p] = blk
    return GaugeTransformation(spec, i, blocks)


def test_components_reassemble_to_differential():
    for spec in [e7_instance(), adjoint_instance()]:
        for i in range(1, spec.degree + 1):
            comp = extract_components(spec, i)
            for key in comp.basis_keys:
                m = Element(spec.table, {key: Fraction(1)})
                assert comp.total(m) == apply(spec.d, m)


def test_flatness_cascade_examples():
    for spec in [e7_instance(), adjoint_instance()]:
        for i in range(1, spec.degree + 1):
            comp = extract_components(spec, i)
            report = flatness_cascade(comp)
            assert report.passed, report.residuals


def block_apply(c, a, e):
    """D_a on a module element, straight from block a: on a term base*w
    (base of weight zero, w a W-monomial) it gives
    [a = 1] d(base)*w + (-1)^|base| base*D_a(w)."""
    table = c.spec.table
    zero_weight = lambda pos: table.gens[pos].h_weight == 0
    out = table.zero()
    for (even, odd), coeff in e.terms.items():
        base_key = (tuple(f for f in even if zero_weight(f[0])),
                    tuple(pos for pos in odd if zero_weight(pos)))
        w_key = (tuple(f for f in even if not zero_weight(f[0])),
                 tuple(pos for pos in odd if not zero_weight(pos)))
        base = Element(table, {base_key: Fraction(1)})
        if a == 1:
            out = out + apply(c.spec.d, base) * Element(table, {w_key: Fraction(1)}) * coeff
        out = out + base * c.component(a, w_key) * (coeff * (-1) ** len(base_key[1]))
    return out


def total_by_terms(c, e):
    """sum_p D_p on a module element, term by term through block_apply."""
    out = c.spec.table.zero()
    for a in set(c.blocks) | {1}:
        out = out + block_apply(c, a, e)
    return out


def module_element(rng, spec, i):
    """Random element of the weight-i module: a few monomials (base degree
    <= 2) times random coefficients."""
    keys = [k for j in range(len(spec.table.odd_generators()) + 1)
            for k in sector_basis(spec, i, j, 2)]
    chosen = rng.sample(keys, rng.randint(1, 5))
    return Element(spec.table, {k: random_coeff(rng, zero_bias=0.0) for k in chosen})


@settings(derandomize=True, database=None, deadline=None, max_examples=20)
@given(st.randoms(use_true_random=False), st.sampled_from([1, 2]), st.booleans())
def test_total_matches_termwise_extension(rng, i, gauged):
    spec = e7_instance()
    comp = extract_components(spec, i)
    if gauged:
        comp = apply_gauge(comp, random_gauge(rng, spec, i))
    for _ in range(3):
        e = module_element(rng, spec, i)
        assert comp.total(e) == total_by_terms(comp, e)


def cascade_oracle(c):
    """Per level p, sum_{a+b=p} D_a D_b on each W-basis monomial, where it
    is nonzero.  D_b(m) = block b of m; levels run up to 2 max(p) + 1, which
    bounds both a + b and the d-part 1 + b."""
    table = c.spec.table
    residuals = {}
    for key in c.basis_keys:
        for p in range(2 * max(c.blocks) + 2):
            r = table.zero()
            for a in range(p + 1):
                r = r + block_apply(c, a, c.component(p - a, key))
            if not r.is_zero():
                residuals.setdefault(p, {})[monomial_str(table, key)] = r
    return residuals


def perturbed(rng, c):
    """The components with some block values changed: one term's coefficient
    shifted, or that term times a base generator added.  Either keeps the
    bi-weight and the y-count of the block."""
    table = c.spec.table
    base = table.base_generators()
    blocks = {}
    for p, blk in c.blocks.items():
        blocks[p] = dict(blk)
        for key, v in blk.items():
            if not v.terms or rng.random() < 0.5:
                continue
            term = Element(table, {rng.choice(sorted(v.terms)): Fraction(1)})
            if base and rng.random() < 0.5:
                term = term * table.gen(base[0].name, base[0].index)
            blocks[p][key] = v + term * rng.choice([-2, -1, 1, 3])
    return SuperconnectionComponents(c.spec, c.i, blocks, list(c.basis_keys))


def test_cascade_residuals_match_per_level_oracle():
    rng = random.Random(54)
    failing = 0
    for spec, i in [(e7_instance(), 1), (e7_instance(), 2), (adjoint_instance(), 1)]:
        comp = extract_components(spec, i)
        cases = [comp, apply_gauge(comp, random_gauge(rng, spec, i))]
        cases += [perturbed(rng, comp) for _ in range(4)]
        for c in cases:
            report = flatness_cascade(c)
            oracle = cascade_oracle(c)
            assert report.residuals == oracle
            assert report.passed == (not oracle)
            failing += not report.passed
    assert failing >= 10


def test_cascade_sees_level_above_twice_top_block():
    """Only D_0 is nonzero, yet d(x) in D_1 leaves a level-1 residual."""
    table = GeneratorTable([("x", "base", 0, 1), ("z", "even_fiber", 1, 1),
                            ("y", "odd_fiber", 0, 1), ("w", "odd_fiber", 1, 1)])
    spec = AlgebroidSpec.from_differential(table, {
        ("x", 1): table.gen("y"), ("z", 1): table.gen("x") * table.gen("w")})
    comp = extract_components(spec, 1)
    assert comp.degrees() == [0]
    report = flatness_cascade(comp)
    assert report.residuals == cascade_oracle(comp) == {
        1: {"z[1]": table.gen("y") * table.gen("w")}}


def test_component_degrees():
    comp = extract_components(adjoint_instance(), 1)
    assert comp.degrees() == [0, 1]


def test_split_by_y_count_partition():
    spec = e7_instance()
    table = spec.table
    e = (table.gen("z", 1) * table.gen("y", 1)
         + table.gen("z", 2) * table.gen("w", 1)
         + table.gen("u", 1) * table.gen("y", 1) * table.gen("y", 2))
    parts = split_by_y_count(table, e)
    assert set(parts) == {0, 1, 2}
    total = table.zero()
    for part in parts.values():
        total = total + part
    assert total == e


def test_identity_gauge_is_noop():
    spec = e7_instance()
    comp = extract_components(spec, 2)
    gauged = apply_gauge(comp, identity_gauge(spec, 2))
    for p, blk in comp.blocks.items():
        for key, val in blk.items():
            assert gauged.component(p, key) == val


def test_gauge_preserves_flatness_and_d0():
    rng = random.Random(51)
    spec = e7_instance()
    comp = extract_components(spec, 2)
    for _ in range(10):
        phi = random_gauge(rng, spec, 2)
        gauged = apply_gauge(comp, phi)
        assert flatness_cascade(gauged).passed
        for key in comp.basis_keys:
            assert gauged.component(0, key) == comp.component(0, key)


def test_gauge_composition_law():
    rng = random.Random(52)
    spec = e7_instance()
    comp = extract_components(spec, 2)
    for _ in range(5):
        phi = random_gauge(rng, spec, 2)
        psi = random_gauge(rng, spec, 2)
        lhs = apply_gauge(apply_gauge(comp, phi), psi)
        rhs = apply_gauge(comp, compose_gauges(phi, psi))
        for key in comp.basis_keys:
            for p in range(0, 5):
                assert lhs.component(p, key) == rhs.component(p, key)


def test_gauge_inverse_round_trip():
    rng = random.Random(53)
    spec = e7_instance()
    phi = random_gauge(rng, spec, 2)
    for key in extract_components(spec, 2).basis_keys:
        m = Element(spec.table, {key: Fraction(1)})
        assert phi.apply_inverse(phi.apply_to(m)) == m
        assert phi.apply_to(phi.apply_inverse(m)) == m


def test_gauge_validation():
    spec = e7_instance()
    table = spec.table
    key = w_basis(spec, 1, 0).keys[0]
    bad = {1: {key: table.gen("z", 1)}}   # y-count 0, not 1
    with pytest.raises(GaugeError):
        GaugeTransformation(spec, 1, bad)
    with pytest.raises(GaugeError):
        GaugeTransformation(spec, 1, {0: {}})
