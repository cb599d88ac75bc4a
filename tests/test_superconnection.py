import gc
import random
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradedlie.algebra import Element, GeneratorTable, monomial_str
from gradedlie.algebroid import AlgebroidSpec
from gradedlie.derivations import apply
from gradedlie.constructions import adjoint_instance, cotangent_prolongation, e7_instance
from gradedlie.superconnection import (GaugeError, GaugeTransformation,
                                       SuperconnectionComponents, apply_gauge,
                                       compose_gauges, extract_components,
                                       flatness_cascade, split_by_y_count)
from gradedlie.weight_modules import Monomials

from conftest import algebra_map, odd_mask, odd_tuple, random_coeff, tuple_key
from test_coefficients import rational_specs


def coprime_coeff(rng, zero_bias=0.3):
    """Like `random_coeff`, with the coprime denominators 3, 5 and 7 too."""
    if rng.random() < zero_bias:
        return Fraction(0)
    return Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice([1, 3, 5, 7]))


def e7_third(e7):
    """e7 in the coordinate x[1] / 3, over the same table object.  Its
    blocks are integral: its one rational coefficient is d x[1] = y[1] / 3,
    which only the Leibniz part meets."""
    table = e7.table
    x1 = table.generator("x", 1)
    substitute = algebra_map(table, {x1.position: 3 * table.gen("x", 1)})
    action = {g: substitute(e7.d.value(g)) for g in table.gens}
    action[x1] = action[x1] * Fraction(1, 3)
    return AlgebroidSpec.from_differential(table, action)


def rational_d_specs():
    """(spec, module weight) pairs whose d has non-integral coefficients:
    the cotangent prolongation of sl(2) with [s1, s2] = s3 / 2, that of the
    rank-2 bundle of Lie algebras with [s1, s2] = (x / 2) s1, and
    `e7_third`."""
    sl2_half, _gl3, bundle_lift = rational_specs()
    third = e7_third(e7_instance())
    return [(cotangent_prolongation(sl2_half), 1), (bundle_lift, 1), (third, 1), (third, 2)]


def random_gauge(rng, spec, i, coeff=random_coeff):
    """Random unipotent gauge on the weight-i module: phi_p lowers the
    A-form grading target by p, raising y-count by p."""
    table = spec.table
    blocks = {}
    monomials = Monomials(spec, i, positive=True)
    keys = []
    for j in range(i + 1):
        keys.extend(monomials.basis(j))
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
                for wk in monomials.basis(jw):
                    cand = odd_mask(g.position for g in ysub)
                    full = (wk[0], cand | wk[1])
                    if cand & wk[1]:
                        continue
                    if table.key_bi_weight(full) != bw:
                        continue
                    c = coeff(rng, zero_bias=0.6)
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


def test_hand_built_components_carry_the_basis_their_cascade_checks():
    """Components built by hand must be given the basis keys their cascade
    checks: without them there is nothing to check, so the cascade of e7's
    weight-2 components with every D_1 entry doubled would pass."""
    spec = e7_instance()
    comp = extract_components(spec, 2)
    bad = {p: {key: v * 2 if p == 1 else v for key, v in blk.items()}
           for p, blk in comp.blocks.items()}
    with pytest.raises(TypeError):
        SuperconnectionComponents(spec, 2, bad)
    report = flatness_cascade(SuperconnectionComponents(spec, 2, bad, list(comp.basis_keys)))
    assert not report.passed
    assert report.residuals


def split_module_key(table, key):
    """(base, w): the factors of weight zero and the W-monomial, by weight."""
    even, odd = key
    zero_weight = lambda pos: table.gens[pos].h_weight == 0
    return ((tuple(f for f in even if zero_weight(f[0])),
             odd_mask(pos for pos in odd_tuple(odd) if zero_weight(pos))),
            (tuple(f for f in even if not zero_weight(f[0])),
             odd_mask(pos for pos in odd_tuple(odd) if not zero_weight(pos))))


def block_apply(c, a, e):
    """D_a on a module element, straight from block a: on a term base*w
    (base of weight zero, w a W-monomial) it gives
    [a = 1] d(base)*w + (-1)^|base| base*D_a(w)."""
    table = c.spec.table
    out = table.zero()
    for key, coeff in e.terms.items():
        base_key, w_key = split_module_key(table, key)
        base = Element(table, {base_key: Fraction(1)})
        if a == 1:
            out = out + apply(c.spec.d, base) * Element(table, {w_key: Fraction(1)}) * coeff
        out = out + base * c.component(a, w_key) * (coeff * (-1) ** base_key[1].bit_count())
    return out


def total_by_terms(c, e):
    """sum_p D_p on a module element, term by term through block_apply."""
    out = c.spec.table.zero()
    for a in set(c.blocks) | {1}:
        out = out + block_apply(c, a, e)
    return out


def module_element(rng, spec, i, coeff=random_coeff):
    """Random element of the weight-i module: a few monomials (base degree
    <= 2) times random coefficients."""
    sector = Monomials(spec, i, 2)
    keys = [k for j in range(len(spec.table.odd_generators()) + 1)
            for k in sector.basis(j)]
    chosen = rng.sample(keys, rng.randint(1, 5))
    return Element(spec.table, {k: coeff(rng, zero_bias=0.0) for k in chosen})


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


def perturbed(rng, c, shift=lambda rng: rng.choice([-2, -1, 1, 3])):
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
            term = Element(table, {rng.choice(sorted(v.terms, key=tuple_key)): Fraction(1)})
            if base and rng.random() < 0.5:
                term = term * table.gen(base[0].name, base[0].index)
            blocks[p][key] = v + term * shift(rng)
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


def has_denominator(elements, primes=(3, 5, 7)):
    return any(c.denominator % q == 0 for e in elements for c in e.terms.values()
               for q in primes)


def test_rational_operators_match_termwise_oracles():
    """Denominators 3, 5 and 7 in the gauges, the perturbations and the
    module elements, and a rational d: `total` against `total_by_terms`, and
    the cascade against `cascade_oracle`, failing cascades included, whose
    residuals go through the final division."""
    rng = random.Random(55)
    shift = lambda rng: coprime_coeff(rng, zero_bias=0.0)
    failing, residuals = 0, []
    cases = [(e7_instance(), 1), (e7_instance(), 2)] + rational_d_specs()
    for spec, i in cases:
        comp = extract_components(spec, i)
        gauged = apply_gauge(comp, random_gauge(rng, spec, i, coprime_coeff))
        for c in [comp, gauged, perturbed(rng, comp, shift), perturbed(rng, gauged, shift)]:
            for _ in range(3):
                e = module_element(rng, spec, i, coprime_coeff)
                assert c.total(e) == total_by_terms(c, e)
            report = flatness_cascade(c)
            assert report.residuals == cascade_oracle(c)
            failing += not report.passed
            residuals += [r for level in report.residuals.values() for r in level.values()]
    assert failing >= 6
    assert has_denominator(residuals)


def raise_by_terms(phi, e):
    """N = phi - id on a module element, term by term: base*w goes to
    base * sum_p phi_p(w)."""
    table = phi.spec.table
    out = table.zero()
    for key, coeff in e.terms.items():
        base_key, w_key = split_module_key(table, key)
        for blk in phi.blocks.values():
            if w_key in blk:
                out = out + Element(table, {base_key: coeff}) * blk[w_key]
    return out


def inverse_by_neumann(phi, e):
    """phi^-1 e = sum_k (-N)^k e, until a term vanishes."""
    out = term = e
    while not term.is_zero():
        term = -raise_by_terms(phi, term)
        out = out + term
    return out


def test_apply_inverse_matches_neumann_oracle():
    rng = random.Random(56)
    cases = [(e7_instance(), 2), (adjoint_instance(), 1)] + rational_d_specs()
    inverses = []
    for spec, i in cases:
        phi = random_gauge(rng, spec, i, coprime_coeff)
        for _ in range(4):
            e = module_element(rng, spec, i, coprime_coeff)
            inverses.append(phi.apply_inverse(e))
            assert inverses[-1] == inverse_by_neumann(phi, e)
            assert phi.apply_to(e) == e + raise_by_terms(phi, e)
    assert has_denominator(inverses)


def test_one_components_object_through_many_gauges():
    """An operator keeps the image of every module monomial it meets, so one
    object driven through 24 gauges must give, each time, what a freshly
    extracted object gives."""
    rng = random.Random(57)
    spec = e7_instance()
    comp = extract_components(spec, 2)
    for n in range(24):
        phi = random_gauge(rng, spec, 2, coprime_coeff if n % 2 else random_coeff)
        gauged = apply_gauge(comp, phi)
        assert gauged.blocks == apply_gauge(extract_components(spec, 2), phi).blocks
        assert flatness_cascade(gauged).passed


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
    # the memo splits an int vector over its denominator the same way: each
    # entry is its `_quotient`, the vector's int itself over 1
    from gradedlie.superconnection import _memo, _quotient, _y_count
    rng = random.Random(15)
    flatness_cascade(apply_gauge(extract_components(spec, 2),
                                 random_gauge(rng, spec, 2, coprime_coeff)))
    memo = _memo(spec)
    vec = {n: rng.choice([-12, -7, -3, -1, 1, 2, 5, 6, 12])
           for n in rng.sample(range(len(memo.keys)), min(40, len(memo.keys)))}
    for den in (1, 2, 3, 6):
        parts = memo.split(vec, den)
        got = {k: c for e in parts.values() for k, c in e.terms.items()}
        want = {memo.keys[n]: _quotient(v, den) for n, v in vec.items()}
        assert got == want
        assert all(type(got[k]) is type(c) for k, c in want.items())
        assert all(_y_count(spec.table, k) == p for p, e in parts.items() for k in e.terms)
    assert all(_quotient(v, 1) is v for v in vec.values())


def test_identity_gauge_is_noop():
    spec = e7_instance()
    comp = extract_components(spec, 2)
    gauged = apply_gauge(comp, GaugeTransformation(spec, 2, {}))
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


def test_nested_gauges_stay_one_chain_deep():
    """Twenty gauges of e7 at weight 2, each applied to the last result,
    give the blocks of one gauge by their composite phi_1 ... phi_20 in
    application order.  The result's operator is one chain over the
    Leibniz extension of its parent's blocks, not twenty chains deep."""
    from gradedlie import superconnection
    rng = random.Random(66)
    spec = e7_instance()
    comp = extract_components(spec, 2)
    phis = [random_gauge(rng, spec, 2) for _ in range(20)]
    nested = comp
    for phi in phis:
        nested = apply_gauge(nested, phi)
    composed = phis[0]
    for phi in phis[1:]:
        composed = compose_gauges(composed, phi)
    once = apply_gauge(comp, composed)
    assert nested.blocks != comp.blocks
    assert nested.blocks == once.blocks
    assert as_strings(nested.blocks) == as_strings(once.blocks)
    operator = nested._operator
    assert type(operator) is superconnection._Gauged
    assert type(operator.D) is superconnection._Extension
    assert flatness_cascade(nested).passed


def test_gauge_inverse_round_trip():
    rng = random.Random(53)
    spec = e7_instance()
    phi = random_gauge(rng, spec, 2)
    for key in extract_components(spec, 2).basis_keys:
        m = Element(spec.table, {key: Fraction(1)})
        assert phi.apply_inverse(phi.apply_to(m)) == m
        assert phi.apply_to(phi.apply_inverse(m)) == m


def test_gauge_validation():
    """Every other GaugeError, word for word: a block below p = 1, a value
    of another bi-weight or y-count (the bi-weight is named first when
    both are wrong), and gauges over another sector family.  Blocks are
    checked in order, and a zero value passes."""
    spec = e7_instance()
    table = spec.table
    y1, y2 = table.gen("y", 1), table.gen("y", 2)
    w1, w2 = table.gen("w", 1), table.gen("w", 2)
    z1, z2 = table.gen("z", 1), table.gen("z", 2)
    key = lambda e: next(iter(e.terms))
    cases = [
        (1, {1: {Monomials(spec, 1, positive=True).basis(0)[0]: z1}},
         "gauge block p=1 on z[1] has terms with a different A-form degree"),
        (1, {0: {}}, "gauge blocks must have p >= 1 (p = 0 is the identity)"),
        (2, {1: {key(z1 * w1): y1 * z1}}, "gauge block p=1 on z[1]*w[1] is not degree preserving"),
        (2, {1: {key(z1 * w1): z1 * w1}},
         "gauge block p=1 on z[1]*w[1] has terms with a different A-form degree"),
        (2, {2: {key(z1 * w1): y1 * z1 + z1 * w1}},
         "gauge block p=2 on z[1]*w[1] is not degree preserving"),
        (2, {1: {key(z1 * w1): y1 * z1 * z2}, 0: {}},
         "gauge blocks must have p >= 1 (p = 0 is the identity)"),
    ]
    for i, blocks, message in cases:
        with pytest.raises(GaugeError) as err:
            GaugeTransformation(spec, i, blocks)
        assert str(err.value) == message
    assert GaugeTransformation(spec, 2, {1: {key(z1 * w1): table.zero()}}).blocks
    ok = GaugeTransformation(spec, 2, {1: {key(z1 * w1): y1 * z1 * z2},
                                       2: {key(w1 * w2): y1 * y2 * z1 * z2}})
    with pytest.raises(GaugeError) as err:
        apply_gauge(extract_components(spec, 1), ok)
    assert str(err.value) == "gauge transformation over a different sector family"
    with pytest.raises(GaugeError) as err:
        compose_gauges(ok, GaugeTransformation(spec, 1, {}))
    assert str(err.value) == "gauge transformations over different sector families"


def test_gauge_rejects_keys_outside_the_w_basis():
    """A block key of h-weight other than i, or with a weight-zero factor,
    is refused by name, word for word, though its value would pass every
    other check."""
    spec = e7_instance()
    table = spec.table
    y1, y2 = table.gen("y", 1), table.gen("y", 2)
    w1, z1, z2 = table.gen("w", 1), table.gen("z", 1), table.gen("z", 2)
    x1 = table.gen("x", 1)
    key = lambda e: next(iter(e.terms))
    cases = [(w1, {1: y1 * z1}, "w[1]"),
             (y1 * z1 * w1, {2: y1 * y2 * z1 * z2}, "z[1]*y[1]*w[1]"),
             (x1 * z1 * w1, {1: y1 * z1 * z2}, "x[1]*z[1]*w[1]")]
    for monomial, values, label in cases:
        blocks = {p: {key(monomial): v} for p, v in values.items()}
        with pytest.raises(GaugeError) as err:
            GaugeTransformation(spec, 2, blocks)
        (p,) = values
        assert str(err.value) == f"gauge block p={p} key {label} is not a weight-2 W-basis monomial"


def gauge_by_elements(c, phi):
    """phi^-1 D phi on each W-basis monomial through the public Element
    entry points, split by y-count."""
    table = c.spec.table
    blocks = {}
    for key in c.basis_keys:
        m = Element(table, {key: Fraction(1)})
        image = phi.apply_inverse(c.total(phi.apply_to(m)))
        for p, part in split_by_y_count(table, image).items():
            blocks.setdefault(p, {})[key] = part
    return blocks


def gauge_by_terms(c, phi):
    """The same, from the termwise oracles alone."""
    table = c.spec.table
    blocks = {}
    for key in c.basis_keys:
        m = Element(table, {key: Fraction(1)})
        image = inverse_by_neumann(phi, total_by_terms(c, m + raise_by_terms(phi, m)))
        for p, part in split_by_y_count(table, image).items():
            blocks.setdefault(p, {})[key] = part
    return blocks


def cascade_by_total(c):
    """The cascade residuals read off total(total(m))."""
    table = c.spec.table
    residuals = {}
    for key in c.basis_keys:
        m = Element(table, {key: Fraction(1)})
        for p, r in split_by_y_count(table, c.total(c.total(m))).items():
            residuals.setdefault(p, {})[monomial_str(table, key)] = r
    return residuals


def as_strings(nested):
    return {p: {str(k): str(v) for k, v in level.items()} for p, level in nested.items()}


def test_apply_gauge_matches_element_oracles():
    """`apply_gauge` against phi^-1 D phi through the Element entry points
    and through the termwise oracles, exactly and as strings, on flat and on
    perturbed components; the cascade of each result against
    total(total(m)), residual strings included."""
    rng = random.Random(60)
    shift = lambda rng: coprime_coeff(rng, zero_bias=0.0)
    failing = 0
    for spec, i in [(e7_instance(), 2), (adjoint_instance(), 1)] + rational_d_specs():
        comp = extract_components(spec, i)
        for c in [comp, perturbed(rng, comp, shift)]:
            for _ in range(2):
                phi = random_gauge(rng, spec, i, coprime_coeff)
                gauged = apply_gauge(c, phi)
                for oracle in (gauge_by_elements(c, phi), gauge_by_terms(c, phi)):
                    assert gauged.blocks == oracle
                    assert as_strings(gauged.blocks) == as_strings(oracle)
                for checked in (c, gauged):
                    report = flatness_cascade(checked)
                    residuals = cascade_by_total(checked)
                    assert report.residuals == residuals
                    assert as_strings(report.residuals) == as_strings(residuals)
                    failing += not report.passed
    assert failing >= 12


def gauge_run(comp, phis):
    """The gauged blocks and the cascade residuals, as strings, per gauge."""
    out = []
    for phi in phis:
        gauged = apply_gauge(comp, phi)
        out.append((as_strings(gauged.blocks), as_strings(flatness_cascade(gauged).residuals)))
    return out


def test_memo_belongs_to_its_spec():
    """e7 and e7_third share a table object and differ in d.  Gauges built
    over either spec, applied to the components of both, interleaved in one
    process, give what each spec gives run alone, in specs of its own."""
    rng = random.Random(61)
    e7 = e7_instance()
    third = e7_third(e7)
    assert third.table is e7.table
    phis = [random_gauge(rng, spec, 2, coprime_coeff) for spec in (e7, third) * 3]
    alone = {}
    for name, fresh in (("e7", e7_instance()), ("third", e7_third(e7_instance()))):
        rebuilt = [GaugeTransformation(fresh, 2, phi.blocks) for phi in phis]
        alone[name] = gauge_run(extract_components(fresh, 2), rebuilt)
    comps = {"e7": extract_components(e7, 2), "third": extract_components(third, 2)}
    for n, phi in enumerate(phis):
        for name in ("e7", "third"):
            assert gauge_run(comps[name], [phi]) == [alone[name][n]]
    assert all(not residuals for run in alone.values() for _blocks, residuals in run)
    assert alone["e7"] != alone["third"]


def test_memo_dies_with_its_spec():
    """The per-spec memo lives on the spec: after the spec and what holds
    it are dropped, neither the spec nor its memo, product table and all,
    is alive."""
    from gradedlie.superconnection import _memo
    spec = e7_instance()
    comp = extract_components(spec, 2)
    gauged = apply_gauge(comp, random_gauge(random.Random(62), spec, 2, coprime_coeff))
    assert flatness_cascade(gauged).passed
    assert gauged._operator.memo is comp._operator.memo is _memo(spec)
    # the product table is filled, and its entries name the memo's ids
    assert sum(map(len, _memo(spec).rows)) > len(_memo(spec).keys)
    refs = [weakref.ref(spec), weakref.ref(_memo(spec))]
    del spec, comp, gauged
    gc.collect()
    assert [ref() for ref in refs] == [None, None]


def test_product_table_matches_element_product():
    """Every entry of the memo's product table, after a gauge and a cascade
    filled it, against the Element product zeros[a] * keys[m]: a sign and
    an id, or None exactly when the product vanishes; asked again, the
    table answers from its row."""
    from gradedlie.superconnection import _memo
    rng = random.Random(63)
    signs = []
    for spec, i in [(e7_instance(), 2), (adjoint_instance(), 1)] + rational_d_specs():
        table = spec.table
        gauged = apply_gauge(extract_components(spec, i), random_gauge(rng, spec, i, coprime_coeff))
        flatness_cascade(gauged)
        memo = _memo(spec)
        assert any(memo.rows)
        pairs = [(a, m) for a in range(len(memo.zeros)) for m in range(len(memo.keys))]
        for a, m in rng.sample(pairs, min(len(pairs), 1500)):
            product = Element(table, {memo.zeros[a]: 1}) * Element(table, {memo.keys[m]: 1})
            got = memo.times(a, m)
            assert memo.rows[a][m] is got and memo.times(a, m) is got
            if product.is_zero():
                assert got is None
                signs.append(0)
            else:
                sign, k = got
                assert product == Element(table, {memo.keys[k]: sign})
                assert memo.parts[k][0] == memo.zero_ids[product_zero_part(memo, k)]
                signs.append(sign)
    assert set(signs) == {-1, 0, 1}


def product_zero_part(memo, n):
    """The weight-zero part of the module monomial with id n, read off its
    key: its base factors and its y's."""
    even, odd = memo.keys[n]
    even_cut, odd_cut = memo.table.zero_cuts
    return (tuple(f for f in even if f[0] < even_cut),
            odd_mask(p for p in odd_tuple(odd) if p < odd_cut))


def test_gauged_operator_is_the_leibniz_extension_of_its_blocks():
    """`apply_gauge` gives its result the chain phi^-1 D phi as operator.
    phi is module-linear and D obeys Leibniz, so the chain must act as the
    Leibniz extension of the gauged blocks, which an object built from them
    uses: `total` on module elements with base and y factors, and the
    cascade residuals, exactly and as strings.  On flat and perturbed
    (non-flat) components, rational d's, a gauge of a gauged object, and
    phi built over the other of e7 and e7_third (one table, two memos)."""
    rng = random.Random(64)
    shift = lambda rng: coprime_coeff(rng, zero_bias=0.0)
    e7 = e7_instance()
    third = e7_third(e7)
    cases = [(e7, 2, e7), (adjoint_instance(), 1, None), (e7, 2, third), (third, 2, e7)]
    cases += [(spec, i, None) for spec, i in rational_d_specs()]
    failing = mixed = 0
    for spec, i, over in cases:
        comp = extract_components(spec, i)
        for c in (comp, perturbed(rng, comp, shift)):
            once = apply_gauge(c, random_gauge(rng, over or spec, i, coprime_coeff))
            twice = apply_gauge(once, random_gauge(rng, over or spec, i, coprime_coeff))
            for gauged in (once, twice):
                plain = SuperconnectionComponents(spec, i, gauged.blocks, list(gauged.basis_keys))
                for _ in range(3):
                    e = module_element(rng, spec, i, coprime_coeff)
                    mixed += any(all(split_module_key(spec.table, k)[0]) for k in e.terms)
                    got, want = gauged.total(e), plain.total(e)
                    assert got == want
                    assert str(got) == str(want)
                got, want = flatness_cascade(gauged), flatness_cascade(plain)
                assert got.residuals == want.residuals
                assert as_strings(got.residuals) == as_strings(want.residuals)
                failing += not got.passed
    assert failing >= 10
    assert mixed >= 10


def test_gauged_cascade_builds_images_only_for_the_gauge(monkeypatch):
    """After one warm-up gauge, a gauge of e7 at weight 2 and the cascade
    of its result compute module images only for the gauge's raising part
    N: the images of the parent's operator D, through which phi^-1 D phi and
    its square phi^-1 D^2 phi pass, are kept on D and shared by every
    gauge.  The warm-up gauge has every term a gauge may have, so it meets
    every image D is asked for.  On flat components the cascade itself
    leaves nothing for phi^-1 to map; on perturbed ones it does."""
    from gradedlie import superconnection
    rng = random.Random(65)
    spec = e7_instance()
    comp = extract_components(spec, 2)
    built = {}
    image = superconnection._Extension.image

    def counted(operator, n):
        built[operator] = built.get(operator, 0) + 1
        return image(operator, n)

    monkeypatch.setattr(superconnection._Extension, "image", counted)
    dense = lambda rng, zero_bias: random_coeff(rng, 0.0)
    for c, passes in ((comp, True), (perturbed(rng, comp), False)):
        assert flatness_cascade(apply_gauge(c, random_gauge(rng, spec, 2, dense))).passed == passes
        for _ in range(5):
            phi = random_gauge(rng, spec, 2)
            built.clear()
            gauged = apply_gauge(c, phi)
            assert list(built) == [phi._raising]
            in_gauge = built[phi._raising]
            assert flatness_cascade(gauged).passed == passes
            assert list(built) == [phi._raising]
            assert (built[phi._raising] > in_gauge) == (not passes)


def test_kept_squares_match_two_applications():
    """`square` sums the squares kept per module monomial: it equals two
    `apply` calls and `total_by_terms` applied twice, on flat, perturbed
    and rational-d components, on the first call, which keeps the squares,
    and on a second, which reads the same kept vectors back."""
    rng = random.Random(67)
    shift = lambda rng: coprime_coeff(rng, zero_bias=0.0)
    nonzero = fresh = 0
    for spec, i in [(e7_instance(), 2), (adjoint_instance(), 1)] + rational_d_specs():
        comp = extract_components(spec, i)
        for c in (comp, perturbed(rng, comp, shift)):
            D = c._operator
            memo = D.memo
            for _ in range(3):
                e = module_element(rng, spec, i, coprime_coeff)
                vec, den = memo.vector(e)
                twice = memo.element(*D.apply(*D.apply(vec, den)))
                fresh += sum(n not in D.squares for n in vec)
                first = memo.element(*D.square(vec, den))
                kept = {n: D.squares[n] for n in vec}
                again = memo.element(*D.square(vec, den))
                assert all(D.squares[n] is square for n, square in kept.items())
                assert first == again == twice == total_by_terms(c, total_by_terms(c, e))
                assert str(first) == str(twice)
                nonzero += not first.is_zero()
    assert nonzero >= 6 and fresh >= 50


def test_flat_gauged_cascade_computes_no_square(monkeypatch):
    """After one warm-up gauge, which meets every module monomial a gauge
    of e7 at weight 2 may reach, the cascade of a gauged object reads the
    flat parent's kept squares, all empty: it computes no new square and
    does not apply the parent's operator at all."""
    from gradedlie import superconnection
    rng = random.Random(68)
    spec = e7_instance()
    comp = extract_components(spec, 2)
    D = comp._operator
    dense = lambda rng, zero_bias: random_coeff(rng, 0.0)
    assert flatness_cascade(apply_gauge(comp, random_gauge(rng, spec, 2, dense))).passed
    assert D.squares and not any(D.squares.values())
    squares, calls = [], []
    square_of, call = superconnection._Extension.square_of, superconnection._Extension.__call__

    def counted_square(operator, n):
        squares.append(operator)
        return square_of(operator, n)

    def counted_call(operator, vec):
        calls.append(operator)
        return call(operator, vec)

    monkeypatch.setattr(superconnection._Extension, "square_of", counted_square)
    monkeypatch.setattr(superconnection._Extension, "__call__", counted_call)
    for n in range(6):
        phi = random_gauge(rng, spec, 2, coprime_coeff if n % 2 else random_coeff)
        gauged = apply_gauge(comp, phi)
        calls.clear()
        assert flatness_cascade(gauged).passed
        assert squares == []
        assert set(calls) == {phi._raising}

