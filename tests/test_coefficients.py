"""Integer-first coefficients: integral specs compute with `int`s only,
rational specs agree with a Fraction-only run, the product kernel's odd
merge matches a sort-and-count reference, and the fraction-free rank
matches the brute-force rank on large integer, mixed and rational
entries."""

import random
from collections import Counter
from fractions import Fraction
from itertools import combinations

from hypothesis import given, settings
from hypothesis import strategies as st

from gradedlie.algebra import Element, GeneratorTable, _mul_into
from gradedlie.algebroid import AlgebroidSpec
from gradedlie.cohomology import betti, build_complex, rank
from gradedlie.constructions import cotangent_prolongation, e7_instance
from gradedlie.derivations import Derivation, apply, is_homological
from gradedlie.dsl import document_from_spec, parse, print_document, to_algebroid_spec
from gradedlie.superconnection import extract_components, flatness_cascade
from gradedlie.weight_modules import CapClosureError

from conftest import brute_force_rank, gl_spec, odd_mask, odd_tuple, poincare_betti, to_dense

BOUNDED = settings(derandomize=True, database=None, deadline=None, max_examples=60)


def coefficients(e):
    return list(e.terms.values())


def test_integral_specs_keep_int_coefficients():
    gl3 = gl_spec(3)
    d = gl3.d
    gens = [gl3.table.gen(g.name, g.index) for g in gl3.table.gens]
    values = [d(g) for g in gens]
    values += [apply(d, d(g)) for g in gens]   # zero, as d^2 = 0
    values += [apply(d, d(g) * h) for g in gens for h in gens]
    assert any(v.terms for v in values)
    assert all(type(c) is int for v in values for c in coefficients(v))

    comp = extract_components(e7_instance(), 2)
    blocks = [v for blk in comp.blocks.values() for v in blk.values()]
    assert blocks and all(type(c) is int for v in blocks for c in coefficients(v))

    columns = [col for m in build_complex(gl3, 0).matrices for col in m]
    assert any(columns)
    assert all(type(c) is int for col in columns for c in col.values())


def fraction_only(spec):
    """The same spec with every coefficient of d stored as a Fraction, so
    that every product and sum computed from it is a Fraction operation."""
    table = spec.table
    action = {p: Element(table, {k: Fraction(c) for k, c in v.terms.items()})
              for p, v in spec.d.action.items()}
    return AlgebroidSpec(table, Derivation(table, (0, 1), action))


def rescaled(spec, scales):
    """The spec in the basis scales[g] * g of its odd generators over a
    point: d(s_k g_k) = s_k d(g_k), rewritten in the new basis."""
    table = spec.table
    action = {}
    for g in table.gens:
        terms = {}
        for (even, odd), c in spec.d.value(g).terms.items():
            terms[(even, odd)] = c * Fraction(scales[g.position])
            for p in odd_tuple(odd):
                terms[(even, odd)] /= scales[p]
        action[g.position] = Element(table, terms)
    return AlgebroidSpec(table, Derivation(table, (0, 1), action))


def rational_specs():
    """Three specs with non-integral coefficients: sl(2) with
    [s1, s2] = s3 / 2 and gl(3) in a rescaled basis, both read from DSL
    text; and the cotangent prolongation of the rank-2 bundle of Lie
    algebras over a line with [s1, s2] = (x / 2) s1, through
    `constructions`."""
    sl2_half = to_algebroid_spec(parse(
        "algebroid sl2half degree 0\nodd xi weight 0 dim 3\n"
        "d xi[1] = 2*xi[1]*xi[3]\nd xi[2] = -2*xi[2]*xi[3]\n"
        "d xi[3] = -1/2*xi[1]*xi[2]\n"))
    gl3 = rescaled(gl_spec(3), [Fraction(k + 2, 3) for k in range(9)])
    gl3 = to_algebroid_spec(parse(print_document(document_from_spec("gl3q", gl3))))
    table = GeneratorTable([("x", "base", 0, 1), ("y", "odd_fiber", 0, 2)])
    bundle = AlgebroidSpec.from_tables(
        table, {}, {(("y", 1), ("y", 2), ("y", 1)): Fraction(1, 2) * table.gen("x")})
    return [sl2_half, gl3, cotangent_prolongation(bundle)]


def outputs(spec):
    """What the pipeline computes from a spec: elements as the CLI prints
    them, matrices and Betti numbers as values."""
    gens = [spec.table.gen(g.name, g.index) for g in spec.table.gens]
    out = {"d2": {g: str(r) for g, r in is_homological(spec.d).residuals.items()},
           "d": [str(apply(spec.d, g * h)) for g in gens for h in gens]}
    for i in range(1, spec.degree + 1):
        comp = extract_components(spec, i)
        out[f"blocks {i}"] = {p: {k: str(v) for k, v in blk.items()}
                              for p, blk in comp.blocks.items()}
        out[f"cascade {i}"] = {p: {k: str(v) for k, v in level.items()}
                               for p, level in flatness_cascade(comp).residuals.items()}
    for i in range(spec.degree + 1):
        for cap in (0, 1, 2):
            try:
                c = build_complex(spec, i, cap)
            except CapClosureError as exc:
                out[f"complex {i} {cap}"] = str(exc)
                continue
            out[f"complex {i} {cap}"] = (c.dims, c.matrices, betti(c))
    return out


def test_rational_specs_match_fraction_only_run():
    seen = []
    for spec in rational_specs():
        assert any(type(c) is Fraction and c.denominator > 1
                   for v in spec.d.action.values() for c in coefficients(v))
        oracle = fraction_only(spec)
        gens = [spec.table.gen(g.name, g.index) for g in spec.table.gens]
        seen += [c for g in gens for h in gens for c in coefficients(apply(oracle.d, g * h))]
        assert outputs(spec) == outputs(oracle)
    # the oracle computes with Fractions only
    assert seen and all(type(c) is Fraction for c in seen)
    sl2_half, gl3, _ = rational_specs()
    assert betti(build_complex(sl2_half, 0)) == [1, 0, 0, 1]
    assert betti(build_complex(gl3, 0)) == poincare_betti([1, 3, 5])


MODES = ("ordered", "reversed", "repeat", "any", "empty", "one")


def term_odd(rng, mono_odd, mode):
    """A term's odd part that, in the product, follows the monomial's odd
    part in order ("ordered"), precedes it ("reversed"), shares a factor
    with it ("repeat"), falls anywhere else ("any") or is empty; or one
    factor anywhere, the monomial's own factors included ("one"), which
    `_mul_into` signs without a parity mask."""
    free = [p for p in range(4, 20) if p not in mono_odd]
    if mode == "one":
        return 1 << rng.choice(free + mono_odd)
    above = [p for p in free if not mono_odd or p > mono_odd[-1]]
    below = [p for p in free if not mono_odd or p < mono_odd[0]]
    pool = {"ordered": above, "reversed": below, "repeat": free, "any": free,
            "empty": []}[mode]
    odd = set(rng.sample(pool, rng.randint(1 if pool else 0, min(3, len(pool)))))
    if mode == "repeat" and mono_odd:
        odd.add(rng.choice(mono_odd))
    return odd_mask(odd)


def product_by_sorting(acc, coeff, mono, terms):
    """Reference for `_mul_into`: concatenate the odd parts in product
    order, drop a repeat, sign by counting inversions, then sort."""
    out = dict(acc)
    for (even, odd), c in terms.items():
        factors = odd_tuple(mono[1]) + odd_tuple(odd)
        if len(set(factors)) < len(factors):
            continue
        inversions = sum(a > b for a, b in combinations(factors, 2))
        exponents = Counter(dict(mono[0]))
        exponents.update(dict(even))
        key = (tuple(sorted(exponents.items())), odd_mask(factors))
        out[key] = out.get(key, 0) + (-1) ** inversions * coeff * c
    return out


def even_part(rng):
    return tuple(sorted((p, rng.randint(1, 3)) for p in rng.sample(range(4), rng.randint(0, 2))))


def scalar(rng, integral):
    n = rng.choice([-3, -2, -1, 1, 2, 3])
    return n if integral else Fraction(n, rng.choice([1, 2, 3]))


@BOUNDED
@given(st.randoms(use_true_random=False), st.booleans())
def test_mul_into_matches_sort_and_count(rng, integral):
    mono_odd = sorted(rng.sample(range(7, 17), rng.randint(0, 4)))
    mono = (even_part(rng), odd_mask(mono_odd))
    terms = {}
    # every other draw has a one-factor odd part
    for n in range(rng.randint(1, 6)):
        odd = term_odd(rng, mono_odd, "one" if n & 1 else rng.choice(MODES))
        terms[(even_part(rng), odd)] = scalar(rng, integral)
    coeff = scalar(rng, integral)
    # twice, so that the second call adds onto the entries of the first
    want = product_by_sorting({}, coeff, mono, terms)
    want = product_by_sorting(want, coeff, mono, terms)
    acc = {}
    _mul_into(acc, coeff, mono, terms)
    _mul_into(acc, coeff, mono, terms)
    assert {k: v for k, v in acc.items() if v} == {k: v for k, v in want.items() if v}
    if integral:
        assert all(type(v) is int for v in acc.values())


def big_entry(rng, kind):
    """A large nonzero entry: an int, a non-integral Fraction, or either
    (also a Fraction with denominator 1) for "mixed"."""
    n = rng.choice([-1, 1]) * rng.randint(1, 10 ** 24)
    if kind == "mixed":
        kind = rng.choice(["int", "rational", "integral fraction"])
    if kind == "int":
        return n
    if kind == "integral fraction":
        return Fraction(n)
    return Fraction(n, rng.randint(2, 10 ** 15))


def test_rank_large_integer_mixed_and_rational_columns():
    """Columns are combinations of a few sparse random columns, so ranks
    below full occur; the input columns are left as they were."""
    rng = random.Random(73)
    for kind in ("int", "mixed", "rational"):
        ranks = set()
        for _ in range(40):
            rows = rng.randint(1, 5)
            basis = [{r: big_entry(rng, kind)
                      for r in rng.sample(range(rows), rng.randint(1, rows))}
                     for _ in range(rng.randint(1, 4))]
            columns = []
            for _ in range(rng.randint(1, 5)):
                column = {}
                for b in rng.sample(basis, rng.randint(1, len(basis))):
                    f = big_entry(rng, kind)
                    for r, c in b.items():
                        column[r] = column.get(r, 0) + f * c
                columns.append({r: c for r, c in column.items() if c})
            before = [dict(c) for c in columns]
            got = rank(columns)
            assert got == brute_force_rank(to_dense(columns, rows))
            assert columns == before
            ranks.add((got, got == min(rows, len(columns))))
        assert any(not full for _r, full in ranks)
