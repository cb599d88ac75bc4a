import pathlib
import random
import time
from fractions import Fraction

import pytest

from gradedlie.algebroid import AlgebroidSpec
from gradedlie.cohomology import (CapClosureError, FiniteComplex, _mirrors, _pivots, _torus,
                                  betti, build_complex, rank)
from gradedlie.constructions import (EXAMPLES, abelian_lie_algebra, adjoint_instance,
                                     aff1, algebroid_prolongation, e7_instance, sl2,
                                     tangent_algebroid)
from gradedlie.weight_modules import BasisSizeError, Monomials
from gradedlie.dsl import parse, to_algebroid_spec

from conftest import (all_columns, betti_by_every_column, brute_force_rank, cleared_ranks,
                      count_d_squared, full_complex, gl_spec, heisenberg_betti,
                      heisenberg_spec, inversion_counts, is_closed, matrix_lie_algebra,
                      poincare_betti, to_dense, unipotent_twist, upper_nilpotent_spec)

BROKEN = pathlib.Path(__file__).parent.parent / "specs" / "broken.spec"


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
    assert c.cap is None
    assert c.dims == [1, 2, 1]
    assert betti(c) == [1, 2, 1]


def test_betti_aff1():
    c = build_complex(aff1(), 0)
    assert betti(c) == [1, 1, 0]


def test_betti_sl2():
    c = build_complex(sl2(), 0)
    assert betti(c) == [1, 0, 0, 1]


def test_betti_gl3():
    spec = gl_spec(3)
    assert full_complex(spec, 0).dims == [1, 9, 36, 84, 126, 126, 84, 36, 9, 1]
    c = build_complex(spec, 0)
    assert c.cap is None
    # the diagonal E_11, E_22, E_33 cut each sector to its weight-zero block
    assert c.torus == ("xi[1]", "xi[5]", "xi[9]")
    assert c.dims == [1, 3, 6, 12, 18, 18, 12, 6, 3, 1]
    # H(gl3) = Lambda(e1, e3, e5): Poincare polynomial (1+t)(1+t^3)(1+t^5)
    assert betti(c) == poincare_betti([1, 3, 5]) == [1, 1, 0, 1, 1, 1, 1, 0, 1, 1]


def test_betti_of_build_complex_evaluates_d_squared_once(monkeypatch):
    """The torus reduction and betti share the spec's one d^2 report."""
    calls = count_d_squared(monkeypatch)
    spec = gl_spec(3)
    c = build_complex(spec, 0)
    assert c.torus
    assert betti(c) == poincare_betti([1, 3, 5])
    assert betti(build_complex(spec, 0, cap=2)) == betti(c)
    assert len(calls) == 1


def test_betti_gl4_closed_form():
    c = build_complex(gl_spec(4), 0)
    assert c.torus == ("xi[1]", "xi[6]", "xi[11]", "xi[16]")
    assert sum(c.dims) == 2432 and max(c.dims) == 426
    assert betti(c) == poincare_betti([1, 3, 5, 7])


def test_betti_gl5_closed_form():
    """gl(5) through the torus reduction (247 552 monomials, 35 160 in the
    largest sector), with only the columns clearing keeps built."""
    assert betti(build_complex(gl_spec(5), 0)) == poincare_betti([1, 3, 5, 7, 9])


def unit(n, i, j):
    """The n x n matrix unit E_ij (1-based)."""
    return [[int((r, s) == (i, j)) for s in range(1, n + 1)] for r in range(1, n + 1)]


def sl_basis(n):
    """sl(n): the E_ij with i != j and the E_ii - E_(i+1)(i+1)."""
    basis = [unit(n, i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j]
    for i in range(1, n):
        a, b = unit(n, i, i), unit(n, i + 1, i + 1)
        basis.append([[x - y for x, y in zip(r, s)] for r, s in zip(a, b)])
    return basis


def sp_basis(n):
    """Split sp(2n), the X with X^T J + J X = 0 for J = [[0, 1], [-1, 0]] in
    n x n blocks: [[A, B], [C, -A^T]] with B and C symmetric.  A runs over
    the matrix units in row order, and B and C over the E_ii, then the
    E_ij + E_ji with i < j.  On sp(4) the torus diag(1, 0, -1, 0),
    diag(0, 1, 0, -1) has root weights 1 and 2."""
    def unit2(i, j):
        return [[int((r, s) == (i, j)) for s in range(2 * n)] for r in range(2 * n)]

    def add(a, b):
        return [[x + y for x, y in zip(r, s)] for r, s in zip(a, b)]

    symmetric = [(i, i) for i in range(n)] + [(i, j) for i in range(n) for j in range(i + 1, n)]
    basis = [add(unit2(i, j), [[-x for x in r] for r in unit2(n + j, n + i)])
             for i in range(n) for j in range(n)]
    basis += [unit2(i, n + j) if i == j else add(unit2(i, n + j), unit2(j, n + i))
              for i, j in symmetric]
    basis += [unit2(n + i, j) if i == j else add(unit2(n + i, j), unit2(n + j, i))
              for i, j in symmetric]
    return basis


@pytest.fixture(scope="session")
def sp6():
    """sp(6) from its matrices, its structure constants made once."""
    return matrix_lie_algebra(sp_basis(3))


@pytest.mark.parametrize("basis, rank_t, degrees", [
    (sl_basis(3), 2, [3, 5]),
    (sl_basis(4), 3, [3, 5, 7]),
    (sp_basis(2), 2, [3, 7]),
], ids=["sl3", "sl4", "sp4"])
def test_betti_matrix_lie_algebras_closed_form(basis, rank_t, degrees):
    """sl(3), sl(4) and sp(4) from their matrices: the Poincare polynomial
    of a compact simple Lie algebra is prod (1 + t^(2e + 1)) over its
    exponents e (Chevalley 1950), and its torus is found."""
    c = build_complex(matrix_lie_algebra(basis), 0)
    assert len(c.torus) == rank_t
    assert betti(c) == poincare_betti(degrees)


def test_betti_sp6_closed_form(sp6):
    """sp(6), exponents 1, 3, 5: (1+t^3)(1+t^7)(1+t^11), through the torus
    block (21 odd generators, 4 476 monomials in the largest sector)."""
    c = build_complex(sp6, 0)
    assert len(c.torus) == 3 and max(c.dims) == 4476
    assert betti(c) == poincare_betti([3, 7, 11])


@pytest.mark.parametrize("n", [3, 5, 7])
def test_betti_heisenberg_closed_form(n):
    """h_(2n+1) has no diagonal X, so the full complex is built, every
    column through the Leibniz kernel (h_15: 32 768 monomials)."""
    c = build_complex(heisenberg_spec(n), 0)
    assert c.torus == () and sum(c.dims) == 2 ** (2 * n + 1)
    assert betti(c) == heisenberg_betti(n)


@pytest.mark.parametrize("n", [5, 6])
def test_betti_upper_nilpotent_closed_form(n):
    """n+(gl(n)) has no diagonal X: its b_k is the number of permutations of
    n letters with k inversions (n+(gl(6)): 32 768 monomials)."""
    c = build_complex(upper_nilpotent_spec(n), 0)
    assert c.torus == () and sum(c.dims) == 2 ** (n * (n - 1) // 2)
    assert betti(c) == inversion_counts(n)


def test_cleared_ranks_match_rank_and_brute_force():
    """Clearing keeps every rank: on gl(3) and gl(4) (torus blocks), on
    twisted gl(2) and gl(3) (full complexes) and over a base at two caps,
    against `rank` and, on the small matrices, `brute_force_rank`."""
    rng = random.Random(64)
    complexes = [build_complex(gl_spec(3), 0), build_complex(gl_spec(4), 0)]
    for n in (2, 2, 3):
        twisted = unipotent_twist(rng, gl_spec(n))
        complexes.append(build_complex(twisted, 0))
        assert not complexes[-1].torus
    complexes += [build_complex(adjoint_instance(), 0, cap) for cap in (2, 4)]
    complexes += [build_complex(tangent_algebroid(2), 0, cap) for cap in (2, 4)]
    brute = 0
    for c in complexes:
        matrices = all_columns(c)
        ranks = cleared_ranks(matrices)
        assert ranks == [rank(m) for m in matrices]
        for m, rows, r in zip(matrices, c.dims[1:], ranks):
            if len(m) * rows <= 36:
                assert r == brute_force_rank(to_dense(m, rows))
                brute += 1
    assert brute >= 12


def test_betti_builds_only_the_columns_clearing_keeps(monkeypatch):
    """build_complex builds no column and lists no sector.  Over a point
    and over a base alike, betti builds d_j's columns only at the indices
    that are not pivot rows of d_(j-1); its ranks are `cleared_ranks` over
    every column.  Where Poincare duality holds (over a point at weight 0
    with a one-dimensional top sector n and d_(n-1) = 0), it builds only
    the columns of d_0 ... d_((n-1)//2) and lists only sectors 0 ...
    (n-1)//2 + 1; elsewhere it lists every sector."""
    built, listed = [], []
    column, basis = FiniteComplex._column, Monomials.basis

    def recording(self, key, index, terms):
        built.append(key)
        return column(self, key, index, terms)

    def listing(self, j):
        listed.append(j)
        return basis(self, j)

    monkeypatch.setattr(FiniteComplex, "_column", recording)
    monkeypatch.setattr(Monomials, "basis", listing)
    rng = random.Random(66)
    specs = [gl_spec(3), gl_spec(4), sl2(), aff1(), unipotent_twist(rng, gl_spec(3)),
             adjoint_instance(), e7_instance()]
    skipped, skipped_over_base, mirrored = 0, [], 0
    for spec in specs:
        built.clear()
        listed.clear()
        c = build_complex(spec, 0)
        assert not built and not listed
        every = build_complex(spec, 0)
        matrices = all_columns(every)
        n = len(c.dims) - 1
        dual = c.cap is None and c.dims[-1] == 1 and not any(matrices[n - 1])
        mirrored += dual
        reduced = (n + 1) // 2 if dual else n
        ranks = cleared_ranks(matrices)
        kept, cleared = [], ()
        for keys, m in zip(every.sector_bases[:reduced], matrices):
            kept += [key for k, key in enumerate(keys) if k not in cleared]
            cleared = _pivots(m, cleared)
        built.clear()
        listed.clear()
        assert betti(c) == [dim - ranks[j] - (ranks[j - 1] if j else 0)
                            for j, dim in enumerate(c.dims)]
        assert built == kept
        assert sorted(listed) == list(range(reduced + 1))
        skipped += sum(c.dims[:-1]) - len(kept)
        if c.cap is not None:
            skipped_over_base.append(sum(c.dims[:-1]) - len(kept))
    # gl(3), gl(4), sl(2) and twisted gl(3); not aff(1) or a base
    assert mirrored == 4
    assert skipped > 1000
    # adjoint and e7 at weight 0: 4 of 15 and 14 of 45 columns
    assert skipped_over_base == [4, 14]


def test_poincare_duality_matches_every_rank():
    """Where betti mirrors the upper ranks, on gl(3) relabelled by seeded
    shuffles and on twists of sl(2), it gives the Betti numbers of the
    full complex with every column built and reduced."""
    rng = random.Random(69)
    specs = [gl_spec(3, rng.sample(range(1, 10), 9)) for _ in range(3)]
    specs += [unipotent_twist(rng, sl2()) for _ in range(4)]
    for spec in specs:
        c = build_complex(spec, 0)
        assert _mirrors(c, c.dims)
        assert betti(c) == betti_by_every_column(full_complex(spec, 0))


def test_betti_reads_no_spec_scan(monkeypatch):
    """betti reads the traces that build_complex found in its one `_torus`
    pass and scans the spec no more; a complex made without its traces
    takes every rank."""
    c = build_complex(gl_spec(3), 0)
    full = full_complex(gl_spec(3), 0)

    def scan(spec):
        raise AssertionError("betti scanned the spec")

    monkeypatch.setattr("gradedlie.cohomology._torus", scan)
    assert _mirrors(c, c.dims) and not _mirrors(full, full.dims)
    assert betti(c) == betti(full) == poincare_betti([1, 3, 5])


def test_betti_aff1_full_complex_is_not_mirrored():
    """aff(1) is not unimodular: d_1 is not zero, and its Betti numbers are
    not the mirror image of its dimensions.  They break Poincare duality,
    which `test_betti_numbers_satisfy_poincare_duality` checks on the
    unimodular cases."""
    c = full_complex(aff1(), 0)
    assert c.dims == [1, 2, 1]
    b = betti(c)
    assert b == [1, 1, 0] and b != b[::-1]


UNIMODULAR = {
    "gl3": lambda: gl_spec(3),
    "sl3": lambda: matrix_lie_algebra(sl_basis(3)),
    "sp4": lambda: matrix_lie_algebra(sp_basis(2)),
    "h7": lambda: heisenberg_spec(3),
    "n4": lambda: upper_nilpotent_spec(4),
    "gl3-twist": lambda: unipotent_twist(random.Random(10), gl_spec(3)),
}


@pytest.mark.parametrize("name", sorted(UNIMODULAR))
def test_betti_numbers_satisfy_poincare_duality(name):
    """Poincare duality, b_j = b_(n-j), on unimodular Lie algebras over a
    point: a complex made without its traces takes every rank, so the
    Betti numbers of its top half are computed, not mirrored."""
    c = full_complex(UNIMODULAR[name](), 0)
    assert not _mirrors(c, c.dims)
    b = betti(c)
    assert b == b[::-1]


def test_betti_over_a_base_matches_building_every_column():
    """Over a base, betti gives the Betti numbers of building every column
    and ranking with clearing, or refuses with the same CapClosureError:
    the first column that leaves the cap is one that clearing keeps.  On
    every base example and four twists of each (two with linear and two
    with quadratic coefficients), at every weight and caps 0..4."""
    rng = random.Random(68)
    specs = [make() for make in EXAMPLES.values()]
    specs = [spec for spec in specs if spec.table.base_generators()]
    assert len(specs) == 5
    specs += [unipotent_twist(rng, spec, degree) for spec in specs[:5] for degree in (1, 1, 2, 2)]
    cases = refused = 0
    for spec in specs:
        for i in range(spec.degree + 1):
            for cap in range(5):
                c = build_complex(spec, i, cap)
                cases += 1
                try:
                    want = betti_by_every_column(c)
                except CapClosureError as exc:
                    with pytest.raises(CapClosureError) as err:
                        betti(c)
                    assert str(err.value) == str(exc)
                    refused += 1
                else:
                    assert betti(c) == want
    assert refused >= 100 and cases - refused >= 100


def test_gl6_torus_block_refused_in_bounded_time(monkeypatch):
    """The torus DP drops every total that the factors before it cannot
    bring back to torus weight zero, so gl(6) is refused at its first block
    above the size limit in a fraction of the time and state count that
    the unpruned DP took (7.8 s and 6.7 M states).  Every sector is counted
    before any is listed, so no monomial is listed."""
    def no_listing(*_args):
        raise AssertionError("a sector was listed before the oversized one was counted")
    monkeypatch.setattr(Monomials, "_walk", no_listing)
    spec = gl_spec(6)
    start = time.perf_counter()
    with pytest.raises(BasisSizeError) as err:
        build_complex(spec, 0)
    assert time.perf_counter() - start < 2
    assert str(err.value) == ("torus block of sector (0,8) has 88260 basis monomials, "
                              "above the limit of 50000")
    # the states of the box prune, the first one included (6 658 302 without it)
    block = Monomials(spec, 0, torus=_torus(spec)[1])
    assert sum(map(len, block._reach)) == 65_742


def test_gl8_torus_block_refused_by_the_state_budget(monkeypatch):
    """gl(8)'s torus block is refused while its DP counts it, once the DP
    has kept more than MAX_DP_STATES states: nothing is listed, and the
    count stops at the budget."""
    def no_listing(*_args):
        raise AssertionError("a sector was listed")
    monkeypatch.setattr(Monomials, "_walk", no_listing)
    with pytest.raises(BasisSizeError) as err:
        build_complex(gl_spec(8), 0)
    assert str(err.value) == ("torus block of sector (0,*) is too large to count: it needs "
                              "more than the budget of 250000 states")


def test_torus_detection_matches_definition():
    """X is diagonal when every i_X(d g) = partial_derivative(d g, X) is a
    multiple of g, not all zero; its weights are those multiples, scaled."""
    rng = random.Random(18)
    specs = [gl_spec(3, rng.sample(range(1, 10), 9)), sl2(), aff1(), abelian_lie_algebra(2),
             algebroid_prolongation(sl2(), [("z", 1, 1), ("u", 2, 1)]),
             to_algebroid_spec(parse(BROKEN.read_text()))]
    specs += [unipotent_twist(rng, make()) for make in (sl2, aff1) for _ in range(4)]
    for spec in specs:
        table = spec.table
        labels, weights, traces = _torus(spec)
        found = []
        for X in table.odd_generators():
            if X.h_weight:
                continue
            scalars = []
            for g in table.gens:
                lx = spec.d.value(g).partial_derivative(X)
                unit = table.gen(g.name, g.index)
                scalar = next(iter(lx.terms.values()), 0)
                scalars.append(scalar if lx == unit * scalar else None)
            if None not in scalars and any(scalars):
                column = [weights[g.position][len(found)] for g in table.gens]
                ratio = next(Fraction(w, c) for w, c in zip(column, scalars) if c)
                assert ratio > 0 and column == [ratio * c for c in scalars]
                found.append(str(X))
        assert labels == tuple(found)
        # tr ad_Y: the coefficient of g in i_Y(d g), summed over the
        # weight-zero odd g; all zero exactly when d_(n-1) = 0 at weight 0
        zero = [g for g in table.odd_generators() if not g.h_weight]
        want = {Y.position: sum(spec.d.value(g).partial_derivative(Y).terms.get(
                    ((), 1 << g.position), 0) for g in zero) for Y in zero}
        assert traces == want
        c = full_complex(spec, 0)
        assert any(want.values()) == any(c.columns(len(c.dims) - 2))


def test_torus_reduction_keeps_betti():
    """The joint weight-zero block has the Betti numbers of the full complex."""
    rng = random.Random(17)
    perms = [rng.sample(range(1, 10), 9) for _ in range(3)]
    cases = [(gl_spec(3, perm), 0, 3) for perm in perms]
    cases += [(sl2(), 0, 1), (aff1(), 0, 1), (abelian_lie_algebra(2), 0, 0)]
    prolonged = algebroid_prolongation(sl2(), [("z", 1, 1), ("u", 2, 1)])
    cases += [(prolonged, 1, 1), (prolonged, 2, 1)]
    for spec, i, rank_t in cases:
        c = build_complex(spec, i)
        assert len(c.torus) == rank_t
        assert betti(c) == betti(full_complex(spec, i))
    # an unchanged d keeps its diagonal generator; a twisted one has none
    for make in (sl2, aff1):
        rng = random.Random(62)
        fallbacks = 0
        for _ in range(8):
            spec = unipotent_twist(rng, make())
            c = build_complex(spec, 0)
            assert betti(c) == betti(full_complex(spec, 0))
            if spec.d != make().d:
                assert c.torus == ()
                assert c.dims == full_complex(spec, 0).dims
                fallbacks += 1
        assert fallbacks


def test_torus_reduction_fallbacks():
    # d^2 != 0: the full complex, and betti refuses it; xi[3] is diagonal,
    # so only the d^2 check keeps the reduction off
    broken = to_algebroid_spec(parse(BROKEN.read_text()))
    assert _torus(broken)[0] == ("xi[3]",)
    c = build_complex(broken, 0)
    assert c.torus == ()
    assert c.dims == full_complex(broken, 0).dims == [1, 3, 3, 1]
    # over a base: the full, truncated complex
    c = build_complex(adjoint_instance(), 0)
    assert c.torus == () and c.cap == 4
    assert c.dims == full_complex(adjoint_instance(), 0).dims
    assert betti(c) == betti(full_complex(adjoint_instance(), 0)) == [1, 1, 0]


def test_betti_invariant_under_twist():
    rng = random.Random(62)
    for _ in range(5):
        spec = unipotent_twist(rng, sl2())
        assert betti(build_complex(spec, 0)) == [1, 0, 0, 1]


def test_truncated_tangent_line():
    # de Rham on the line, truncated at polynomial degree cap
    c = build_complex(tangent_algebroid(1), 0, cap=3)
    assert c.cap == 3
    # kernel of d/dx on polynomials of degree <= 3 is the constants;
    # the image misses the top-degree form
    assert betti(c) == [1, 1]


def test_complex_is_closed():
    for spec in [aff1(), sl2(), abelian_lie_algebra(3), gl_spec(3)]:
        assert is_closed(build_complex(spec, 0))
        assert is_closed(full_complex(spec, 0))


def test_complex_not_closed_when_d_squared_nonzero():
    c = build_complex(to_algebroid_spec(parse(BROKEN.read_text())), 0)
    assert c.dims == [1, 3, 3, 1]
    assert not is_closed(c)
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
    assert c.cap is None
    # d z = w is acyclic in weight 1
    assert betti(c) == [0] * len(c.dims)
