import itertools
import random
from fractions import Fraction
from math import comb, factorial

import pytest

from gradedlie.algebra import Element, GeneratorTable
from gradedlie.algebroid import AlgebroidSpec, check_structure_equations
from gradedlie.cohomology import FiniteComplex, _pivots
from gradedlie.derivations import HomologicalReport, make_derivation
from gradedlie.weight_modules import Monomials


@pytest.fixture
def rng():
    return random.Random(20260823)


def random_coeff(rng, zero_bias=0.3):
    if rng.random() < zero_bias:
        return Fraction(0)
    return Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice([1, 1, 2]))


def random_poly(rng, table, degree=2, zero_bias=0.5):
    """Random polynomial in the base generators, total degree <= degree."""
    base = table.base_generators()
    out = table.scalar(random_coeff(rng, zero_bias))
    for _ in range(degree):
        c = random_coeff(rng, zero_bias)
        if c and base:
            term = table.scalar(c)
            for _ in range(rng.randint(1, degree)):
                g = rng.choice(base)
                term = term * table.gen(g.name, g.index)
            out = out + term
    return out


def random_element(rng, table, terms=4, max_exp=2):
    """Random element: sum of random monomials in all generators."""
    evens = table.even_generators()
    odds = table.odd_generators()
    out = table.zero()
    for _ in range(terms):
        term = table.scalar(random_coeff(rng, zero_bias=0.0))
        for g in evens:
            e = rng.randint(0, max_exp) if rng.random() < 0.5 else 0
            for _ in range(e):
                term = term * table.gen(g.name, g.index)
        for g in odds:
            if rng.random() < 0.4:
                term = term * table.gen(g.name, g.index)
        out = out + term
    return out


def odd_tuple(mask):
    """Reference for `algebra.odd_positions`: the positions of the set bits
    of an odd mask, in increasing order, read one bit at a time."""
    return tuple(p for p in range(mask.bit_length()) if mask >> p & 1)


def odd_mask(positions):
    """The odd mask with a bit at each of `positions`."""
    mask = 0
    for p in positions:
        mask |= 1 << p
    return mask


def tuple_key(key):
    """A monomial key with its odd mask as a position tuple: the format
    whose plain order is the order keys sort and print in."""
    even, odd = key
    return even, odd_tuple(odd)


def structure_by_tables(spec):
    """Oracle for `check_structure_equations`: the structure equations
    evaluated on the anchor and bracket tables read back through
    `anchor_coeff` and `bracket_coeff`, with rho(s_I) = sum_B Q_I^B d/dX^B.
    Returns (residuals, checked) in the report's shape.

    Anchor, on I < J and an even A: [rho(s_I), rho(s_J)] X^A minus
    rho([s_I, s_J]) X^A.  Jacobi, on I < J < L and an odd K: the K-component
    of [[s_I, s_J], s_L] + cyclic, where [s_P, f s_M] = f [s_P, s_M] +
    rho(s_P)(f) s_M gives -sum over cyclic (P, Q, R) of
    rho(s_P) Q_QR^K + sum_M Q_PM^K Q_QR^M."""
    table = spec.table
    odds = table.odd_generators()
    evens = table.even_generators()
    anchor = {(I, A): spec.anchor_coeff(I, A) for I in odds for A in evens}
    bracket = {(I, J, K): spec.bracket_coeff(I, J, K)
               for I in odds for J in odds for K in odds}

    def rho(P, f):
        return sum((anchor[P, B] * f.partial_derivative(B) for B in evens), table.zero())

    residuals = {"anchor": {}, "jacobi": {}}
    checked = {"anchor": 0, "jacobi": 0}
    for I, J in itertools.combinations(odds, 2):
        for A in evens:
            checked["anchor"] += 1
            r = rho(I, anchor[J, A]) - rho(J, anchor[I, A])
            for K in odds:
                r = r - bracket[I, J, K] * anchor[K, A]
            if not r.is_zero():
                residuals["anchor"][f"({I},{J})->{A}"] = r
    for triple in itertools.combinations(odds, 3):
        for K in odds:
            checked["jacobi"] += 1
            r = table.zero()
            for n in range(3):
                P, Q, R = triple[n], triple[(n + 1) % 3], triple[(n + 2) % 3]
                r = r - rho(P, bracket[Q, R, K])
                for M in odds:
                    r = r - bracket[P, M, K] * bracket[Q, R, M]
            if not r.is_zero():
                residuals["jacobi"]["({},{},{})->{}".format(*triple, K)] = r
    return residuals, checked


def tokenize_by_loop(text):
    """Oracle for `dsl.tokenize`: a character loop that counts lines and
    columns as it goes.  Returns (tokens, error): each token as (text,
    line, column), the end of input as ("", line, column), and the message
    of the first unexpected character with its position, or None.  A
    comment does not advance the column, so an end of input after a
    trailing comment with no newline sits where the comment starts."""
    tokens = []
    line, col = 1, 1
    n = 0
    while n < len(text):
        ch = text[n]
        if ch == "\n":
            line += 1
            col = 1
            n += 1
            continue
        if ch in " \t\r":
            n += 1
            col += 1
            continue
        if ch == "#":
            while n < len(text) and text[n] != "\n":
                n += 1
            continue
        m = n + 1
        if ch in "0123456789":
            while m < len(text) and text[m] in "0123456789":
                m += 1
        elif ch.isalpha() or ch == "_":
            while m < len(text) and (text[m].isalnum() or text[m] == "_"):
                m += 1
        elif ch not in "+-*^/()[]=":
            return tokens, f"unexpected character {ch!r} (line {line}, column {col})"
        tokens.append((text[n:m], line, col))
        col += m - n
        n = m
    tokens.append(("", line, col))
    return tokens, None


def assert_structure_matches_tables(spec):
    """`check_structure_equations` agrees with the table oracle: verdict,
    labels and values of both families, and the label counts; and its
    verdict is d^2 = 0."""
    report = check_structure_equations(spec)
    residuals, checked = structure_by_tables(spec)
    assert report.passed == spec.homological.ok == (not any(residuals.values()))
    assert report.checked == checked
    for family, want in residuals.items():
        assert list(report.residuals[family]) == list(want), family
        assert report.residuals[family] == want, family
    return report


def algebra_map(table, images):
    """Algebra endomorphism from generator images {position: Element}."""
    def apply(e):
        out = table.zero()
        for (even, odd), c in e.terms.items():
            term = table.scalar(c)
            for pos, exp in even:
                img = images.get(pos, Element(table, {(((pos, 1),), 0): Fraction(1)}))
                for _ in range(exp):
                    term = term * img
            for pos in odd_tuple(odd):
                img = images.get(pos, Element(table, {((), 1 << pos): Fraction(1)}))
                term = term * img
            out = out + term
        return out
    return apply


def unipotent_twist(rng, spec, poly_degree=1):
    """Conjugate the differential by a random unipotent change of odd basis
    with polynomial coefficients in the base, mixing odd generators of equal
    weight.  Preserves d^2 = 0, scrambles the tables."""
    table = spec.table
    odds = table.odd_generators()
    fwd = {}
    for n, g in enumerate(odds):
        img = table.gen(g.name, g.index)
        for h in odds[n + 1:]:
            if h.h_weight != g.h_weight:
                continue
            c = random_poly(rng, table, degree=poly_degree, zero_bias=0.5)
            img = img + c * table.gen(h.name, h.index)
        fwd[g.position] = img
    inv = {}
    for g in reversed(odds):
        img = table.gen(g.name, g.index)
        extra = fwd[g.position] - img
        back = table.zero()
        for (even, odd), c in extra.terms.items():
            term = Element(table, {(even, 0): c})
            for pos in odd_tuple(odd):
                term = term * inv.get(pos, Element(table, {((), 1 << pos): Fraction(1)}))
            back = back + term
        inv[g.position] = img - back
    phi = algebra_map(table, fwd)
    phi_inv = algebra_map(table, inv)
    action = {g: phi_inv(spec.d(phi(table.gen(g.name, g.index)))) for g in table.gens}
    return AlgebroidSpec(table, make_derivation(table, (0, 1), action))


def random_degree0_tables(rng, max_base=2, max_rank=3):
    """Random anchor/bracket tables over a random degree-0 chart.  Usually
    fails the structure equations; used for agreement testing."""
    nb = rng.randint(0, max_base)
    r = rng.randint(1, max_rank)
    decls = []
    if nb:
        decls.append(("x", "base", 0, nb))
    decls.append(("y", "odd_fiber", 0, r))
    table = GeneratorTable(decls)
    anchor = {}
    for a in range(1, nb + 1):
        for i in range(1, r + 1):
            p = random_poly(rng, table, degree=2, zero_bias=0.6)
            if not p.is_zero():
                anchor[(("x", a), ("y", i))] = p
    bracket = {}
    for i in range(1, r + 1):
        for j in range(i + 1, r + 1):
            for k in range(1, r + 1):
                p = random_poly(rng, table, degree=2, zero_bias=0.7)
                if not p.is_zero():
                    bracket[(("y", i), ("y", j), ("y", k))] = p
    return table, anchor, bracket


def brute_force_w_dim(table, i, j):
    """Count bi-weight (i, j) monomials in positive-weight generators by
    direct enumeration (independent of Monomials)."""
    from itertools import combinations
    evens = [g for g in table.even_generators() if g.h_weight > 0]
    odds = [g for g in table.odd_generators() if g.h_weight > 0]
    count = 0
    for subset in combinations(range(len(odds)), j):
        odd_w = sum(odds[n].h_weight for n in subset)
        if odd_w > i:
            continue
        count += _count_even(evens, 0, i - odd_w)
    return count


def _count_even(evens, idx, weight):
    if weight == 0:
        return 1
    if idx == len(evens):
        return 0
    total = 0
    w = evens[idx].h_weight
    for e in range(weight // w + 1):
        total += _count_even(evens, idx + 1, weight - e * w)
    return total


def brute_force_monomials(table, i, cap=0, torus=None, positive=False):
    """Oracle for `weight_modules.Monomials`: {form degree j: keys sorted
    with their odd parts as position tuples} of the monomials of h-weight i
    and base degree <= cap, in positive-weight generators only when
    `positive`, of zero weight under every operator of `torus` (position ->
    weights; missing positions weigh zero).  Every
    exponent vector in range is tried by itertools.product and filtered.
    A negative cap counts as 0."""
    cap = max(cap, 0)
    gens = [g for g in table.gens if g.h_weight <= i and (g.h_weight or not positive)]
    ranges = [range(2) if g.form_degree else range(cap + 1) if g.kind == "base"
              else range(i // g.h_weight + 1) for g in gens]
    r = len(next(iter(torus.values()), ())) if torus else 0
    out = {}
    for exps in itertools.product(*ranges):
        if sum(e * g.h_weight for g, e in zip(gens, exps)) != i:
            continue
        if sum(e for g, e in zip(gens, exps) if g.kind == "base") > cap:
            continue
        if any(sum(e * torus.get(g.position, (0,) * r)[n] for g, e in zip(gens, exps))
               for n in range(r)):
            continue
        even = tuple((g.position, e) for g, e in zip(gens, exps) if e and not g.form_degree)
        odd = tuple(g.position for g, e in zip(gens, exps) if e and g.form_degree)
        out.setdefault(len(odd), []).append((even, odd))
    return {j: [(even, odd_mask(odd)) for even, odd in sorted(keys)]
            for j, keys in out.items()}


def projector_by_derivative(e, k):
    """Oracle for the weight-k homogenization projector: (1/k!) d^k/dt^k at
    t=0 of the pullback h_t^* e, computed formally.

    h_t^* e = sum_w t^w e_w; the k-th t-derivative at 0 keeps the w = k term
    with coefficient k!."""
    table = e.table
    out = {}
    for key, c in e.terms.items():
        w = table.key_bi_weight(key).h_weight
        if w < k:
            continue
        coeff = Fraction(1)
        for n in range(k):          # falling factorial w(w-1)...(w-k+1)
            coeff *= (w - n)
        if w > k:                    # t^(w-k) evaluated at t = 0
            continue
        out[key] = c * coeff / factorial(k)
    return Element(table, out)


def h_pullback(e, t):
    """Scale every term of h-weight w by t**w."""
    t = Fraction(t)
    return Element(e.table, {k: c * t ** e.table.key_bi_weight(k).h_weight
                             for k, c in e.terms.items()})


def apply_by_factors(D, e):
    """Oracle for the Leibniz extension D(uv) = D(u)v + (-1)^(b_D |u|) u D(v),
    by Element arithmetic: each factor of each monomial, in canonical order,
    contributes prefix * D(factor) * suffix with the sign of D passing the
    prefix."""
    table = e.table
    b = D.bi_degree[1]
    out = table.zero()
    for (even, odd), c in e.terms.items():
        factors = list(even) + [(p, None) for p in odd_tuple(odd)]
        prefix_fd = 0
        for n, (p, exp) in enumerate(factors):
            dv = D.action.get(p)
            if dv is not None and not dv.is_zero():
                sign = -1 if b * prefix_fd % 2 else 1
                prefix = _factor_monomial(table, factors[:n])
                suffix = _factor_monomial(table, factors[n + 1:])
                if exp is None:          # odd factor
                    middle = dv
                else:                     # even factor g^exp
                    middle = dv * exp
                    if exp > 1:
                        middle = middle * _factor_monomial(table, [(p, exp - 1)])
                out = out + (prefix * middle * suffix) * (c * sign)
            prefix_fd += table.gens[p].form_degree
    return out


def _factor_monomial(table, factors):
    even = tuple(sorted((p, e) for p, e in factors if e is not None))
    odd = odd_mask(p for p, e in factors if e is None)
    return Element(table, {(even, odd): Fraction(1)})


def random_derivation(rng, table, bi_degree, cap=2):
    """Random derivation of the given bi-degree: each generator's value is a
    random combination of the monomials of its shifted bi-weight (base
    degree <= cap)."""
    a, b = bi_degree
    action = {}
    for g in table.gens:
        i, j = g.h_weight + a, g.form_degree + b
        if i < 0 or j < 0 or rng.random() < 0.3:
            continue
        keys = Monomials(table, i, cap).basis(j)
        chosen = rng.sample(keys, min(len(keys), rng.randint(1, 4)))
        action[g] = Element(table, {k: random_coeff(rng, zero_bias=0.0) for k in chosen})
    return make_derivation(table, bi_degree, action)


def mutate_coefficient(rng, spec):
    """Perturb one coefficient of one differential assignment."""
    table = spec.table
    targets = [g for g in table.gens if spec.d.value(g).terms]
    g = rng.choice(targets)
    v = spec.d.value(g)
    key = rng.choice(sorted(v.terms, key=tuple_key))
    delta = Element(table, {key: Fraction(rng.choice([1, 2, 3]))})
    action = {h: spec.d.value(h) for h in table.gens}
    action[g] = v + delta
    return AlgebroidSpec(table, make_derivation(table, (0, 1), action))


def to_dense(columns, rows):
    """Dense rows x len(columns) matrix of a column-sparse one."""
    dense = [[Fraction(0)] * len(columns) for _ in range(rows)]
    for col, column in enumerate(columns):
        for row, c in column.items():
            dense[row][col] = c
    return dense


def brute_force_rank(matrix):
    """Rank by enumerating square minors with permutation-expansion
    determinants.  Only for small matrices."""
    from itertools import combinations, permutations
    if not matrix or not matrix[0]:
        return 0
    rows, cols = len(matrix), len(matrix[0])
    for size in range(min(rows, cols), 0, -1):
        for rsel in combinations(range(rows), size):
            for csel in combinations(range(cols), size):
                det = Fraction(0)
                for perm in permutations(range(size)):
                    sign = 1
                    for a in range(size):
                        for b in range(a + 1, size):
                            if perm[a] > perm[b]:
                                sign = -sign
                    prod = Fraction(1)
                    for a in range(size):
                        prod *= matrix[rsel[a]][csel[perm[a]]]
                    det += sign * prod
                if det != 0:
                    return size
    return 0


def random_chart(rng, degree=None, max_dim=3):
    """Random generator table of degree 1..4 with random block dims."""
    k = degree if degree is not None else rng.randint(1, 4)
    decls = []
    if rng.random() < 0.5:
        decls.append(("x", "base", 0, rng.randint(1, 2)))
    if rng.random() < 0.5:
        decls.append(("y", "odd_fiber", 0, rng.randint(1, 2)))
    for w in range(1, k + 1):
        de = rng.randint(0, max_dim) if w < k else rng.randint(1, max_dim)
        do = rng.randint(0, max_dim)
        if de:
            decls.append((f"z{w}", "even_fiber", w, de))
        if do:
            decls.append((f"w{w}", "odd_fiber", w, do))
    if not any(kind == "even_fiber" and w == k for _n, kind, w, _d in decls):
        decls.append((f"z{k}", "even_fiber", k, 1))
    return GeneratorTable(decls)


def full_complex(spec, i, cap=4):
    """Oracle for `build_complex` without the torus reduction: every
    monomial of every sector of the weight-i subcomplex, trailing empty
    sectors dropped."""
    point = not spec.table.base_generators()
    monomials = Monomials(spec, i, cap)
    bases = [monomials.basis(j) for j in range(len(spec.table.odd_generators()) + 2)]
    while len(bases) > 1 and not bases[-1]:
        bases.pop()
    return FiniteComplex(spec, i, bases, None if point else cap)


def count_d_squared(monkeypatch):
    """A list that grows by one at every evaluation of d^2, wherever it
    happens and through whatever name: each builds one HomologicalReport."""
    calls = []
    new = HomologicalReport.__new__

    def counting(cls, *args, **kwargs):
        report = new(cls, *args, **kwargs)
        calls.append(report)
        return report

    monkeypatch.setattr(HomologicalReport, "__new__", counting)
    return calls


def all_columns(c):
    """Every column of every differential of a FiniteComplex, sector by
    sector: all_columns(c)[j] is d_j, from sector j to sector j + 1."""
    return [c.columns(j) for j in range(len(c.dims))]


def cleared_ranks(columns):
    """The ranks `betti` takes: each d_j without the columns whose index is
    a pivot row of d_(j-1)."""
    ranks, cleared = [], ()
    for m in columns:
        cleared = _pivots(m, cleared)
        ranks.append(len(cleared))
    return ranks


def betti_by_every_column(c):
    """Oracle for `betti` on a complex with d^2 = 0: every column of every
    sector built first, in sector order, raising the CapClosureError of the
    first that leaves the cap; then the ranks taken with clearing."""
    ranks = cleared_ranks(all_columns(c))
    return [dim - ranks[j] - (ranks[j - 1] if j else 0) for j, dim in enumerate(c.dims)]


def is_closed(c):
    """Oracle for closure: consecutive differentials of a FiniteComplex
    compose to zero."""
    matrices = all_columns(c)
    for first, second in zip(matrices, matrices[1:]):
        for column in first:
            image = {}
            for k, a in column.items():
                for row, b in second[k].items():
                    image[row] = image.get(row, 0) + a * b
            if any(image.values()):
                return False
    return True


def gl_spec(n, perm=None):
    """gl(n) over a point, [E_ij, E_kl] = delta_jk E_il - delta_li E_kj, with
    E_ij dual to xi[perm[n(i-1)+j-1]] (the identity labelling by default)."""
    from gradedlie.constructions import weighted_lie_algebra
    perm = perm or list(range(1, n * n + 1))
    table = GeneratorTable([("xi", "odd_fiber", 0, n * n)])
    e = lambda i, j: ("xi", perm[n * (i - 1) + j - 1])
    bracket = {}
    for i, j, k, l in itertools.product(range(1, n + 1), repeat=4):
        if (i, j) >= (k, l):
            continue
        if j == k:
            bracket[(e(i, j), e(k, l), e(i, l))] = 1
        if l == i:
            bracket[(e(i, j), e(k, l), e(k, j))] = -1
    return weighted_lie_algebra(table, {}, bracket)


def matrix_lie_algebra(basis):
    """The Lie algebra over a point spanned by `basis`, a list of square
    rational matrices (lists of rows) closed under the commutator, with
    basis[k - 1] dual to xi[k].  Each [A, B] = AB - BA is written in the
    basis by exact elimination on the flattened matrices."""
    from gradedlie.constructions import weighted_lie_algebra
    # echelon rows (pivot entry, row, the row as a combination of the basis):
    # each row is zero at the pivot entries of the rows before it
    echelon = []

    def reduce(row):
        """The row less its part in the span of the echelon rows, and that
        part as a combination of the basis."""
        coords = {}
        for pivot, other, by in echelon:
            f = row[pivot] / other[pivot]
            if f:
                row = [a - f * b for a, b in zip(row, other)]
                for q, v in by.items():
                    coords[q] = coords.get(q, 0) + f * v
        return row, coords

    for k, m in enumerate(basis):
        row, coords = reduce([Fraction(v) for line in m for v in line])
        pivot = next(n for n, v in enumerate(row) if v)   # StopIteration: dependent
        echelon.append((pivot, row, {k: 1, **{q: -v for q, v in coords.items()}}))
    n = len(basis[0])
    bracket = {}
    for a, b in itertools.combinations(range(len(basis)), 2):
        A, B = basis[a], basis[b]
        rest, coords = reduce([sum(Fraction(A[r][k]) * B[k][s] - Fraction(B[r][k]) * A[k][s]
                                   for k in range(n)) for r in range(n) for s in range(n)])
        assert not any(rest), "the basis is not closed under the commutator"
        for q, v in coords.items():
            if v:
                bracket[(("xi", a + 1), ("xi", b + 1), ("xi", q + 1))] = v
    table = GeneratorTable([("xi", "odd_fiber", 0, len(basis))])
    return weighted_lie_algebra(table, {}, bracket)


def heisenberg_spec(n):
    """The Heisenberg algebra h_(2n+1) over a point, [X_i, Y_i] = Z, with X_i,
    Y_i and Z dual to xi[i], xi[n+i] and xi[2n+1]."""
    from gradedlie.constructions import weighted_lie_algebra
    table = GeneratorTable([("xi", "odd_fiber", 0, 2 * n + 1)])
    bracket = {(("xi", i), ("xi", n + i), ("xi", 2 * n + 1)): 1 for i in range(1, n + 1)}
    return weighted_lie_algebra(table, {}, bracket)


def heisenberg_betti(n):
    """The Betti numbers of h_(2n+1): C(2n, k) - C(2n, k-2) for k <= n,
    mirrored above n (Santharoubane 1983)."""
    low = [comb(2 * n, k) - (comb(2 * n, k - 2) if k >= 2 else 0) for k in range(n + 1)]
    return low + low[::-1]


def upper_nilpotent_spec(n):
    """n+(gl(n)), the strictly upper triangular n x n matrices over a point,
    [E_ij, E_kl] = delta_jk E_il - delta_li E_kj, with the E_ij (i < j) dual
    to xi[1], xi[2], ... in row order."""
    from gradedlie.constructions import weighted_lie_algebra
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    e = {pair: ("xi", m) for m, pair in enumerate(pairs, 1)}
    table = GeneratorTable([("xi", "odd_fiber", 0, len(pairs))])
    bracket = {}
    for (i, j), (k, l) in itertools.combinations(pairs, 2):
        if j == k:
            bracket[(e[i, j], e[k, l], e[i, l])] = 1
        if l == i:
            bracket[(e[i, j], e[k, l], e[k, j])] = -1
    return weighted_lie_algebra(table, {}, bracket)


def inversion_counts(n):
    """The number of permutations of n letters with k inversions, for each k:
    the coefficients of prod over m <= n of (1 + t + ... + t^(m-1)), the
    Betti numbers of n+(gl(n)) (Kostant 1961)."""
    coeffs = [1]
    for m in range(1, n + 1):
        coeffs = [sum(coeffs[k - s] for s in range(m) if 0 <= k - s < len(coeffs))
                  for k in range(len(coeffs) + m - 1)]
    return coeffs


def poincare_betti(degrees):
    """Coefficients of prod (1 + t^d) over `degrees`."""
    coeffs = [1]
    for d in degrees:
        coeffs = [a + (coeffs[n - d] if n >= d else 0)
                  for n, a in enumerate(coeffs + [0] * d)]
    return coeffs
