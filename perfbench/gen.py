"""Seeded inputs for the benchmark, built without importing gradedlie.

Everything here is plain Python over `fractions.Fraction`, so a change to
the program cannot change the inputs or the reference answers.  The
generators return spec text in the repository's DSL, plain-data gauge
blocks keyed by generator name and index, and job lists whose references
come from closed forms or hold by construction.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations
from math import comb
from typing import Dict, List, Sequence, Tuple

# Structure constants of a Lie algebra on basis 1..n: {(i, j): {k: c}} for
# i < j, meaning [e_i, e_j] = sum_k c e_k.
Brackets = Dict[Tuple[int, int], Dict[int, Fraction]]

# H*(gl_3) = Lambda(e1, e3, e5): Poincare polynomial (1+t)(1+t^3)(1+t^5).
GL3_BETTI = [1, 1, 0, 1, 1, 1, 1, 0, 1, 1]
# Lie-algebra Betti numbers, kept under a change of basis.
LIE_BETTI = {"sl2": [1, 0, 0, 1], "aff1": [1, 1, 0], "abelian2": [1, 2, 1]}
# W^(i,j) dimensions of the e7 chart (positive weights z:3@1, u:1@2, w:2@1, v:1@2).
E7_DIMS = {1: {"(1,0)": 3, "(1,1)": 2}, 2: {"(2,0)": 7, "(2,1)": 7, "(2,2)": 1}}
# The adjoint spec over a 1-dim base: W^(1,j) from z (dim 2) and p (dim 1).
ADJOINT_DIMS = {1: {"(1,0)": 2, "(1,1)": 1}}
# Canned example names the CLI keeps; every one is homological by construction.
EXAMPLE_NAMES = ["abelian2", "adjoint", "aff1", "e7", "prolongation", "sl2",
                 "tangent-graded", "tangent2"]
# Shipped spec files and whether `check` passes on them.
SHIPPED = {"adjoint": True, "aff1": True, "broken": False, "e7": True, "sl2": True}
SHIPPED_DEGREE = {"adjoint": 1, "aff1": 0, "broken": 0, "e7": 2, "sl2": 0}


# -- Lie algebras by hand -----------------------------------------------------

def gl3_brackets() -> Brackets:
    """[E_ij, E_kl] = delta_jk E_il - delta_li E_kj on the basis E_ij -> 3(i-1)+j."""
    idx = {(i, j): 3 * (i - 1) + j for i in range(1, 4) for j in range(1, 4)}
    out: Brackets = {}
    for (i, j), a in idx.items():
        for (k, l), b in idx.items():
            if a >= b:
                continue
            terms: Dict[int, Fraction] = {}
            if j == k:
                terms[idx[(i, l)]] = terms.get(idx[(i, l)], Fraction(0)) + 1
            if l == i:
                terms[idx[(k, j)]] = terms.get(idx[(k, j)], Fraction(0)) - 1
            terms = {t: c for t, c in terms.items() if c}
            if terms:
                out[(a, b)] = terms
    return out


def sl2_brackets(he: int = 2) -> Brackets:
    """(e, f, h) = (1, 2, 3): [e,f] = h, [h,e] = he*e, [h,f] = -2f.

    he = 2 is sl(2).  The mutant he = 4 breaks Jacobi:
    [h,[e,f]] + [e,[f,h]] + [f,[h,e]] = (2 - he) h != 0."""
    return {(1, 2): {3: Fraction(1)}, (1, 3): {1: Fraction(-he)},
            (2, 3): {2: Fraction(2)}}


def aff1_brackets() -> Brackets:
    """[e_1, e_2] = -e_2, the CE differential d xi2 = xi1 xi2."""
    return {(1, 2): {2: Fraction(-1)}}


def _bracket(br: Brackets, i: int, j: int) -> Dict[int, Fraction]:
    if i == j:
        return {}
    if i < j:
        return br.get((i, j), {})
    return {k: -c for k, c in br.get((j, i), {}).items()}


def permuted(br: Brackets, perm: Sequence[int]) -> Brackets:
    """Relabel basis vector e_a as e_perm[a-1]."""
    out: Brackets = {}
    for (i, j), terms in br.items():
        a, b = perm[i - 1], perm[j - 1]
        new = {perm[k - 1]: c for k, c in terms.items()}
        if a > b:
            a, b = b, a
            new = {k: -c for k, c in new.items()}
        out[(a, b)] = new
    return out


def unipotent(rng: random.Random, n: int, entries: int) -> List[List[Fraction]]:
    """Identity plus `entries` nonzero entries strictly above the diagonal."""
    p = [[Fraction(int(r == c)) for c in range(n)] for r in range(n)]
    slots = [(r, c) for r in range(n) for c in range(r + 1, n)]
    for r, c in rng.sample(slots, min(entries, len(slots))):
        p[r][c] = Fraction(rng.choice([-2, -1, 1, 2]), rng.choice([1, 1, 2]))
    return p


def unipotent_inverse(p: List[List[Fraction]]) -> List[List[Fraction]]:
    """(1 + N)^-1 = sum_k (-N)^k, a finite sum for strictly upper N."""
    n = len(p)
    nil = [[p[r][c] - int(r == c) for c in range(n)] for r in range(n)]
    out = [[Fraction(int(r == c)) for c in range(n)] for r in range(n)]
    term = [row[:] for row in out]
    for _ in range(n):
        term = [[-sum(term[r][k] * nil[k][c] for k in range(n)) for c in range(n)]
                for r in range(n)]
        out = [[out[r][c] + term[r][c] for c in range(n)] for r in range(n)]
    return out


def twisted(br: Brackets, n: int, p: List[List[Fraction]]) -> Brackets:
    """Structure constants in the basis e'_a = sum_i p[i][a] e_i."""
    q = unipotent_inverse(p)
    out: Brackets = {}
    for a in range(1, n + 1):
        for b in range(a + 1, n + 1):
            acc: Dict[int, Fraction] = {}
            for i in range(1, n + 1):
                pia = p[i - 1][a - 1]
                if not pia:
                    continue
                for j in range(1, n + 1):
                    pjb = p[j - 1][b - 1]
                    if not pjb:
                        continue
                    for k, c in _bracket(br, i, j).items():
                        for m in range(1, n + 1):
                            qmk = q[m - 1][k - 1]
                            if qmk:
                                acc[m] = acc.get(m, Fraction(0)) + pia * pjb * c * qmk
            acc = {m: c for m, c in acc.items() if c}
            if acc:
                out[(a, b)] = acc
    return out


def _coeff_term(c: Fraction, body: str, first: bool) -> str:
    mag = abs(c)
    text = body if mag == 1 else f"{mag}*{body}"
    if first:
        return text if c > 0 else f"-{text}"
    return f"+ {text}" if c > 0 else f"- {text}"


def lie_spec_text(name: str, n: int, br: Brackets) -> str:
    """DSL text of the CE differential d xi^k = -sum_{i<j} c_ij^k xi^i xi^j."""
    lines = [f"algebroid {name} degree 0", f"odd xi weight 0 dim {n}"]
    for k in range(1, n + 1):
        terms = [(i, j, -t[k]) for (i, j), t in sorted(br.items()) if t.get(k)]
        if terms:
            body = " ".join(_coeff_term(c, f"xi[{i}]*xi[{j}]", m == 0)
                            for m, (i, j, c) in enumerate(terms))
            lines.append(f"d xi[{k}] = {body}")
    return "\n".join(lines) + "\n"


def relabelled(rng: random.Random, br: Brackets, n: int) -> Brackets:
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    return permuted(br, perm)


# -- the e7 chart and its gauges ----------------------------------------------

# Positive-weight blocks of the e7 chart: (name, weight, dim, odd).
E7_POSITIVE = [("z", 1, 3, False), ("u", 2, 1, False), ("w", 1, 2, True), ("v", 2, 1, True)]
E7_Y = [("y", 1), ("y", 2)]
Factor = Tuple[str, int, int]            # (name, index, exponent)


def w_monomials(blocks, i: int, j: int) -> List[List[Factor]]:
    """Monomials of bi-weight (i, j) in the given positive blocks, by brute force."""
    evens = [(n, k, w) for n, w, d, odd in blocks if not odd for k in range(1, d + 1)]
    odds = [(n, k, w) for n, w, d, odd in blocks if odd for k in range(1, d + 1)]
    out = []
    for sub in combinations(odds, j):
        rest = i - sum(w for _n, _k, w in sub)
        if rest < 0:
            continue
        for exps in _exponents([w for _n, _k, w in evens], rest):
            mono = [(n, k, e) for (n, k, _w), e in zip(evens, exps) if e]
            out.append(mono + [(n, k, 1) for n, k, _w in sub])
    return out


def _exponents(weights: List[int], total: int):
    if not weights:
        if total == 0:
            yield ()
        return
    for e in range(total // weights[0] + 1):
        for rest in _exponents(weights[1:], total - e * weights[0]):
            yield (e,) + rest


def dim_by_count(blocks, i: int) -> Dict[str, int]:
    return {f"({i},{j})": len(w_monomials(blocks, i, j)) for j in range(i + 1)}


def _coeff(rng: random.Random, zero_bias: float) -> Fraction:
    if rng.random() < zero_bias:
        return Fraction(0)
    return Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice([1, 1, 2]))


def e7_gauge_blocks(rng: random.Random, i: int) -> Dict[str, list]:
    """A random unipotent gauge on the weight-i module of the e7 chart.

    Block p sends a W-basis monomial of bi-weight (i, j) to a combination of
    (p weight-zero odd factors) * (W-monomials of bi-weight (i, j - p)).
    Returned as {p: [[key factors, [[num, den, factors], ...]], ...]}."""
    blocks: Dict[str, list] = {}
    for p in range(1, len(E7_Y) + 1):
        entries = []
        for j in range(i + 1):
            if j < p:
                continue
            targets = w_monomials(E7_POSITIVE, i, j - p)
            for key in w_monomials(E7_POSITIVE, i, j):
                terms = []
                for ys in combinations(E7_Y, p):
                    for wk in targets:
                        c = _coeff(rng, 0.6)
                        if c:
                            # y factors first: they precede every W factor
                            factors = [(n, k, 1) for n, k in ys] + wk
                            terms.append([c.numerator, c.denominator, factors])
                if terms:
                    entries.append([key, terms])
        if entries:
            blocks[str(p)] = entries
    return blocks


# -- closed-form cohomology references ------------------------------------------

def polynomial_de_rham_betti(n: int, cap: int) -> List[int]:
    """Betti numbers of polynomial forms on R^n with coefficient degree <= cap.

    d preserves w = coefficient degree + form degree and is exact in each
    w >= 1; the cap keeps form degrees k >= w - cap, so the only class of
    weight w sits at k = w - cap and has the dimension of the exact k-forms
    of the untruncated complex."""
    def forms(k: int, w: int) -> int:
        m = w - k
        return comb(n, k) * comb(m + n - 1, n - 1) if m >= 0 else 0

    out = [1]
    for k in range(1, n + 1):
        w = cap + k
        closed = 0
        for a in range(k):       # Z^k = E^(k-1) - Z^(k-1) in an exact complex
            closed = forms(a, w) - closed
        out.append(closed)
    return out


# The action algebroid of aff(1) on the line (base of the adjoint spec):
# d f = f'(y1 + x y2), d(f y1) = -(x f)' y1 y2, d(f y2) = f' y1 y2, so with
# polynomials of degree <= cap the ranks are cap and cap + 1 at every cap.
ACTION_AFF1_BETTI = [1, 1, 0]


# -- workloads ------------------------------------------------------------------

# Shipped specs are read from the repository's specs/ directory; the worker
# runs inside a per-run directory two levels below the checkout root.
SPECS = "../../specs"
# gl(3) twist positions are fixed, so every seed draws twists of the same
# sparsity and the cost of a twisted check does not drift with the seed;
# the seed picks the values and the relabelling.
GL3_TWIST_SLOTS = [sorted(random.Random(f"gl3-slots-{n}").sample(
    [(r, c) for r in range(9) for c in range(r + 1, 9)], 3)) for n in range(20)]


def _cli(argv: List[str], exit_codes: Sequence[int], answer=None) -> dict:
    return {"argv": argv, "exit": list(exit_codes), "answer": answer}


def _shipped_requests() -> List[List[dict]]:
    """check, decompose, rep and cohomology on the five shipped specs."""
    groups = []
    for name, passes in sorted(SHIPPED.items()):
        path = f"{SPECS}/{name}.spec"
        degree = SHIPPED_DEGREE[name]
        groups.append([_cli(["check", path], [0] if passes else [1],
                            {"status": "ok" if passes else "fail"})])
        if degree == 0:
            groups.append([_cli(["decompose", path, "--weight", "1"], [2])])
            groups.append([_cli(["rep", path, "--weight", "1"], [2])])
        for i in range(1, degree + 1):
            dims = (E7_DIMS if name == "e7" else ADJOINT_DIMS)[i]
            groups.append([_cli(["decompose", path, "--weight", str(i)], [0], {"dims": dims})])
            groups.append([_cli(["rep", path, "--weight", str(i)], [0], {"cascade": True})])
        coh = ["cohomology", path, "--weight", "0"]
        if name == "broken":
            # d^2 != 0: a clean verification or usage error is the right answer
            groups.append([_cli(coh, [1, 2])])
        elif name == "e7":      # weight 0 is the polynomial de Rham complex of R^2
            groups.append([_cli(coh, [0], {"betti": polynomial_de_rham_betti(2, 4),
                                           "truncated": True})])
        elif name == "adjoint":
            groups.append([_cli(coh, [0], {"betti": ACTION_AFF1_BETTI, "truncated": True})])
        else:
            groups.append([_cli(coh, [0], {"betti": LIE_BETTI[name], "truncated": False})])
    return groups


def cli_mix(seed: int) -> Tuple[Dict[str, str], dict]:
    """A seeded mix of short CLI requests; returns (files, job document)."""
    rng = random.Random(f"cli-mix-{seed}")
    files: Dict[str, str] = {}
    groups: List[List[dict]] = []
    for _ in range(3):
        groups.extend(_shipped_requests())
    adjoint = f"{SPECS}/adjoint.spec"
    for _ in range(2):
        for cap in range(2, 9):
            groups.append([_cli(["cohomology", adjoint, "--weight", "0", "--cap", str(cap)],
                                [0], {"betti": ACTION_AFF1_BETTI, "truncated": True})])
    # weight 1 over a base: no cap closes these today; a fibre complex may
    # answer them later, so success is accepted but never an exception
    for path, caps in ((adjoint, (2, 3, 4, 6)), (f"{SPECS}/e7.spec", (2, 4))):
        for cap in caps:
            groups.append([_cli(["cohomology", path, "--weight", "1", "--cap", str(cap)],
                                [0, 2])])
    for _ in range(2):
        for name in EXAMPLE_NAMES:
            out = f"example-{name}.spec"
            groups.append([_cli(["example", name, "-o", out], [0], {"wrote": out}),
                           _cli(["check", out], [0], {"status": "ok"})])
    lie = {"sl2": (3, sl2_brackets(), 2), "aff1": (2, aff1_brackets(), 1),
           "abelian2": (2, {}, 1)}
    for name, (n, br, entries) in sorted(lie.items()):
        for t in range(8):
            path = f"twist-{name}-{t}.spec"
            p = unipotent(rng, n, entries)
            files[path] = lie_spec_text(f"{name}_t{t}", n, twisted(br, n, p))
            groups.append([_cli(["check", path], [0], {"status": "ok"})])
            groups.append([_cli(["cohomology", path, "--weight", "0"], [0],
                                {"betti": LIE_BETTI[name], "truncated": False})])
    for t, slots in enumerate(GL3_TWIST_SLOTS):
        p = [[Fraction(int(r == c)) for c in range(9)] for r in range(9)]
        for r, c in slots:
            p[r][c] = Fraction(rng.choice([-2, -1, 1, 2]), rng.choice([1, 1, 2]))
        path = f"twist-gl3-{t}.spec"
        br = relabelled(rng, twisted(gl3_brackets(), 9, p), 9)
        files[path] = lie_spec_text(f"gl3_t{t}", 9, br)
        groups.append([_cli(["check", path], [0], {"status": "ok"})])
    for t in range(12):
        path = f"twist-mutant-{t}.spec"
        files[path] = lie_spec_text(f"mutant_t{t}", 3,
                                    twisted(sl2_brackets(4), 3, unipotent(rng, 3, 2)))
        groups.append([_cli(["check", path], [1], {"status": "fail"})])
    rng.shuffle(groups)
    jobs = [job for group in groups for job in group]
    for job in jobs[1::2]:
        # every second request asks for JSON, so both output paths are loaded
        if job["argv"][0] != "example":
            job["argv"].extend(["--format", "json"])
    return files, {"specs": [f"{SPECS}/{n}.spec" for n in sorted(SHIPPED)], "jobs": jobs}


def gl3_cohomology(seed: int) -> Tuple[Dict[str, str], dict]:
    rng = random.Random(f"gl3-cohomology-{seed}")
    # relabelling the basis keeps the sector dims and the 1248 nonzeros
    files = {"gl3.spec": lie_spec_text("gl3", 9, relabelled(rng, gl3_brackets(), 9))}
    job = _cli(["cohomology", "gl3.spec", "--weight", "0", "--format", "json"], [0],
               {"betti": GL3_BETTI, "truncated": False})
    return files, {"specs": ["gl3.spec"], "jobs": [job]}


def e7_gauge(seed: int) -> Tuple[Dict[str, str], dict]:
    rng = random.Random(f"e7-gauge-{seed}")
    jobs = [{"blocks": e7_gauge_blocks(rng, 2)} for _ in range(100)]
    return {}, {"specs": [f"{SPECS}/e7.spec"], "weight": 2,
                "basis_size": sum(E7_DIMS[2].values()), "jobs": jobs}


# workload name -> seed -> (files for the run directory, job document)
WORKLOADS = {"gl3-cohomology": gl3_cohomology, "e7-gauge": e7_gauge, "cli-mix": cli_mix}
