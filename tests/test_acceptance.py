"""Acceptance gate: one test per contract item, each printing a pass/fail
line.  Everything runs on exact rationals; "agreement" means exact equality.
"""

import json
import pathlib
import random
import time
from fractions import Fraction

import pytest

from gradedlie.algebra import Element, GeneratorTable
from gradedlie.algebroid import AlgebroidSpec, check_structure_equations
from gradedlie.cli import run
from gradedlie.cohomology import betti, build_complex
from gradedlie.derivations import apply, is_homological
from gradedlie.dsl import parse, print_document
from gradedlie.constructions import (EXAMPLES, abelian_lie_algebra,
                                     adjoint_instance, aff1, e3_chart,
                                     e7_instance, sl2)
from gradedlie.superconnection import (apply_gauge, compose_gauges,
                                       extract_components, flatness_cascade)
from gradedlie.weight_modules import Monomials, dim_w, homogenization_projector

from conftest import (all_columns, brute_force_rank, brute_force_w_dim, mutate_coefficient,
                      projector_by_derivative, random_chart,
                      random_degree0_tables, random_element, to_dense,
                      unipotent_twist)
from test_superconnection import random_gauge

DATA = pathlib.Path(__file__).parent.parent / "specs"


def report(name, ok):
    print(f"\nACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}")
    assert ok


def test_criterion_1_structure_equation_equivalence():
    rng = random.Random(101)
    start = time.time()
    checked = 0
    ok = True
    seeds = [abelian_lie_algebra(2), aff1(), sl2()]
    while checked < 200:
        kind = checked % 4
        if kind == 0:
            table, anchor, bracket = random_degree0_tables(rng)
            spec = AlgebroidSpec.from_tables(table, anchor, bracket)
        elif kind in (1, 2):
            spec = unipotent_twist(rng, rng.choice(seeds))
        else:
            # retry until the perturbation actually breaks the structure
            # (a few single-coefficient changes are global rescales)
            # dim-2 algebras satisfy Jacobi identically, so mutate sl2 only
            for _ in range(50):
                spec = mutate_coefficient(rng, unipotent_twist(rng, sl2()))
                a = check_structure_equations(spec).passed
                b = is_homological(spec.d).ok
                if a != b:
                    ok = False
                if not a and not b:
                    break
            else:
                ok = False   # no failing mutant found: joint failure expected
            checked += 1
            continue
        a = check_structure_equations(spec).passed
        b = is_homological(spec.d).ok
        if a != b:
            ok = False
        checked += 1
    elapsed = time.time() - start
    report("1 structure-equation equivalence (200 specs, "
           f"{elapsed:.1f}s)", ok and elapsed < 60)


def test_criterion_2_bidegree_invariant():
    rng = random.Random(102)
    violations = 0
    for name, make in EXAMPLES.items():
        spec = make()
        table = spec.table
        for _ in range(100):
            e = random_element(rng, table, terms=3)
            for key, c in e.terms.items():
                piece = Element(table, {key: c})
                bw = table.key_bi_weight(key)
                image = apply(spec.d, piece)
                if not (image.is_zero()
                        or image.is_bihomogeneous((bw.h_weight, bw.form_degree + 1))):
                    violations += 1
    report("2 bi-degree invariant (8 specs x 100 elements)", violations == 0)


def test_criterion_3_adjoint_module_fidelity():
    from test_constructions import (_generic_rank2_algebroid,
                                    test_cotangent_prolongation_fiber_formula,
                                    test_cotangent_prolongation_momentum_formula)
    test_cotangent_prolongation_fiber_formula()
    test_cotangent_prolongation_momentum_formula()
    report("3 adjoint-module fidelity (symbolic rank 2 over 2-dim base)", True)


def test_criterion_4_dimension_formula():
    t = e3_chart()
    ok = (dim_w(t, 1, 0) == 3 and dim_w(t, 1, 1) == 2 and dim_w(t, 2, 0) == 7
          and dim_w(t, 2, 1) == 7 and dim_w(t, 2, 2) == 1)
    for i in range(1, 5):
        for j in range(i + 1, i + 3):
            ok = ok and dim_w(t, i, j) == 0 and len(Monomials(t, i, positive=True).basis(j)) == 0
    rng = random.Random(104)
    for _ in range(50):
        c = random_chart(rng)
        for i in range(1, 5):
            for j in range(0, i + 2):
                n = dim_w(c, i, j)
                if (n != brute_force_w_dim(c, i, j)
                        or n != len(Monomials(c, i, positive=True).basis(j))):
                    ok = False
    report("4 dimension formula (E3 chart + 50 random charts, i <= 4)", ok)


def test_criterion_5_flatness_cascade():
    ok = True
    for spec in [e7_instance(), adjoint_instance()]:
        for i in range(1, spec.degree + 1):
            comp = extract_components(spec, i)
            if not flatness_cascade(comp).passed:
                ok = False
            for key in comp.basis_keys:
                m = Element(spec.table, {key: Fraction(1)})
                if comp.total(m) != apply(spec.d, m):
                    ok = False
    report("5 flatness cascade + exact reassembly (e7, adjoint)", ok)


def test_criterion_6_gauge_behavior():
    rng = random.Random(106)
    spec = e7_instance()
    comp = extract_components(spec, 2)
    ok = True
    for n in range(50):
        phi = random_gauge(rng, spec, 2)
        gauged = apply_gauge(comp, phi)
        if not flatness_cascade(gauged).passed:
            ok = False
        for key in comp.basis_keys:
            if gauged.component(0, key) != comp.component(0, key):
                ok = False
        if n < 10:
            psi = random_gauge(rng, spec, 2)
            lhs = apply_gauge(gauged, psi)
            rhs = apply_gauge(comp, compose_gauges(phi, psi))
            for key in comp.basis_keys:
                for p in range(5):
                    if lhs.component(p, key) != rhs.component(p, key):
                        ok = False
    report("6 gauge behavior (50 random unipotent gauges on e7 weight 2)", ok)


def test_criterion_7_projector_laws():
    rng = random.Random(107)
    ok = True
    for name, make in EXAMPLES.items():
        spec = make()
        table = spec.table
        top = 1 + max((g.h_weight for g in table.gens), default=0) * 8
        for _ in range(200):
            e = random_element(rng, table, terms=2)
            parts = {k: homogenization_projector(e, k) for k in range(top)}
            if any(parts[k] != projector_by_derivative(e, k) for k in parts):
                ok = False
            total = table.zero()
            for k, p in parts.items():
                total = total + p
                if homogenization_projector(p, k) != p:
                    ok = False
                for l in (k - 1, k + 1):
                    if 0 <= l < top and not homogenization_projector(p, l).is_zero():
                        ok = False
            if total != e:
                ok = False
            de = apply(spec.d, e)
            for k in range(4):
                if homogenization_projector(de, k) != \
                        apply(spec.d, homogenization_projector(e, k)):
                    ok = False
    report("7 projector laws (8 specs x 200 elements, against the "
           "derivative oracle)", ok)


def test_criterion_8_cohomology_oracles():
    start = time.time()
    ok = True
    cases = [(abelian_lie_algebra(2), [1, 2, 1]),
             (aff1(), [1, 1, 0]),
             (sl2(), [1, 0, 0, 1])]
    for spec, want in cases:
        c = build_complex(spec, 0)
        if betti(c) != want or c.cap is not None:
            ok = False
        # independent check: brute-force minor-expansion ranks
        dims = c.dims
        matrices = all_columns(c)
        ranks = [brute_force_rank(to_dense(matrices[j], dims[j + 1]))
                 if j + 1 < len(dims) else 0
                 for j in range(len(dims))]
        check = [dims[j] - ranks[j] - (ranks[j - 1] if j else 0)
                 for j in range(len(dims))]
        if check != want:
            ok = False
    elapsed = time.time() - start
    report(f"8 cohomology oracles ({elapsed:.2f}s)", ok and elapsed < 5)


def test_criterion_9_cli_contract(tmp_path, capsys):
    ok = True
    # parse round trip on every golden file
    for path in sorted(DATA.glob("*.spec")):
        doc = parse(path.read_text())
        if parse(print_document(doc)) != doc:
            ok = False

    def run_json(*argv):
        code = run(list(argv))
        out = capsys.readouterr().out
        return code, json.loads(out.strip().splitlines()[-1])

    code, payload = run_json("check", str(DATA / "e7.spec"), "--format", "json")
    ok = ok and code == 0 and set(payload) == {"status", "residuals"}
    code, payload = run_json("check", str(DATA / "broken.spec"), "--format", "json")
    ok = ok and code == 1 and payload["status"] == "fail" and payload["residuals"]
    code, payload = run_json("decompose", str(DATA / "e7.spec"),
                             "--weight", "2", "--format", "json")
    ok = ok and code == 0 and set(payload) == {"status", "dims"}
    ok = ok and payload["dims"] == {"(2,0)": 7, "(2,1)": 7, "(2,2)": 1}
    code, payload = run_json("rep", str(DATA / "adjoint.spec"),
                             "--weight", "1", "--format", "json")
    ok = ok and code == 0 and set(payload) == {"status", "residuals", "components"}
    code, payload = run_json("cohomology", str(DATA / "sl2.spec"),
                             "--weight", "0", "--format", "json")
    ok = ok and code == 0 and set(payload) == {"status", "betti", "truncated"}
    out_file = tmp_path / "adjoint.spec"
    code, payload = run_json("example", "adjoint", "-o", str(out_file),
                             "--format", "json")
    ok = ok and code == 0 and set(payload) == {"status", "path"}
    code = run(["check", str(out_file)])
    capsys.readouterr()
    ok = ok and code == 0
    bad = tmp_path / "bad.spec"
    bad.write_text("algebroid nope degree 1\n")
    code = run(["check", str(bad)])
    capsys.readouterr()
    ok = ok and code == 2
    with capsys.disabled():
        report("9 CLI contract (round trip, exit codes 0/1/2, JSON keys)", ok)
