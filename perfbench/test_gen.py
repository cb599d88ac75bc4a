"""Tests of the benchmark's own input generator and statistics.

    python3 -m pytest perfbench/test_gen.py
"""

import json
import os
import random
import subprocess
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import gen  # noqa: E402
import run  # noqa: E402


def _bytes(workload, seed):
    files, doc = gen.WORKLOADS[workload](seed)
    return json.dumps([files, doc], sort_keys=True).encode()


def test_same_seed_gives_identical_inputs():
    for workload in gen.WORKLOADS:
        assert _bytes(workload, 7) == _bytes(workload, 7)
        assert _bytes(workload, 7) != _bytes(workload, 8)


def test_generator_does_not_import_the_program():
    code = "import sys, gen, run; print(any(m.startswith('gradedlie') for m in sys.modules))"
    out = subprocess.run([sys.executable, "-c", code], cwd=HERE, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"


def _jacobi_ok(br, n):
    def bracket_vec(u, v):
        out = {}
        for i, a in u.items():
            for j, b in v.items():
                for k, c in gen._bracket(br, i, j).items():
                    out[k] = out.get(k, Fraction(0)) + a * b * c
        return {k: c for k, c in out.items() if c}

    def add(*vs):
        out = {}
        for v in vs:
            for k, c in v.items():
                out[k] = out.get(k, Fraction(0)) + c
        return {k: c for k, c in out.items() if c}

    e = lambda i: {i: Fraction(1)}  # noqa: E731
    return all(not add(bracket_vec(e(a), bracket_vec(e(b), e(c))),
                       bracket_vec(e(b), bracket_vec(e(c), e(a))),
                       bracket_vec(e(c), bracket_vec(e(a), e(b))))
               for a in range(1, n + 1) for b in range(a + 1, n + 1)
               for c in range(b + 1, n + 1))


def test_twists_keep_jacobi_and_the_mutant_breaks_it():
    rng = random.Random(3)
    assert _jacobi_ok(gen.gl3_brackets(), 9)
    assert _jacobi_ok(gen.twisted(gen.gl3_brackets(), 9, gen.unipotent(rng, 9, 3)), 9)
    assert _jacobi_ok(gen.twisted(gen.sl2_brackets(), 3, gen.unipotent(rng, 3, 2)), 3)
    assert not _jacobi_ok(gen.sl2_brackets(4), 3)
    assert not _jacobi_ok(gen.twisted(gen.sl2_brackets(4), 3, gen.unipotent(rng, 3, 2)), 3)


def test_unipotent_inverse():
    p = gen.unipotent(random.Random(5), 6, 8)
    q = gen.unipotent_inverse(p)
    prod = [[sum(p[r][k] * q[k][c] for k in range(6)) for c in range(6)] for r in range(6)]
    assert prod == [[int(r == c) for c in range(6)] for r in range(6)]


def test_references():
    assert gen.dim_by_count(gen.E7_POSITIVE, 1) == gen.E7_DIMS[1]
    assert gen.dim_by_count(gen.E7_POSITIVE, 2) == gen.E7_DIMS[2]
    assert gen.polynomial_de_rham_betti(1, 3) == [1, 1]
    assert gen.polynomial_de_rham_betti(2, 4) == [1, 6, 5]
    assert gen.lie_spec_text("sl2", 3, gen.sl2_brackets()) == (
        "algebroid sl2 degree 0\nodd xi weight 0 dim 3\n"
        "d xi[1] = 2*xi[1]*xi[3]\nd xi[2] = -2*xi[2]*xi[3]\nd xi[3] = -xi[1]*xi[2]\n")


def test_tail_percentile_leaves_ten_jobs_beyond():
    assert run.tail_percentile(1) == 50
    assert run.tail_percentile(100) == 90
    assert run.tail_percentile(198) == 94
    assert run.percentile([1, 2, 3, 4, 5], 50) == 3
