"""The clean-failure contract of the CLI, on mutated inputs: every request
exits 0, 1 or 2 within a time bound, raises nothing, and an exit 2 prints
exactly one line on stderr, an `error:` line.  The mutations edit the
shipped spec texts by a few characters, so most of them still parse and
reach the checks behind the parser.  Derandomized and bounded, so every run
draws the same examples."""

import re
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cli_corpus import SPECS, record

TEXTS = {path.name: path.read_text(encoding="utf-8") for path in sorted(SPECS.glob("*.spec"))}
# what one-character edits draw from: digits, the letters of the shipped
# generator names, brackets, operators and separators
ALPHABET = "0123456789xyzuvwpi[]()+-*^/= \n_"
DECLARED = re.compile(r"\b(?:dim|weight|degree) (\d+)")
# A hang detector at the shipped specs' scale, not a bound on every input
# the size limit admits: aff1.spec with `dim 19` lists a torus block sector
# of 48 620 monomials, just under MAX_BASIS_SIZE, and its `cohomology
# --weight 0` takes 1.2-2.1 s (Python 3.11, 2 CPUs).  The derandomized draw
# does not reach it; gl(5), which needs that limit, takes 7-10 s by design.
SECONDS = 2.0

EDITS = st.one_of(
    st.tuples(st.sampled_from(["replace", "insert"]), st.integers(0, 10 ** 4),
              st.sampled_from(ALPHABET)),
    st.tuples(st.just("delete"), st.integers(0, 10 ** 4), st.just("")),
    # a declared dim, weight or degree set to a new value
    st.tuples(st.just("number"), st.integers(0, 10 ** 4), st.integers(0, 99).map(str)),
)


def mutate(text, edits):
    for op, at, new in edits:
        if op == "number":
            found = list(DECLARED.finditer(text))
            if found:
                m = found[at % len(found)]
                text = text[:m.start(1)] + new + text[m.end(1):]
            continue
        n = at % (len(text) + 1)
        if op == "insert":
            text = text[:n] + new + text[n:]
        else:
            text = text[:n] + new + text[n + 1:]
    return text


def run_timed(argv):
    """(exit code, stdout, stderr, seconds) of one `cli.run` call."""
    t0 = time.perf_counter()
    run = record(argv)
    return run["exit"], run["stdout"], run["stderr"], time.perf_counter() - t0


@pytest.fixture(scope="module")
def spec_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "mutant.spec"


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(st.sampled_from(sorted(TEXTS)), st.lists(EDITS, min_size=1, max_size=4),
       st.integers(0, 3))
def test_mutated_specs_fail_cleanly(spec_path, name, edits, weight):
    spec_path.write_text(mutate(TEXTS[name], edits), encoding="utf-8")
    path, w = str(spec_path), str(weight)
    for argv in (["check", path], ["decompose", path, "--weight", w],
                 ["rep", path, "--weight", w], ["cohomology", path, "--weight", w]):
        code, _, err, seconds = run_timed(argv)
        assert code in (0, 1, 2), argv
        if code == 2:
            assert len(err.splitlines()) == 1 and err.startswith("error: "), (argv, err)
        else:
            assert err == "", (argv, err)
        assert seconds < SECONDS, (argv, seconds)


def test_check_many_odd_generators_is_fast(tmp_path):
    """`check` reads the structure equations off d^2, one `apply` per
    generator: 100 odd generators with d = 0 answer at once, where the
    table formula grew like n^5 (12.9 s at 40)."""
    path = tmp_path / "wide.spec"
    path.write_text("algebroid wide degree 0\nodd y weight 0 dim 100\n", encoding="utf-8")
    code, out, err, seconds = run_timed(["check", str(path)])
    assert (code, err) == (0, "")
    assert out == f"check {path}: PASS\n"
    assert seconds < 1.0


def test_check_aff1_with_82_odd_generators_is_fast(tmp_path):
    """aff1.spec with `dim 2` changed to `dim 82`, the input on which the
    mutation fuzz first found `check` running past 10 s."""
    path = tmp_path / "aff82.spec"
    path.write_text((SPECS / "aff1.spec").read_text().replace("dim 2", "dim 82"),
                    encoding="utf-8")
    code, out, err, seconds = run_timed(["check", str(path)])
    assert (code, err) == (0, "")
    assert out == f"check {path}: PASS\n"
    assert seconds < 1.0
