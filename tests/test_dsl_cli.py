import collections
import json
import pathlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradedlie import dsl
from gradedlie.algebra import Element
from gradedlie.cli import run
from gradedlie.constructions import EXAMPLES
from gradedlie.derivations import is_homological
from gradedlie.dsl import (DslError, Span, document_from_spec, parse, parse_expression,
                           print_document, to_algebroid_spec, tokenize)
from gradedlie.weight_modules import Monomials

from conftest import gl_spec, tokenize_by_loop, unipotent_twist

DATA = pathlib.Path(__file__).parent.parent / "specs"


def spec_text(name):
    return (DATA / name).read_text()


# -- parser -----------------------------------------------------------------

# blanks, comments, digits, letters and symbols, and characters that \w
# matches but no token may start with (a superscript, an Arabic-Indic digit,
# a vulgar fraction), a non-ASCII letter and blanks the DSL does not allow
_ALPHABET = " \t\r\n#0123459axyzd_+-*^/()[]=²٣½é\x0c\u00a0"
# pieces of spec text, so that long runs of valid tokens are drawn too
_PIECES = ["d", " ", "\t", "\n", "\r", "xi", "[", "12", "]", "=", "*", "+", "(", ")", "^", "/",
           "_y0", "é", "#c", "²", "½", "\x0c"]


@settings(derandomize=True, database=None, deadline=None, max_examples=600)
@given(st.one_of(st.text(_ALPHABET, max_size=30),
                 st.lists(st.sampled_from(_PIECES), max_size=40).map("".join)),
       st.one_of(st.just(""), st.text(_ALPHABET.replace("\n", ""), max_size=8).map("#".__add__)),
       st.sampled_from(["", "\n"]))
def test_tokenize_matches_character_loop(body, comment, end):
    """`tokenize` splits text as the character loop of `tokenize_by_loop`
    does: the same token texts, every token's and the end marker's line
    and column, and the same first error with its position.  Inputs may end
    in a comment, with or without a newline after it."""
    text = body + comment + end
    want, error = tokenize_by_loop(text)
    if error is not None:
        with pytest.raises(DslError) as err:
            tokenize(text)
        assert str(err.value) == error
        assert f"({err.value.span})" in error
        return
    got = tokenize(text)
    assert got == [tok for tok, _line, _col in want]
    assert ([(Span(text, n).line, Span(text, n).column) for n in range(len(got))]
            == [(line, col) for _tok, line, col in want])


def test_parsing_resolves_no_span(monkeypatch):
    """A spec that parses finds no line or column: every shipped spec,
    every example and printed gl(8) parse and convert with the position
    finder replaced by one that raises."""
    texts = [path.read_text() for path in sorted(DATA.glob("*.spec"))]
    texts += [print_document(document_from_spec(name.replace("-", "_"), maker()))
              for name, maker in sorted(EXAMPLES.items())]
    texts.append(print_document(document_from_spec("gl8", gl_spec(8))))

    def no_span(text, index):
        raise AssertionError(f"a span was resolved for token {index}")

    monkeypatch.setattr(dsl, "_locate", no_span)
    for text in texts:
        to_algebroid_spec(parse(text))
    with pytest.raises(AssertionError):
        parse(texts[0] + "@")


def test_parsing_multiplies_and_adds_no_elements(monkeypatch):
    """A term's atoms are read into one monomial and a sum is added in
    place: parsing and converting printed gl(4) and a twisted gl(3), whose
    coefficients are rationals, calls neither `Element.__mul__` nor
    `Element.__add__` (the work is counted, not timed)."""
    texts = [print_document(document_from_spec("gl4", gl_spec(4))),
             print_document(document_from_spec(
                 "gl3", unipotent_twist(random.Random(29), gl_spec(3))))]
    assert "/" in texts[1]
    calls = collections.Counter()

    def counted(name):
        method = getattr(Element, name)

        def wrapper(self, other):
            calls[name] += 1
            return method(self, other)
        return wrapper

    for name in ("__mul__", "__add__"):
        monkeypatch.setattr(Element, name, counted(name))
    for text in texts:
        to_algebroid_spec(parse(text))
        assert calls == {}, text.splitlines()[0]


def test_golden_files_parse_and_round_trip():
    for path in sorted(DATA.glob("*.spec")):
        text = path.read_text()
        doc = parse(text)
        printed = print_document(doc)
        assert parse(printed) == doc
        assert print_document(parse(printed)) == printed


def test_print_parse_fixpoint_e7():
    doc = parse(spec_text("e7.spec"))
    assert print_document(doc) == spec_text("e7.spec")


def test_parsed_e7_is_homological():
    spec = to_algebroid_spec(parse(spec_text("e7.spec")))
    assert is_homological(spec.d).ok


def test_comments_and_whitespace_insensitive():
    a = parse("algebroid a degree 0\nodd xi weight 0 dim 2\n"
              "d xi[2] = xi[1]*xi[2]\n")
    b = parse("# header\nalgebroid   a\n  degree 0  # trailing\n"
              "odd xi weight 0 dim 2\nd xi[ 2 ]=xi[1] * xi[2]")
    assert a == b


def test_rational_literals_and_precedence():
    from fractions import Fraction
    table = parse("algebroid a degree 0\nbase x weight 0 dim 1\n").table
    x = table.gen("x", 1)
    assert parse_expression(table, "1/2*x[1]^2 + 3") == Fraction(1, 2) * x ** 2 + 3
    assert parse_expression(table, "-x[1]^2") == -(x ** 2)
    assert parse_expression(table, "(1 - x[1])^2") == 1 - 2 * x + x ** 2


def test_expression_trailing_token_error():
    """A standalone expression names the end of input in the words the
    document parser uses, and points at the token that is left over."""
    table = parse("algebroid a degree 0\nodd xi weight 0 dim 2\n").table
    with pytest.raises(DslError) as err:
        parse_expression(table, "xi[1] xi[2]")
    assert str(err.value) == "expected end of input, found 'xi' (line 1, column 7)"


def test_undeclared_identifier_error():
    with pytest.raises(DslError) as err:
        parse("algebroid a degree 0\nbase x weight 0 dim 1\n"
              "d z[1] = y[1]*x[1]\n")
    assert "z" in str(err.value)
    assert "line 3" in str(err.value)


def test_empty_document_error():
    with pytest.raises(DslError) as err:
        parse("   # only a comment\n")
    assert "header" in str(err.value)


def test_declaration_after_use():
    doc = parse("algebroid a degree 0\nd xi[2] = xi[1]*xi[2]\n"
                "odd xi weight 0 dim 2\n")
    assert to_algebroid_spec(doc) is not None


def test_weight_inconsistent_assignment_reports_span():
    with pytest.raises(DslError) as err:
        to_algebroid_spec(parse(
            "algebroid a degree 1\nbase x weight 0 dim 1\n"
            "even z weight 1 dim 1\nodd y weight 0 dim 1\n"
            "d x[1] = z[1]\n"))
    assert "line" in str(err.value)


def test_assignment_error_names_its_own_line():
    text = ("algebroid a degree 0\nodd xi weight 0 dim 3\n"
            "d xi[1] = xi[2]*xi[3]\nd xi[2] = xi[3]*xi[1]\n"
            "# the third assignment is of form degree 1, not 2\n"
            "d xi[3] = xi[1]\n")
    with pytest.raises(DslError) as err:
        to_algebroid_spec(parse(text))
    assert str(err.value) == ("value for xi[3] must be bi-homogeneous of bi-weight (0, 2), "
                              "got weights (0, 1) "
                              "(line 6, column 3)")
    with pytest.raises(DslError) as err:
        to_algebroid_spec(parse(text.replace("d xi[2] = xi[3]*xi[1]", "d xi[2] = 1")))
    assert str(err.value).startswith("value for xi[2] must be bi-homogeneous")
    assert str(err.value).endswith("(line 4, column 3)")


def test_nesting_limit():
    table = parse("algebroid a degree 0\nbase x weight 0 dim 1\n").table
    x = table.gen("x", 1)
    assert parse_expression(table, "(" * 100 + "x[1]" + ")" * 100) == x
    assert parse_expression(table, "-" * 100 + "x[1]") == x
    assert parse_expression(table, "-(" * 50 + "x[1]" + ")" * 50) == x
    for text in ("(" * 101 + "x[1]" + ")" * 101, "-" * 101 + "x[1]",
                 "-(" * 51 + "x[1]" + ")" * 51, "(" * 200 + "x[1]" + ")" * 200,
                 "-" * 1200 + "x[1]"):
        with pytest.raises(DslError) as err:
            parse_expression(table, text)
        assert "expression nested more than 100 deep (line 1, column" in str(err.value)


def test_degree_mismatch_rejected():
    with pytest.raises(DslError):
        parse("algebroid a degree 2\nbase x weight 0 dim 1\n"
              "odd y weight 0 dim 1\n")


def test_chart_errors_name_their_own_line():
    """A declaration error names the declaration at fault, and a degree
    mismatch the header's degree, wherever comments put them."""
    head = "# a comment\n\nalgebroid a degree 0\nodd xi weight 0 dim 2\n"
    cases = [
        ("odd xi weight 0 dim 1\n", "duplicate generator block name 'xi'"),
        ("base x weight 1 dim 1\n", "base block 'x' must have weight 0"),
        ("odd eta weight 0 dim 0\n", "block 'eta' has non-positive dimension"),
        ("even z weight 0 dim 1\n",
         "even fiber block 'z' with weight 0 would be a second base block"),
    ]
    for decl, message in cases:
        # the bad declaration on line 6, after a valid one on line 5
        text = head + "base y weight 0 dim 1\n" + decl + "d xi[2] = xi[1]*xi[2]\n"
        with pytest.raises(DslError) as err:
            parse(text)
        assert str(err.value) == f"{message} (line 6, column 1)"
    with pytest.raises(DslError) as err:
        parse(head.replace("degree 0", "degree 3"))
    assert str(err.value) == ("declared degree 3 does not match the chart degree 0 "
                              "(line 3, column 20)")


# -- CLI --------------------------------------------------------------------

def _run(capsys, *argv):
    code = run(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_cli_check_pass(capsys):
    code, out, _ = _run(capsys, "check", str(DATA / "e7.spec"))
    assert code == 0
    assert "PASS" in out


def test_cli_check_fail_named_residual(capsys):
    code, out, _ = _run(capsys, "check", str(DATA / "broken.spec"),
                        "--format", "json")
    assert code == 1
    payload = json.loads(out)
    assert payload["status"] == "fail"
    assert set(payload) == {"status", "residuals"}
    assert payload["residuals"]


def test_cli_check_json_keys(capsys):
    code, out, _ = _run(capsys, "check", str(DATA / "sl2.spec"),
                        "--format", "json")
    assert code == 0
    assert set(json.loads(out)) == {"status", "residuals"}


def test_cli_decompose_e7(capsys):
    code, out, _ = _run(capsys, "decompose", str(DATA / "e7.spec"),
                        "--weight", "2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"status", "dims"}
    assert payload["dims"] == {"(2,0)": 7, "(2,1)": 7, "(2,2)": 1}


def test_cli_rep_adjoint(capsys):
    code, out, _ = _run(capsys, "rep", str(DATA / "adjoint.spec"),
                        "--weight", "1", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"status", "residuals", "components"}
    assert payload["status"] == "ok"
    assert set(payload["components"]) == {"0", "1"}


def test_cli_cohomology_sl2(capsys):
    code, out, _ = _run(capsys, "cohomology", str(DATA / "sl2.spec"),
                        "--weight", "0", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"status", "betti", "truncated"}
    assert payload["betti"] == [1, 0, 0, 1]
    assert payload["truncated"] is False


def test_cli_cohomology_cap_error(capsys):
    code, _out, err = _run(capsys, "cohomology", str(DATA / "e7.spec"),
                           "--weight", "2")
    assert code == 2
    assert "cap" in err


def test_cli_cohomology_names_the_d0_entry_no_cap_closes(tmp_path, capsys):
    """A positive weight over a base whose D_0 has an entry with a
    base-variable coefficient is refused at every cap by that entry, once
    the sectors pass the size limit (e7's two base variables at cap 1000 do
    not).  A cap that fails for another reason keeps the message naming the
    first term outside the span: here d(x) = x^2*y raises the base degree
    itself."""
    named = {("adjoint.spec", "z[2] -> x[1]*p[1]"): ("0", "2", "4", "1000"),
             ("e7.spec", "z[3] -> x[1]*w[1]"): ("0", "2", "4")}
    for (name, entry), caps in named.items():
        for cap in caps:
            code, out, err = _run(capsys, "cohomology", str(DATA / name),
                                  "--weight", "1", "--cap", cap)
            assert (code, out) == (2, "")
            assert err == (f"error: no base degree cap closes the complex: the D_0 entry "
                           f"{entry} has a base-variable coefficient and no y factor, so d "
                           f"leaves the cap on {entry.split(' -> ')[0]} times every base "
                           f"monomial of degree cap\n")
    path = tmp_path / "square.spec"
    path.write_text("algebroid square degree 1\nbase x weight 0 dim 1\n"
                    "even z weight 1 dim 1\nodd y weight 0 dim 1\nodd p weight 1 dim 1\n"
                    "d x[1] = x[1]^2*y[1]\nd z[1] = p[1]\n", encoding="utf-8")
    for weight, leaving in (("0", "d(x[1]^2) contains x[1]^3*y[1]"),
                            ("1", "d(x[1]^2*z[1]) contains x[1]^3*z[1]*y[1]")):
        code, out, err = _run(capsys, "cohomology", str(path), "--weight", weight,
                              "--cap", "2")
        assert (code, out) == (2, "")
        assert err == f"error: base degree cap 2 does not close the complex: {leaving}\n"


def test_cli_cohomology_not_homological(capsys):
    code, out, _ = _run(capsys, "cohomology", str(DATA / "broken.spec"),
                        "--weight", "0", "--format", "json")
    assert code == 1
    payload = json.loads(out)
    assert set(payload) == {"status", "residuals"}
    assert payload["status"] == "fail"
    assert payload["residuals"]
    assert all(label.startswith("d^2 ") for label in payload["residuals"])
    code, out, _ = _run(capsys, "cohomology", str(DATA / "broken.spec"),
                        "--weight", "0")
    assert code == 1
    assert "FAIL" in out
    assert "  residual d^2 " in out


def test_cli_rep_refuses_non_homological_spec(tmp_path, capsys):
    """broken.spec's d on the weight-zero xi's, under a weight-1 module
    whose flatness cascade passes: `rep` reports d^2 != 0 with its
    residuals, as `cohomology` does, and exits 1, as `check` does."""
    d_lines = [line for line in spec_text("broken.spec").splitlines() if line.startswith("d ")]
    path = tmp_path / "nonhom.spec"
    path.write_text("\n".join(["algebroid nonhom degree 1", "odd xi weight 0 dim 3",
                                "even z weight 1 dim 1", "odd p weight 1 dim 1"]
                               + d_lines + ["d z[1] = p[1]", ""]))
    assert _run(capsys, "check", str(path))[0] == 1
    code, out, err = _run(capsys, "rep", str(path), "--weight", "1")
    assert (code, err) == (1, "")
    assert out == (f"rep {path} weight 1: FAIL (d^2 != 0)\n"
                   "  residual d^2 xi[3]: xi[1]*xi[2]*xi[3]\n")
    assert _run(capsys, "cohomology", str(path), "--weight", "1") == (
        1, out.replace("rep", "cohomology", 1), "")
    code, out, err = _run(capsys, "rep", str(path), "--weight", "1", "--format", "json")
    assert (code, err) == (1, "")
    assert json.loads(out) == {"status": "fail",
                               "residuals": {"d^2 xi[3]": "xi[1]*xi[2]*xi[3]"}}


def test_cli_cohomology_evaluates_d_squared_once(tmp_path, capsys, monkeypatch):
    """One d^2 evaluation per `check` and per `cohomology` request, counted
    wherever it happens: over a point with the torus reduction (gl(3)),
    over a base (adjoint) and on a refused spec."""
    import gradedlie.cohomology
    from gradedlie.dsl import document_from_spec
    from conftest import count_d_squared, gl_spec
    calls = count_d_squared(monkeypatch)
    gl3 = tmp_path / "gl3.spec"
    gl3.write_text(print_document(document_from_spec("gl3", gl_spec(3))))
    for path, code in ((gl3, 0), (DATA / "adjoint.spec", 0), (DATA / "broken.spec", 1)):
        for argv in (["check", str(path)], ["cohomology", str(path), "--weight", "0"]):
            calls.clear()
            assert _run(capsys, *argv)[0] == code
            assert len(calls) == 1, argv
    broken = to_algebroid_spec(parse(spec_text("broken.spec")))
    c = gradedlie.cohomology.build_complex(broken, 0)
    with pytest.raises(ValueError, match=r"^complex is not closed \(d\^2 != 0\)$"):
        gradedlie.cohomology.betti(c)


def test_cli_cohomology_negative_cap(capsys):
    for path in ("sl2.spec", "adjoint.spec"):
        code, out, err = _run(capsys, "cohomology", str(DATA / path),
                              "--weight", "0", "--cap", "-1")
        assert code == 2
        assert "--cap" in err
        assert out == ""


def test_cli_degree_zero_needs_positive_degree(capsys):
    for command in ("decompose", "rep"):
        code, _out, err = _run(capsys, command, str(DATA / "sl2.spec"),
                               "--weight", "1")
        assert code == 2
        assert "degree 0" in err
        assert "degree >= 1" in err


def test_cli_runs_in_a_row_are_independent(capsys):
    """The parser is built once per process; flags of one request must not
    leak into the next."""
    e7 = str(DATA / "e7.spec")
    code, out, _ = _run(capsys, "cohomology", e7, "--weight", "0", "--cap", "2",
                        "--format", "json")
    assert code == 0
    capped = json.loads(out)["betti"]
    code, out, _ = _run(capsys, "cohomology", e7, "--weight", "0")
    assert code == 0
    assert out.splitlines() == [f"cohomology {e7} weight 0 (truncated at base degree 4):",
                                "  betti [1, 6, 5]"]
    assert capped != [1, 6, 5]
    code, out, _ = _run(capsys, "decompose", e7, "--weight", "1", "--format", "json")
    assert code == 0
    assert json.loads(out) == {"status": "ok", "dims": {"(1,0)": 3, "(1,1)": 2}}


def test_cli_too_large_basis_exit_2(tmp_path, capsys):
    """Refused after counting: the first sector above the limit is named."""
    wide = tmp_path / "wide.spec"
    wide.write_text("algebroid wide degree 0\nodd y weight 0 dim 40\n")
    code, out, err = _run(capsys, "cohomology", str(wide), "--weight", "0")
    assert code == 2
    assert out == ""
    assert err == ("error: sector (0,4) at base degree cap 4 has 91390 basis monomials, "
                   "above the limit of 50000\n")
    tall = tmp_path / "tall.spec"
    tall.write_text("algebroid tall degree 6\neven s weight 1 dim 40\n"
                    "even z weight 6 dim 1\n")
    code, out, err = _run(capsys, "decompose", str(tall), "--weight", "6")
    assert code == 2
    assert out == ""
    assert err.startswith("error: W^(6,0) has 8145061 basis monomials")


def test_cli_example_round_trip(tmp_path, capsys):
    for name in EXAMPLES:
        out_file = tmp_path / f"{name}.spec"
        code, out, _ = _run(capsys, "example", name, "-o", str(out_file),
                            "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == {"status", "path"}
        code, out, _ = _run(capsys, "check", str(out_file))
        assert code == 0, name


def test_shipped_specs_are_the_examples(capsys):
    """specs/NAME.spec holds exactly what `gradedlie example NAME` prints."""
    for name in ("adjoint", "aff1", "e7", "sl2"):
        code, out, err = _run(capsys, "example", name)
        assert (code, err) == (0, "")
        assert out == spec_text(f"{name}.spec"), name


def test_cli_example_unknown(capsys):
    for name in ("nope", "weighted-lie-algebra"):
        code, _out, err = _run(capsys, "example", name)
        assert code == 2
        assert "unknown example" in err


def test_cli_example_unwritable_output_exit_2(tmp_path, capsys):
    target = tmp_path / "missing_dir" / "x.spec"
    code, out, err = _run(capsys, "example", "adjoint", "-o", str(target))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: cannot write {target}: ")


def test_cli_parse_error_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.spec"
    bad.write_text("algebroid broken degree 1\nodd xi weight 0\n")
    code, _out, err = _run(capsys, "check", str(bad))
    assert code == 2
    assert "error" in err


def test_cli_missing_file_exit_2(capsys):
    code, _out, _err = _run(capsys, "check", "no_such_file.spec")
    assert code == 2


def test_cli_non_utf8_file_exit_2(tmp_path, capsys):
    bad = tmp_path / "latin1.spec"
    bad.write_bytes(b"algebroid caf\xe9 degree 0\nodd xi weight 0 dim 1\n")
    code, out, err = _run(capsys, "check", str(bad))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: cannot read {bad}: not valid UTF-8")


def test_cli_usage_error_exit_2(capsys):
    assert run([]) == 2
    assert run(["decompose", str(DATA / "e7.spec")]) == 2  # missing --weight


def test_cli_closed_stdout_exits_1_without_traceback():
    """The reader closes stdout before anything is written: the CLI exits 1
    with nothing on stderr, not with a BrokenPipeError traceback."""
    import os
    import subprocess
    import sys
    import gradedlie
    src = str(pathlib.Path(gradedlie.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.Popen(
        [sys.executable, "-m", "gradedlie.cli", "rep", str(DATA / "e7.spec"), "--weight", "2"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert err == b""


def test_import_loads_neither_dataclasses_nor_inspect():
    """`import gradedlie` and `import gradedlie.cli`, in a fresh interpreter,
    add neither `dataclasses` nor `inspect` (which brings ast, dis and
    tokenize) to the modules every CLI process loads."""
    import os
    import subprocess
    import sys
    import gradedlie
    src = str(pathlib.Path(gradedlie.__file__).parent.parent)
    code = ("import sys\n"
            "before = set(sys.modules)\n"
            "import gradedlie, gradedlie.cli\n"
            "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))\n")
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == "[]\n"


def test_cli_deep_nesting_exit_2(tmp_path, capsys):
    """Nesting that would exhaust the recursive descent is a parse error
    that names the line, not a traceback."""
    head = "algebroid deep degree 0\nodd xi weight 0 dim 2\n# nested\n"
    for value in ("(" * 200 + "xi[1]*xi[2]" + ")" * 200, "-" * 1200 + "xi[1]*xi[2]"):
        path = tmp_path / "deep.spec"
        path.write_text(head + "d xi[2] = " + value + "\n")
        for command in (["check"], ["cohomology", "--weight", "0"]):
            code, out, err = _run(capsys, command[0], str(path), *command[1:])
            assert code == 2
            assert out == ""
            assert err.startswith(f"error: {path}: expression nested more than 100 deep "
                                  "(line 4, column ")
            assert err.count("\n") == 1


def test_cli_non_ascii_digits_exit_2(tmp_path, capsys):
    """Only 0-9 make a number: a Unicode digit in an index, in the header or
    in a coefficient is an unexpected character, not an int() traceback or
    a silently read digit."""
    head = "algebroid t degree 0\nodd xi weight 0 dim 2\n"
    cases = [
        (head + "d xi[²] = xi[1]*xi[2]\n", "'²' (line 3, column 6)"),
        (head.replace("degree 0", "degree ²"), "'²' (line 1, column 20)"),
        (head + "d xi[2] = ٣*xi[1]*xi[2]\n", "'٣' (line 3, column 11)"),
    ]
    for text, where in cases:
        path = tmp_path / "digits.spec"
        path.write_text(text, encoding="utf-8")
        for command in (["check"], ["cohomology", "--weight", "0"]):
            code, out, err = _run(capsys, command[0], str(path), *command[1:])
            assert (code, out) == (2, "")
            assert err == f"error: {path}: unexpected character {where}\n"


def test_cli_huge_cap_refused_in_bounded_time(capsys):
    """A cap that puts every nonempty sector above the limit is refused
    before any sector is listed, with the message and the size that
    counting the first such sector gives."""
    import time
    cases = [
        ("adjoint.spec", 0, 10**9, "sector (0,0) at base degree cap 1000000000 has 1000000001"),
        ("adjoint.spec", 1, 10**9, "sector (1,0) at base degree cap 1000000000 has 2000000002"),
        ("e7.spec", 0, 10**5, "sector (0,0) at base degree cap 100000 has 5000150001"),
        ("e7.spec", 2, 10**5, "sector (2,0) at base degree cap 100000 has 35001050007"),
    ]
    for name, weight, cap, message in cases:
        t0 = time.perf_counter()
        code, out, err = _run(capsys, "cohomology", str(DATA / name),
                              "--weight", str(weight), "--cap", str(cap))
        assert time.perf_counter() - t0 < 1, (name, weight, cap)
        assert (code, out) == (2, "")
        assert err == f"error: {message} basis monomials, above the limit of 50000\n"
    # just under the bound, sector (0,0) is listed in time linear in the cap;
    # the CLI counts sector (0,1) and refuses it before listing either
    t0 = time.perf_counter()
    assert len(Monomials(to_algebroid_spec(parse(spec_text("adjoint.spec"))), 0, 49999).basis(0)) == 50000
    code, out, err = _run(capsys, "cohomology", str(DATA / "adjoint.spec"),
                          "--weight", "0", "--cap", "49999")
    assert time.perf_counter() - t0 < 5
    assert (code, out) == (2, "")
    assert err == ("error: sector (0,1) at base degree cap 49999 has 100000 basis monomials, "
                   "above the limit of 50000\n")


def test_cli_numbers_past_the_interpreter_limits_exit_2(tmp_path, capsys):
    """Numbers the interpreter would refuse or take long over: an INT
    literal above MAX_INT_DIGITS (int() refuses 4 300 digits), an exponent
    above MAX_EXPONENT, of a scalar and of a sum over a base, and a spec
    whose every literal is allowed but whose d^2 has a coefficient of
    ~6 000 digits, C^2 - 2C for a 3 000-digit C, past the int-to-str limit.
    Each exits 2 with one error line, well within a second."""
    import time
    head = "algebroid broken degree 0\nodd xi weight 0 dim 3\n"
    c = "7" * 2999 + "1"
    cases = [
        (head + f"d xi[1] = {'3' * 5000}*xi[1]*xi[3]\n",
         "integer literal of 5000 digits, above the limit of 4000 (line 3, column 11)"),
        (head + "d xi[1] = 3^10000000*xi[1]*xi[3]\n",
         "exponent 10000000 is above the limit of 64 (line 3, column 13)"),
        ("algebroid power degree 0\nbase x weight 0 dim 2\nodd y weight 0 dim 1\n"
         "d x[1] = (x[1]+x[2])^100000*y[1]\n",
         "exponent 100000 is above the limit of 64 (line 4, column 22)"),
    ]
    for text, message in cases:
        path = tmp_path / "numbers.spec"
        path.write_text(text)
        for command in (["check"], ["cohomology", "--weight", "0"]):
            t0 = time.perf_counter()
            code, out, err = _run(capsys, command[0], str(path), *command[1:])
            assert time.perf_counter() - t0 < 1, message
            assert (code, out) == (2, "")
            assert err == f"error: {path}: {message}\n"
    path = tmp_path / "coefficient.spec"
    path.write_text(head + f"d xi[1] = {c}*xi[1]*xi[3]\nd xi[2] = -2*xi[2]*xi[3]\n"
                    f"d xi[3] = -{c}*xi[1]*xi[2]\n")
    residuals = to_algebroid_spec(parse(path.read_text())).homological.residuals
    assert {g: r.terms for g, r in residuals.items()} == {
        "xi[3]": {((), 0b111): int(c) ** 2 - 2 * int(c)}}
    for command in (["check"], ["check", "--format", "json"], ["cohomology", "--weight", "0"]):
        t0 = time.perf_counter()
        code, out, err = _run(capsys, command[0], str(path), *command[1:])
        assert time.perf_counter() - t0 < 1, command
        assert (code, out) == (2, "")
        assert err == "error: a coefficient has more than 4300 digits, too many to print\n"


def test_cli_budgets_exit_2(tmp_path, capsys, monkeypatch):
    """More generators than MAX_GENERATORS, refused at the declaration that
    crosses the budget before the chart is built, and products and powers
    whose operands' term counts bound the result above MAX_TERMS, refused
    at the operator before it is computed.  Each exits 2 with one error
    line, well within a second."""
    import time
    assert dsl.MAX_GENERATORS == 10_000 and dsl.MAX_TERMS == 1000
    sum40 = "+".join(f"x[{n}]" for n in range(1, 41))
    cases = [
        ("algebroid wide degree 0\nodd y weight 0 dim 200000\n",
         "the declarations name 200000 generators, above the limit of 10000 "
         "(line 2, column 1)"),
        ("algebroid wide degree 1\nodd y weight 0 dim 6000\nodd w weight 1 dim 4000\n"
         "  even z weight 1 dim 1\n",
         "the declarations name 10001 generators, above the limit of 10000 "
         "(line 4, column 3)"),
        ("algebroid power degree 0\nbase x weight 0 dim 4\nodd y weight 0 dim 1\n"
         "d x[1] = (x[1]+x[2]+x[3]+x[4])^32*y[1]\n",
         "power 32 of 4 terms may have 6545 terms, above the limit of 1000 "
         "(line 4, column 31)"),
        (f"algebroid product degree 0\nbase x weight 0 dim 40\nodd y weight 0 dim 1\n"
         f"d x[1] = y[1]*({sum40})*({sum40})\n",
         "a product of 40 and 40 terms may have 1600 terms, above the limit of 1000 "
         f"(line 4, column {16 + len(sum40) + 1})"),
    ]

    def no_chart(*args):
        raise AssertionError("the chart was built")

    for text, message in cases:
        path = tmp_path / "budget.spec"
        path.write_text(text)
        with monkeypatch.context() as patch:
            if "generators" in message:
                patch.setattr(dsl, "GeneratorTable", no_chart)
            for command in (["check"], ["cohomology", "--weight", "0"]):
                t0 = time.perf_counter()
                code, out, err = _run(capsys, command[0], str(path), *command[1:])
                assert time.perf_counter() - t0 < 1, message
                assert (code, out) == (2, "")
                assert err == f"error: {path}: {message}\n"


def test_budgets_admit_what_they_bound():
    """A budget is a bound, not a cut below it: exactly MAX_GENERATORS
    generators, a product of 40 by 25 terms and a power bounded by 969
    terms parse, and gl(8) and 100 odd generators sit far below both."""
    assert len(parse("algebroid wide degree 0\nodd y weight 0 dim 10000\n").table.gens) == 10_000
    table = parse("algebroid b degree 0\nbase x weight 0 dim 66\n").table
    sum40 = "+".join(f"x[{n}]" for n in range(1, 41))
    sum25 = "+".join(f"x[{n}]" for n in range(41, 66))
    assert len(parse_expression(table, f"({sum40})*({sum25})").terms) == 1000
    with pytest.raises(DslError, match="a product of 40 and 26 terms may have 1040 terms"):
        parse_expression(table, f"({sum40})*({sum25}+x[66])")
    assert len(parse_expression(table, "(x[1]+x[2]+x[3]+x[4])^16").terms) == 969
    with pytest.raises(DslError, match="power 17 of 4 terms may have 1140 terms"):
        parse_expression(table, "(x[1]+x[2]+x[3]+x[4])^17")
    gl8 = parse(print_document(document_from_spec("gl8", gl_spec(8))))
    assert len(gl8.table.gens) == 64
    assert parse("algebroid wide degree 0\nodd y weight 0 dim 100\n").table.gens
