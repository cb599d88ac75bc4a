"""The checked-in CLI output corpus: what `gradedlie` prints, run by run.

    PYTHONPATH=src python tests/cli_corpus.py     # rewrite tests/cli_corpus.json

Each run records the argv, the exit code, stdout and stderr of one
`cli.run` call.  The inputs are written to a scratch directory and named by
relative paths, so the output does not depend on where it was made:

- `specs/NAME.spec`: the shipped specs, copied;
- `examples/NAME.spec`: every `constructions.EXAMPLES` spec, as `example`
  prints it;
- `refusals/NAME.spec`: inputs the CLI must refuse cleanly;
- `mutants/NAME.spec`: specs that fail the structure equations.

On every spec: `check`; `decompose` and `rep` at weights 0..degree+1;
`cohomology` at weights 0..degree with the default cap and `--cap 2`; each
in text and JSON.  Then the refusals, in text, and `check` on the mutants,
in text and JSON.  `tests/test_cli_corpus.py`
compares a fresh run with the file; a change that alters output on purpose
rewrites the file with this script and names the change.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import pathlib
from typing import Dict, List

from gradedlie import cli
from gradedlie.constructions import EXAMPLES
from gradedlie.dsl import document_from_spec, parse, print_document, to_algebroid_spec

from conftest import gl_spec

HERE = pathlib.Path(__file__).parent
SPECS = HERE.parent / "specs"
CORPUS = HERE / "cli_corpus.json"


def _refusals() -> Dict[str, str]:
    """Spec texts the CLI refuses: too deep to parse, a non-ASCII digit, a
    sector or a W-basis above the size limit, torus blocks above the size
    limit (gl(6)) and the state budget (gl(8)), d^2 != 0 under a weight-1
    module whose flatness cascade passes, a weight-0 complex that the
    default cap does not close (d x = x^2 y raises the base degree by one),
    and DSL errors whose positions are easy to get wrong (`dsl_*`), among
    them tokens after a complete expression."""
    d_lines = [line for line in (SPECS / "broken.spec").read_text().splitlines()
               if line.startswith("d ")]
    head = "algebroid dsl degree 0\nodd xi weight 0 dim 2\n"
    return {
        "deep.spec": ("algebroid deep degree 0\nodd xi weight 0 dim 2\nd xi[2] = "
                      + "(" * 200 + "xi[1]*xi[2]" + ")" * 200 + "\n"),
        "digit.spec": "algebroid digit degree 0\nodd xi weight 0 dim 2\nd xi[²] = xi[1]*xi[2]\n",
        "wide.spec": "algebroid wide degree 0\nodd y weight 0 dim 40\n",
        "tall.spec": "algebroid tall degree 6\neven s weight 1 dim 40\neven z weight 6 dim 1\n",
        "gl6.spec": print_document(document_from_spec("gl6", gl_spec(6))),
        "gl8.spec": print_document(document_from_spec("gl8", gl_spec(8))),
        "nonhom.spec": "\n".join(["algebroid nonhom degree 1", "odd xi weight 0 dim 3",
                                  "even z weight 1 dim 1", "odd p weight 1 dim 1"]
                                 + d_lines + ["d z[1] = p[1]", ""]),
        "square_anchor.spec": ("algebroid square_anchor degree 0\nbase x weight 0 dim 1\n"
                               "odd y weight 0 dim 1\nd x[1] = x[1]^2*y[1]\n"),
        # end of input after a trailing comment with no newline: the error
        # sits where the comment starts
        "dsl_comment_eof.spec": head + "d xi[2] = xi[1]*  # the factor is missing",
        "dsl_tab.spec": head + "d xi[2] =\txi[1]*xi[2]\t@\n",
        "dsl_half.spec": head + "d xi[2] = ½*xi[1]*xi[2]\n",
        "dsl_formfeed.spec": head + "\x0cd xi[2] = xi[1]*xi[2]\n",
        "dsl_equals.spec": head + "d xi[2] = xi[1] = xi[2]\n",
        "dsl_bracket_eof.spec": head + "d xi[2] = xi[1]*xi[2",
        "dsl_zero_denominator.spec": head + "d xi[2] = 1/0*xi[1]*xi[2]\n",
        "dsl_undeclared.spec": head + "d xi[2] = eta[1]*xi[2]\n",
        "dsl_reserved.spec": "algebroid dsl degree 0\nodd weight weight 0 dim 2\n",
        # tokens after a complete expression, once dropped without an error
        "dsl_trailing.spec": head + "d xi[2] = xi[1]*xi[2] xi[1]\n",
        "dsl_paren.spec": head + "d xi[2] = 2 (xi[1]*xi[2])\n",
    }


REFUSED = [
    ["check", "refusals/deep.spec"],
    ["cohomology", "refusals/deep.spec", "--weight", "0"],
    ["check", "refusals/digit.spec"],
    ["cohomology", "specs/adjoint.spec", "--weight", "0", "--cap", "1000000000"],
    ["cohomology", "specs/adjoint.spec", "--weight", "1", "--cap", "1000"],
    ["cohomology", "refusals/wide.spec", "--weight", "0"],
    ["decompose", "refusals/tall.spec", "--weight", "6"],
    ["cohomology", "refusals/gl6.spec", "--weight", "0"],
    ["cohomology", "refusals/gl8.spec", "--weight", "0"],
    ["rep", "refusals/nonhom.spec", "--weight", "1"],
    ["cohomology", "refusals/square_anchor.spec", "--weight", "0"],
    ["cohomology", "refusals/square_anchor.spec", "--weight", "0", "--cap", "0"],
] + [["check", f"refusals/dsl_{name}.spec"]
     for name in ("comment_eof", "tab", "half", "formfeed", "equals", "bracket_eof",
                  "zero_denominator", "undeclared", "reserved", "trailing", "paren")]


# adjoint.spec with x[1]*y[2]*p[1] added to d p[1]: both the anchor and the
# Jacobi family fail, so `check` prints residuals of each
MUTANTS = {
    "adjoint_xyp.spec": (SPECS / "adjoint.spec").read_text().replace(
        "d p[1] = -y[2]*p[1]\n", "d p[1] = -y[2]*p[1] + x[1]*y[2]*p[1]\n"),
}


def write_inputs(root: pathlib.Path) -> List[List[str]]:
    """Write every input under `root` and return the argv of every run, in
    corpus order."""
    files: Dict[str, str] = {}
    for path in sorted(SPECS.glob("*.spec")):
        files[f"specs/{path.name}"] = path.read_text()
    for name, maker in sorted(EXAMPLES.items()):
        files[f"examples/{name}.spec"] = print_document(
            document_from_spec(name.replace("-", "_"), maker()))
    argvs: List[List[str]] = []
    for rel, text in files.items():
        degree = to_algebroid_spec(parse(text)).degree
        runs = [["check", rel]]
        runs += [[command, rel, "--weight", str(i)] for command in ("decompose", "rep")
                 for i in range(degree + 2)]
        runs += [["cohomology", rel, "--weight", str(i)] + cap
                 for i in range(degree + 1) for cap in ([], ["--cap", "2"])]
        argvs += [argv + fmt for argv in runs for fmt in ([], ["--format", "json"])]
    for name, text in _refusals().items():
        files[f"refusals/{name}"] = text
    mutant_runs = []
    for name, text in MUTANTS.items():
        files[f"mutants/{name}"] = text
        mutant_runs += [["check", f"mutants/{name}"] + fmt for fmt in ([], ["--format", "json"])]
    for rel, text in files.items():
        (root / rel).parent.mkdir(parents=True, exist_ok=True)
        (root / rel).write_text(text, encoding="utf-8")
    return argvs + REFUSED + mutant_runs


def record(argv: List[str]) -> Dict:
    """One `cli.run` call: its argv, exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    return {"argv": argv, "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def run_corpus(root: pathlib.Path) -> List[Dict]:
    """Every run of the corpus, made in `root` (the working directory is
    restored afterwards)."""
    argvs = write_inputs(root)
    cwd = os.getcwd()
    os.chdir(root)
    try:
        return [record(argv) for argv in argvs]
    finally:
        os.chdir(cwd)


def main() -> None:
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        runs = run_corpus(pathlib.Path(tmp))
    CORPUS.write_text(json.dumps(runs, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(runs)} runs to {CORPUS}")


if __name__ == "__main__":
    main()
