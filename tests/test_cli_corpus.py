import difflib
import json

from cli_corpus import CORPUS, run_corpus


def test_cli_output_matches_corpus(tmp_path):
    """Every run of the checked-in corpus prints the same stdout and stderr
    and exits with the same code; the first run that differs is named, with
    a diff.  A change that alters output on purpose rewrites the corpus
    with `tests/cli_corpus.py`."""
    expected = json.loads(CORPUS.read_text(encoding="utf-8"))
    actual = run_corpus(tmp_path)
    assert [run["argv"] for run in actual] == [run["argv"] for run in expected]
    for want, got in zip(expected, actual):
        if want == got:
            continue
        diff = []
        for stream in ("stdout", "stderr"):
            diff += difflib.unified_diff(want[stream].splitlines(), got[stream].splitlines(),
                                         f"corpus {stream}", f"now {stream}", lineterm="")
        raise AssertionError(f"gradedlie {' '.join(want['argv'])} differs from the corpus: "
                             f"exit {want['exit']} -> {got['exit']}\n" + "\n".join(diff))
    assert len(actual) > 250
