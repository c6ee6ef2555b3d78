"""Every run of the golden corpus gives its frozen exit code and output digests.

``make_golden.py`` lists the runs and writes ``golden.json``; a change that
alters an output on purpose rewrites the corpus and names each changed run.
"""

import json

import make_golden


def test_outputs_match_the_golden_corpus(tmp_path):
    frozen = json.loads(make_golden.GOLDEN.read_text())
    got = make_golden.collect(tmp_path)
    assert sorted(got) == sorted(frozen)
    assert [name for name in frozen if got[name] != frozen[name]] == []
