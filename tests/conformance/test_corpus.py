"""Regression corpus replay: every frozen counterexample stays fixed.

Each file under ``corpus/`` is a shrunk counterexample that exposed a real
wire-fidelity bug (attribute whitespace loss, Content-Length tampering,
non-ASCII SOAPAction crashes, request-path mangling, lifecycle and mediation
contracts).  Replaying them through the same engines the fuzzer uses means a
regression reintroducing any fixed bug fails this suite immediately — no
fuzzing luck required.
"""

from pathlib import Path

import pytest

from repro.conformance import ENGINES, load_corpus, run_corpus

CORPUS_DIR = Path(__file__).parent / "corpus"
CORPUS = load_corpus(CORPUS_DIR)


@pytest.mark.parametrize("entry", CORPUS, ids=[entry.name for entry in CORPUS])
def test_corpus_case_passes(entry):
    failure = ENGINES[entry.engine].check(entry.case)
    assert failure is None, f"{entry.name}: {failure}"


def test_corpus_covers_every_engine():
    # the corpus is the fuzzer's memory: each engine must have at least one
    # frozen counterexample so `run_corpus` exercises all seven checkers
    assert {entry.engine for entry in CORPUS} == set(ENGINES)


def test_run_corpus_matches_parametrized_replay():
    results = run_corpus(CORPUS_DIR)
    assert len(results) == len(CORPUS)
    assert all(message is None for _, message in results)


def test_known_prefix_bugs_are_pinned():
    # spot-check that the corpus actually encodes the headline bugs, so a
    # well-meaning cleanup can't hollow the files out without failing here
    names = {entry.name for entry in CORPUS}
    assert {
        "codec-attr-whitespace",
        "framing-content-length-mismatch",
        "framing-nonascii-soapaction",
        "lifecycle-wsn-zero-expires",
        "mediation-differential",
    } <= names
