"""The benchmark's view of the library.

``bench/pipelines.py`` runs the CLI workers and checks their output
against the oracles; these tests import it read-only and run every
pipeline on the named fixtures, so a change that breaks the names or
signatures the benchmark calls fails here first.
"""

import sys
from pathlib import Path

import pytest

from turaev import fixtures

BENCH = Path(__file__).resolve().parent.parent / "bench"
FIXTURES = ("kink", "trefoil", "pseudotref", "clasp2", "connsum", "cycle4", "aa6", "gen2a", "gen2b")


@pytest.fixture(scope="module")
def pipelines():
    sys.path.insert(0, str(BENCH))
    try:
        import pipelines
    finally:
        sys.path.remove(str(BENCH))
    return pipelines


@pytest.mark.parametrize("name", FIXTURES)
def test_pipelines_agree_with_oracles(pipelines, name):
    text = getattr(fixtures, name)().to_pd_text()
    facts = pipelines.facts(pipelines.rows_of(text))
    ran = []
    for pipeline, run in pipelines.RUN.items():
        if pipeline == "aa" and not pipelines.aa_eligible(facts):
            continue
        assert pipelines.verify(pipeline, run(text), facts) is None, pipeline
        ran.append(pipeline)
    assert ran[:4] == ["info", "classify", "reduce", "check"]


def test_torusgrid_check(pipelines):
    assert pipelines.check_torusgrid() is None
