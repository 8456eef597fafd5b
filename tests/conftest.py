import os
import pickle
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from turaev import corpus as corpus_mod  # noqa: E402
from turaev import pdcore, states  # noqa: E402

EXHAUSTIVE_MAX = 6
RANDOM_SEED = 20260808
RANDOM_COUNT = 1000
RANDOM_MAX = 12

_CACHE = Path(__file__).parent / "_cache"


def _cache_path(name: str) -> Path:
    return _CACHE / name


def _load_or_build(name: str, build):
    """Optionally cache expensive corpora between runs (dev only).

    Enabled with TURAEV_TEST_CACHE=1; the default regenerates everything.
    """
    if os.environ.get("TURAEV_TEST_CACHE") != "1":
        return build()
    path = _cache_path(name)
    if path.exists():
        with path.open("rb") as fh:
            return pickle.load(fh)
    data = build()
    _CACHE.mkdir(exist_ok=True)
    with path.open("wb") as fh:
        pickle.dump(data, fh)
    return data


@pytest.fixture(scope="session")
def exhaustive_rows():
    """Canonical rows of every connected diagram with <= 6 crossings."""

    def build():
        return corpus_mod.exhaustive(EXHAUSTIVE_MAX)

    return _load_or_build(f"exhaustive{EXHAUSTIVE_MAX}.rows.pkl", build)


@pytest.fixture(scope="session")
def random_rows():
    """The seeded random corpus: 1000 connected diagrams with <= 12 crossings."""
    return [
        d.crossings
        for d in corpus_mod.random_corpus(RANDOM_SEED, RANDOM_COUNT, RANDOM_MAX)
    ]


@pytest.fixture(scope="session")
def corpus_rows(exhaustive_rows, random_rows):
    return list(exhaustive_rows) + list(random_rows)


@pytest.fixture(scope="session")
def corpus_facts(corpus_rows):
    """Per-diagram basics shared by the acceptance criteria.

    One tuple per corpus diagram: (rows, n_a, n_b, genus, prime,
    alternating, verdict). Each diagram is validated as it is built.
    """

    def build():
        out = []
        for rows in corpus_rows:
            d = pdcore.PlanarDiagram.from_rows(rows)
            report = states.diagram_report(d)
            out.append(
                (
                    rows,
                    report["sA"],
                    report["sB"],
                    report["genus"],
                    pdcore.is_prime(d),
                    pdcore.is_alternating(d),
                    report["adequacy"],
                )
            )
        return out

    return _load_or_build("corpus_facts.pkl", build)


@pytest.fixture(scope="session")
def small_exhaustive_rows():
    """Connected diagrams with <= 4 crossings, for the cheaper property tests."""
    return corpus_mod.exhaustive(4)


@pytest.fixture(scope="session")
def bench_inputs():
    """``bench/inputs.py``, imported read-only for its seeded generators."""
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
    try:
        import inputs
    finally:
        sys.path.pop(0)
    return inputs


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    """One PASS/FAIL line per acceptance criterion, outside output capture."""
    outcome = yield
    report = outcome.get_result()
    if report.when != "call" or item.module.__name__ != "test_acceptance":
        return
    if "criterion_" not in item.name:
        return
    number = item.name.split("criterion_")[1].split("_")[0]
    writer = item.config.get_terminal_writer()
    if report.passed:
        detail = getattr(item.module, "RESULTS", {}).get(number, "")
        writer.line(f"\nACCEPTANCE {number}: PASS - {detail}")
    elif report.failed:
        writer.line(f"\nACCEPTANCE {number}: FAIL - see traceback")
