import concurrent.futures
import hashlib
import json
import weakref
from pathlib import Path

import pytest

from turaev import cli, corpus, fixtures, render, tangles
from turaev.pdcore import DiagramError, PlanarDiagram, Refused, canonical_encoding, parse_pd
from turaev.tangles import decompose

import oracles

GENUS5_EIGHT_JUNCTIONS = (
    "X[1,2,3,4] X[5,6,7,8] X[9,10,11,12] X[13,8,14,15] X[16,17,18,19] X[20,21,22,19] "
    "X[17,13,15,18] X[22,23,24,16] X[25,26,27,28] X[29,30,31,32] X[33,34,35,36] "
    "X[14,37,38,39] X[5,40,41,6] X[33,42,43,44] X[38,45,46,39] X[35,34,47,48] "
    "X[43,42,36,2] X[28,49,45,25] X[44,1,50,51] X[11,37,7,12] X[52,3,53,54] "
    "X[49,31,30,46] X[53,10,55,54] X[4,52,56,57] X[58,56,59,60] X[24,23,60,59] "
    "X[40,55,9,41] X[48,47,27,26] X[57,58,51,50] X[20,29,32,21]"
)


@pytest.fixture(scope="module")
def insertion_rows():
    """The reference enumeration up to 5 crossings (about 8 s)."""
    return oracles.exhaustive_by_insertion(5)


class TestEnumeration:
    @pytest.mark.parametrize("n,expected", [(1, 2), (2, 8), (3, 44)])
    def test_matches_bruteforce_matchings(self, n, expected):
        ours = {
            canonical_encoding(PlanarDiagram.from_rows(rows)) for rows in corpus.exhaustive(n) if len(rows) == n
        }
        brute = oracles.brute_force_all_diagrams(n)
        assert ours == brute
        assert len(ours) == expected

    def test_matches_insertion_oracle(self, insertion_rows):
        for k in range(1, 6):
            ours = corpus.exhaustive(k)
            assert ours == [rows for rows in insertion_rows if len(rows) <= k]

    def test_shadow_levels_match_oracle(self, insertion_rows):
        from turaev.pdcore import shadow_encoding

        levels = list(corpus._shadow_levels(5))
        assert [len(level) for level in levels] == [1, 3, 7, 33, 156]
        for n, level in enumerate(levels, start=1):
            assert level == {
                shadow_encoding(PlanarDiagram(rows)) for rows in insertion_rows if len(rows) == n
            }
            for rows in level:
                for child in corpus.child_rows(rows):
                    assert PlanarDiagram.from_rows(child).n == n + 1

    def test_canonical_and_sorted(self):
        rows = corpus.exhaustive(3)
        assert all(canonical_encoding(PlanarDiagram.from_rows(r)) == r for r in rows)
        by_n = {}
        for r in rows:
            by_n.setdefault(len(r), []).append(r)
        for group in by_n.values():
            assert group == sorted(group)

    def test_trefoil_projection_in_three_crossing_corpus(self):
        from turaev.pdcore import shadow_encoding

        shadows = {shadow_encoding(PlanarDiagram.from_rows(r)) for r in corpus.exhaustive(3) if len(r) == 3}
        assert shadow_encoding(fixtures.trefoil()) in shadows

    def test_random_corpus_deterministic(self):
        a = corpus.random_corpus(5, 40, 8)
        b = corpus.random_corpus(5, 40, 8)
        assert [d.crossings for d in a] == [d.crossings for d in b]
        c = corpus.random_corpus(6, 40, 8)
        assert [d.crossings for d in a] != [d.crossings for d in c]

    def test_random_corpus_pinned(self):
        diagrams = corpus.random_corpus(20260808, 1000, 12)
        text = "\n".join(d.to_pd_text() for d in diagrams)
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "63c475c4b5eba516e06727df852d14d44b25d018c9e587177164e08ca96c19a9"
        )

    def test_random_prime_filter(self):
        from turaev.pdcore import is_prime

        for d in corpus.random_prime_diagrams(1, 10, 8):
            assert is_prime(d)


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def fixture_file(tmp_path):
    def write(name: str, text: str) -> str:
        p = tmp_path / name
        p.write_text(text, encoding="utf-8")
        return str(p)

    return write


class TestCliInfo:
    def test_trefoil(self, capsys, fixture_file):
        path = fixture_file("trefoil.pd", fixtures.trefoil().to_pd_text())
        code, out, _ = run_cli(capsys, "info", path)
        assert code == 0
        doc = json.loads(out)
        assert doc["genus"] == 0
        assert doc["adequacy"] == "adequate"
        assert doc["prime"] is True

    def test_pseudotref(self, capsys, fixture_file):
        path = fixture_file("p.pd", fixtures.pseudotref().to_pd_text())
        code, out, _ = run_cli(capsys, "info", path)
        assert json.loads(out)["genus"] == 1
        assert json.loads(out)["adequacy"] == "inadequate-diagram"

    def test_malformed_exit_2(self, capsys, fixture_file):
        path = fixture_file("bad.pd", "X[1,2,3]")
        code, out, _ = run_cli(capsys, "info", path)
        assert code == 2
        assert "error" in json.loads(out)

    def test_label_over_the_digit_limit_keeps_the_batch(self, capsys, fixture_file):
        # Python's int() refuses strings of more than 4300 digits.
        ok = fixture_file("p.pd", fixtures.pseudotref().to_pd_text())
        big = fixture_file("big.pd", "X[%s,%s,1,1]" % ("7" * 5000, "7" * 5000))
        code = cli.main(["info", ok, big])
        records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert code == 2
        assert [r["file"] for r in records] == [ok, big]
        assert records[0]["genus"] == 1 and "error" not in records[0]
        assert set(records[1]) == {"error", "file"}

    def test_deeply_nested_json_keeps_the_batch(self, capsys, fixture_file):
        # The JSON decoder gives up on nesting past the recursion limit.
        ok = fixture_file("p.pd", fixtures.pseudotref().to_pd_text())
        deep = fixture_file("deep.json", '{"crossings": ' + "[" * 200_000 + "]" * 200_000 + "}")
        code = cli.main(["info", ok, deep])
        records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert code == 2
        assert [r["file"] for r in records] == [ok, deep]
        assert records[0]["genus"] == 1 and "error" not in records[0]
        assert set(records[1]) == {"error", "file"}

    def test_text_format(self, capsys, fixture_file):
        path = fixture_file("t.pd", fixtures.trefoil().to_pd_text())
        code, out, _ = run_cli(capsys, "info", path, "--format", "text")
        assert code == 0
        assert "genus: 0" in out

    def test_jobs_preserve_order(self, capsys, fixture_file):
        p1 = fixture_file("a.pd", fixtures.trefoil().to_pd_text())
        p2 = fixture_file("b.pd", fixtures.pseudotref().to_pd_text())
        _, seq, _ = run_cli(capsys, "info", p1, p2)
        _, par, _ = run_cli(capsys, "info", p1, p2, "--jobs", "2")
        strip = lambda s: [json.dumps({k: v for k, v in json.loads(line).items() if k != "file"}, sort_keys=True) for line in s.splitlines()]
        assert strip(seq) == strip(par)


class TestCliClassify:
    def test_pseudotref_cycle(self, capsys, fixture_file):
        path = fixture_file("p.pd", fixtures.pseudotref().to_pd_text())
        code, out, _ = run_cli(capsys, "classify", path)
        doc = json.loads(out)
        assert code == 0
        assert doc["kind"] == "cycle"
        assert doc["tangles"] == 2

    def test_gen2a_case(self, capsys, fixture_file):
        path = fixture_file("g.pd", fixtures.gen2a().to_pd_text())
        code, out, _ = run_cli(capsys, "classify", path)
        doc = json.loads(out)
        assert doc["kind"] == "genus2"
        assert doc["case"] == 1

    def test_case6_exit_0(self, capsys, fixture_file):
        from test_tangles import CASE6

        path = fixture_file("case6.pd", CASE6)
        code, out, _ = run_cli(capsys, "classify", path)
        assert code == 0
        assert json.loads(out)["case"] == 6

    def test_connsum_refused(self, capsys, fixture_file):
        path = fixture_file("c.pd", fixtures.connsum().to_pd_text())
        code, out, _ = run_cli(capsys, "classify", path)
        assert code == 0
        assert json.loads(out)["refused"] == "composite"

    def test_trefoil_genus_echo(self, capsys, fixture_file):
        path = fixture_file("t.pd", fixtures.trefoil().to_pd_text())
        _, out, _ = run_cli(capsys, "classify", path)
        assert json.loads(out) == {"file": path, "kind": "other", "genus": 0}

    def test_dot_output(self, capsys, fixture_file):
        path = fixture_file("p.pd", fixtures.pseudotref().to_pd_text())
        code, out, _ = run_cli(capsys, "classify", path, "--format", "dot")
        assert code == 0
        assert out.startswith("graph decomposition {")
        assert "fillcolor=palegreen" in out

    def test_svg_output(self, capsys, fixture_file):
        path = fixture_file("p.pd", fixtures.pseudotref().to_pd_text())
        code, out, _ = run_cli(capsys, "classify", path, "--format", "svg")
        assert code == 0
        assert out.startswith("<svg")


class TestCliReduce:
    def test_gen2a_ladder(self, capsys, fixture_file, tmp_path):
        path = fixture_file("g.pd", fixtures.gen2a().to_pd_text())
        outdir = tmp_path / "ladders"
        code, out, _ = run_cli(capsys, "reduce", path, "--out", str(outdir))
        assert code == 0
        doc = json.loads(out)
        assert doc["cutSteps"] == 2
        assert doc["allTerminalsAlternating"] is True
        written = json.loads((outdir / "g.ladder.json").read_text())
        assert written["cutSteps"] == 2

    def test_out_names_collide(self, capsys, tmp_path):
        # a/k.pd and b/k.pd would both write k.ladder.json: the batch is
        # refused before any ladder is run or written.
        paths = []
        for sub, d in (("a", fixtures.gen2a()), ("b", fixtures.pseudotref())):
            (tmp_path / sub).mkdir()
            path = tmp_path / sub / "k.pd"
            path.write_text(d.to_pd_text(), encoding="utf-8")
            paths.append(str(path))
        outdir = tmp_path / "ladders"
        code, out, err = run_cli(capsys, "reduce", "--out", str(outdir), *paths)
        assert code == 2
        assert out == ""
        assert paths[0] in err and paths[1] in err and "k.ladder.json" in err
        assert not outdir.exists()

    def test_trefoil_empty_ladder(self, capsys, fixture_file):
        path = fixture_file("t.pd", fixtures.trefoil().to_pd_text())
        code, out, _ = run_cli(capsys, "reduce", path)
        assert code == 0
        assert json.loads(out)["cutSteps"] == 0

    def test_corrupted_exit_2(self, capsys, fixture_file):
        path = fixture_file("bad.pd", "X[1,1,1,1]")
        code, out, _ = run_cli(capsys, "reduce", path)
        assert code == 2

    def test_more_than_sixteen_composite_circles(self, capsys, fixture_file):
        # The intermediate diagram of the first cut has 19 concentric
        # composite circles.
        from test_surgery import NESTED_19

        from turaev.pdcore import is_alternating

        path = fixture_file("nested.pd", NESTED_19)
        code, out, _ = run_cli(capsys, "reduce", path)
        assert code == 0
        doc = json.loads(out)
        assert doc["cutSteps"] == parse_pd(NESTED_19).genus
        assert doc["allTerminalsAlternating"] is True
        assert all(is_alternating(parse_pd(t)) for t in doc["terminals"])


class TestCliCorpus:
    def test_deterministic_manifest(self, capsys, tmp_path):
        out1 = tmp_path / "c1"
        out2 = tmp_path / "c2"
        for out in (out1, out2):
            code, _, _ = run_cli(
                capsys, "corpus", "--out", str(out), "--max-crossings", "3",
                "--seed", "9", "--random-count", "20", "--verify",
            )
            assert code == 0
        m1 = (out1 / "manifest.jsonl").read_bytes()
        m2 = (out2 / "manifest.jsonl").read_bytes()
        assert m1 == m2

    def test_manifest_contents(self, capsys, tmp_path):
        out = tmp_path / "c"
        run_cli(capsys, "corpus", "--out", str(out), "--max-crossings", "2")
        lines = (out / "manifest.jsonl").read_text().splitlines()
        assert len(lines) == 10  # 2 one-crossing + 8 two-crossing classes
        for line in lines:
            entry = json.loads(line)
            d = parse_pd(entry["pd"])
            assert entry["c"] == d.n
            assert (out / entry["file"]).exists()

    def test_holds_one_diagram_at_a_time(self, capsys, tmp_path, monkeypatch):
        # Every diagram the run builds is tracked; when an entry is made,
        # at most the current diagram and the one before it may be alive.
        built = []
        live = []
        from_rows, corpus_entry = PlanarDiagram.from_rows, cli._corpus_entry

        def tracked_from_rows(*args, **kwargs):
            d = from_rows(*args, **kwargs)
            built.append(weakref.ref(d))
            return d

        def counted_entry(d):
            live.append(sum(ref() is not None for ref in built))
            return corpus_entry(d)

        monkeypatch.setattr(PlanarDiagram, "from_rows", staticmethod(tracked_from_rows))
        monkeypatch.setattr(cli, "_corpus_entry", counted_entry)
        code, _, _ = run_cli(capsys, "corpus", "--out", str(tmp_path), "--max-crossings", "4", "--verify")
        assert code == 0
        assert len(live) == 471
        assert max(live) <= 2

    def test_stopped_run_keeps_written_lines(self, capsys, tmp_path, monkeypatch):
        corpus_entry = cli._corpus_entry
        made = []

        def failing_entry(d):
            if len(made) == 7:
                raise DiagramError("stopped")
            made.append(d.to_pd_text())
            return corpus_entry(d)

        monkeypatch.setattr(cli, "_corpus_entry", failing_entry)
        code, _, err = run_cli(capsys, "corpus", "--out", str(tmp_path), "--max-crossings", "3")
        assert code == 2
        assert "stopped" in err
        lines = (tmp_path / "manifest.jsonl").read_text(encoding="utf-8").splitlines()
        assert [json.loads(line)["pd"] for line in lines] == made
        assert sorted(p.name for p in (tmp_path / "diagrams").iterdir()) == [f"{k:06d}.pd" for k in range(7)]

    def test_max_crossings_below_one_rejected(self, capsys, tmp_path):
        out = tmp_path / "c0"
        for value in ("0", "-3"):
            with pytest.raises(SystemExit) as exc:
                cli.main(["corpus", "--out", str(out), "--max-crossings", value])
            assert exc.value.code == 2
            assert "--max-crossings" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "option, value",
        [("--random-max-crossings", "0"), ("--random-max-crossings", "-1"), ("--random-count", "-1")],
    )
    def test_random_options_out_of_range_rejected(self, capsys, tmp_path, option, value):
        out = tmp_path / "c"
        argv = ["corpus", "--out", str(out), "--random-count", "2", option, value]
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        assert option in capsys.readouterr().err
        assert not out.exists()


def _answer_or_raise(text: str) -> dict:
    """A batch worker that fails on "fail", refuses "refuse" and answers
    anything else; module level so that a process pool can pickle it."""
    if text == "fail":
        raise DiagramError("broken input")
    if text == "refuse":
        raise Refused("outside the contract")
    return {"length": len(text)}


class TestCliBatch:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_one_bad_file_keeps_the_batch(self, fixture_file, jobs):
        texts = ["ok", "fail", "refuse", "fine"]
        paths = [fixture_file(f"{k}.txt", t) for k, t in enumerate(texts)]
        results = cli._map_files(paths, _answer_or_raise, jobs)
        assert [p for p, _ in results] == paths
        assert [data for _, data in results] == [
            {"length": 2},
            {"error": "broken input"},
            {"refused": "outside the contract"},
            {"length": 4},
        ]

    @pytest.mark.parametrize("jobs,expected", [(5000, 3), (2, 2), (1, None)])
    def test_pool_capped_at_readable_files(self, monkeypatch, fixture_file, jobs, expected):
        texts = ["ok", "fail", "refuse"]
        paths = [fixture_file(f"{k}.txt", t) for k, t in enumerate(texts)]
        paths.insert(1, str(Path(paths[0]).parent / "missing.txt"))
        pools = []

        class InProcessPool:
            """Records max_workers and runs each task at submit time."""

            def __init__(self, max_workers):
                pools.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                future = concurrent.futures.Future()
                try:
                    future.set_result(fn(*args))
                except Exception as exc:
                    future.set_exception(exc)
                return future

        monkeypatch.setattr(cli.concurrent.futures, "ProcessPoolExecutor", InProcessPool)
        results = cli._map_files(paths, _answer_or_raise, jobs)
        assert pools == ([] if expected is None else [expected])
        assert [data for _, data in results][2:] == [{"error": "broken input"}, {"refused": "outside the contract"}]
        assert "error" in results[1][1] and results[0][1] == {"length": 2}

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_must_be_positive(self, capsys, fixture_file, jobs):
        path = fixture_file("t.pd", fixtures.trefoil().to_pd_text())
        with pytest.raises(SystemExit) as exc:
            cli.main(["info", "--jobs", jobs, path])
        assert exc.value.code == 2
        assert "must be at least 1" in capsys.readouterr().err


# sha256 of what each subcommand prints over the named fixtures, written
# as <name>.pd in the working directory. Caching and refactoring inside the
# library must leave these bytes alone.
GOLDEN_FIXTURES = ("kink", "trefoil", "pseudotref", "clasp2", "connsum", "cycle4", "aa6", "gen2a", "gen2b")
GOLDEN_DIGESTS = {
    "info": "cce62da5d63159db6b2afb5c95b3f2921b59cc5c18e2a8e48df3d1f5489d39f1",
    "classify": "e16bddbf5c62398130e4cf1b7559d426748623feaee27656b8389a4e43d428b9",
    "reduce": "ec07f5d2136999f6f3f509dabad0f706b65f2bb4ffd7d7a69c219cd244ba7998",
    "check --from-turaev": "9368fa08210d6e1a83b0a250ee4cf6e270463b0b90cc7e1aacf3836cf2b826ed",
}
# manifest.jsonl of `turaev corpus --max-crossings 4 --verify`.
GOLDEN_MANIFEST_4 = "f097663a5de97a8d99ab715f9a6406c1d92fe183c6491bfd1c01597a069cb6c5"
# manifest.jsonl then every diagrams/*.pd in name order, of `turaev corpus
# --max-crossings 4 --verify --seed 9 --random-count 20`.
GOLDEN_TREE_4_RANDOM = "ea7fe94d7e28f973ddd0cd8cd248f84e71d4b3cc5d0eb0f1e816f9c251424272"


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class TestCliGolden:
    @pytest.mark.parametrize("command", sorted(GOLDEN_DIGESTS))
    def test_fixture_output(self, capsys, tmp_path, monkeypatch, command):
        monkeypatch.chdir(tmp_path)
        files = []
        for name in GOLDEN_FIXTURES:
            Path(name + ".pd").write_text(getattr(fixtures, name)().to_pd_text() + "\n", encoding="utf-8")
            files.append(name + ".pd")
        code, out, _ = run_cli(capsys, *command.split(), *files)
        assert code == 0
        assert _sha256(out.encode("utf-8")) == GOLDEN_DIGESTS[command]

    def test_corpus_manifest(self, capsys, tmp_path):
        code, _, _ = run_cli(capsys, "corpus", "--out", str(tmp_path), "--max-crossings", "4", "--verify")
        assert code == 0
        assert _sha256((tmp_path / "manifest.jsonl").read_bytes()) == GOLDEN_MANIFEST_4

    def test_corpus_tree_with_random_additions(self, capsys, tmp_path):
        argv = ["corpus", "--out", str(tmp_path), "--max-crossings", "4", "--verify", "--seed", "9", "--random-count", "20"]
        code, _, _ = run_cli(capsys, *argv)
        assert code == 0
        files = sorted((tmp_path / "diagrams").glob("*.pd"))
        assert len(files) == 483
        data = (tmp_path / "manifest.jsonl").read_bytes() + b"".join(p.read_bytes() for p in files)
        assert _sha256(data) == GOLDEN_TREE_4_RANDOM


class TestCliMalformedJson:
    BAD = {
        "no-key.json": '{"foo": 1}',
        "int.json": '{"crossings": 5}',
        "flat.json": '{"crossings": [1, 2]}',
        "top-list.json": "[[1]]",
        "string.json": '{"crossings": [["a", 1, 2, 2]]}',
        "float.json": '{"crossings": [[1, 1, 2, 2.5]]}',
        "bool.json": '{"crossings": [[true, 1, 2, 2]]}',
        "negative.json": '{"crossings": [[-1, 2, -2, -1], [2, -2, 3, 3]]}',
    }

    @pytest.mark.parametrize("command", ["info", "check", "check --from-turaev"])
    def test_each_bad_file_gets_an_error_record(self, capsys, fixture_file, command):
        paths = [fixture_file(name, text) for name, text in self.BAD.items()]
        trefoil = fixture_file("trefoil.pd", fixtures.trefoil().to_pd_text())
        code, out, _ = run_cli(capsys, *command.split(), *paths, trefoil)
        records = [json.loads(line) for line in out.splitlines()]
        assert code == 2
        assert [r["file"] for r in records] == paths + [trefoil]
        assert all(set(r) == {"error", "file"} for r in records[:-1])
        assert "error" not in records[-1] and records[-1]["genus"] == 0


class TestCliCheck:
    def test_torusgrid_obstructed(self, capsys, fixture_file):
        path = fixture_file("tg.pd", fixtures.torusgrid().to_pd_text())
        code, out, _ = run_cli(capsys, "check", path)
        assert code == 0
        doc = json.loads(out)
        assert doc["verdict"] == "obstructed"
        assert doc["hayashi"]["complexity"] == 4
        assert doc["hayashi"]["marker"] == "exact"

    def test_pseudotref_complex(self, capsys, fixture_file):
        path = fixture_file("p.pd", fixtures.pseudotref().to_pd_text())
        code, out, _ = run_cli(capsys, "check", path, "--from-turaev")
        doc = json.loads(out)
        assert doc["verdict"] == "loop-found"
        assert doc["hayashi"]["complexity"] == 2
        assert doc["hayashi"]["marker"] == "exact"

    def test_planar_not_applicable(self, capsys, fixture_file):
        path = fixture_file("t.pd", "genus-free: true\n" + fixtures.trefoil().to_pd_text())
        code, out, _ = run_cli(capsys, "check", path)
        assert json.loads(out)["verdict"] == "not-applicable"

    def test_non_alternating_refused(self, capsys, fixture_file):
        path = fixture_file("p.pd", "genus-free: true\n" + fixtures.pseudotref().to_pd_text())
        code, out, _ = run_cli(capsys, "check", path)
        assert code == 2
        assert "refused" in json.loads(out)


class TestRender:
    def test_dot_deterministic(self):
        dec = decompose(fixtures.pseudotref())
        assert render.decomposition_dot(dec) == render.decomposition_dot(dec)

    def test_collapsed_ribbons(self):
        dec = decompose(fixtures.gen2a())
        dot = render.decomposition_dot(dec, collapse_ribbons=True)
        assert "ribbon" in dot

    def test_collapsed_ribbons_skip_the_canonical_string(self, monkeypatch):
        # A 30-crossing genus-5 prime with eight junctions; drawing never
        # reads the canonical junction string.
        import xml.etree.ElementTree as ET

        def encoder(*args):
            raise AssertionError("canonical junction string built")

        monkeypatch.setattr(tangles, "_canonical_junction_structure", encoder)
        dec = decompose(parse_pd(GENUS5_EIGHT_JUNCTIONS))
        dot = render.decomposition_dot(dec, collapse_ribbons=True)
        assert dot.count("ribbon len=1 parity=1") == 3
        ET.fromstring(render.decomposition_svg(dec, collapse_ribbons=True))

    def test_svg_wellformed(self):
        import xml.etree.ElementTree as ET

        dec = decompose(fixtures.gen2b())
        svg = render.decomposition_svg(dec)
        ET.fromstring(svg)
