# -*- coding: utf-8 -*-
"""Command-line front end.

    turaev info FILES...       per-diagram invariants as JSON or text
    turaev classify FILES...   cycle / genus-two structure per diagram
    turaev reduce FILES...     genus reduction ladders
    turaev corpus --out DIR    exhaustive + seeded random corpora
    turaev check FILES...      surface-diagram obstruction reports

Exit codes: 0 success, 1 property violation found, 2 input error.
Identical inputs and options produce byte-identical output.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import functools
import json
import sys
from pathlib import Path

from . import corpus as corpus_mod
from . import render, states, surfcheck, surgery, tangles
from .pdcore import (
    DiagramError,
    PlanarDiagram,
    Refused,
    canonical_encoding,
    is_alternating,
    is_prime,
    parse_pd,
)

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_INPUT = 2


def _dump(data: dict) -> str:
    return json.dumps(data, sort_keys=True)


def _read(path: str) -> str:
    return Path(path).read_text(encoding="utf-8")


def _record(call) -> dict:
    """The worker's record, or an error or refused record for its input."""
    try:
        return call()
    except DiagramError as exc:
        return {"error": str(exc)}
    except Refused as exc:
        return {"refused": exc.reason}


def _map_files(paths, worker, jobs: int):
    """Apply worker to file contents, reporting results in input order.

    A worker that raises DiagramError or Refused on one file gives that
    file an error or refused record; the rest of the batch still runs.
    The pool has at most one process per readable file.
    """
    texts = []
    results = []
    for p in paths:
        try:
            texts.append(_read(p))
        except OSError as exc:
            texts.append(exc)
    workers = min(jobs, sum(not isinstance(t, OSError) for t in texts))
    if workers > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [
                None if isinstance(t, OSError) else pool.submit(worker, t) for t in texts
            ]
            for p, t, f in zip(paths, texts, futures):
                if f is None:
                    results.append((p, {"file": p, "error": str(t)}))
                else:
                    results.append((p, _record(f.result)))
    else:
        for p, t in zip(paths, texts):
            if isinstance(t, OSError):
                results.append((p, {"file": p, "error": str(t)}))
            else:
                results.append((p, _record(functools.partial(worker, t))))
    return results


def _info_worker(text: str) -> dict:
    try:
        d = parse_pd(text)
    except DiagramError as exc:
        return {"error": str(exc)}
    report = states.diagram_report(d)
    report["prime"] = is_prime(d)
    report["alternating"] = is_alternating(d)
    return report


def _classify_worker(text: str) -> dict:
    try:
        d = parse_pd(text)
    except DiagramError as exc:
        return {"error": str(exc)}
    if not is_prime(d):
        return {"refused": "composite"}
    g = states.turaev_genus(d)
    if g == 1:
        cyc = tangles.classify_genus_one(d)
        return {
            "kind": "cycle",
            "genus": 1,
            "tangles": cyc.n,
            "sizes": list(cyc.sizes),
            "signs": ["+" if s > 0 else "-" for s in cyc.signs],
            "junctions": [list(j) for j in cyc.junctions],
        }
    if g == 2:
        desc = tangles.classify_genus_two(d)
        out = desc.to_json_dict()
        out["kind"] = "genus2"
        out["genus"] = 2
        return out
    return {"kind": "other", "genus": g}


def _reduce_worker(text: str) -> dict:
    try:
        d = parse_pd(text)
    except DiagramError as exc:
        return {"error": str(exc)}
    ladder = surgery.reduce_ladder(d)
    out = ladder.to_json_dict()
    out["allTerminalsAlternating"] = all(is_alternating(t) for t in ladder.terminals)
    return out


# ``max_dual_len`` is ignored; ``bench/pipelines.py`` still passes it.
def _check_worker(text: str, *, from_turaev: bool, max_dual_len=None) -> dict:
    try:
        if from_turaev:
            d = parse_pd(text)
            s = surfcheck.turaev_surface(d)
        else:
            s = surfcheck.parse_surface(text)
    except DiagramError as exc:
        return {"error": str(exc)}
    try:
        report = surfcheck.two_intersection_loops(s)
    except Refused as exc:
        return {"refused": exc.reason}
    out = report.to_json_dict()
    if s.genus >= 1:
        try:
            out["hayashi"] = surfcheck.hayashi_complexity(s).to_json_dict()
        except Refused as exc:
            out["hayashi"] = {"refused": exc.reason}
    return out


def _emit(results, fmt: str) -> int:
    code = EXIT_OK
    for path, data in results:
        payload = dict(data)
        payload.setdefault("file", path)
        if "error" in data:
            code = max(code, EXIT_INPUT)
        if fmt == "json":
            print(_dump(payload))
        else:
            print(f"== {path}")
            for key in sorted(payload):
                if key != "file":
                    print(f"  {key}: {payload[key]}")
    return code


def _cmd_info(args) -> int:
    return _emit(_map_files(args.files, _info_worker, args.jobs), args.format)


def _cmd_classify(args) -> int:
    if args.format in ("dot", "svg"):
        code = EXIT_OK
        for path in args.files:
            try:
                d = parse_pd(_read(path))
                dec = tangles.decompose(d)
            except (OSError, DiagramError) as exc:
                print(f"error: {path}: {exc}", file=sys.stderr)
                code = EXIT_INPUT
                continue
            emit = render.decomposition_dot if args.format == "dot" else render.decomposition_svg
            sys.stdout.write(emit(dec, collapse_ribbons=args.collapse_ribbons))
        return code
    return _emit(_map_files(args.files, _classify_worker, args.jobs), args.format)


def _ladder_name(path: str) -> str:
    return Path(path).stem + ".ladder.json"


def _cmd_reduce(args) -> int:
    if args.out:
        # Inputs of one stem would overwrite each other's ladder file:
        # refuse the batch before running or writing anything.
        first: dict[str, str] = {}
        clashes = []
        for path in args.files:
            name = _ladder_name(path)
            if name in first:
                clashes.append(f"error: {first[name]} and {path} would both write {name}")
            else:
                first[name] = path
        if clashes:
            print("\n".join(clashes), file=sys.stderr)
            return EXIT_INPUT
    results = _map_files(args.files, _reduce_worker, args.jobs)
    code = EXIT_OK
    for path, data in results:
        if "error" in data or "refused" in data:
            code = max(code, EXIT_INPUT)
        elif not data.get("allTerminalsAlternating", False):
            code = max(code, EXIT_VIOLATION)
    if args.out:
        outdir = Path(args.out)
        outdir.mkdir(parents=True, exist_ok=True)
        for path, data in results:
            (outdir / _ladder_name(path)).write_text(_dump(data) + "\n", encoding="utf-8")
    return max(code, _emit(results, args.format))


def _corpus_entry(d: PlanarDiagram) -> dict:
    entry = states.diagram_report(d)
    entry["pd"] = d.to_pd_text()  # corpus diagrams are in canonical form
    entry["prime"] = is_prime(d)
    entry["alternating"] = is_alternating(d)
    return entry


def _verify_entry(d: PlanarDiagram, entry: dict) -> str | None:
    """Cross-check the classification facts on one diagram."""
    if entry["alternating"] and entry["genus"] != 0:
        return "alternating diagram with nonzero genus"
    if entry["prime"] and not entry["alternating"] and entry["genus"] < 1:
        return "prime non-alternating diagram with genus 0"
    if not entry["prime"]:
        return None
    try:
        tangles.classify_genus_one(d)
        recognized = True
    except Refused:
        recognized = False
    if recognized != (entry["genus"] == 1):
        return "cycle recognition disagrees with the genus"
    return None


def _cmd_corpus(args) -> int:
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    classes = corpus_mod.exhaustive(args.max_crossings)
    if args.random_count:
        seen = set(classes)
        for d in corpus_mod.random_corpus(args.seed, args.random_count, args.random_max_crossings):
            rows = canonical_encoding(d)
            if rows not in seen:
                seen.add(rows)
                classes.append(rows)
    diagram_dir = outdir / "diagrams"
    diagram_dir.mkdir(exist_ok=True)
    violations = []
    # One diagram at a time: each class is built, validated, written to
    # its file and to the manifest, and dropped before the next.
    with (outdir / "manifest.jsonl").open("w", encoding="utf-8") as manifest:
        for k, rows in enumerate(classes):
            d = PlanarDiagram.from_rows(rows)
            entry = _corpus_entry(d)
            if args.verify:
                problem = _verify_entry(d, entry)
                if problem:
                    violations.append((entry["pd"], problem))
            name = f"{k:06d}.pd"
            (diagram_dir / name).write_text(entry["pd"] + "\n", encoding="utf-8")
            entry["file"] = f"diagrams/{name}"
            manifest.write(_dump(entry) + "\n")
    print(f"wrote {len(classes)} diagrams to {outdir}")
    for pd_code, problem in violations:
        print(f"violation: {problem}: {pd_code}", file=sys.stderr)
    return EXIT_VIOLATION if violations else EXIT_OK


def _cmd_check(args) -> int:
    worker = functools.partial(_check_worker, from_turaev=args.from_turaev)
    results = _map_files(args.files, worker, 1)
    code = _emit(results, args.format)
    if any("refused" in data for _, data in results):
        code = max(code, EXIT_INPUT)
    return code


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _non_negative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="turaev", description=__doc__.strip().splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, formats=("json", "text")):
        p.add_argument("files", nargs="+", metavar="FILE")
        p.add_argument("--format", choices=formats, default="json")
        p.add_argument("--jobs", type=_positive_int, default=1)

    p_info = sub.add_parser("info", help="crossing, state circle, genus and adequacy report")
    common(p_info)
    p_info.set_defaults(func=_cmd_info)

    p_classify = sub.add_parser("classify", help="cycle / genus-two structure classification")
    common(p_classify, formats=("json", "text", "dot", "svg"))
    p_classify.add_argument("--collapse-ribbons", action="store_true")
    p_classify.set_defaults(func=_cmd_classify)

    p_reduce = sub.add_parser("reduce", help="genus reduction ladders")
    common(p_reduce)
    p_reduce.add_argument("--out", default=None, help="directory for per-diagram ladder files")
    p_reduce.set_defaults(func=_cmd_reduce)

    p_corpus = sub.add_parser("corpus", help="generate a deduplicated diagram corpus")
    p_corpus.add_argument("--out", required=True)
    p_corpus.add_argument("--max-crossings", type=_positive_int, default=4)
    p_corpus.add_argument("--seed", type=int, default=0)
    p_corpus.add_argument("--random-count", type=_non_negative_int, default=0)
    p_corpus.add_argument("--random-max-crossings", type=_positive_int, default=10)
    p_corpus.add_argument("--verify", action="store_true", help="cross-check classification facts")
    p_corpus.set_defaults(func=_cmd_corpus)

    p_check = sub.add_parser("check", help="surface diagram obstruction report")
    p_check.add_argument("files", nargs="+", metavar="FILE")
    p_check.add_argument("--format", choices=("json", "text"), default="json")
    p_check.add_argument("--from-turaev", action="store_true", help="treat inputs as planar diagrams and check their state surfaces")
    p_check.set_defaults(func=_cmd_check)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (DiagramError, Refused) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
