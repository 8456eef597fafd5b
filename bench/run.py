"""turaev-tools benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout: the library is imported from ``src/``
and the independent oracles from ``tests/oracles.py``; nothing is built.

Workloads (all single-process, one core):

``table-small``  2000 seeded random connected diagrams with 1-12
                 crossings, written as PD files and run through
                 ``cli.main`` batches of info, classify, reduce and
                 check --from-turaev.
``prime-mid``    200 prime non-alternating diagrams with 8-60
                 crossings, called diagram by diagram through the CLI's
                 own per-file workers.
``corpus-enum``  ``turaev corpus --max-crossings 5 --verify`` through
                 ``cli.main``, then 1000 seeded random connected diagrams
                 with 1-5 crossings diagram by diagram.

Every workload runs every stage, at its own scale, so each end-to-end
metric is measured on each workload: the enumeration stage is
``--max-crossings 4`` outside corpus-enum, and per-diagram latencies and
the ``aa`` stage always use per-diagram calls.

A run builds its inputs, runs an unmeasured warm-up pass over a tenth of
them, then repeats measured passes until ``--seconds`` have passed.  A
pass feeds the inputs through the stages in ten interleaved chunks (one
CLI batch per subcommand and chunk), so every stage samples the whole
pass.  Rates and the enumeration time are medians over the run;
a latency is the median of one diagram's calls, and set-up time the
median of fresh-interpreter launches spread over the passes.  All are
times at a reference machine speed, measured by a probe in a child
process (see CAL_REFERENCE_S); the raw readings are printed beside them.
A call that overruns DEADLINE_S is stopped, counted as failed, and not
re-run in later passes; rates count only the time of the calls that
finished.  Every output is checked against the oracles after timing.
With ``--trace 1`` untraced and traced passes alternate; the per-layer
metrics come from the traced ones and their difference is the tracing
overhead.  The last line of stdout is the JSON
result.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
try:
    import oracles  # noqa: F401
    from turaev import cli
except ImportError as exc:
    sys.exit(f"cannot import the library and its oracles under {ROOT}: {exc}")

import inputs  # noqa: E402
import pipelines  # noqa: E402
import spans  # noqa: E402

WORKLOADS = ("table-small", "prime-mid", "corpus-enum")
PIPELINES = pipelines.PIPELINES
CLI_ARGV = {"cli.info": ["info"], "cli.classify": ["classify"], "cli.reduce": ["reduce"],
            "cli.check": ["check", "--from-turaev"]}

# A pipeline call running longer than this is stopped and counted as a
# failed operation.  Without it the exponential Hayashi search holds some
# 50-crossing diagrams for minutes.  On prime-mid the check calls that
# finish take at most about 0.4 s and the stopped ones 2 s or more.
DEADLINE_S = 1.0
STOPPED = json.dumps({"deadline": DEADLINE_S})
CHUNKS = 10
# After every pass, the inputs ranked 8th to 16th slowest so far in each
# latency stage, which decide its tail percentile (the 11th slowest), are
# called TAIL_REPEATS times more (not counted in rates), so that the tail
# rests on the median of more calls than the passes alone give.  Single
# calls of one diagram vary by 10-20% on a shared machine, even scaled.
TAIL_RANKS = slice(7, 16)
TAIL_REPEATS = 3
ENUM_ITEM = -1 - CHUNKS
# Untraced runs time one set-up launch every other chunk, and top up to
# this many at the end of the run.
SETUP_LAUNCHES = 20
# On a shared 2-core virtual machine (Intel Xeon, Python 3.11) the same
# work ran up to twice as fast or slow from one second to the next.  A
# fixed piece of benchmark-owned work (the input generator's planarity
# and primality checks on CAL_DIAGRAMS fixed diagrams, no library code)
# is timed by a child process (calib.py) before and after each block of
# timed work (a chunk's stages, a set-up launch, the tail repeats) and
# during enumerations, and every time is reported at the machine speed at
# which that work takes CAL_REFERENCE_S: multiplied by CAL_REFERENCE_S /
# (the mean of the readings around it).  The child's heap holds none of
# the library's state, so a library that slows the benchmark process
# does not slow the probe; it runs on the same CPU (see main), as two
# virtual CPUs differ.  The raw readings are printed beside the scaled
# ones, and the median reading over CAL_REFERENCE_S is the per-layer
# metric ``machine.slowdown``.
CAL_DIAGRAMS = 600
CAL_REFERENCE_S = 0.018
# An enumeration takes 0.6 s (4 crossings) or 10 s (5 crossings), in
# which the machine can change speed many times; the probe reads it every
# TICK_S[crossings] of CPU time (see probed_call).
TICK_S = {4: 0.1, 5: 0.25}
CORPUS_LEVELS = {1: 2, 2: 10, 3: 54, 4: 471, 5: 5211}  # cumulative class counts
CORPUS_SAMPLE = 1000

E2E_UNITS = {
    "setup_s": "s",
    "info_dps": "1/s",
    "classify_dps": "1/s",
    "reduce_dps": "1/s",
    "check_dps": "1/s",
    "aa_dps": "1/s",
    "reduce_p50_ms": "ms",
    "reduce_tail_ms": "ms",
    "check_p50_ms": "ms",
    "check_tail_ms": "ms",
    "enum_s": "s",
    "answered_share": "share",
    "peak_rss_mb": "MB",
}
HOT_SPOTS = {
    "pdcore.canonical_rows.calls": "count",
    "pdcore.canonical_rows.self_s": "s",
    "corpus.child_rows.out": "count",
    "corpus.useful_ratio": "ratio",
    "pdcore.from_rows.calls": "count",
    "pdcore.composite_circles.calls": "count",
    "pdcore.composite_circles.self_s": "s",
    "states.state_circles.calls": "count",
    "states.state_circles.self_s": "s",
    "surgery.split_step.calls": "count",
    "surgery.split_step.self_s": "s",
    "surgery.certify_concentric.self_s": "s",
    "surfcheck.hayashi_complexity.self_s": "s",
    "surfcheck.hayashi.examined": "count",
    "tangles.decompose.self_s": "s",
    "tangles.classify_genus_two.unmatched": "count",
    "moves.almost_alternating_form.refused": "count",
}
LAYER_UNITS = {
    **{f"{layer}.{what}": unit for layer in spans.LAYERS
       for what, unit in (("calls", "count"), ("self_s", "s"), ("refused", "count"), ("errors", "count"))},
    **HOT_SPOTS,
    "trace.overhead_share": "share",
    "trace.spans": "count",
    "machine.slowdown": "ratio",
}


class Deadline(BaseException):
    """Raised from SIGALRM in a pipeline call that overran DEADLINE_S."""


def _on_alarm(signum, frame):
    raise Deadline


def timed_call(fn, arg) -> tuple[float, str]:
    """(seconds, JSON output) of one pipeline call; an exception or the
    deadline becomes the output."""
    t0 = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, DEADLINE_S)
        try:
            out = fn(arg)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except Deadline:
        return time.perf_counter() - t0, STOPPED
    except Exception as exc:  # noqa: BLE001 - any exception is a failed operation
        out = {"error": f"{type(exc).__name__}: {exc}"}
    return time.perf_counter() - t0, json.dumps(out, sort_keys=True)


class Probe:
    """The machine-speed probe child process (calib.py)."""

    def __init__(self) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "calib.py"), str(CAL_DIAGRAMS)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, cwd=ROOT)

    def reading(self) -> float:
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        self.latest = float(self.proc.stdout.readline())
        return self.latest

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.stdin.close()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()


def launch_setup(probe: Probe, before: float) -> tuple[float, float]:
    """(wall, reference) time of a fresh interpreter importing turaev.cli
    and building its parser.  ``before`` is the latest probe reading; the
    launch takes the next one."""
    code = "import sys; sys.path.insert(0, sys.argv[1]); import turaev.cli; turaev.cli.build_parser()"
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", code, str(ROOT / "src")], check=True, cwd=ROOT)
    dt = time.perf_counter() - t0
    return dt, dt * to_reference(before, probe.reading())


def run_cli(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, buf.getvalue()


# -- workloads -------------------------------------------------------------------


class Workload:
    """The inputs of one run, their oracle facts and the stage settings."""

    def __init__(self, name: str, seed: int, work: Path, probe: Probe) -> None:
        self.name = name
        self.probe = probe
        self.work = work
        self.enum_k = 5 if name == "corpus-enum" else 4
        # The 0.6 s enumeration at 4 crossings runs three times a pass,
        # so that its median rests on more than a few scaled readings.
        self.enum_reps = 1 if self.enum_k == 5 else 3
        if name == "table-small":
            self.rows = inputs.table_small(seed)
        elif name == "prime-mid":
            self.rows = inputs.prime_mid(seed)
        else:
            # Library-independent, like the other workloads' inputs, so
            # that a new canonical form does not change them.
            self.rows = inputs.table_small(seed, CORPUS_SAMPLE, max_n=self.enum_k)
        self.texts = [inputs.pd_text(r) for r in self.rows]
        self.digest = inputs.digest(self.rows)
        self.facts = [pipelines.facts(r) for r in self.rows]
        everything = list(range(len(self.rows)))
        aa_items = [k for k, f in enumerate(self.facts) if pipelines.aa_eligible(f)]
        # Stage name -> input indices.  table-small takes its rates from
        # CLI batches and its latencies from every fourth diagram.
        if name == "table-small":
            self.stages = {f"cli.{p}": everything for p in PIPELINES[:4]}
            self.stages.update(reduce=everything[::4], check=everything[::4])
        else:
            self.stages = {p: everything for p in PIPELINES[:4]}
        self.stages["aa"] = aa_items
        self.stage_sets = {stage: set(items) for stage, items in self.stages.items()}
        self.files = []
        if name == "table-small":
            (work / "inputs").mkdir()
            for k, text in enumerate(self.texts):
                path = work / "inputs" / f"{k:05d}.pd"
                path.write_text(text + "\n", encoding="utf-8")
                self.files.append(str(path))


# -- one pass --------------------------------------------------------------------


class Pass:
    """Stage times, per-call latencies and outputs of one pass.  Times
    ending in ``_raw`` are wall times; the others are scaled to the
    reference machine speed by the probe readings on both sides of the
    block of work that holds them."""

    def __init__(self) -> None:
        self.stage_s: dict[str, float] = {}  # wall time of every call
        self.stopped_s: dict[str, float] = {}  # of which: calls stopped at the deadline
        self.done_s: dict[str, float] = {}  # scaled time of the calls that finished
        self.latency: dict[str, list[float]] = {}
        self.latency_raw: dict[str, list[float]] = {}
        self.tail_latency: dict[tuple[str, int], list[float]] = {}  # repeated tail calls
        self.outputs: dict[str, list[str | None]] = {}
        self.enum_times: list[float] = []
        self.enum_raw: list[float] = []
        self.cal_times: list[float] = []
        self.setup_times: list[tuple[float, float]] = []  # (wall, reference)
        self.manifest = ""
        self.stopped: set[tuple[str, int]] = set()
        self.wall_s = 0.0

    @property
    def busy_s(self) -> float:
        return sum(self.stage_s.values()) + sum(self.enum_raw)


def probed_call(probe: Probe, readings: list[float], tick_s: float, fn, *args):
    """(wall, reference time, result) of ``fn(*args)``, a call too long
    to scale by the readings at its two ends alone: the probe also takes
    a reading every ``tick_s`` of CPU time while it runs, and each stretch
    between readings is scaled by the two around it.  The readings'
    own time is left out.  They go to ``readings`` too."""
    marks = [(0.0, probe.reading())]  # (call time so far, reading)
    resumed = time.perf_counter()
    elapsed = 0.0

    def tick(signum, frame):
        nonlocal resumed, elapsed
        elapsed += time.perf_counter() - resumed
        marks.append((elapsed, probe.reading()))
        resumed = time.perf_counter()

    old = signal.signal(signal.SIGVTALRM, tick)
    signal.setitimer(signal.ITIMER_VIRTUAL, tick_s, tick_s)
    try:
        resumed = time.perf_counter()
        result = fn(*args)
        elapsed += time.perf_counter() - resumed
    finally:
        signal.setitimer(signal.ITIMER_VIRTUAL, 0)
        signal.signal(signal.SIGVTALRM, old)
    marks.append((elapsed, probe.reading()))
    readings += [r for _, r in marks]
    scaled = sum((t1 - t0) * to_reference(r0, r1) for (t0, r0), (t1, r1) in zip(marks, marks[1:]))
    return elapsed, scaled, result


def to_reference(before: float, after: float) -> float:
    """Factor from wall time to reference time for work between two probe
    readings."""
    return 2 * CAL_REFERENCE_S / (before + after)


def run_pass(wl: Workload, subset: int = 1, enum_k: int | None = None, tracer=None,
             stopped=frozenset(), setup: bool = False) -> Pass:
    """Every stage once, on every ``subset``-th input, with enumerations
    up to ``enum_k`` crossings (the workload's by default).  ``stopped`` holds
    the calls that an earlier pass stopped at the deadline.  With
    ``setup`` every other chunk also times one set-up launch."""
    p = Pass()
    t_pass = time.perf_counter()

    def reading() -> float:
        p.cal_times.append(wl.probe.reading())
        return p.cal_times[-1]

    def begin(item: int) -> None:
        """Spans share the id of their diagram, or of their CLI batch
        (negative) or enumeration (ENUM_ITEM)."""
        if tracer is not None:
            tracer.begin(item)

    def enumerate_corpus() -> None:
        out_dir = wl.work / "corpus"
        begin(ENUM_ITEM)
        argv = ["corpus", "--out", str(out_dir), "--max-crossings", str(enum_k), "--verify"]
        dt, scaled, (code, _) = probed_call(wl.probe, p.cal_times, TICK_S[enum_k], run_cli, argv)
        p.enum_raw.append(dt)
        p.enum_times.append(scaled)
        p.manifest = (out_dir / "manifest.jsonl").read_text(encoding="utf-8")
        p.outputs["enum"].append(f"{code} {hashlib.sha256(p.manifest.encode()).hexdigest()}")
        shutil.rmtree(out_dir)

    # Stages interleave: each chunk of inputs goes through every stage
    # before the next chunk starts, so that every stage's time spans the
    # whole pass and sees the same slow and fast seconds of a shared
    # machine as the others.
    todo = range(0, len(wl.texts), subset)
    chunks = [todo[i::CHUNKS] for i in range(CHUNKS)]
    lat: dict[str, dict[int, float]] = {stage: {} for stage in wl.stages}
    lat_raw: dict[str, dict[int, float]] = {stage: {} for stage in wl.stages}
    outs: dict[str, dict[int, str | None]] = {stage: {} for stage in wl.stages}
    for totals in (p.stage_s, p.stopped_s, p.done_s):
        totals.update(dict.fromkeys(wl.stages, 0.0))
    p.outputs["enum"] = []
    enum_k = enum_k or wl.enum_k
    enum_before = {c * CHUNKS // wl.enum_reps for c in range(wl.enum_reps)}
    for c, chunk in enumerate(chunks):
        if c in enum_before:
            enumerate_corpus()
        if setup and c % 2 == 0:
            # Timed between the latest reading and the next, which opens
            # the chunk.
            p.setup_times.append(launch_setup(wl.probe, p.cal_times[-1] if p.cal_times else reading()))
            p.cal_times.append(wl.probe.latest)
            before = wl.probe.latest
        else:
            before = reading()
        done = dict.fromkeys(wl.stages, 0.0)
        for stage in CLI_ARGV:
            if stage not in wl.stages:
                continue
            files = [wl.files[k] for k in chunk]
            begin(-1 - c)
            t0 = time.perf_counter()
            _, stdout = run_cli(CLI_ARGV[stage] + files)
            done[stage] += time.perf_counter() - t0
            by_file = {}
            for line in stdout.splitlines():
                doc = json.loads(line)
                path = doc.pop("file")
                by_file[path] = json.dumps(doc, sort_keys=True)
            # A batch that aborts prints nothing; its diagrams have no output.
            outs[stage].update((k, by_file.get(f)) for k, f in zip(chunk, files))
        for k in chunk:
            for stage in PIPELINES:
                if k not in wl.stage_sets.get(stage, ()):
                    continue
                if (stage, k) in stopped:
                    # Stopped by the deadline in an earlier pass: not re-run.
                    dt, out = DEADLINE_S, STOPPED
                else:
                    begin(k)
                    dt, out = timed_call(pipelines.RUN[stage], wl.texts[k])
                    if out == STOPPED:
                        p.stopped.add((stage, k))
                lat_raw[stage][k] = dt
                outs[stage][k] = out
                if out == STOPPED:
                    p.stopped_s[stage] += dt
                else:
                    done[stage] += dt
        f = to_reference(before, reading())
        for stage, dt in done.items():
            p.stage_s[stage] += dt
            p.done_s[stage] += dt * f
        for stage in lat:
            for k in chunk:
                if k in lat_raw[stage]:
                    # A stopped call costs the deadline at any speed.
                    stop = outs[stage][k] == STOPPED
                    lat[stage][k] = DEADLINE_S if stop else lat_raw[stage][k] * f
    for stage, dt in p.stopped_s.items():
        p.stage_s[stage] += dt
    for stage, items in wl.stages.items():
        ks = [k for k in items if k in outs[stage]]
        p.outputs[stage] = [outs[stage][k] for k in ks]
        if not stage.startswith("cli."):
            p.latency[stage] = [lat[stage][k] for k in ks]
            p.latency_raw[stage] = [lat_raw[stage][k] for k in ks]
    p.wall_s = time.perf_counter() - t_pass
    return p


# -- checking --------------------------------------------------------------------


class Ledger:
    """Attempted operations, failures by kind, refusals by reason."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed: dict[str, int] = {}
        self.refused: dict[str, int] = {}
        self.wrong: list[str] = []

    def fail(self, kind: str) -> None:
        self.failed[kind] = self.failed.get(kind, 0) + 1

    @property
    def n_failed(self) -> int:
        return sum(self.failed.values())


def judge(wl: Workload, p: Pass, ledger: Ledger, full: bool) -> dict[str, int]:
    """Correct answers per stage of one pass.  ``full`` (first pass) checks
    every output against the oracles; later passes must repeat it."""
    answered = {}
    problem = check_manifest(wl.enum_k, p.manifest) if full else None
    if problem:
        ledger.wrong.append(problem)
    good = 0
    for raw in p.outputs["enum"]:
        ledger.attempted += 1
        if not raw.startswith("0 "):
            ledger.fail("enum: --verify reported violations")
        elif problem:
            ledger.fail("enum: wrong output")
        else:
            good += 1
    answered["enum"] = good

    for stage, outs in p.outputs.items():
        if stage == "enum":
            continue
        pipeline = stage.rpartition(".")[2]
        ks = wl.stages[stage]
        good = 0
        for k, raw in zip(ks, outs):
            ledger.attempted += 1
            if raw is None:
                ledger.fail(f"{stage}: batch aborted")
                continue
            out = json.loads(raw)
            if "deadline" in out:
                ledger.fail(f"{pipeline}: over the {DEADLINE_S:g} s deadline")
                continue
            if "error" in out:
                ledger.fail(f"{pipeline}: {out['error']}")
                continue
            problem = pipelines.verify(pipeline, out, wl.facts[k]) if full else None
            if problem:
                ledger.fail(f"{pipeline}: wrong output")
                ledger.wrong.append(f"{stage}: {problem}: {wl.texts[k]}")
                continue
            if pipelines.is_unmatched(pipeline, out):
                ledger.fail("classify: unmatched genus-two structure")
                continue
            reason = out.get("refused") or out.get("hayashi", {}).get("refused")
            if reason and full:
                key = f"{stage}: {reason}"
                ledger.refused[key] = ledger.refused.get(key, 0) + 1
            good += 1
        answered[stage] = good
    return answered


def check_manifest(k: int, manifest: str) -> str | None:
    entries = [json.loads(line) for line in manifest.splitlines()]
    for level in range(1, k + 1):
        seen = sum(1 for e in entries if e["c"] <= level)
        if seen != CORPUS_LEVELS[level]:
            return f"{seen} classes with at most {level} crossings, expected {CORPUS_LEVELS[level]}"
    for e in entries:
        f = pipelines.facts(pipelines.rows_of(e["pd"]))
        bad = [key for key, v in f.items() if e.get(key) != v]
        if bad:
            return f"manifest fields {bad} disagree with the oracles: {e['pd']}"
    return None


def differing_stages(first: Pass, other: Pass) -> list[str]:
    """Stages whose outputs differ, ignoring calls stopped by the deadline."""
    out = []
    for stage, outs in first.outputs.items():
        for a, b in zip(outs, other.outputs[stage]):
            if a != b and "deadline" not in (a or "") + (b or ""):
                out.append(stage)
                break
    return out


def output_digest(p: Pass) -> str:
    h = hashlib.sha256()
    for stage in sorted(p.outputs):
        for raw in p.outputs[stage]:
            h.update(f"{raw}\n".encode())
    return h.hexdigest()[:16]


# -- metrics ---------------------------------------------------------------------


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with ten samples beyond."""
    s = sorted(values)
    k = max(len(s) - 11, 0)
    return s[k], 100.0 * (k + 1) / len(s)


def median_latencies(wl, passes, stage: str, raw: bool = False) -> list[float]:
    """Per input of a latency stage, the median of its calls in all
    passes (with the tail repeats, unless ``raw``).  Not the fastest: the
    fastest of many scaled calls is the one whose probe readings erred
    most, and its error grows with the number of calls."""
    out = []
    lists = (p.latency_raw[stage] if raw else p.latency[stage] for p in passes)
    for k, times in zip(wl.stages[stage], zip(*lists)):
        repeats = [] if raw else [t for p in passes for t in p.tail_latency.get((stage, k), ())]
        out.append(statistics.median(times + tuple(repeats)))
    return out


def retime_tail(wl, p: Pass, calls) -> None:
    """Time the (stage, input) ``calls`` TAIL_REPEATS times more, after
    pass ``p``."""
    for _ in range(TAIL_REPEATS):
        before = wl.probe.reading()
        times = {call: timed_call(pipelines.RUN[call[0]], wl.texts[call[1]])[0] for call in calls}
        after = wl.probe.reading()
        p.cal_times += [before, after]
        for call, dt in times.items():
            p.tail_latency.setdefault(call, []).append(dt * to_reference(before, after))


def slowest_inputs(wl, passes, stopped) -> list[tuple[str, int]]:
    out = []
    for stage in ("reduce", "check"):
        ranked = sorted(zip(median_latencies(wl, passes, stage), wl.stages[stage]), reverse=True)
        out += [(stage, k) for _, k in ranked if (stage, k) not in stopped][TAIL_RANKS]
    return out


def machine_slowdown(passes) -> float:
    return statistics.median(t for p in passes for t in p.cal_times) / CAL_REFERENCE_S


def e2e_metrics(wl, passes, answered, ledger, setup) -> tuple[dict, dict, dict]:
    """(metrics, raw readings, notes).  Rates and the enumeration time are
    medians over passes, a latency is the median of an input's calls and
    set-up time the median of the launches, all from times at the
    reference machine speed.  Rates leave
    out the calls stopped at the deadline, which count as failures.
    ``answered`` holds the correct answers of the first pass per stage;
    the later passes repeat its outputs."""
    med = statistics.median
    raw, m, notes = {"setup_s": med(t for t, _ in setup)}, {"setup_s": med(t for _, t in setup)}, {}
    notes["setup_s"] = f"median of {len(setup)} launches"
    for pipeline in PIPELINES:
        stage = f"cli.{pipeline}" if f"cli.{pipeline}" in answered else pipeline
        raw[f"{pipeline}_dps"] = med(answered[stage] / (p.stage_s[stage] - p.stopped_s[stage])
                                     for p in passes)
        m[f"{pipeline}_dps"] = med(answered[stage] / p.done_s[stage] for p in passes)
    for pipeline in ("reduce", "check"):
        for values, out in ((median_latencies(wl, passes, pipeline, raw=True), raw),
                            (median_latencies(wl, passes, pipeline), m)):
            out[f"{pipeline}_p50_ms"] = 1e3 * med(values)
            out[f"{pipeline}_tail_ms"] = 1e3 * tail(values)[0]
        notes[f"{pipeline}_tail_ms"] = f"p{tail(values)[1]:.1f} of {len(values)} diagrams"
    raw["enum_s"] = med(t for p in passes for t in p.enum_raw)
    m["enum_s"] = med(t for p in passes for t in p.enum_times)
    notes["enum_s"] = f"median of {sum(len(p.enum_times) for p in passes)} enumerations"
    m["answered_share"] = 1.0 - ledger.n_failed / ledger.attempted
    notes["answered_share"] = f"{ledger.attempted - ledger.n_failed} of {ledger.attempted} operations"
    m["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    raw["machine_slowdown"] = machine_slowdown(passes)
    return m, raw, notes


def layer_metrics(tracer) -> dict[str, float]:
    out = tracer.layer_metrics()
    for name in HOT_SPOTS:
        fn, _, what = name.rpartition(".")
        if what == "calls":
            out[name] = tracer.calls[fn]
        elif what == "self_s":
            out[name] = tracer.self_s[fn]
        elif what == "refused":
            out[name] = sum(k for (f, _), k in tracer.refused.items() if f == fn)
        else:
            out[name] = tracer.counts[name]
    canonicalized = tracer.calls_under("pdcore.canonical_rows", "corpus.exhaustive")
    out["corpus.useful_ratio"] = tracer.counts["corpus.classes"] / max(canonicalized, 1)
    return out


# -- main ------------------------------------------------------------------------


def recorded_digest(workload: str, seed: int) -> str | None:
    path = BENCH / "baseline.json"
    if not path.exists():
        return None
    doc = json.loads(path.read_text(encoding="utf-8"))
    return doc["workloads"].get(workload, {}).get("input_digests", {}).get(str(seed))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="turaev-tools benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    signal.signal(signal.SIGALRM, _on_alarm)
    # The probe stands for the CPU it runs on, and two virtual CPUs of a
    # shared machine run at different speeds from moment to moment: pin
    # this process, and with it the probe and the set-up launches, to one.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    scratch = ROOT / ".bench_work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    probe = None
    try:
        probe = Probe()
        return run(args, work, probe)
    finally:
        if probe is not None:
            probe.close()
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            scratch.rmdir()


def run(args, work: Path, probe: Probe) -> int:
    t0 = time.perf_counter()
    wl = Workload(args.workload, args.seed, work, probe)
    print(f"{wl.name} seed {args.seed}: {len(wl.texts)} inputs ({len(wl.stages['aa'])} aa-eligible), "
          f"input digest {wl.digest}, built in {time.perf_counter() - t0:.1f} s")
    expected = recorded_digest(wl.name, args.seed)
    if expected is not None and expected != wl.digest:
        print(f"input digest {wl.digest} differs from the recorded {expected}", file=sys.stderr)
        return 3

    tracer = spans.Tracer() if args.trace else None
    if tracer is None:
        launch_setup(probe, probe.reading())  # compiles the bytecode; not counted
    # The inputs, their facts and the modules stay alive all run; keep the
    # collector from walking them again in every timed call.
    gc.collect()
    gc.freeze()
    # Warm-up, not counted; its enumeration stops at 4 crossings.
    stopped = run_pass(wl, subset=10, enum_k=4).stopped

    passes: list[Pass] = []
    traced: list[Pass] = []
    layer_rows: list[dict] = []
    ledger = Ledger()

    def repeat_of_first(p: Pass, what: str) -> None:
        """Compare a later pass with the first, then drop its outputs so
        that memory does not grow with the number of passes."""
        ledger.wrong.extend(f"{what} {s} output differs from the first pass"
                            for s in differing_stages(passes[0], p))
        p.outputs, p.manifest = {}, ""

    end = time.perf_counter() + args.seconds
    while True:
        passes.append(run_pass(wl, stopped=stopped, setup=tracer is None))
        stopped |= passes[-1].stopped
        if tracer is None:
            retime_tail(wl, passes[-1], slowest_inputs(wl, passes, stopped))
        if len(passes) > 1:
            judge(wl, passes[-1], ledger, full=False)
            repeat_of_first(passes[-1], "untraced")
        if tracer is not None:
            tracer.reset_counts()
            tracer.install()
            try:
                traced.append(run_pass(wl, tracer=tracer, stopped=stopped))
            finally:
                tracer.uninstall()
            layer_rows.append(layer_metrics(tracer))
            traced_digest = output_digest(traced[-1])
            repeat_of_first(traced[-1], "traced")
        # Another round if at least half of it fits, so that runs measure
        # about ``--seconds`` on average.
        last_round = passes[-1].wall_s + (traced[-1].wall_s if traced else 0.0)
        if time.perf_counter() + last_round / 2 > end:
            break

    answered = judge(wl, passes[0], ledger, full=True)
    problem = pipelines.check_torusgrid()
    if problem:
        ledger.wrong.append(problem)
    digest = output_digest(passes[0])

    if tracer is None:
        setup = [t for p in passes for t in p.setup_times]
        for _ in range(SETUP_LAUNCHES - len(setup)):
            setup.append(launch_setup(probe, probe.latest))
        metrics, raw, notes = e2e_metrics(wl, passes, answered, ledger, setup)
        print(f"{wl.name}: {len(passes)} measured passes of "
              f"{', '.join(f'{p.wall_s:.1f}' for p in passes)} s, output digest {digest}, "
              f"machine {raw['machine_slowdown']:.3f}x the reference time")
        for k, v in metrics.items():
            reading = f"  raw {raw[k]:.4f}" if k in raw else ""
            print(f"  {k:<15} {v:>12.4f} {E2E_UNITS[k]:<5}{reading}" + (f"  ({notes[k]})" if k in notes else ""))
        units = E2E_UNITS
    else:
        metrics = {k: statistics.median(r[k] for r in layer_rows) for k in layer_rows[0]}
        # Busy time, not wall time: a call stopped at the deadline costs the
        # deadline in every pass, though only its first pass runs it.
        untraced_s = statistics.median(p.busy_s for p in passes)
        metrics["trace.overhead_share"] = statistics.median(p.busy_s for p in traced) / untraced_s - 1.0
        metrics["trace.spans"] = len(tracer.start) / len(traced)
        metrics["machine.slowdown"] = machine_slowdown(passes + traced)
        print(f"output digest untraced {digest}, last traced pass {traced_digest}")
        print_layers(metrics, tracer, passes, traced)
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        path = out_dir / f"trace-{wl.name}-seed{args.seed}.json.gz"
        tracer.write(path, {"per_layer": metrics, "refused": tracer.refusals_by_reason(),
                            "errors": tracer.errors_by_type()})
        print(f"spans and per-layer aggregates written to {path.relative_to(ROOT)}")
        units = LAYER_UNITS
    print(f"  failures by kind: {json.dumps(ledger.failed, sort_keys=True)}")
    print(f"  refusals by reason: {json.dumps(ledger.refused, sort_keys=True)}")
    for problem in ledger.wrong[:20]:
        print(f"WRONG: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not ledger.wrong,
        "attempted": ledger.attempted,
        "failed": ledger.n_failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


def print_layers(metrics, tracer, passes, traced) -> None:
    print(f"  {'layer':<10} {'calls':>9} {'self_s':>9} {'refused':>8} {'errors':>7}")
    for layer in spans.LAYERS:
        print(f"  {layer:<10} {metrics[f'{layer}.calls']:>9.0f} {metrics[f'{layer}.self_s']:>9.4f} "
              f"{metrics[f'{layer}.refused']:>8.0f} {metrics[f'{layer}.errors']:>7.0f}")
    for name in HOT_SPOTS:
        print(f"  {name:<40} {metrics[name]:.6g}")
    print("  stage seconds, untraced -> traced (median pass):")
    a = statistics.median(t for p in passes for t in p.enum_raw)
    b = statistics.median(t for p in traced for t in p.enum_raw)
    print(f"    {'enum':<13} {a:9.4f} -> {b:9.4f}  (+{b - a:.4f})")
    for stage in passes[0].stage_s:
        a = statistics.median(p.stage_s[stage] for p in passes)
        b = statistics.median(p.stage_s[stage] for p in traced)
        print(f"    {stage:<13} {a:9.4f} -> {b:9.4f}  (+{b - a:.4f})")
    print(f"  tracing overhead: {metrics['trace.overhead_share']:+.1%} of pass time")
    for key, k in tracer.refusals_by_reason().items():
        print(f"  refused {k:>6}  {key}")


if __name__ == "__main__":
    sys.exit(main())
