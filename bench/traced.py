"""Traced in-process run: layer spans around the CLI, then per-layer probes.

The workload's commands run through `dehnlab.cli.main` in this process, with
every layer entry point the CLI calls wrapped by a span recorder. Then each
probe times one public call of one layer on inputs the benchmark builds
itself, on fresh presentations and combings, after a warm-up call, and
divides a work count that the benchmark computes by the busy time. Probes
run under a span of the layer they time. `<layer>.self_s` is the layer's
self time in the CLI pass, so the self times of the layers the commands
enter add up to `trace.wall_s`; a layer they never enter reports its probe
time instead. `trace.probe_s` is the probes' time. No span sits inside a
per-word loop.
"""

from __future__ import annotations

import contextlib
import functools
import io
import math
import random
import signal
import statistics
import subprocess
import sys
import time
from collections import deque
from pathlib import Path

import workloads as wl

SRC = Path(__file__).resolve().parent.parent / "src"

LAYERS = ("cli", "presentation", "combing", "words", "dehnstats", "counting", "cogrowth", "area")

# Names the CLI module imports from each layer and calls per command.
CLI_ENTRY_POINTS = {
    "resolve_group": "presentation",
    "make_combing": "combing",
    "dehn_exact": "dehnstats",
    "mean_exact": "dehnstats",
    "smean_exact": "dehnstats",
    "lazy_mean": "dehnstats",
    "osmean_exact": "dehnstats",
    "osmean_sampled": "dehnstats",
    "smean_sampled": "dehnstats",
    "walk_counts": "counting",
    "nonbacktracking_counts": "counting",
    "f_recurrence": "cogrowth",
    "closed_area_result": "area",
}

IMPORT_REPEATS = 5
TIMED_REPEATS = 2
ORACLE_SMALL_BUDGET = 200


class Spans:
    """Nested wall-clock spans kept in memory: [layer, name, start, end, parent]."""

    def __init__(self):
        self.records: list[list] = []
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, layer: str, name: str):
        parent = self._open[-1] if self._open else None
        rec = [layer, name, time.perf_counter(), None, parent]
        self.records.append(rec)
        self._open.append(len(self.records) - 1)
        try:
            yield
        finally:
            rec[3] = time.perf_counter()
            self._open.pop()

    def wrap(self, layer: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(layer, fn.__name__):
                return fn(*args, **kwargs)

        return traced

    def self_times(self, records=None) -> dict[str, float]:
        """Per layer: span time minus the part its child spans cover."""
        records = self.records if records is None else records
        out = dict.fromkeys(LAYERS, 0.0)
        for layer, _, t0, t1, parent in records:
            out[layer] += t1 - t0
            if parent is not None:
                out[self.records[parent][0]] -= t1 - t0
        return out

    def wall(self, records=None) -> float:
        records = self.records if records is None else records
        return sum(t1 - t0 for _, _, t0, t1, parent in records if parent is None)


def span_cost(repeats: int = 20_000) -> float:
    """Seconds one span adds to a call: wrapped minus bare calls of a no-op."""

    def noop():
        return None

    wrapped = Spans().wrap("cli", noop)
    t0 = time.perf_counter()
    for _ in range(repeats):
        noop()
    bare = time.perf_counter() - t0
    t0 = time.perf_counter()
    for _ in range(repeats):
        wrapped()
    return max(time.perf_counter() - t0 - bare, 0.0) / repeats


# -- the CLI pass ------------------------------------------------------------------


def cli_pass(w: wl.Workload, spans: Spans, tally) -> dict[str, float]:
    from dehnlab import cli

    originals = {name: getattr(cli, name) for name in CLI_ENTRY_POINTS}
    for name, layer in CLI_ENTRY_POINTS.items():
        setattr(cli, name, spans.wrap(layer, originals[name]))
    latency = {}
    try:
        for step in w.steps:
            for cmd in step:
                out = io.StringIO()
                t0 = time.perf_counter()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                    with spans.span("cli", cmd.name):
                        code = cli.main(list(cmd.argv))
                latency[cmd.name] = time.perf_counter() - t0
                tally.record(cmd.name, f"exit code {code}" if code != 0 else cmd.check(out.getvalue()))
    finally:
        for name, fn in originals.items():
            setattr(cli, name, fn)
    return latency


# -- per-layer probes --------------------------------------------------------------


def _closed_z2_word(rng: random.Random, n: int) -> tuple[int, ...]:
    """A closed word of length n: k a1/A1 pairs and n/2-k a2/A2 pairs, shuffled."""
    k = rng.randint(0, n // 2)
    codes = [1, -1] * k + [2, -2] * (n // 2 - k)
    rng.shuffle(codes)
    return tuple(codes)


def _timed(fn, repeats: int = TIMED_REPEATS):
    """(median busy seconds of fn() over repeats, result of an untimed warm-up call)."""
    result = fn()
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times), result


def run_probes(spans: Spans, tally) -> tuple[dict, dict]:
    """Throughput per layer: (metrics, work counts)."""
    import dehnlab as dl
    from dehnlab.dehnstats import iter_closed_codes
    from dehnlab.words import enumerate_code_tuples

    metrics: dict[str, tuple[float, str]] = {}
    work: dict[str, int] = {}

    def expect(label, got, want):
        tally.record(f"probe {label}", None if got == want else f"got {got}, expected {want}")

    def rate(name, unit, count, seconds):
        work[name] = count
        metrics[name] = (count / seconds, unit)

    def count(it):
        return sum(1 for _ in it)

    rng = random.Random(1)
    with spans.span("area", "probe area_exact_z2"):
        words = [dl.Word(_closed_z2_word(rng, 12)) for _ in range(3000)]
        words += [dl.Word(_closed_z2_word(rng, 1024)) for _ in range(30)]
        busy, _ = _timed(lambda: [dl.area_exact_z2(w) for w in words])
        rate("area.winding.letters_per_s", "letters/s", sum(len(w) for w in words), busy)

    with spans.span("area", "probe area_oracle"):
        z3_words, zxz2_words = wl.area_batches()
        batch = [("z3", c) for c in z3_words[:24]] + [("zxz2", c) for c in zxz2_words[:24]]
        dl.area_oracle(dl.resolve_group("z3"), dl.Word((1, 2, -1, -2)))
        busy = 0.0
        for group, codes in batch:
            p = dl.resolve_group(group)
            w = dl.Word(codes)
            t0 = time.perf_counter()
            dl.area_oracle(p, w)
            busy += time.perf_counter() - t0
        rate("area.oracle.words_per_s", "words/s", len(batch), busy)
        # At the default budget every probe word is solved exactly, so the
        # interval count is taken at a reduced budget, where the hard words
        # run out of expansions and come back as certified intervals.
        intervals = sum(
            isinstance(dl.area_oracle(dl.resolve_group(group), dl.Word(codes), max_expansions=ORACLE_SMALL_BUDGET), dl.AreaResult)
            for group, codes in batch
        )
        work["area.oracle.small_budget_words"] = len(batch)
        metrics["area.oracle.interval_count"] = (intervals, "count")

    for name, group, n, closed in (
        ("dehnstats.closed_dfs.words_per_s", "z2", 10, wl.closed_z2_words),
        ("dehnstats.closed_dfs_general.words_per_s", "zxz2", 8, wl.closed_zxz2_words),
    ):
        with spans.span("dehnstats", f"probe iter_closed_codes {group}"):
            busy, got = _timed(lambda: count(iter_closed_codes(dl.resolve_group(group), n)))
            expect(name, got, closed(n))
            rate(name, "words/s", closed(n), busy)

    with spans.span("words", "probe enumerate_code_tuples"):
        busy, _ = _timed(lambda: deque(enumerate_code_tuples(2, 10), maxlen=0), repeats=5)
        rate("words.enumerate.words_per_s", "words/s", 4**10, busy)

    with spans.span("dehnstats", "probe osmean_exact"):
        n = 8

        def osmean():
            p = dl.resolve_group("z2")
            return dl.osmean_exact(p, dl.make_combing(p, "staircase"), n).value

        busy, got = _timed(osmean, repeats=1)
        expect("osmean_exact", str(got), "16083/8192")
        rate("dehnstats.osmean_exact.words_per_s", "words/s", 4**n, busy)

    for kind, fn in (("osmean", dl.osmean_sampled), ("smean", dl.smean_sampled)):
        with spans.span("dehnstats", f"probe {kind}_sampled"):
            samples = 500
            p = dl.resolve_group("z2")
            fn(p, dl.make_combing(p, "staircase"), 64, 100, 1)
            p = dl.resolve_group("z2")
            c = dl.make_combing(p, "staircase")
            t0 = time.perf_counter()
            fn(p, c, wl.SAMPLED_N, samples, 1)
            rate(f"dehnstats.{kind}_sampled.samples_per_s", "samples/s", samples, time.perf_counter() - t0)

    for name, fn, group, n, states, total in (
        ("counting.walk.states_per_s", dl.walk_counts, "z2", 30, wl.walk_states_z2, 4**30),
        ("counting.walk_torsion.states_per_s", dl.walk_counts, "zxz2", 120, wl.walk_states_zxz2, 4**120),
        ("counting.nonbacktracking.states_per_s", dl.nonbacktracking_counts, "z2", 24, wl.nonbacktracking_states_z2, 4 * 3**23),
    ):
        with spans.span("counting", f"probe {name}"):
            busy, table = _timed(lambda: fn(dl.resolve_group(group), n), repeats=1)
            expect(name, table.total(), total)
            rate(name, "states/s", states(n), busy)

    with spans.span("cogrowth", "probe f_recurrence"):
        n = 200
        busy, fs = _timed(lambda: dl.f_recurrence(n), repeats=1)
        expect("f_recurrence", (len(fs), fs[2]), (n + 1, 8))
        rate("cogrowth.f_recurrence.terms_per_s", "terms/s", n + 1, busy)

    with spans.span("presentation", "probe compose"):
        p = dl.resolve_group("zxz2")
        elems = [p.canonical_form((x, y)) for x in range(-30, 30) for y in range(2)]
        busy, _ = _timed(lambda: [p.compose(g, h) for g in elems for h in elems])
        rate("presentation.compose.ops_per_s", "ops/s", len(elems) ** 2, busy)

    with spans.span("presentation", "probe length_table"):
        r3, r2 = 14, 1500
        busy, got = _timed(
            lambda: len(dl.resolve_group("z3").length_table(r3)) + len(dl.resolve_group("zxz2").length_table(r2))
        )
        entries = (2 * r3 + 1) * (2 * r3 * r3 + 2 * r3 + 3) // 3 + 4 * r2
        expect("length_table", got, entries)
        rate("presentation.length_table.entries_per_s", "entries/s", entries, busy)

    with spans.span("combing", "probe comb_to"):
        radius = 60
        p = dl.resolve_group("z2")
        targets = [
            p.canonical_form((x, y))
            for x in range(-radius, radius + 1)
            for y in range(abs(x) - radius, radius - abs(x) + 1)
        ]

        def comb():
            c = dl.make_combing(dl.resolve_group("z2"), "staircase")
            return [c.comb_to(v) for v in targets]

        busy, _ = _timed(comb)
        rate("combing.comb_to.calls_per_s", "calls/s", len(targets), busy)

    return metrics, work


def import_seconds(runner) -> float:
    times = []
    for _ in range(IMPORT_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", "import dehnlab"], env=runner.env, cwd=runner.out.parent,
            check=True, timeout=60, stdin=subprocess.DEVNULL,
        )
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _alarm(signum, frame):
    raise TimeoutError("traced run passed its deadline")


def run_traced(w: wl.Workload, runner, tally) -> tuple[dict, dict]:
    sys.path.insert(0, str(SRC))
    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.alarm(max(1, math.floor(runner.deadline - time.monotonic())))
    try:
        import_s = import_seconds(runner)
        spans = Spans()
        latency = cli_pass(w, spans, tally)
        n_cli = len(spans.records)
        probes, work = run_probes(spans, tally)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)

    cli_spans, probe_spans = spans.records[:n_cli], spans.records[n_cli:]
    cli_self = spans.self_times(cli_spans)
    probe_self = spans.self_times(probe_spans)
    metrics = dict(probes)
    metrics["setup.import_s"] = (import_s, "s")
    for layer in LAYERS:
        # A layer the workload's commands never enter reports its probe time,
        # so no self time reads a constant 0.
        metrics[f"{layer}.self_s"] = (cli_self[layer] or probe_self[layer], "s")
    metrics["trace.wall_s"] = (spans.wall(cli_spans), "s")
    metrics["trace.probe_s"] = (spans.wall(probe_spans), "s")
    metrics["trace.overhead_s"] = (span_cost() * len(spans.records), "s")
    record = {
        "cli_pass_latency_s": latency,
        "cli_pass_self_s": cli_self,
        "probe_self_s": probe_self,
        "self_s_from_probes": [layer for layer in LAYERS if not cli_self[layer]],
        "probe_work": work,
        "spans": [[layer, name, t1 - t0] for layer, name, t0, t1, _ in spans.records],
    }
    return metrics, record
