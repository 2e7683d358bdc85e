"""The four benchmark workloads: their CLI commands, inputs and output checks.

A workload is a list of steps. A step is one or two `dehnlab` commands whose
latencies are summed into the step's end-to-end metric; every workload has
three steps, so every workload reports the same metric names (see NOTES.md
for the step -> command map). Each command carries a check that parses its
output and returns an error string, or None when the output is correct.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

WORKLOADS = ("exact-z2", "sampled-z2", "counting", "oracle")

# Outputs of the seed commit. Exact values and count tables must stay
# bit-identical; digests cover every line of the CSV except `#` headers, so a
# change to the config header alone does not trip them.
SMEAN_Z2_10 = "200/189"
D_Z2_10 = "6"
OSMEAN_Z2_9 = "9299/4096"
SMEAN_ZXZ2_6 = "12/11"
DIGEST_COUNT_Z2_50 = "c2c395182f0a532110aa2869e2f73170601c45e823b355fde5fef1230bf5316b"
DIGEST_COUNT_NB_Z2_34 = "aa11562f22c904ebacf6293b39c9ae8fec1f6acc3894ebd8834040fbd25da982"
DIGEST_COUNT_ZXZ2_240 = "aa5335e6991511d799d1a414bbebb40eccfde6e40562267894daa28329b1118c"
DIGEST_COGROWTH_640 = "9a4fc365896bb72fb2c2dd232644393df0e325c1521c79fc025d45d63d9cbe88"

# Sampled means at n=1024, each from one 100,000-sample run of the seed commit
# (seed 20061): (estimate, standard error). On Z^2 the bfs-lex combing closes
# every path with the same word as the staircase, so both share a reference. A reported estimate passes when it
# lies within SAMPLED_Z standard errors (its own and the reference's, combined)
# of the reference, so a declared change of sampling stream still passes and,
# at the sample counts below, a kernel off by more than 4% (smean) or 7%
# (osmean) fails.
REF_OSMEAN_1024 = (408.25991, 0.7348573)
REF_SMEAN_1024 = (243.27552, 0.2424253)
SAMPLED_Z = 5.0
Z_95 = 1.96

SAMPLED_N = 1024
OSMEAN_SAMPLES = 2_000
SMEAN_SAMPLES = 1_500
BFS_SAMPLES = 1_500

# The area batches are drawn once from this fixed seed; the run seed only
# shuffles their order. The oracle's cost per word is heavy-tailed (median
# ~1 ms, a few words near 0.4-0.8 s), so a batch redrawn per run would set
# the run's time by how many hard words it happened to draw. The fixed z3
# batch holds two hard words and the zxz2 batch one.
AREA_BATCH_SEED = 20060606
AREA_WORD_LEN = 8
AREA_BATCH = 30


@dataclass
class Command:
    name: str
    argv: list[str]
    check: Callable[[str], str | None]


@dataclass
class Workload:
    name: str
    steps: list[list[Command]]
    setup_argv: list[str]
    work: dict[str, int]


# -- output parsing ------------------------------------------------------------


def data_lines(text: str) -> list[str]:
    return [line for line in text.splitlines() if line and not line.startswith("#")]


def digest(text: str) -> str:
    return hashlib.sha256("".join(l + "\n" for l in data_lines(text)).encode()).hexdigest()


def dehn_row(text: str) -> dict[str, str]:
    lines = data_lines(text)
    if len(lines) != 2:
        raise ValueError(f"expected a header and one row, got {len(lines)} lines")
    return dict(zip(lines[0].split(","), lines[1].split(",")))


def _guarded(check):
    """Turn a parse error inside a check into a failed check."""

    def run(text: str) -> str | None:
        try:
            return check(text)
        except (ValueError, KeyError, IndexError) as exc:
            return f"unparseable output: {exc}"

    return run


def exact_value(expected: str):
    def check(text):
        got = dehn_row(text)["value"]
        return None if got == expected else f"value {got} != pinned {expected}"

    return _guarded(check)


def table_digest(expected: str, invariant: Callable[[list[str]], str | None]):
    def check(text):
        got = digest(text)
        if got != expected:
            return f"table digest {got[:12]} != pinned {expected[:12]}"
        return invariant(data_lines(text)[1:])

    return _guarded(check)


def sampled_mean(ref: tuple[float, float], samples: int, seed: int):
    ref_mean, ref_se = ref

    def check(text):
        row = dehn_row(text)
        est, lo, hi = float(row["estimate"]), float(row["ci_low"]), float(row["ci_high"])
        if int(row["samples"]) != samples or int(row["seed"]) != seed:
            return f"samples/seed {row['samples']}/{row['seed']} != {samples}/{seed}"
        if not lo < est < hi:
            return f"estimate {est} outside its own interval [{lo}, {hi}]"
        se = (hi - lo) / (2 * Z_95)
        if abs(est - ref_mean) > SAMPLED_Z * math.hypot(se, ref_se):
            return f"estimate {est} is {abs(est - ref_mean) / math.hypot(se, ref_se):.1f} se from {ref_mean}"
        return None

    return _guarded(check)


# -- independent area references for the oracle batches --------------------------


def exponent_sum(codes, g: int) -> int:
    return sum((c > 0) - (c < 0) for c in codes if abs(c) == g)


def winding_area(codes) -> int:
    """Sum of |winding number| over unit cells of a closed path in the a1-a2 plane.

    Counted cell by cell over the bounding box: the winding number of cell
    (u, v) is the signed number of horizontal edges above it in column u.
    """
    x = y = 0
    edges = []
    for c in codes:
        if c in (1, -1):
            edges.append((min(x, x + c), y, c))
            x += c
        else:
            y += 1 if c > 0 else -1
    if x or y:
        raise ValueError("path is not closed")
    if not edges:
        return 0
    cols = {u for u, _, _ in edges}
    lo = min(h for _, h, _ in edges)
    hi = max(h for _, h, _ in edges)
    return sum(
        abs(sum(d for u2, h, d in edges if u2 == u and h > v))
        for u in cols
        for v in range(lo, hi)
    )


def free_reduce(codes) -> list[int]:
    out: list[int] = []
    for c in codes:
        if out and out[-1] == -c:
            out.pop()
        else:
            out.append(c)
    return out


def zxz2_bounds(codes) -> tuple[int, int]:
    """Area bounds in <a1, a2 | a2^2, [a1, a2]> for a word trivial there.

    Lower: each relator changes the a2 exponent sum by at most 2. Upper:
    sorting the reduced word by generator costs one commutator per inversion,
    then the a2 block cancels with |e2|/2 squares.
    """
    half = abs(exponent_sum(codes, 2)) // 2
    inversions = seen_a2 = 0
    for c in free_reduce(codes):
        if abs(c) == 2:
            seen_a2 += 1
        else:
            inversions += seen_a2
    return half, inversions + half


def tokens(codes) -> str:
    return " ".join(f"a{c}" if c > 0 else f"A{-c}" for c in codes)


def area_rows(text: str, words: list[tuple[int, ...]]) -> list[tuple[int, int]]:
    lines = data_lines(text)
    if lines[0] != "word,lower,upper,exact" or len(lines) != len(words) + 1:
        raise ValueError("area output does not have one row per input word")
    rows = []
    for line, codes in zip(lines[1:], words):
        word, lower, upper, exact = line.split(",")
        if word != tokens(codes).replace(" ", "."):
            raise ValueError(f"row {word} out of order")
        lo, up = int(lower), int(upper)
        if lo > up or (exact == "true") != (lo == up):
            raise ValueError(f"invalid bracket {line}")
        rows.append((lo, up))
    return rows


def area_against(words, bounds: Callable[[tuple[int, ...]], tuple[int, int]]):
    """Every bracket must overlap the independent bounds [lo, hi] of its word."""

    def check(text):
        for (lo, up), codes in zip(area_rows(text, words), words):
            ref_lo, ref_hi = bounds(codes)
            if up < ref_lo or lo > ref_hi:
                return f"{tokens(codes)}: [{lo}, {up}] misses reference [{ref_lo}, {ref_hi}]"
        return None

    return _guarded(check)


def closed_words(rng: random.Random, letters, n: int, closed, count: int) -> list[tuple[int, ...]]:
    """`count` uniform closed words of length n, by rejection from uniform words."""
    out = []
    while len(out) < count:
        codes = tuple(rng.choice(letters) for _ in range(n))
        if closed(codes):
            out.append(codes)
    return out


def area_batches() -> tuple[list, list]:
    """The fixed oracle batches: closed a1-a2 words for z3, closed words for zxz2."""
    z3 = closed_words(
        random.Random(AREA_BATCH_SEED), (1, -1, 2, -2), AREA_WORD_LEN,
        lambda c: exponent_sum(c, 1) == 0 and exponent_sum(c, 2) == 0, AREA_BATCH,
    )
    zxz2 = closed_words(
        random.Random(AREA_BATCH_SEED), (1, -1, 2, -2), AREA_WORD_LEN,
        lambda c: exponent_sum(c, 1) == 0 and exponent_sum(c, 2) % 2 == 0, AREA_BATCH,
    )
    return z3, zxz2


# -- deterministic work counts ---------------------------------------------------


def closed_z2_words(n: int) -> int:
    return math.comb(n, n // 2) ** 2 if n % 2 == 0 else 0


def closed_zxz2_words(n: int) -> int:
    """Words with a1 exponent sum 0 and even a2 exponent sum."""
    total = 0
    for k in range(0, n + 1, 2):
        rest = n - k
        total += math.comb(n, k) * math.comb(k, k // 2) * (2**rest if rest % 2 == 0 else 0)
    return total


def walk_states_z2(n: int) -> int:
    """States x moves the z2 walk DP expands: (t+1)^2 endpoints at step t, 4 moves."""
    return sum(4 * (t + 1) ** 2 for t in range(n))


def walk_states_zxz2(n: int) -> int:
    """2t+1 endpoints (one a2 residue per a1 coordinate) at step t, 4 moves."""
    return sum(4 * (2 * t + 1) for t in range(n))


def nonbacktracking_states_z2(n: int) -> int:
    """(endpoint, last letter) states expanded, 3 moves each, counted by search."""
    steps = {1: (1, 0), -1: (-1, 0), 2: (0, 1), -2: (0, -1)}
    layer = {(steps[c], c) for c in steps}
    total = 0
    for _ in range(n - 1):
        total += 3 * len(layer)
        layer = {
            ((x + steps[c][0], y + steps[c][1]), c)
            for (x, y), last in layer
            for c in steps
            if c != -last
        }
    return total


# -- the workloads ---------------------------------------------------------------


def _sum_invariant(total: int, origin: str | None = None, origin_count: int | None = None):
    def check(rows: list[str]) -> str | None:
        counts = {r.rsplit(",", 1)[0].split(",", 1)[1]: int(r.rsplit(",", 1)[1]) for r in rows}
        if sum(counts.values()) != total:
            return "counts do not sum to the number of walks"
        if origin is not None and counts.get(origin) != origin_count:
            return f"closed-walk count at {origin} is wrong"
        return None

    return check


def _cogrowth_invariant(rows: list[str]) -> str | None:
    for r in rows:
        n, g = r.split(",")[:2]
        if int(g) != closed_z2_words(int(n)):
            return f"g_{n} != C(n, n/2)^2"
    return None


def build(name: str, seed: int, workdir: Path) -> Workload:
    """The workload's commands for this seed; input files are written to workdir."""
    if name == "exact-z2":
        return Workload(
            name,
            [
                [Command("smean_exact_s", ["dehn", "--group", "z2", "--kind", "smean", "--n", "10", "--exact"], exact_value(SMEAN_Z2_10))],
                [Command("dehn_D_s", ["dehn", "--group", "z2", "--kind", "D", "--n", "10"], exact_value(D_Z2_10))],
                [Command("osmean_exact_s", ["dehn", "--group", "z2", "--kind", "osmean", "--n", "9"], exact_value(OSMEAN_Z2_9))],
            ],
            ["dehn", "--group", "z2", "--kind", "smean", "--n", "0", "--exact"],
            work={
                "smean_exact.closed_words": closed_z2_words(10),
                "dehn_D.closed_words": sum(closed_z2_words(m) for m in range(11)),
                "osmean_exact.open_words": 4**9,
            },
        )
    if name == "sampled-z2":
        s = str(seed)
        n = str(SAMPLED_N)
        sampled = ["dehn", "--group", "z2", "--n", n, "--seed", s]
        return Workload(
            name,
            [
                [Command("osmean_sampled_s", sampled + ["--kind", "osmean", "--samples", str(OSMEAN_SAMPLES)], sampled_mean(REF_OSMEAN_1024, OSMEAN_SAMPLES, seed))],
                [Command("smean_sampled_s", sampled + ["--kind", "smean", "--samples", str(SMEAN_SAMPLES)], sampled_mean(REF_SMEAN_1024, SMEAN_SAMPLES, seed))],
                [Command("osmean_bfs_sampled_s", sampled + ["--kind", "osmean", "--samples", str(BFS_SAMPLES), "--combing", "bfs-lex"], sampled_mean(REF_OSMEAN_1024, BFS_SAMPLES, seed))],
            ],
            ["dehn", "--group", "z2", "--kind", "osmean", "--n", "0", "--samples", "1", "--seed", s],
            work={
                "osmean_sampled.samples": OSMEAN_SAMPLES,
                "smean_sampled.samples": SMEAN_SAMPLES,
                "osmean_bfs_sampled.samples": BFS_SAMPLES,
                "letters": SAMPLED_N * (OSMEAN_SAMPLES + SMEAN_SAMPLES + BFS_SAMPLES),
            },
        )
    if name == "counting":
        return Workload(
            name,
            [
                [
                    Command("count_s", ["count", "--group", "z2", "--n", "50"], table_digest(DIGEST_COUNT_Z2_50, _sum_invariant(4**50, "(0,0)", closed_z2_words(50)))),
                    Command("count_nb_s", ["count", "--group", "z2", "--n", "34", "--nonbacktracking"], table_digest(DIGEST_COUNT_NB_Z2_34, _sum_invariant(4 * 3**33))),
                ],
                [Command("count_torsion_s", ["count", "--group", "zxz2", "--n", "240"], table_digest(DIGEST_COUNT_ZXZ2_240, _sum_invariant(4**240)))],
                [Command("cogrowth_s", ["cogrowth", "--n-max", "640"], table_digest(DIGEST_COGROWTH_640, _cogrowth_invariant))],
            ],
            ["count", "--group", "z2", "--n", "0"],
            work={
                "count.dp_states_x_moves": walk_states_z2(50),
                "count_nb.dp_states_x_moves": nonbacktracking_states_z2(34),
                "count_torsion.dp_states_x_moves": walk_states_zxz2(240),
                "cogrowth.terms": 321,
            },
        )
    if name == "oracle":
        z3_words, zxz2_words = area_batches()
        order = random.Random(seed)
        order.shuffle(z3_words)
        order.shuffle(zxz2_words)
        files = {}
        for group, words in (("z3", z3_words), ("zxz2", zxz2_words)):
            path = workdir / f"words_{group}.txt"
            path.write_text("".join(tokens(w) + "\n" for w in words), encoding="utf-8")
            files[group] = str(path)
        return Workload(
            name,
            [
                [Command("smean_oracle_s", ["dehn", "--group", "zxz2", "--kind", "smean", "--n", "6"], exact_value(SMEAN_ZXZ2_6))],
                [Command("area_z3_s", ["area", "--group", "z3", "--words-file", files["z3"]], area_against(z3_words, lambda c: (winding_area(c),) * 2))],
                [Command("area_zxz2_s", ["area", "--group", "zxz2", "--words-file", files["zxz2"]], area_against(zxz2_words, zxz2_bounds))],
            ],
            ["dehn", "--group", "zxz2", "--kind", "smean", "--n", "0"],
            work={
                "smean_oracle.words_filled": closed_zxz2_words(6),
                "area_z3.words_filled": len(z3_words),
                "area_zxz2.words_filled": len(zxz2_words),
            },
        )
    raise ValueError(f"unknown workload {name!r}; expected one of {WORKLOADS}")
