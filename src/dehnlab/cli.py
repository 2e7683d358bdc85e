"""Command-line entry point: area, count, cogrowth, and dehn subcommands.

Every emitted artifact carries a header block with the full canonical
configuration and its hash; no timestamps, so identical configurations
produce byte-identical output. Exit codes: 0 success, 2 configuration
error, 3 budget exhausted.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import sys

from . import __version__
from .area import closed_area_result
from .cogrowth import f_recurrence, f_ratio_z2, g_even_z2
from .combing import COMBING_KINDS, make_combing
from .counting import RNG_ALGORITHM, TAIL_K_1D, TAIL_K_ZR, nonbacktracking_counts, walk_counts
from .dehnstats import (
    _require_sampling_support,
    dehn_exact,
    lazy_mean,
    mean_exact,
    osmean_exact,
    osmean_sampled,
    smean_exact,
    smean_sampled,
)
from .errors import BudgetError
from .presentation import format_vertex, resolve_group
from .words import Word

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_BUDGET = 3

DEHN_KINDS = ("D", "mean", "smean", "osmean", "lazy")


def _canonical_config(args: argparse.Namespace) -> dict:
    skip = {"func", "output"}
    cfg = {k: v for k, v in sorted(vars(args).items()) if k not in skip}
    return cfg


def _config_header(cfg: dict) -> tuple[str, str]:
    blob = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    digest = hashlib.sha256(blob.encode()).hexdigest()[:12]
    return blob, digest


def _emit(args, cfg: dict, fieldnames: list[str], rows: list[dict], payload_key="rows"):
    blob, digest = _config_header(cfg)
    buf = io.StringIO()
    if args.emit == "json":
        doc = {"config": cfg, "config_hash": digest, payload_key: rows}
        buf.write(json.dumps(doc, sort_keys=True, indent=2))
        buf.write("\n")
    else:
        buf.write(f"# dehnlab config={blob}\n")
        buf.write(f"# config_hash={digest}\n")
        buf.write(",".join(fieldnames) + "\n")
        for row in rows:
            buf.write(",".join("" if row.get(k) is None else str(row.get(k)) for k in fieldnames))
            buf.write("\n")
    text = buf.getvalue()
    if args.output == "-":
        sys.stdout.write(text)
    else:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)


def cmd_area(args) -> int:
    p = resolve_group(args.group)
    if args.oracle_slack is not None and args.oracle_slack <= 0:
        raise ValueError("--oracle-slack must be positive")
    rows = []
    source = sys.stdin if args.words_file is None else open(args.words_file, "r", encoding="utf-8")
    try:
        for line in source:
            line = line.strip()
            if not line:
                continue
            w = Word.from_tokens(line, lazy=False)
            res = closed_area_result(p, w, slack=args.oracle_slack)
            rows.append(
                {
                    "word": line.replace(" ", "."),
                    "lower": res.lower,
                    "upper": res.upper,
                    "exact": str(res.exact).lower(),
                }
            )
    finally:
        if source is not sys.stdin:
            source.close()
    _emit(args, _canonical_config(args), ["word", "lower", "upper", "exact"], rows)
    return EXIT_OK


def cmd_count(args) -> int:
    p = resolve_group(args.group)
    if args.n < 0:
        raise ValueError("--n must be non-negative")
    fn = nonbacktracking_counts if args.nonbacktracking else walk_counts
    table = fn(p, args.n)
    items = sorted(table.counts.items(), key=lambda kv: (kv[0].free_part, kv[0].torsion_part))
    rows = [{"n": args.n, "vertex": format_vertex(v), "count": c} for v, c in items]
    _emit(args, _canonical_config(args), ["n", "vertex", "count"], rows)
    return EXIT_OK


def cmd_cogrowth(args) -> int:
    if args.n_max < 0:
        raise ValueError("--n-max must be non-negative")
    n_half = args.n_max // 2
    fs = f_recurrence(n_half)
    rows = []
    for k in range(0, n_half + 1):
        n = 2 * k
        row = {"n": n, "g_n": g_even_z2(k), "f_n": fs[k]}
        row["ratio"] = repr(f_ratio_z2(n, fs[k])) if n >= 2 else None
        rows.append(row)
    _emit(args, _canonical_config(args), ["n", "g_n", "f_n", "ratio"], rows)
    return EXIT_OK


def cmd_dehn(args) -> int:
    p = resolve_group(args.group)
    if args.n < 0:
        raise ValueError("--n must be non-negative")
    if args.samples is None:
        if args.kind == "osmean":
            report = osmean_exact(p, make_combing(p, args.combing), args.n)
        else:
            exact = {"D": dehn_exact, "mean": mean_exact, "smean": smean_exact, "lazy": lazy_mean}
            report = exact[args.kind](p, args.n)
    else:
        if args.samples < 1:
            raise ValueError("--samples must be positive")
        if args.seed is None:
            raise ValueError("--seed is required whenever sampling is requested")
        _require_sampling_support(p, args.n, args.samples)  # before a combing can refuse p
        sampler = {"smean": smean_sampled, "osmean": osmean_sampled}.get(args.kind)
        if sampler is None:
            raise ValueError(f"{args.kind} is exact-only; sample smean or osmean instead")
        report = sampler(p, make_combing(p, args.combing), args.n, args.samples, args.seed)

    d = report.as_dict()
    if args.emit == "json":
        _emit(args, _canonical_config(args), [], d, payload_key="report")
    else:
        # an estimate's fields fill their own columns and leave value empty
        row = {**d, **d["value"], "value": None} if isinstance(d["value"], dict) else d
        _emit(
            args,
            _canonical_config(args),
            ["n", "kind", "value", "estimate", "ci_low", "ci_high", "samples", "seed", "normalized"],
            [row],
        )
    return EXIT_OK


def _version_text() -> str:
    return "\n".join(
        [
            f"dehnlab {__version__}",
            f"rng: {RNG_ALGORITHM}",
            f"tail constants: K_1d={TAIL_K_1D} (doubled: {2 * TAIL_K_1D}), K_zr={TAIL_K_ZR}",
            f"combing kinds: {', '.join(COMBING_KINDS)} (default staircase)",
        ]
    )


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="dehnlab",
        description="Filling areas and mean Dehn functions of abelian presentations.",
    )
    ap.add_argument("--version", action="version", version=_version_text())
    sub = ap.add_subparsers(dest="subcommand", required=True)

    def common(sp, seeded=False):
        sp.add_argument("--emit", choices=("csv", "json"), default="csv")
        sp.add_argument("--output", default="-", help="output path, '-' for stdout")
        if seeded:
            sp.add_argument("--seed", type=int, default=None)

    sp = sub.add_parser("area", help="area brackets for closed words from stdin")
    sp.add_argument("--group", default="z2")
    sp.add_argument("--words-file", default=None, help="read words here instead of stdin")
    sp.add_argument("--oracle-slack", type=int, default=None)
    common(sp)
    sp.set_defaults(func=cmd_area)

    sp = sub.add_parser("count", help="exact walk counts per endpoint")
    sp.add_argument("--group", required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--nonbacktracking", action="store_true")
    common(sp)
    sp.set_defaults(func=cmd_count)

    sp = sub.add_parser("cogrowth", help="closed-walk and non-backtracking count table")
    sp.add_argument("--n-max", type=int, required=True)
    common(sp)
    sp.set_defaults(func=cmd_cogrowth)

    sp = sub.add_parser("dehn", help="Dehn function statistics, exact or sampled")
    sp.add_argument("--group", required=True)
    sp.add_argument("--kind", choices=DEHN_KINDS, required=True)
    sp.add_argument("--n", type=int, required=True)
    mode = sp.add_mutually_exclusive_group()
    mode.add_argument("--exact", action="store_true", default=True)
    mode.add_argument("--samples", type=int, default=None)
    sp.add_argument("--combing", choices=COMBING_KINDS, default="staircase")
    common(sp, seeded=True)
    sp.set_defaults(func=cmd_dehn)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except BudgetError as exc:
        print(f"dehnlab: budget exhausted: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (ValueError, OSError) as exc:
        print(f"dehnlab: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
