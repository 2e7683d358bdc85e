"""dehnlab benchmark: end-to-end CLI latency, or a traced in-process run.

    python3 bench/run.py --workload exact-z2 --seed 1 --seconds 32 --trace 0

With --trace 0 a single client runs the workload's `dehnlab` commands one
after another, each a fresh `python -m dehnlab.cli` process with `src` on
PYTHONPATH, in passes that fit within --seconds, checks every output, and
reports the end-to-end metrics, each the median of the run's samples.
With --trace 1 the same commands run once in-process under span recorders,
followed by the per-layer probes (traced.py). Either way the last line of
stdout is the JSON result; a human-readable summary goes to stderr and the
full record (environment, work counts, every sample) to bench/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import workloads as wl

ROOT = Path(__file__).resolve().parent.parent
RESULTS = ROOT / "bench" / "results"
RUN_DEADLINE_S = 160.0
SETUP_PER_PASS = 2


def cli_env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class Runner:
    """Runs CLI commands as fresh processes, timing each and reading its max RSS."""

    def __init__(self, workdir: Path, deadline: float):
        self.out = workdir / "stdout.txt"
        self.err = workdir / "stderr.txt"
        self.env = cli_env()
        self.deadline = deadline

    def run(self, argv: list[str]) -> tuple[float, float, int, str]:
        """(wall seconds, max RSS in MB, exit code, stdout) of one command."""
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise TimeoutError("run deadline passed")
        with open(self.out, "wb") as out, open(self.err, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, "-m", "dehnlab.cli", *argv],
                stdin=subprocess.DEVNULL, stdout=out, stderr=err, cwd=ROOT, env=self.env,
            )
            killer = threading.Timer(remaining, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                killer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode < 0:
            raise TimeoutError(f"{' '.join(argv)} killed at the run deadline")
        return wall, usage.ru_maxrss / 1024.0, proc.returncode, self.out.read_text(encoding="utf-8")


class Tally:
    """Commands attempted and failed, with the reason for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, label: str, error: str | None) -> None:
        self.attempted += 1
        if error is not None:
            self.failures.append(f"{label}: {error}")
            print(f"bench: FAILED {label}: {error}", file=sys.stderr)


def run_untraced(w: wl.Workload, seconds: float, runner: Runner, tally: Tally) -> tuple[dict, dict]:
    setup: list[float] = []
    passes = []
    first_output: dict[str, str] = {}
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        latency: dict[str, float] = {}
        rss = 0.0
        for step in w.steps:
            for cmd in step:
                wall, mb, code, text = runner.run(cmd.argv)
                latency[cmd.name] = wall
                rss = max(rss, mb)
                error = f"exit code {code}" if code != 0 else cmd.check(text)
                if error is None:
                    first = first_output.setdefault(cmd.name, text)
                    if text != first:
                        error = "output differs from the first pass of this run"
                tally.record(cmd.name, error)
        # Set-up is sampled at the end of every pass, so that it shares the
        # window the steps are measured in.
        for _ in range(SETUP_PER_PASS):
            wall, _, code, _ = runner.run(w.setup_argv)
            tally.record("setup", None if code == 0 else f"exit code {code}")
            setup.append(wall)
        passes.append({"pass_s": time.perf_counter() - t0, "peak_rss_mb": rss, "latency_s": latency})
        elapsed = time.perf_counter() - start
        if elapsed + passes[-1]["pass_s"] > seconds:
            break

    med = statistics.median
    metrics = {
        "setup_s": (med(setup), "s"),
        "wall_s": (med(sum(p["latency_s"].values()) for p in passes), "s"),
        "peak_rss_mb": (med(p["peak_rss_mb"] for p in passes), "MB"),
    }
    for k, step in enumerate(w.steps, start=1):
        metrics[f"step{k}_s"] = (med(sum(p["latency_s"][c.name] for c in step) for p in passes), "s")
    commands = {
        c.name: med(p["latency_s"][c.name] for p in passes) for step in w.steps for c in step
    }
    record = {"setup_s": setup, "passes": passes, "command_median_s": commands}
    return metrics, record


def environment() -> dict:
    env = {
        "nproc": os.cpu_count(),
        "cpu_model": None,
        "python": platform.python_version(),
        "numpy": None,
        "loadavg": os.getloadavg(),
        "git_sha": None,
        "src_sha256": hashlib.sha256(
            b"".join(p.read_bytes() for p in sorted((ROOT / "src").rglob("*.py")))
        ).hexdigest(),
    }
    try:
        import numpy

        env["numpy"] = numpy.__version__
    except ImportError:
        pass
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                env["cpu_model"] = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    if (ROOT / ".git").exists():
        try:
            env["git_sha"] = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return env


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "dehnlab" / "cli.py").is_file():
        print(f"bench: no dehnlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_DEADLINE_S
    RESULTS.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=RESULTS))
    tally = Tally()
    env = environment()
    try:
        w = wl.build(args.workload, args.seed, workdir)
        if args.trace:
            import traced

            metrics, record = traced.run_traced(w, Runner(workdir, deadline), tally)
        else:
            metrics, record = run_untraced(w, args.seconds, Runner(workdir, deadline), tally)
    except TimeoutError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    env["loadavg_end"] = os.getloadavg()

    failed = len(tally.failures)
    result = {
        "correct": failed == 0,
        "attempted": tally.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    artifact = RESULTS / f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    artifact.write_text(
        json.dumps(
            {
                "workload": args.workload,
                "seed": args.seed,
                "seconds": args.seconds,
                "trace": args.trace,
                "environment": env,
                "work": w.work,
                "failures": tally.failures,
                "failed_ratio": failed / tally.attempted,
                "result": result,
                "record": record,
            },
            indent=2,
        )
        + "\n",
        encoding="utf-8",
    )
    for k, (v, u) in metrics.items():
        print(f"bench: {args.workload:<11} {k:<42} {v:>14.6g} {u}", file=sys.stderr)
    for name, v in record.get("command_median_s", {}).items():
        print(f"bench: {args.workload:<11} {'command.' + name:<42} {v:>14.6g} s", file=sys.stderr)
    print(f"bench: {args.workload:<11} {'failed_ratio':<42} {failed / tally.attempted:>14.6g} ({failed}/{tally.attempted})", file=sys.stderr)
    print(f"bench: record written to {artifact.relative_to(ROOT)}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
