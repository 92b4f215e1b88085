"""calibkit benchmark: runs the calibkit CLI on seeded workloads and checks
every result against an independent numpy oracle.

    python3 perfbench/run.py --workload exp3_default --seed 1 --seconds 35 --trace 0

``--trace 0`` runs the CLI as a child process, one call at a time (a closed
loop with one client), and reports the end-to-end metrics: per-call wall
time, CPU time and peak RSS (medians over the calls), work per second,
cold ``import calibkit`` time, and the test ECE and accuracy.
``--trace 1`` runs the same CLI calls inside this process, alternating an
untraced call with a traced one, and reports per-layer metrics from spans
around calibkit's public functions (see tracer.py).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Full results (every
call, quartiles, artifact digests, machine details) go to
``.perfbench/results/<workload>-s<seed>-t<trace>.json`` under the checkout;
``perfbench/compare.py`` prints the differences between two such files.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import shutil
import statistics
import sys
import time
from pathlib import Path

import measure
import tracer
from workloads import WORKLOADS, Outcome

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

END_TO_END = {
    "wall_s": "s",
    "work_per_s": "work/s",
    "cpu_s": "s",
    "peak_rss_mb": "MiB",
    "setup_s": "s",
    "test_ece": "frac",
    "test_accuracy": "frac",
}
IMPORT_REPEATS = 7
# No call starts after this many seconds, and none may run past RUN_LIMIT,
# which keeps a whole run inside three minutes.
LAST_START = 140.0
RUN_LIMIT = 170.0


def quartiles(values: list[float]) -> dict:
    if len(values) < 2:
        v = values[0] if values else 0.0
        return {"n": len(values), "q1": v, "median": v, "q3": v}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"n": len(values), "q1": q1, "median": median, "q3": q3}


class Run:
    """One benchmark run: its inputs, its calls and what they measured."""

    def __init__(self, workload, seed: int, seconds: float, workdir: Path):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.workdir = workdir
        self.started = time.perf_counter()
        self.calls: list[dict] = []
        self.call_seconds: list[float] = []  # per loop iteration, checks included
        self.digests: dict[int, str] = {}
        self.quality: dict[int, tuple[float, float]] = {}
        self.expected = workload.prepare(seed, workdir)
        self.pool = len(workload.pool_seeds(seed))

    def elapsed(self) -> float:
        return time.perf_counter() - self.started

    def more(self, loop_start: float, i: int, min_calls: int) -> bool:
        """Closed loop: make ``min_calls`` calls, then start another only if a
        call of typical length still ends within --seconds."""
        if i > 0 and self.elapsed() > LAST_START:
            return False
        if i < min_calls:
            return True
        typical = statistics.median(self.call_seconds) if self.call_seconds else 0.0
        return time.perf_counter() - loop_start + typical <= self.seconds

    def record(self, i: int, cli_seed: int, out: str, code: int, stdout: str,
               problems: list[str], **measured) -> None:
        """Check one call's outputs and keep what it measured."""
        if code == 0 and not problems:
            outcome = self.workload.check(self.workdir, out, stdout, self.expected)
        else:
            outcome = Outcome(list(problems))
        if outcome.sha256:
            first = self.digests.setdefault(cli_seed, outcome.sha256)
            if first != outcome.sha256:
                outcome.problems.append(
                    f"artifacts differ from an earlier call with seed {cli_seed}")
        if not outcome.problems:
            self.quality.setdefault(cli_seed, (outcome.ece, outcome.accuracy))
        shutil.rmtree(self.workdir / out, ignore_errors=True)
        self.calls.append({"i": i, "seed": cli_seed, "exit": code, **measured,
                           "sha256": outcome.sha256, "problems": outcome.problems})

    def ok_values(self, key: str) -> list[float]:
        ok = [c[key] for c in self.calls if not c["problems"]]
        return ok or [c[key] for c in self.calls]

    def quality_means(self) -> tuple[float, float]:
        """Mean test (ECE, accuracy) over the workload's quality seeds."""
        found = [self.quality[s] for s in self.workload.quality_seeds(self.seed)
                 if s in self.quality]
        if not found:
            return 0.0, 0.0
        return statistics.fmean(e for e, _ in found), statistics.fmean(a for _, a in found)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def import_times(env: dict, workdir: Path) -> tuple[list[float], str]:
    """Cold ``import calibkit`` in fresh interpreters; the first, which may
    write bytecode caches, is not counted."""
    samples, version = [], ""
    for k in range(IMPORT_REPEATS + 1):
        child = measure.run_child([sys.executable, "-c", measure.IMPORT_PROBE],
                                  workdir, env, timeout=60)
        lines = child.stdout.split("\n")
        if child.code != 0 or len(lines) < 3 or not Path(lines[1]).resolve().is_relative_to(SRC):
            raise SystemExit(f"perfbench: cannot import calibkit from {SRC}: "
                             f"{child.stderr.strip()[-500:] or child.stdout!r}")
        version = lines[2]
        if k:
            samples.append(float(lines[0]))
    return samples, version


def run_untraced(run: Run, env: dict) -> dict:
    samples, version = import_times(env, run.workdir)
    loop_start = time.perf_counter()
    i = 0
    while run.more(loop_start, i, run.pool):
        began = time.perf_counter()
        out = f"call{i}"
        cli_seed, argv = run.workload.call(run.seed, i, out)
        child = measure.run_child([sys.executable, "-m", "calibkit.cli", *argv],
                                  run.workdir, env, timeout=RUN_LIMIT - run.elapsed())
        problems = []
        if child.timed_out:
            problems.append("timed out")
        elif child.code != 0:
            problems.append(f"exit code {child.code}: {child.stderr.strip()[-300:]}")
        run.record(i, cli_seed, out, child.code, child.stdout, problems,
                   wall_s=child.wall_s, cpu_s=child.cpu_s, peak_rss_mb=child.peak_rss_mb)
        run.call_seconds.append(time.perf_counter() - began)
        i += 1
    work, _ = run.workload.work
    wall = statistics.median(run.ok_values("wall_s"))
    ece, accuracy = run.quality_means()
    values = {
        "wall_s": wall,
        "work_per_s": work / wall,
        "cpu_s": statistics.median(run.ok_values("cpu_s")),
        "peak_rss_mb": statistics.median(run.ok_values("peak_rss_mb")),
        "setup_s": statistics.median(samples),
        "test_ece": ece,
        "test_accuracy": accuracy,
    }
    samples_by_metric = {k: quartiles(run.ok_values(k)) for k in ("wall_s", "cpu_s", "peak_rss_mb")}
    samples_by_metric["setup_s"] = quartiles(samples)
    return {"values": values, "units": END_TO_END, "samples": samples_by_metric,
            "calibkit_version": version}


def run_in_process(run: Run, argv: list[str]) -> tuple[int, str, float]:
    """One CLI call inside this process: (exit code, stdout, wall seconds)."""
    cli = sys.modules["calibkit.cli"]
    stdout, stderr = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    start = time.perf_counter()
    try:
        os.chdir(run.workdir)
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.run_cli(argv)
    except Exception as exc:  # any failure of the program counts against it
        code = -1
        stderr.write(f"{type(exc).__name__}: {exc}")
    finally:
        os.chdir(cwd)
    wall = time.perf_counter() - start
    if code != 0:
        stdout.write(stderr.getvalue())
    return code, stdout.getvalue(), wall


def run_traced(run: Run, results: Path) -> dict:
    sys.path.insert(0, str(SRC))
    cli = importlib.import_module("calibkit.cli")
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"perfbench: calibkit was imported from {cli.__file__}, not {SRC}")
    spans = tracer.Tracer()
    ratios = []
    loop_start = time.perf_counter()
    i = 0
    while run.more(loop_start, i, 1):
        began = time.perf_counter()
        walls = []
        for tag in ("plain", "traced"):
            out = f"{tag}{i}"
            cli_seed, argv = run.workload.call(run.seed, i, out)
            with spans.installed(i) if tag == "traced" else contextlib.nullcontext():
                code, stdout, wall = run_in_process(run, argv)
            problems = [] if code == 0 else [f"exit code {code}: {stdout.strip()[-300:]}"]
            run.record(i, cli_seed, out, code, stdout, problems, traced=tag == "traced",
                       wall_s=wall)
            walls.append(wall)
        ratios.append(walls[1] / walls[0])
        run.call_seconds.append(time.perf_counter() - began)
        i += 1
    spans.dump(results.with_suffix(".spans.json"))
    values, absent = spans.summary(run.workload.rows)
    values["trace.overhead_frac"] = statistics.median(ratios) - 1.0
    return {"values": values, "units": tracer.metric_units(), "absent": absent,
            "samples": {"overhead_ratio": quartiles(ratios)}}


def parse_args(argv, workloads):
    parser = argparse.ArgumentParser(description="calibkit benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None, workloads=WORKLOADS) -> int:
    args = parse_args(argv, workloads)
    if not (SRC / "calibkit" / "__init__.py").is_file():
        print(f"perfbench: no calibkit sources under {SRC}", file=sys.stderr)
        return 2
    workload = workloads[args.workload]
    base = ROOT / ".perfbench"
    stem = f"{workload.name}-s{args.seed}-t{args.trace}"
    results = base / "results" / f"{stem}.json"
    results.parent.mkdir(parents=True, exist_ok=True)
    workdir = base / "work" / f"{stem}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        run = Run(workload, args.seed, args.seconds, workdir)
        if args.trace:
            measured = run_traced(run, results)
        else:
            measured = run_untraced(run, child_env())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = sum(1 for c in run.calls if c["problems"])
    work, work_unit = workload.work
    units = measured.pop("units")
    values = measured.pop("values")
    report = {
        "workload": workload.name, "why": workload.why, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "sizes": workload.sizes,
        "work": {"size": work, "unit": work_unit},
        "env": measure.environment(ROOT),
        "attempted": len(run.calls), "failed": failed,
        "failed_frac": failed / len(run.calls),
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
        **measured,
        "quality_by_seed": {str(s): {"ece": e, "accuracy": a}
                            for s, (e, a) in sorted(run.quality.items())},
        "artifact_sha256": {str(s): d for s, d in sorted(run.digests.items())},
        "calls": run.calls,
    }
    results.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")

    env = report["env"]
    print(f"perfbench {workload.name} seed={args.seed} trace={args.trace}: "
          f"{len(run.calls)} calls, {failed} failed, work {work} {work_unit} per call")
    print(f"  python {env['python']}, numpy {env['numpy']}, {env['blas']['name']} "
          f"{env['blas']['version']} ({env['blas_threads']} threads), nproc {env['nproc']}, "
          f"numba {'present' if env['numba'] else 'absent'}, commit {env['git_commit']}")
    for call in run.calls:
        for problem in call["problems"]:
            print(f"  call {call['i']} (seed {call['seed']}): {problem}")
    for name, stats in measured.get("samples", {}).items():
        print(f"  {name}: median {stats['median']:.6g} "
              f"[q1 {stats['q1']:.6g}, q3 {stats['q3']:.6g}] n={stats['n']}")
    if measured.get("absent"):
        print(f"  absent (function gone): {', '.join(measured['absent'])}")
    print(f"  results: {results.relative_to(ROOT)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(run.calls),
        "failed": failed,
        "metrics": report["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
