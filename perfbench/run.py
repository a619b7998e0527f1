#!/usr/bin/env python3
"""The atkernel benchmark.

One workload, one seed:

    python3 perfbench/run.py --workload coboundary --seed 1 --seconds 20 --trace 0

runs the workload's fixed case list in a closed loop with one client (a
case starts when the previous one has its verdict), in one process with
no extra threads; `cli` starts one fresh `atk` process per case.  Every
answer is checked against its oracle (see cases.py).  The last line of
stdout is one JSON object: `correct`, `attempted`, `failed`, and the
end-to-end metrics (`--trace 0`) or the per-layer metrics (`--trace 1`).

All four workloads, two traced runs each, and the known-defect cases:

    python3 perfbench/run.py --report --seed 0 --seconds 20

prints one row per workload and checks that the traced counts repeat.

Run from the root of a checkout that holds the library under src/.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

MIN_CASES = 100          # per case list, so that ten samples lie beyond p90
SETUP_PROBES = 5         # set-ups per run; setup_s is their median
CASE_DEADLINE_S = 60.0   # in-process case; the slowest case takes about 8 s
CLI_DEADLINE_S = 10.0    # one `atk` process; the slowest takes under 1 s
NO_NEW_PASS_AFTER_S = 120.0

ATK = "import sys; from atkernel.cli import main; sys.exit(main())"


class DeadlineMissed(BaseException):
    """Raised in the case by SIGALRM; a BaseException so that no
    `except Exception` inside the library swallows it."""


def _alarm(signum, frame):
    raise DeadlineMissed


def _env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("ATK_DEGREE_BOUND", None)
    return env


# -- one case ----------------------------------------------------------------


class Runner:
    """Runs cases and keeps the expected answers, computed once each.

    With a `Speed`, every case is bracketed by kernel probes (and sampled
    by ticks while it runs in this process), and its measurement carries
    the kernel's time next to it."""

    def __init__(self, workload: str, speed=None):
        self.workload = workload
        self.speed = speed
        self.tracer = None
        self.expected: dict[int, object] = {}
        self.cli_stats: list[dict] = []
        self.env = _env()
        self._k_before = speed.probe() if speed else None

    def _expected(self, index, case):
        if index not in self.expected:
            self.expected[index] = case.expect()
        return self.expected[index]

    def _timed(self, fn, deadline, ticks):
        """(fn's result or the exception it raised, seconds, kernel time
        while it ran or None without a Speed)."""
        speed = self.speed if self.speed and ticks else None
        signal.setitimer(signal.ITIMER_REAL, deadline)
        if speed:
            speed.start()
        start = time.perf_counter()
        try:
            result = fn()
        except DeadlineMissed as exc:
            result = exc
        except Exception as exc:  # a case that raises fails; the loop goes on
            result = exc
        finally:
            elapsed = time.perf_counter() - start
            spent, seen = speed.stop() if speed else (0.0, [])
            signal.setitimer(signal.ITIMER_REAL, 0)
        k = None
        if self.speed:
            after = self.speed.probe()
            k = statistics.fmean(seen) if seen else (self._k_before + after) / 2
            self._k_before = after
        return result, elapsed - spent, k

    def run_case(self, index, case):
        """((seconds, kernel time) or None if it failed, reason if it did)."""
        if self.workload == "cli":
            return self._run_cli(index, case)

        def call():
            if self.tracer:
                self.tracer.active = True
            try:
                return case.run()
            finally:
                if self.tracer:
                    self.tracer.active = False

        got, elapsed, k = self._timed(call, CASE_DEADLINE_S, ticks=True)
        if isinstance(got, DeadlineMissed):
            return None, "deadline"
        if isinstance(got, Exception):
            return None, f"raised {got!r}"
        if not case.check(got, self._expected(index, case)):
            return None, "answer differs from oracle"
        return (elapsed, k), ""

    def _run_cli(self, index, case):
        if self.tracer:
            argv = [sys.executable, str(HERE / "cli_case.py"), *case.argv]
        else:
            argv = [sys.executable, "-c", ATK, *case.argv]
        # no `timeout=`: subprocess would then poll the child with sleeps
        # of up to 50 ms and round every measured time
        proc, elapsed, k = self._timed(
            lambda: subprocess.run(argv, cwd=WORK, env=self.env, capture_output=True, text=True),
            CLI_DEADLINE_S, ticks=False)
        if isinstance(proc, DeadlineMissed):
            return None, "deadline"
        if isinstance(proc, Exception):
            return None, f"raised {proc!r}"
        if self.tracer:
            self._collect(proc.stderr)
        if case.expect is None:  # known defect: the fix is exit 2
            if proc.returncode != 2:
                return None, f"exit {proc.returncode}, want 2"
            return (elapsed, k), ""
        got = (proc.returncode, proc.stdout)
        want = self._expected(index, case)
        if not case.check(got, want):
            return None, f"exit {proc.returncode}, output differs"
        return (elapsed, k), ""

    def _collect(self, stderr: str) -> None:
        from cli_case import MARKER

        for line in stderr.splitlines():
            if line.startswith(MARKER):
                self.cli_stats.append(json.loads(line[len(MARKER):]))


def run_pass(runner, cases, log) -> list:
    """(seconds, kernel time) for each case, None where it failed."""
    out = []
    for index, case in enumerate(cases):
        sample, reason = runner.run_case(index, case)
        out.append(sample)
        if sample is None:
            print(f"FAIL {case.name}: {reason}", file=log)
    return out


def _pass_seconds(p) -> float:
    return sum(sample[0] for sample in p if sample is not None)


# -- set-up --------------------------------------------------------------------


def measure_setup(runner, workload: str, seed: int) -> list:
    """(seconds, kernel time) of each set-up: a fresh interpreter imports
    atkernel and builds the inputs."""
    argv = [sys.executable, str(HERE / "probe.py"), workload, str(seed), str(WORK)]
    samples = []
    for _ in range(SETUP_PROBES):
        proc, elapsed, k = runner._timed(lambda: subprocess.run(argv, cwd=ROOT, env=_env()),
                                         CASE_DEADLINE_S, ticks=False)
        if isinstance(proc, BaseException) or proc.returncode != 0:
            raise RuntimeError(f"set-up of {workload} failed")
        samples.append((elapsed, k))
    return samples


def peak_rss_mb(workload: str) -> float:
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


# -- runs ------------------------------------------------------------------------


def _enough(passes, elapsed, seconds) -> bool:
    """Stop when the next pass would end after `seconds`; a second pass
    may run to 1.5 x `seconds`, so that most runs measure each case twice."""
    if elapsed > NO_NEW_PASS_AFTER_S:
        return True
    typical = statistics.median(_pass_seconds(p) for p in passes)
    limit = seconds * (1.5 if len(passes) < 2 else 1.0)
    return elapsed + typical > limit


def _summary(per_case: list[float]) -> tuple[float, float, float]:
    """(pass seconds, p50 ms, p90 ms) over one time per case."""
    return (sum(per_case), 1000 * statistics.median(per_case),
            1000 * statistics.quantiles(per_case, n=10)[8])


def run_workload(workload: str, seed: int, seconds: float, trace: bool, log=sys.stderr) -> dict:
    import cases as case_lists
    from speed import Speed

    WORK.mkdir(exist_ok=True)
    # one CPU for this process and the processes it starts, so that the
    # kernel probes time the CPU the case runs on
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if trace:
        cases = case_lists.build(workload, seed, WORK)
        return _traced_run(workload, cases, seconds, log)
    runner = Runner(workload, Speed())
    setups = measure_setup(runner, workload, seed)
    cases = case_lists.build(workload, seed, WORK)
    if len(cases) < MIN_CASES:
        raise RuntimeError(f"{workload} has {len(cases)} cases, fewer than {MIN_CASES}")
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(run_pass(runner, cases, log))
        if _enough(passes, time.perf_counter() - start, seconds):
            break
    speed = runner.speed

    def scaled(sample):
        return speed.scaled(*sample)

    # one time per case: its median over the passes, at the reference speed
    per_case = [[s for s in times if s is not None] for times in zip(*passes)]
    scaled_times = [statistics.median(map(scaled, c)) for c in per_case if c]
    raw_times = [statistics.median(s[0] for s in c) for c in per_case if c]
    wall, p50, p90 = _summary(scaled_times)
    failed = sum(s is None for p in passes for s in p)
    raw = _summary(raw_times)
    print(f"{workload}: {len(passes)} passes of {len(cases)} cases, {len(scaled_times)} samples; "
          f"unscaled wall_s {raw[0]:.4f}, p50 {raw[1]:.3f} ms, p90 {raw[2]:.3f} ms, "
          f"setup {statistics.median(s[0] for s in setups):.4f} s; "
          f"kernel min {1e6 * min(speed.samples):.0f} us, median {1e6 * statistics.median(speed.samples):.0f} us",
          file=log)
    metrics = {
        "wall_s": (wall, "s"),
        "case_p50_ms": (p50, "ms"),
        "case_p90_ms": (p90, "ms"),
        "setup_s": (statistics.median(map(scaled, setups)), "s"),
        "peak_rss_mb": (peak_rss_mb(workload), "MB"),
    }
    return _result(len(cases) * len(passes), failed, metrics)


def _result(attempted, failed, metrics) -> dict:
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def _traced_run(workload, cases, seconds, log) -> dict:
    from tracer import Tracer
    import layers

    # one untraced pass first: the base of trace.overhead
    runner = Runner(workload)
    start = time.perf_counter()
    untraced = run_pass(runner, cases, log)
    tracer = Tracer()
    tracer.install()
    runner.tracer = tracer
    passes, snapshots = [], []
    try:
        while True:
            tracer.reset()
            runner.cli_stats = []
            passes.append(run_pass(runner, cases, log))
            snapshots.append(layers.merge(tracer.snapshot(), runner.cli_stats))
            if _enough([untraced] + passes, time.perf_counter() - start, seconds):
                break
    finally:
        tracer.uninstall()
    counts = [layers.exact_counts(s) for s in snapshots]
    if any(c != counts[0] for c in counts[1:]):
        print("warning: traced passes disagree on counts", file=log)
    interp = _interpreter_start(runner) if workload == "cli" else 0.0
    traced_wall = statistics.median(_pass_seconds(p) for p in passes)
    overhead = traced_wall / _pass_seconds(untraced)
    metrics = layers.per_layer(snapshots, interp, overhead)
    failed = sum(s is None for p in [untraced] + passes for s in p)
    return _result(len(cases) * (len(passes) + 1), failed, metrics)


def _interpreter_start(runner) -> float:
    samples = []
    for _ in range(5):
        proc, elapsed, _ = runner._timed(lambda: subprocess.run([sys.executable, "-c", "pass"]),
                                         CLI_DEADLINE_S, ticks=False)
        if isinstance(proc, BaseException) or proc.returncode != 0:
            raise RuntimeError("the interpreter did not start")
        samples.append(elapsed)
    return statistics.median(samples)


# -- report -------------------------------------------------------------------------


def _child(args: list[str]) -> dict:
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=900)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise SystemExit(f"benchmark run {' '.join(args)} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def report(seed: int, seconds: float) -> dict:
    """Every workload once untraced and twice traced, plus the known defects."""
    import cases as case_lists
    import layers

    WORK.mkdir(exist_ok=True)
    rows = {}
    for workload in case_lists.WORKLOADS:
        base = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
        plain = _child(base + ["--trace", "0"])
        first = _child(base + ["--trace", "1"])
        second = _child(base + ["--trace", "1"])
        rows[workload] = {
            "cases": len(case_lists.build(workload, seed, WORK)),
            "attempted": plain["attempted"],
            "failed": plain["failed"],
            "metrics": {k: v["value"] for k, v in plain["metrics"].items()},
            "layers": {k: v["value"] for k, v in first["metrics"].items()},
            "counts_repeat": layers.count_metrics(first) == layers.count_metrics(second),
        }
    runner = Runner("cli")
    defects = {}
    for index, case in enumerate(case_lists.defect_cases()):
        sample, reason = runner.run_case(index, case)
        defects[case.name] = "fixed" if sample else reason
    # per pass over the case list, with the known defects counted in cli
    for name, row in rows.items():
        passes = row["attempted"] / row["cases"]
        failed, attempted = row["failed"] / passes, row["cases"]
        if name == "cli":
            failed += sum(1 for v in defects.values() if v != "fixed")
            attempted += len(defects)
        row["metrics"]["fail_share"] = failed / attempted
    return {
        "seed": seed,
        "seconds": seconds,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_sha": _git_sha(),
        "workloads": rows,
        "known_defects": defects,
    }


def _git_sha() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except OSError:
        return "unknown"
    return proc.stdout.strip() or "unknown"


def print_report(data: dict) -> None:
    cols = ["wall_s", "case_p50_ms", "case_p90_ms", "fail_share", "setup_s", "peak_rss_mb"]
    units = ["s", "ms", "ms", "ratio", "s", "MB"]
    print(f"seed {data['seed']}, {data['seconds']} s per run, Python {data['python']}, "
          f"nproc {data['nproc']}, commit {data['git_sha']}")
    print(f"{'workload':<11}" + "".join(f"{c + ' (' + u + ')':>20}" for c, u in zip(cols, units))
          + f"{'samples':>9}{'attempted':>10}{'failed':>7}{'counts repeat':>15}")
    for name, row in data["workloads"].items():
        m = row["metrics"]
        print(f"{name:<11}" + "".join(f"{m[c]:>20.4f}" for c in cols)
              + f"{row['cases']:>9}{row['attempted']:>10}{row['failed']:>7}"
              + f"{str(row['counts_repeat']):>15}")
    for name, state in data["known_defects"].items():
        print(f"known defect {name}: {state}")
    print(json.dumps(data))


# -- entry point ---------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--report", action="store_true",
                        help="all workloads, traced count check, known defects")
    args = parser.parse_args(argv)
    if not (SRC / "atkernel" / "__init__.py").is_file():
        print(f"error: no atkernel sources under {SRC}", file=sys.stderr)
        return 1
    sys.path.insert(0, str(SRC))
    signal.signal(signal.SIGALRM, _alarm)
    import atkernel

    if not Path(atkernel.__file__).resolve().is_relative_to(SRC):
        print(f"error: atkernel imported from {atkernel.__file__}, not {SRC}", file=sys.stderr)
        return 1
    if args.report:
        print_report(report(args.seed, args.seconds))
        return 0
    import cases

    if args.workload not in cases.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(cases.WORKLOADS)}")
    print(json.dumps(run_workload(args.workload, args.seed, args.seconds, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
