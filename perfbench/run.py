"""hjlab benchmark: end-to-end CLI runs and a traced in-process run.

Usage (from the repository root):

    python3 perfbench/run.py --workload theta-curve|effective|homogenize \\
        [--seed N] [--seconds S] [--trace 0|1]

The seed is the lattice seed of the workload's ``iid-interp`` medium; the
benchmark writes the INI configs from it and the program sees only those
files.  With ``--trace 0`` each repetition runs the workload's ``hjlab``
CLI command(s) in fresh single-worker processes, reading CPU time and
peak RSS of each child with ``os.wait4``.  The times are scaled by the
speed of a fixed reference kernel run between the repetitions
(``calibrate.py``), so that the host's drift in speed cancels.  With
``--trace 1`` the same commands run in-process through
``hjlab.cli.main``, alternately plain and wrapped by ``tracing.Tracer``,
which gives the per-layer numbers and the tracing overhead.  Every repetition's outputs go through the
correctness gate in ``workloads.py``; the last stdout line is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import os

# children and the in-process run use one BLAS thread; set before numpy loads
BLAS_THREADS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
                "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import functools  # noqa: E402
import io  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import calibrate as calibrate_mod  # noqa: E402
import tracing  # noqa: E402
import workloads as W  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
GOLDEN = HERE / "golden.json"

MIN_REPS = 3          # timed repetitions (and set-up probes) per run
KERNEL_PASSES = 3     # reference-kernel passes before each probe and step
MIN_TRACED = 2        # traced repetitions, so counters can be compared
RUN_LIMIT_S = 175     # whole-run deadline; children are killed past it


class BenchError(Exception):
    """The benchmark itself cannot run (as opposed to a wrong output)."""


class Stopped(BaseException):
    """The deadline or a signal ended the run.

    A BaseException, so that a crash handler never mistakes it for a
    failed attempt; run_child's ``finally`` still reaps the child.
    """


def _on_signal(signum, frame):
    raise Stopped(f"deadline of {RUN_LIMIT_S} s passed"
                  if signum == signal.SIGALRM else f"signal {signum}")


def run_child(argv, log: Path) -> dict:
    """Run one child to completion; its own rusage via wait4."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [(os.POSIX_SPAWN_OPEN, 1, f"{log}.out", flags, 0o644),
               (os.POSIX_SPAWN_OPEN, 2, f"{log}.err", flags, 0o644)]
    t0 = time.perf_counter()
    pid = os.posix_spawn(sys.executable, [sys.executable, *argv], env,
                         file_actions=actions)
    reaped = False
    try:
        _, status, ru = os.wait4(pid, 0)
        reaped = True
    finally:
        if not reaped:
            os.kill(pid, signal.SIGKILL)
            os.wait4(pid, 0)
    wall = time.perf_counter() - t0
    return {"code": os.waitstatus_to_exitcode(status), "wall": wall,
            "cpu": ru.ru_utime + ru.ru_stime, "rss_mb": ru.ru_maxrss / 1024.0,
            "stdout": Path(f"{log}.out").read_text(),
            "stderr": Path(f"{log}.err").read_text()}


def cli_argv(command, cfg, out) -> list[str]:
    return [command, "--config", str(cfg), "--out", str(out), "--workers", "1"]


class Gate:
    """Correctness gate: physics checks, exact repeats, reference outputs."""

    def __init__(self, workload: str, seed: int, half: float):
        self.workload, self.half = workload, half
        golden = json.loads(GOLDEN.read_text())[workload].get(str(seed), {})
        self.golden = {stem: text.encode() for stem, text in golden.items()}
        self.first = None
        self.golden_exact = None
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, runs, problems: list[str]) -> None:
        self.attempted += 1
        if not problems:
            try:
                problems = W.check(self.workload, runs, self.half)
            except (ValueError, KeyError) as exc:
                problems = [f"unreadable output: {exc!r}"]
        if not problems:
            got = W.output_bytes(self.workload, runs)
            if self.first is None:
                self.first = got
            if got != self.first:
                problems = ["data CSVs differ from the first repetition"]
            elif self.golden:
                problems = W.golden_mismatches(self.workload, got,
                                               self.golden)
            if self.golden and not problems:
                self.golden_exact = got == self.golden
        if problems:
            self.failed += 1
            self.problems += problems


def unit_of(metric: str) -> str:
    if metric == "peak_rss_mb":
        return "MB"
    if metric.endswith("_step"):
        return "ns"
    if metric.endswith("_s") or metric.startswith("pde.sweep_s."):
        return "s"
    if metric.startswith("trace.") or metric.endswith(("_frac", "_max")):
        return "ratio"
    return "count"


def median(xs):
    return statistics.median(xs) if xs else 0.0


def setup_probe(runs, logdir: Path) -> dict:
    """One fresh interpreter up to the first solve (``probe_setup.py``)."""
    command, cfg, _ = runs[0]
    child = run_child([str(HERE / "probe_setup.py"), command, str(cfg)],
                      logdir / "probe")
    if child["code"] != 0:
        raise BenchError(f"set-up probe failed: {child['stderr'][-500:]}")
    probe = json.loads(child["stdout"].strip().splitlines()[-1])
    probe["wall"] = child["wall"]
    return probe


def cli_rep(runs, gate: Gate, logdir: Path) -> dict:
    """One repetition: each CLI command of the workload in a fresh child."""
    children, problems = [], []
    for i, (command, cfg, out) in enumerate(runs):
        child = run_child(["-m", "hjlab.cli", *cli_argv(command, cfg, out)],
                          logdir / f"cli{i}")
        children.append(child)
        if child["code"] != 0:
            problems.append(f"{cfg.stem}: exit {child['code']}: "
                            f"{child['stderr'].strip()[-300:]}")
    gate.record(runs, problems)
    return {"wall": sum(c["wall"] for c in children),
            "cpu": sum(c["cpu"] for c in children),
            "rss_mb": max(c["rss_mb"] for c in children)}


def measure(seconds: float, min_steps: int, probe, step,
            calibrate: bool = True):
    """Alternate a set-up probe with one step for about ``seconds``.

    The machine's speed drifts in bursts of a few seconds, so spreading
    the probes between the steps keeps the two medians independent of
    any one burst.  With ``calibrate``, ``KERNEL_PASSES`` passes of the
    reference kernel also run before every probe and step, and after the
    last one; their times come back as the third list.  Runs at least
    ``min_steps`` steps, and starts no cycle that the last one says
    would end past ``seconds``.
    """
    probes, steps, calibs = [], [], []

    def kernel():
        if calibrate:
            calibs.extend(calibrate_mod.run() for _ in range(KERNEL_PASSES))

    t0 = time.perf_counter()
    cycle = 0.0
    while (len(steps) < min_steps
           or time.perf_counter() - t0 + cycle <= seconds):
        c0 = time.perf_counter()
        for fn, out in ((probe, probes), (step, steps)):
            kernel()
            out.append(fn())
        cycle = time.perf_counter() - c0
    kernel()
    return probes, steps, calibs


def inprocess_rep(runs, gate: Gate, tracer=None) -> float:
    """One repetition through hjlab.cli.main; returns its wall time."""
    import hjlab.cli

    problems = []
    if tracer is not None:
        tracer.install()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            for command, cfg, out in runs:
                code = hjlab.cli.main(cli_argv(command, cfg, out))
                if code != 0:
                    problems.append(f"{cfg.stem}: exit {code}")
    except Exception:  # a crash is a failed attempt, like a child's
        problems.append(traceback.format_exc(limit=-3))
    finally:
        wall = time.perf_counter() - t0
        if tracer is not None:
            tracer.uninstall()
    if (tracer is not None and gate.workload == "homogenize"
            and tracer.counts["pde.grad_excursions"]):
        problems.append("pde.evolve reported a gradient excursion")
    gate.record(runs, problems)
    return wall


def traced_pair(runs, gate: Gate, spans_path: Path, flip: bool) -> dict:
    """A plain and a traced in-process repetition, in alternating order."""
    pair = {}
    for with_trace in ((True, False) if flip else (False, True)):
        if not with_trace:
            pair["plain"] = inprocess_rep(runs, gate)
            continue
        tracer = tracing.Tracer()
        pair["traced"] = inprocess_rep(runs, gate, tracer)
        pair["summary"] = tracer.summary()
        spans_path.write_text(json.dumps(tracer.spans))
    return pair


def machine_info() -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas_threads": BLAS_THREADS}


def bench(args) -> dict:
    if not (SRC / "hjlab" / "cli.py").is_file():
        raise BenchError(f"no hjlab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import hjlab

    if Path(hjlab.__file__).resolve().parent != SRC / "hjlab":
        raise BenchError(f"hjlab imported from {hjlab.__file__}, not {SRC}")

    workload = args.workload
    seed = W.DEFAULT_SEEDS[workload] if args.seed is None else args.seed
    work = WORK / f"{workload}-{seed}-{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    try:
        reference, half = (W.homogenize_reference(seed)
                           if workload == "homogenize" else (None, 0.0))
        runs = W.configs(workload, seed, work, reference)
        gate = Gate(workload, seed, half)
        info = machine_info()
        print(f"# {workload} seed {seed} on {info}")
        if not gate.golden:
            print(f"# no reference outputs for seed {seed}: physics checks "
                  f"and repeat checks only")
        probe = functools.partial(setup_probe, runs, work)
        probe()  # warm-up: byte-compiles hjlab, fills the file cache
        if args.trace:
            spans_path = WORK / f"spans-{workload}-{seed}.json"
            flips = itertools.cycle((False, True))
            probes, pairs, _ = measure(
                args.seconds, MIN_TRACED, probe,
                lambda: traced_pair(runs, gate, spans_path, next(flips)),
                calibrate=False)
            summaries = [p["summary"] for p in pairs]
            for k in tracing.EXACT_COUNTERS:
                if len({s[k] for s in summaries}) != 1:
                    gate.failed += 1
                    gate.problems.append(f"{k} differs between traced runs")
            metrics = {k: median([s[k] for s in summaries])
                       for k in tracing.PER_LAYER}
            plain = median([p["plain"] for p in pairs])
            metrics.update({
                "cli.import_s": median([p["import_s"] for p in probes]),
                "trace.inprocess_s": plain,
                "trace.overhead_s":
                    median([p["traced"] for p in pairs]) - plain})
            print(f"# spans of the last traced run: {spans_path}")
        else:
            probes, reps, calibs = measure(
                args.seconds, MIN_REPS, probe,
                lambda: cli_rep(runs, gate, work))
            # times at the reference speed: the run's medians scaled by
            # the reference kernel's mean time over the same run.  Each
            # pass samples the host's speed for a moment; their mean
            # estimates it over the run, which each repetition integrates.
            kernel_s = statistics.fmean(calibs)
            scale = calibrate_mod.REF_S / kernel_s
            raw = {"wall_s": median([r["wall"] for r in reps]),
                   "cpu_s": median([r["cpu"] for r in reps]),
                   "setup_s": median([p["wall"] for p in probes])}
            metrics = {k: v * scale for k, v in raw.items()}
            metrics["peak_rss_mb"] = median([r["rss_mb"] for r in reps])
            print(f"# {len(reps)} repetitions; unscaled medians: "
                  + ", ".join(f"{k} {v:.4f} s" for k, v in raw.items())
                  + f"; reference kernel {kernel_s:.4f} s (mean of "
                  f"{len(calibs)} passes), REF_S {calibrate_mod.REF_S} s")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for k, v in metrics.items():
        print(f"{workload:12s} {k:32s} {v:16.10g} {unit_of(k)}")
    failed_frac = gate.failed / gate.attempted
    print(f"{workload:12s} {'failed_frac':32s} {failed_frac:16.10g} ratio "
          f"({gate.failed}/{gate.attempted})")
    if gate.golden_exact is not None:
        print(f"# data CSVs byte-identical to the reference outputs: "
              f"{gate.golden_exact}")
    for p in list(dict.fromkeys(gate.problems))[:20]:
        print(f"# FAILED: {p}")
    return {"correct": gate.failed == 0, "attempted": gate.attempted,
            "failed": gate.failed,
            "metrics": {k: {"value": v, "unit": unit_of(k)}
                        for k, v in metrics.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(W.DEFAULT_SEEDS))
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    for signum in (signal.SIGALRM, signal.SIGTERM, signal.SIGINT):
        signal.signal(signum, _on_signal)
    signal.alarm(RUN_LIMIT_S)
    try:
        result = bench(args)
    except (BenchError, Stopped) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    finally:
        signal.alarm(0)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
