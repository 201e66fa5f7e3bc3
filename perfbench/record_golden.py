"""Record the reference outputs that the correctness gate compares against.

Usage (from the repository root):

    python3 perfbench/record_golden.py SEED [SEED ...]

Runs every workload once per seed through the ``hjlab`` CLI and merges
its data CSVs into ``golden.json``.  The stored outputs are the program's
outputs at the commit that added the benchmark; run this only on an
unmodified checkout of that commit, to add seeds.
"""

import json
import shutil
import sys

import run
import workloads as W


def record(seed: int) -> dict:
    out = {}
    for workload in sorted(W.DEFAULT_SEEDS):
        work = run.WORK / f"golden-{workload}-{seed}"
        shutil.rmtree(work, ignore_errors=True)
        reference, half = (W.homogenize_reference(seed)
                           if workload == "homogenize" else (None, 0.0))
        runs = W.configs(workload, seed, work, reference)
        for i, (command, cfg, dest) in enumerate(runs):
            child = run.run_child(
                ["-m", "hjlab.cli", *run.cli_argv(command, cfg, dest)],
                work / f"cli{i}")
            if child["code"] != 0:
                sys.exit(f"{workload} seed {seed}: exit {child['code']}")
        problems = W.check(workload, runs, half)
        if problems:
            sys.exit(f"{workload} seed {seed}: {problems}")
        out[workload] = {stem: data.decode() for stem, data
                         in W.output_bytes(workload, runs).items()}
        shutil.rmtree(work)
    return out


def main() -> None:
    sys.path.insert(0, str(run.SRC))
    golden = (json.loads(run.GOLDEN.read_text())
              if run.GOLDEN.is_file() else {})
    for seed in (int(s) for s in sys.argv[1:]):
        for workload, tables in record(seed).items():
            golden.setdefault(workload, {})[str(seed)] = tables
        run.GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True)
                              + "\n")
        print(f"recorded seed {seed}", flush=True)


if __name__ == "__main__":
    main()
