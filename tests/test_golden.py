"""Pinned outputs: each command's data table, byte for byte.

Every case runs ``cli.main`` in-process on a small config and compares
the table it writes with the copy in ``tests/golden/`` (``env.csv``, the
one long table, by its SHA-256).  A change that keeps the arithmetic
keeps these bytes; a change that moves a number shows which column
moved and by how much.  The tables were recorded under the numpy
version and on the machine named in ``tests/golden/platform.json``;
elsewhere a match passes with a warning and a mismatch says where the
tables were recorded.  One case reads its tabulated G from
``tests/golden/tabulated_G.txt``.  The cases take about two seconds
together.

To record the corpus again, after a change that moves numbers on
purpose:

    PYTHONPATH=src python tests/test_golden.py --record
"""

import csv
import hashlib
import json
import math
import platform
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest

from hjlab.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

_POWER_MODEL = "\n[model]\nbeta = 1.0\n"

# name -> (command, config, table); a table ending in .sha256 is kept as
# the digest of the file the command writes under the stem's name
CASES = {
    # 40,001 nodes: the s column runs on across a 2^15-node block
    "gen_env_iid": ("gen-env", """[env]
kind = iid-interp
seed = 3
window = -200 200
dx_env = 0.01
a0 = 0.6
""" + _POWER_MODEL, "env.csv.sha256"),
    # a varies on this medium, so the hills' scaled lengths read s
    "hill_check_singular": ("hill-check", """[env]
kind = coupled-singular
seed = 5
window = -100 100
dx_env = 0.01
""" + _POWER_MODEL + """
[hill-check]
hs = 0.5 0.9
cs = 1.0 3.0
""", "hill_report.csv"),
    "effective_iid": ("effective", """[env]
kind = iid-interp
seed = 56254
window = -400 400
dx_env = 0.01
""" + _POWER_MODEL + """
[effective]
theta_grid = -2 0 1.5
tol = 0.05
x = 200
""", "effective.csv"),
    "homogenize_iid": ("homogenize", """[env]
kind = iid-interp
seed = 11
window = -200 200
dx_env = 0.01

[hamiltonian]
family = power
gamma = 2.0
growth_gamma = 2.0
growth_c1 = 0.9
growth_c2 = 1.1
""" + _POWER_MODEL + """
[homogenize]
theta = 1.2
epsilons = 0.25 0.125
dx = 0.05
m = 3.0
reference = 1.75
""", "sweep.csv"),
    **{f"theta_curve_branch{b}": ("theta-curve", """[env]
kind = iid-interp
seed = 7
window = -300 300
dx_env = 0.01
""" + _POWER_MODEL + f"""
[theta-curve]
lams = 1.5 2.5
branch = {b}
x = 100
tol = 0.01
""", "theta_curve.csv") for b in (1, 2)},
    "effective_constant": ("effective", """[env]
kind = constant
seed = 0
window = -40 40
dx_env = 0.1
a0 = 0.5
v0 = 0.3
""" + _POWER_MODEL + """
[effective]
theta_grid = -1 0 1
""", "effective.csv"),
    # the residual of a decorated corrector candidate, on both sides
    "probe_corrector": ("probe", """[env]
kind = periodic
seed = 5
window = -30 30
dx_env = 0.01
""" + _POWER_MODEL + """
[probe]
profile = corrector
lam = 2.0
branch = 2
region = -10 10
delta = 0.1
kind = both
""", "probe.csv"),
    # branch 1 is shot leftward and written left to right
    "corrector_iid": ("corrector", """[env]
kind = iid-interp
seed = 7
window = -100 100
dx_env = 0.01
""" + _POWER_MODEL + """
[corrector]
lam = 2.0
branch = 1
region = -5 0
tol = 1e-6
""", "corrector.csv"),
    **{f"effective_{name}": ("effective", f"""[env]
kind = {kind}
seed = {seed}
window = -{half} {half}
dx_env = 0.01
""" + _POWER_MODEL + f"""
[effective]
theta_grid = -2 0 1.5
tol = {tol}
x = 100
""", "effective.csv") for name, kind, seed, half, tol in (
        ("periodic", "periodic", 5, 300, 0.05),
        # a varies on this medium too
        ("gauss", "gauss-squash", 3, 150, 0.1))},
    **{f"homogenize_{name}": ("homogenize", """[env]
kind = iid-interp
seed = 11
window = -200 200
dx_env = 0.01

[hamiltonian]
""" + hamiltonian + _POWER_MODEL + f"""
[homogenize]
theta = 1.2
epsilons = 0.25 0.125
dx = 0.05
m = 3.0
reference = {reference}
""", "sweep.csv") for name, hamiltonian, reference in (
        ("log", """family = log-quasiconvex
growth_gamma = 1.1
growth_c1 = 0.5
growth_c2 = 1.0
""", 1.35),
        # a piecewise-linear G read from a table beside the corpus
        ("tabulated", f"""family = tabulated
path = {GOLDEN / "tabulated_G.txt"}
growth_gamma = 1.5
growth_c1 = 0.5
growth_c2 = 3.0
""", 2.06))},
    # at theta = 0 the flux takes its two-sided branch and the trim plan
    # is symmetric
    "homogenize_theta0": ("homogenize", """[env]
kind = iid-interp
seed = 11
window = -200 200
dx_env = 0.01

[hamiltonian]
family = power
gamma = 2.0
growth_gamma = 2.0
growth_c1 = 0.9
growth_c2 = 1.1
""" + _POWER_MODEL + """
[homogenize]
theta = 0.0
epsilons = 0.25 0.125
dx = 0.05
m = 3.0
reference = 1.0
""", "sweep.csv"),
    # a tight tol walks the inversion past its first level
    "effective_periodic_tight": ("effective", """[env]
kind = periodic
seed = 5
window = -300 300
dx_env = 0.01
""" + _POWER_MODEL + """
[effective]
theta_grid = -2 0 1.5
tol = 1e-4
x = 100
""", "effective.csv"),
    # at the flat level lam = beta v0 the burn-in doubles, to length 128
    "corrector_flat": ("corrector", """[env]
kind = constant
seed = 0
window = -150 10
dx_env = 0.1
v0 = 1.0
""" + _POWER_MODEL + """
[corrector]
lam = 1.0
region = 0 5
tol = 0.01
""", "corrector.csv"),
    # the glued profile reads s off the hill it is glued on
    "probe_glued": ("probe", """[env]
kind = constant
seed = 0
window = 0 30
dx_env = 0.1
a0 = 0.7
v0 = 1.0
""" + _POWER_MODEL + """
[probe]
profile = glued
delta = 0.25
order = 21
region = 0 30
hill_h = 0.9
hill_c = 5.0
kind = both
""", "probe.csv"),
}


def _platform() -> dict:
    return {"numpy": np.__version__, "machine": platform.machine(),
            "system": platform.system()}


def _run(name: str, workdir: Path) -> bytes:
    """The bytes the case keeps: its table, or the digest of a long one."""
    command, config, table = CASES[name]
    ini = workdir / f"{name}.ini"
    ini.write_text(config, encoding="utf-8")
    out = workdir / name
    assert main([command, "--config", str(ini), "--out", str(out)]) == 0
    if table.endswith(".sha256"):
        digest = hashlib.sha256((out / table[:-7]).read_bytes()).hexdigest()
        return (digest + "\n").encode()
    return (out / table).read_bytes()


def _golden_path(name: str) -> Path:
    return GOLDEN / f"{name}.{CASES[name][2].rpartition('.')[2]}"


def _column_report(got: bytes, want: bytes) -> str:
    """The largest difference in each column of two tables."""
    def parse(raw):
        lines = [ln for ln in raw.decode().splitlines()
                 if not ln.startswith("# ")]
        return list(csv.reader(lines))

    new, old = parse(got), parse(want)
    if not new or not old or new[0] != old[0] or len(new) != len(old):
        return (f"header or row count differs: {new[:1]} and {len(new)} "
                f"lines against {old[:1]} and {len(old)} lines")
    report = []
    for j, col in enumerate(old[0]):
        worst, changed = 0.0, 0
        for r_new, r_old in zip(new[1:], old[1:]):
            if r_new[j] == r_old[j]:
                continue
            changed += 1
            try:
                worst = max(worst, abs(float(r_new[j]) - float(r_old[j])))
            except ValueError:
                worst = math.nan
        if changed:
            report.append(f"{col}: {changed} rows differ, largest "
                          f"|difference| {worst:.3g}")
    return "; ".join(report) or "only the # lines differ"


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_the_pinned_table(name, tmp_path):
    want = _golden_path(name).read_bytes()
    got = _run(name, tmp_path)
    recorded = json.loads((GOLDEN / "platform.json").read_text())
    here = _platform()
    elsewhere = (f" (recorded on {recorded}, running on {here})"
                 if recorded != here else "")
    if got != want:
        detail = ("the SHA-256 differs" if CASES[name][2].endswith(".sha256")
                  else _column_report(got, want))
        pytest.fail(f"{name}: output moved from the pinned table: "
                    f"{detail}{elsewhere}")
    if elsewhere:
        warnings.warn(f"{name} matched{elsewhere}")


def test_a_moved_column_is_reported():
    old = b"a,b,c\n1.0,x,2.0\n3.0,y,4.0\n"
    new = b"a,b,c\n1.0,z,2.5\n3.0,y,3.0\n"
    assert _column_report(new, old) == (
        "b: 1 rows differ, largest |difference| nan; "
        "c: 2 rows differ, largest |difference| 1")
    assert _column_report(new + b"5.0,w,6.0\n", old).startswith(
        "header or row count differs")


def record() -> None:
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name in CASES:
            _golden_path(name).write_bytes(_run(name, Path(tmp)))
    (GOLDEN / "platform.json").write_text(
        json.dumps(_platform(), indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python tests/test_golden.py --record")
    record()
