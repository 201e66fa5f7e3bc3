"""End-to-end CLI tests: config parsing, exit codes, file outputs."""

import configparser
import functools
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hjlab
import hjlab.cli
import hjlab.corrector
import hjlab.effective
from hjlab.cli import RunConfig, cmd_probe, load_config, main
from hjlab.corrector import burn_in_length, corrector_profile
from hjlab.environment import EnvRealization, find_hill
from hjlab.errors import ConfigError, SignError
from hjlab.hamiltonian import PowerG
from hjlab.pde import cfl_gradient_range
from hjlab.probe import build_glued_profile, residual_probe

CONST_V0 = """
[env]
kind = constant
seed = 0
window = -40 40
dx_env = 0.1
v0 = 0.0

[model]
beta = 1.0

[theta-curve]
lams = 1.0 2.0 4.0
branch = 2
"""

PERIODIC = """
[env]
kind = periodic
seed = 5
window = -145 145
dx_env = 0.01
phase = 0.25

[model]
beta = 1.0

[theta-curve]
lams = 1.5 2.0 3.0
branch = 2
x = 60
"""

HOMOG_IID = """
[env]
kind = iid-interp
seed = 11
window = -960 960
dx_env = 0.01

[hamiltonian]
family = power
gamma = 2.0
growth_gamma = 2.0
growth_c1 = 0.9
growth_c2 = 1.1

[model]
beta = 1.0

[homogenize]
theta = 0.0
epsilons = 0.25 0.125
dx = 0.05
m = 1.0
"""

PROBE_GLUED = """
[env]
kind = constant
seed = 0
window = 0 30
dx_env = 0.1
v0 = 1.0

[model]
beta = 1.0

[probe]
profile = glued
delta = 0.25
order = 21
region = 0 30
hill_h = 0.9
hill_c = 5.0
kind = both
"""


def _write(tmp_path, text, name="run.ini"):
    path = tmp_path / name
    path.write_bytes(text if isinstance(text, bytes) else text.encode())
    return str(path)


def _rows(path):
    lines = path.read_text().strip().split("\n")
    return lines[0].split(","), [ln.split(",") for ln in lines[1:]]


def test_theta_curve_constant_closed_form(tmp_path):
    cfg = _write(tmp_path, CONST_V0)
    assert main(["theta-curve", "--config", cfg, "--out", str(tmp_path)]) == 0
    header, rows = _rows(tmp_path / "theta_curve.csv")
    assert header == ["lam", "theta", "ci", "cert_bound", "disc_bound"]
    for (lam, theta, ci, cert, disc) in rows:
        assert abs(float(theta) - math.sqrt(float(lam))) <= 1e-12
        assert float(ci) == 0.0 and float(cert) == 0.0 and float(disc) == 0.0


def test_gen_env_deterministic_and_sidecar(tmp_path):
    cfg = _write(tmp_path, CONST_V0)
    d1, d2 = tmp_path / "r1", tmp_path / "r2"
    assert main(["gen-env", "--config", cfg, "--out", str(d1)]) == 0
    assert main(["gen-env", "--config", cfg, "--out", str(d2)]) == 0
    assert (d1 / "env.csv").read_bytes() == (d2 / "env.csv").read_bytes()
    meta = json.loads((d1 / "env.meta.json").read_text())
    assert meta["command"] == "gen-env"
    assert meta["config"]["env"]["kind"] == "constant"
    assert meta["wall_time_s"] >= 0.0
    assert meta["outputs"] == ["env.csv"]
    assert "numpy" in meta["versions"]
    assert "scipy" in meta["versions"]


# scipy modules that a command must not load unless it needs them;
# scipy._lib._util is what the scipy.linalg package init costs
_HEAVY = ('scipy.stats', 'scipy.integrate', 'scipy.special', 'scipy.linalg',
          'scipy._lib._util')


def _loaded_heavy(argv: list[str], watch=_HEAVY) -> list:
    """[exit code, modules of ``watch`` loaded] of ``hjlab.cli.main(argv)``
    in a fresh interpreter; with no ``argv`` only the import runs."""
    src = str(Path(hjlab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    code = ("import json, sys; from hjlab.cli import main; "
            f"rc = main({argv!r}) if {argv!r} else None; "
            "print(json.dumps([rc, sorted(m for m in sys.modules "
            f"if m in {tuple(watch)!r})]))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def test_cli_import_skips_scipy_stats_and_integrate():
    # start-up cost: a fresh process importing the CLI loads none of
    # scipy.stats, scipy.integrate, scipy.special, scipy.linalg and
    # scipy._lib._util (module names, not timings)
    assert _loaded_heavy([]) == [None, []]


def test_effective_run_skips_scipy_stats_and_integrate(tmp_path):
    # the CI takes the in-house t quantile and the tangent an in-house
    # scan: a whole effective run in a fresh process loads no heavy
    # scipy submodule
    text = ("[env]\nkind = iid-interp\nseed = 3\nwindow = -300 300\n"
            "dx_env = 0.01\n\n[model]\nbeta = 1.0\n\n[effective]\n"
            "theta_grid = -1.5 1.5\nx = 40\ntol = 0.05\n")
    cfg = _write(tmp_path, text)
    out_dir = tmp_path / "out"
    assert _loaded_heavy(["effective", "--config", cfg, "--out",
                          str(out_dir)]) == [0, []]


def test_effective_run_loads_no_scipy(tmp_path):
    # nothing an effective run on an iid medium does needs scipy, and the
    # CLI no longer imports it for the sidecar: the sidecar's scipy
    # version is null
    text = ("[env]\nkind = iid-interp\nseed = 3\nwindow = -300 300\n"
            "dx_env = 0.01\n\n[model]\nbeta = 1.0\n\n[effective]\n"
            "theta_grid = -1.5 1.5\nx = 40\ntol = 0.05\n")
    cfg = _write(tmp_path, text)
    out_dir = tmp_path / "out"
    assert _loaded_heavy(["effective", "--config", cfg, "--out",
                          str(out_dir)], watch=("scipy",)) == [0, []]
    meta = json.loads((out_dir / "effective.meta.json").read_text())
    assert meta["versions"]["scipy"] is None


def test_effective_run_skips_numpy_ma(tmp_path):
    # the theta grid is deduplicated without np.unique, whose import of
    # numpy.ma was the run's only lazy import
    text = ("[env]\nkind = iid-interp\nseed = 3\nwindow = -300 300\n"
            "dx_env = 0.01\n\n[model]\nbeta = 1.0\n\n[effective]\n"
            "theta_grid = 1.5 -1.5 1.5\nx = 40\ntol = 0.05\n")
    cfg = _write(tmp_path, text)
    assert _loaded_heavy(["effective", "--config", cfg, "--out",
                          str(tmp_path / "out")], watch=("numpy.ma",)) \
        == [0, []]


def test_homogenize_run_loads_linalg_only(tmp_path):
    # the diffusion solve loads LAPACK's dpttrf/dpttrs without the
    # scipy.linalg package, so neither its init (scipy._lib._util) nor
    # the numpy.ma that came with it runs; nothing in a homogenize run
    # needs scipy.special
    cfg = _write(tmp_path, HOMOG_IID)
    assert _loaded_heavy(["homogenize", "--config", cfg, "--out",
                          str(tmp_path / "out")],
                         watch=_HEAVY + ("numpy.ma",)) == [0, []]
    # the solve loaded scipy, whose version the sidecar records
    meta = json.loads((tmp_path / "out" / "sweep.meta.json").read_text())
    assert isinstance(meta["versions"]["scipy"], str)


def test_seed_override_changes_data(tmp_path):
    iid = CONST_V0.replace("kind = constant", "kind = iid-interp") \
        .replace("v0 = 0.0\n", "")
    cfg = _write(tmp_path, iid)
    d1, d2 = tmp_path / "a", tmp_path / "b"
    assert main(["gen-env", "--config", cfg, "--out", str(d1)]) == 0
    assert main(["gen-env", "--config", cfg, "--out", str(d2),
                 "--seed-override", "8"]) == 0
    assert (d1 / "env.csv").read_bytes() != (d2 / "env.csv").read_bytes()
    meta = json.loads((d2 / "env.meta.json").read_text())
    assert meta["flags"]["seed_override"] == 8


def test_missing_seed_is_config_error(tmp_path):
    cfg = _write(tmp_path, CONST_V0.replace("seed = 0\n", ""))
    assert main(["gen-env", "--config", cfg, "--out", str(tmp_path)]) == 2


def test_unknown_kind_is_config_error(tmp_path):
    cfg = _write(tmp_path, CONST_V0.replace("constant", "quenched"))
    assert main(["gen-env", "--config", cfg, "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("text", [
    # a misspelled G parameter, env parameter or growth constant
    CONST_V0.replace("[model]", "[hamiltonian]\ngama = 3.0\n\n[model]"),
    CONST_V0.replace("v0 = 0.0", "vo = 0.7"),
    HOMOG_IID.replace("growth_c2 = 1.1", "growth_c2 = 1.1\ngrowth_c3 = 1.0"),
], ids=["gama", "vo", "growth_c3"])
def test_unknown_key_is_config_error(tmp_path, text):
    cfg = _write(tmp_path, text)
    assert main(["gen-env", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert not (tmp_path / "env.csv").exists()


IID_V = CONST_V0.replace("kind = constant", "kind = iid-interp").replace(
    "v0 = 0.0\n", "")

IID80 = """
[env]
kind = iid-interp
seed = 1
window = -80 80
dx_env = 0.01

[hamiltonian]
family = power
gamma = 2.0

[model]
beta = 1.0

[theta-curve]
lams = 2
x = 40
tol = 0.01
"""


@pytest.mark.parametrize("text", [
    # non-finite numbers of the medium and of G
    IID_V.replace("window = -40 40", "window = -inf 10"),
    IID_V.replace("dx_env = 0.1", "dx_env = 0.1\nphase = nan"),
    IID_V.replace("[model]", "[hamiltonian]\ngamma = inf\n\n[model]"),
    # what the INI parser itself rejects
    IID_V.replace("seed = 0", "seed = 0\nseed = 1"),
    IID_V + "\n[model]\nbeta = 2.0\n",
    "beta = 1.0\n" + IID_V,
], ids=["window-inf", "phase-nan", "gamma-inf", "repeated-key",
        "repeated-section", "line-before-header"])
def test_malformed_or_non_finite_config_is_config_error(tmp_path, text):
    cfg = _write(tmp_path, text)
    assert main(["gen-env", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert not (tmp_path / "env.csv").exists()


@pytest.mark.parametrize("text", [
    # a misspelled section header would run at the default PowerG(2)
    CONST_V0.replace("[model]",
                     "[hamiltonain]\nfamily = log-quasiconvex\n\n[model]"),
    CONST_V0 + "\n[output]\ndri = elsewhere\n",
], ids=["hamiltonain", "output-dri"])
def test_unknown_section_or_output_key_is_config_error(tmp_path, text):
    cfg = _write(tmp_path, text)
    assert main(["theta-curve", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert not (tmp_path / "theta_curve.csv").exists()


def test_output_dir_and_other_command_sections_are_accepted(tmp_path):
    # a config may carry every command's section and an [output] dir
    text = (CONST_V0 + "\n[effective]\ntheta_grid = -1 0 1\n"
            + f"\n[output]\ndir = {tmp_path / 'out'}\n")
    cfg = _write(tmp_path, text)
    assert main(["theta-curve", "--config", cfg]) == 0
    assert (tmp_path / "out" / "theta_curve.csv").exists()


@pytest.mark.parametrize("section, line", [("effective", "tols = 0.5"),
                                           ("model", "beat = 2.0")],
                         ids=["effective-tols", "model-beat"])
def test_unknown_command_or_model_key_is_config_error(tmp_path, section,
                                                      line):
    text = CONST_V0 + "\n[effective]\ntheta_grid = -1 0 1\n"
    cfg = _write(tmp_path, text.replace(f"[{section}]\n",
                                        f"[{section}]\n{line}\n"))
    assert main(["effective", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert not (tmp_path / "effective.csv").exists()


def test_gen_env_integer_and_float_params_agree(tmp_path):
    # generator parameters are floats however they are written
    text = CONST_V0.replace("v0 = 0.0", "v0 = 0.3\na0 = {}")
    d1, d2 = tmp_path / "int", tmp_path / "float"
    for out, a0 in ((d1, "1"), (d2, "1.0")):
        cfg = _write(tmp_path, text.format(a0), name=f"{out.name}.ini")
        assert main(["gen-env", "--config", cfg, "--out", str(out)]) == 0
    assert (d1 / "env.csv").read_bytes() == (d2 / "env.csv").read_bytes()


# the commands that never read the s-table, which serves only the hill
# condition
_WITHOUT_S = {
    "corrector": IID80.split("[theta-curve]")[0]
    + "[corrector]\nlam = 2.0\nbranch = 2\nregion = -10 10\ntol = 0.01\n",
    "theta-curve": IID80,
    "effective": IID80.split("[theta-curve]")[0]
    + "[effective]\ntheta_grid = -1.5 0 1.5\nx = 40\ntol = 0.05\n",
    "homogenize": HOMOG_IID + "reference = 1.0\n",
}


@pytest.mark.parametrize("command", sorted(_WITHOUT_S))
def test_commands_off_the_hill_condition_never_build_s(tmp_path, monkeypatch,
                                                       command):
    def unbuilt(env):
        pytest.fail(f"{command} read the s-table")

    monkeypatch.setattr(EnvRealization, "s_table", property(unbuilt))
    cfg = _write(tmp_path, _WITHOUT_S[command])
    assert main([command, "--config", cfg, "--out", str(tmp_path)]) == 0


@pytest.mark.parametrize("command, text", [
    ("gen-env", IID80),
    # four (h, C) pairs on one window
    ("hill-check", PROBE_GLUED.split("[probe]")[0]
     + "[hill-check]\nhs = 0.5 0.9\ncs = 1.0 5.0\n"),
    ("probe", PROBE_GLUED)], ids=["gen-env", "hill-check", "probe-glued"])
def test_commands_on_the_hill_condition_build_s_once(tmp_path, monkeypatch,
                                                     command, text):
    builds = []
    derive = EnvRealization.s_table.func

    def counted(env):
        builds.append(env)
        return derive(env)

    table = functools.cached_property(counted)
    table.__set_name__(EnvRealization, "s_table")
    monkeypatch.setattr(EnvRealization, "s_table", table)
    cfg = _write(tmp_path, text)
    assert main([command, "--config", cfg, "--out", str(tmp_path)]) == 0
    assert len(builds) == 1


def test_missing_config_file_is_config_error(tmp_path):
    assert main(["gen-env", "--config", str(tmp_path / "nope.ini"),
                 "--out", str(tmp_path)]) == 2


def test_lam_below_beta_is_config_error(tmp_path):
    cfg = _write(tmp_path, CONST_V0.replace("lams = 1.0 2.0 4.0",
                                            "lams = 0.5 2.0"))
    assert main(["theta-curve", "--config", cfg, "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("line", ["branch = 3", "n_batches = 5", "tol = -1",
                                  "x = 0", "branch = 2.5",
                                  "n_batches = 10.5", "x = inf",
                                  "n_batches = 10"])
def test_bad_command_parameter_is_config_error(tmp_path, line):
    cfg = _write(tmp_path, CONST_V0.replace("branch = 2", line))
    assert main(["theta-curve", "--config", cfg, "--out", str(tmp_path)]) == 2


_BASES = {
    "probe": PROBE_GLUED,
    "probe-corrector": PROBE_GLUED.replace(
        "profile = glued", "profile = corrector\nlam = 2.0\nbranch = 2"),
    "homogenize": HOMOG_IID,
    "hill-check": CONST_V0.split("[theta-curve]")[0]
    + "[hill-check]\nh = 0.9\nc = 5.0\n",
}


@pytest.mark.parametrize("base, line", [
    ("probe", "tol_probe = abc"), ("probe", "tol_probe = -1"),
    ("probe", "hill_h = 1.5"), ("probe", "hill_c = -5"),
    ("probe", "order = 22"), ("probe-corrector", "branch = 3"),
    ("probe-corrector", "tol = -1"), ("homogenize", "dt = abc"),
    ("homogenize", "dt = -0.01"), ("homogenize", "epsilons = x"),
    ("homogenize", "epsilons = 0.5 2"), ("homogenize", "reference = abc"),
    ("homogenize", "reference = inf"), ("homogenize", "theta = nan"),
    ("homogenize", "ref_tol = -1"), ("homogenize", "ref_x = 0"),
    ("homogenize", "ref_dx = -0.01"), ("probe", "kind = neither"),
    ("probe", "profile = other"), ("probe-corrector", "region = 2 1"),
    ("hill-check", "mode = valley")])
def test_bad_parameter_exits_before_the_medium_is_built(tmp_path, monkeypatch,
                                                        base, line):
    def no_medium(self, window=None):
        pytest.fail("the medium was built before every parameter was read")

    monkeypatch.setattr(hjlab.cli.RunConfig, "make_env", no_medium)
    # the command's section is last: drop the key's line there (the same
    # key may sit in [env]) and append the bad one
    key = line.split(" = ")[0]
    head, header, section = _BASES[base].rpartition("\n[")
    text = head + header + "\n".join(
        ln for ln in section.splitlines()
        if not ln.startswith(key + " ")) + f"\n{line}\n"
    cfg = _write(tmp_path, text)
    command = base.removesuffix("-corrector")
    assert main([command, "--config", cfg, "--out", str(tmp_path)]) == 2
    assert not list(tmp_path.glob("*.csv"))


CONST_TINY_A = CONST_V0.replace("v0 = 0.0", "v0 = 0.0\na0 = 1e-320")


# rejections of the config loader, the medium generators and make_G,
# each recognised by its own message
@pytest.mark.parametrize("command, text, flags, message", [
    ("effective", CONST_V0 + "\n[effective]\ntheta_grid =\n", [],
     "at least one number"),
    # the CI always takes ten batches: there is no key to set them
    ("effective", CONST_V0 + "\n[effective]\ntheta_grid = -1 1\n"
     "n_batches = 10\n", [], "unknown key(s) n_batches in [effective]"),
    ("gen-env", CONST_V0.replace("[env]", "[output]"), [], "[env] section"),
    ("gen-env", CONST_V0.replace("window = -40 40", "window = 1 0"), [],
     "window must be two increasing"),
    ("gen-env", CONST_V0.replace("[model]\nbeta = 1.0\n", ""), [],
     "[model] section"),
    ("gen-env", CONST_V0, ["--workers", "0"], "--workers must be >= 1"),
    ("gen-env", IID_V.replace("dx_env = 0.1", "dx_env = 0.1\na0 = 0"), [],
     "a0 must lie in"),
    ("gen-env", IID_V.replace("iid-interp", "gauss-squash").replace(
        "dx_env = 0.1", "dx_env = 0.1\ncorr_len = 0"), [],
     "corr_len must be positive"),
    ("gen-env", IID_V.replace("iid-interp", "gauss-squash").replace(
        "dx_env = 0.1", "dx_env = 0.1\nkappa = 1"), [], "kappa must lie in"),
    ("gen-env", IID_V.replace("iid-interp", "coupled-singular").replace(
        "dx_env = 0.1", "dx_env = 0.1\nbump_width = 0.6"), [],
     "bump_width must lie in"),
    ("gen-env", CONST_V0.replace(
        "[model]", "[hamiltonian]\nfamily = power\ngamma = 1\n\n[model]"),
     [], "needs gamma > 1"),
    # each of these three crashed: numpy's out-of-memory error, an
    # IndexError in the coupled-singular generator, and a ValueError of
    # the growth check inside the command
    ("gen-env", IID_V.replace("window = -40 40", "window = -1e12 1e12"), [],
     "at most 100000000 are allowed"),
    ("gen-env", IID_V.replace("iid-interp", "coupled-singular").replace(
        "dx_env = 0.1", "dx_env = 1e20"), [], "longer than the window"),
    # 2^53 units from 0 the unit lattice is not resolved: this exited 2
    # on a value check, after an int64 cast warning
    ("gen-env", IID_V.replace("window = -40 40", "window = 1e19 1.00000001e19")
     .replace("dx_env = 0.1", "dx_env = 1e10"), [], "over 2^53 units"),
    ("gen-env", IID_V.replace("iid-interp", "coupled-singular").replace(
        "window = -40 40", "window = -1.00000001e19 -1e19").replace(
        "dx_env = 0.1", "dx_env = 1e10"), [], "over 2^53 units"),
    ("homogenize", HOMOG_IID.replace("growth_gamma = 2.0",
                                     "growth_gamma = 1"), [],
     "growth certificate needs gamma > 1"),
    ("homogenize", HOMOG_IID.replace("growth_gamma = 2.0\ngrowth_c1 = 0.9\n"
                                     "growth_c2 = 1.1\n", ""), [],
     "homogenize requires a growth certificate"),
    # these two overflowed: exp(1e20) in the log-quasiconvex branch
    # inverse, and the count of glue steps at dx = 1e-320
    ("theta-curve", IID80.replace("family = power\ngamma = 2.0",
                                  "family = log-quasiconvex").replace(
        "lams = 2", "lams = 1e20"), [], "no finite slope"),
    ("probe", PROBE_GLUED + "dx = 1e-320\n", [], "would take more than"),
    # this exited 2 only because main mapped any ValueError to 2
    ("gen-env", CONST_V0.encode().replace(b"v0 = 0.0", b"v0 = 0.0\xff"), [],
     "can't decode byte 0xff"),
    # 1 / a0 overflows: refused at build, before the s-table is read
    ("gen-env", CONST_TINY_A, [], "s-table overflows"),
    ("effective", CONST_TINY_A + "\n[effective]\ntheta_grid = -1 0 1\n", [],
     "s-table overflows"),
], ids=["empty-list", "effective-n-batches", "no-env", "window-decreasing",
        "no-model", "workers-0", "iid-a0-0", "gauss-corr-len-0", "gauss-kappa-1",
        "singular-bump-width", "power-gamma-1", "node-cap",
        "dx-env-over-window", "iid-far-window", "singular-far-window",
        "growth-gamma-1", "no-growth-keys", "log-level-overflow", "glue-dx-1e-320",
        "undecodable", "gen-env-a0-1e-320", "effective-a0-1e-320"])
def test_config_rejection_exits_2_and_writes_no_table(tmp_path, capsys,
                                                      command, text, flags,
                                                      message):
    cfg = _write(tmp_path, text)
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out), *flags]) == 2
    assert message in capsys.readouterr().err
    assert not list(out.glob("*.csv"))


# a path table with a non-finite p: a nan at the minimum crashed with a
# traceback (a reduction over an empty array), a nan in the first row
# went unseen, and an inf in the last row built a G whose edge slope is 0
@pytest.mark.parametrize("row, bad", [(3, "nan"), (0, "nan"), (5, "inf")],
                         ids=["nan-at-minimum", "nan-first", "inf-last"])
def test_tabulated_non_finite_entry_exits_2(tmp_path, capsys, row, bad):
    ps = ["-4.0", "-2.5", "-1.0", "0.0", "1.5", "3.0"]
    ps[row] = bad
    table = tmp_path / "table.txt"
    table.write_text("".join(f"{p} {g}\n" for p, g in zip(
        ps, ["7.0", "4.0", "1.0", "0.0", "2.0", "5.0"])))
    cfg = _write(tmp_path, IID80.replace(
        "family = power\ngamma = 2.0", f"family = tabulated\npath = {table}"))
    out = tmp_path / "out"
    assert main(["theta-curve", "--config", cfg, "--out", str(out)]) == 2
    assert "non-finite entry" in capsys.readouterr().err
    assert not list(out.glob("*.csv"))


# a config every command loads, and values to put in it: numbers at and
# past every range, lists, words, 30 digits, an interpolation, NUL, not UTF-8
_POOL = [b"", b"0", b"-1", b"-2.5", b"1e308", b"1e-300", b"nan", b"inf",
         b"-inf", b"1 2 3", b"-1, 1", b"word", b"asym-power", b"tabulated",
         b"cubic-spline", b"1" * 30, b"%(x)s", b"\x00", b"\xff\xfe"]
_LOADABLE = configparser.ConfigParser(interpolation=None)
_LOADABLE.read_string(HOMOG_IID.split("[homogenize]")[0])


@given(command=st.sampled_from(sorted(hjlab.cli._KEYS)), data=st.data())
@settings(max_examples=300, deadline=500)
def test_load_config_returns_a_run_config_or_raises_config_error(
        tmp_path_factory, command, data):
    # one to three values of a loadable config, or of a key no section
    # takes, replaced from the pool: nothing but ConfigError escapes
    sections = {name: {k: v.encode() for k, v in _LOADABLE[name].items()}
                for name in _LOADABLE.sections()}
    sections[command] = dict.fromkeys(hjlab.cli._KEYS[command], b"2")
    slots = [(name, key) for name, keys in sections.items()
             for key in [*keys, "extra"]]
    for name, key in data.draw(st.lists(st.sampled_from(slots), min_size=1,
                                        max_size=3)):
        sections[name][key] = data.draw(st.sampled_from(_POOL))
    cfg = _write(tmp_path_factory.getbasetemp(), b"".join(
        f"[{name}]\n".encode()
        + b"".join(k.encode() + b" = " + v + b"\n" for k, v in keys.items())
        for name, keys in sections.items()))
    try:
        assert isinstance(load_config(cfg, command, None, 1, None), RunConfig)
    except ConfigError:
        pass


def test_glued_probe_without_a_hill_exits_1(tmp_path, capsys):
    # V = 0.5 never reaches the hill level 0.9: no witness to glue on
    cfg = _write(tmp_path, PROBE_GLUED.replace("v0 = 1.0", "v0 = 0.5"))
    assert main(["probe", "--config", cfg, "--out", str(tmp_path)]) == 1
    assert "no hill witness" in capsys.readouterr().err
    assert not (tmp_path / "probe.csv").exists()


def test_value_error_inside_command_is_a_crash(tmp_path, monkeypatch):
    # only config loading maps ValueError to exit 2; raised by a command,
    # it is a bug and propagates
    def broken(cfg):
        raise ValueError("raised mid-computation")

    monkeypatch.setitem(hjlab.cli._DISPATCH, "gen-env", broken)
    cfg = _write(tmp_path, CONST_V0)
    with pytest.raises(ValueError, match="mid-computation"):
        main(["gen-env", "--config", cfg, "--out", str(tmp_path)])


def test_theta_curve_parallel_matches_sequential(tmp_path):
    cfg = _write(tmp_path, PERIODIC)
    d1, d2 = tmp_path / "seq", tmp_path / "par"
    assert main(["theta-curve", "--config", cfg, "--out", str(d1)]) == 0
    assert main(["theta-curve", "--config", cfg, "--out", str(d2),
                 "--workers", "3"]) == 0
    assert (d1 / "theta_curve.csv").read_bytes() == \
        (d2 / "theta_curve.csv").read_bytes()


def test_theta_curve_and_corrector_record_rk4_steps(tmp_path):
    # each estimate integrates its reported run in full (burn-in plus
    # region), stops its check run once the two are equal, and runs the
    # reported run again at twice the step for its discretization bar
    text = PERIODIC + "\n[corrector]\nlam = 2.0\nbranch = 1\n" \
        "region = -10 0\ntol = 1e-6\ndx = 0.01\n"
    cfg = _write(tmp_path, text)
    assert main(["theta-curve", "--config", cfg, "--out", str(tmp_path)]) == 0
    stats = json.loads((tmp_path / "theta_curve.meta.json").read_text())["stats"]
    dx = stats["dx"]
    primary = sum(round(60 / dx)
                  + math.ceil(burn_in_length(PowerG(2.0), 1.0, lam, 1e-6)
                              / dx - 1e-9) for lam in (1.5, 2.0, 3.0))
    assert 1.5 * primary < stats["rk4_steps"] < 2.5 * primary
    assert main(["corrector", "--config", cfg, "--out", str(tmp_path)]) == 0
    stats = json.loads((tmp_path / "corrector.meta.json").read_text())["stats"]
    assert set(stats) == {"rk4_steps", "cert_bound"}
    assert 1647 < stats["rk4_steps"] < 2 * 1647   # 647 burn-in + 1000 region
    assert 0.0 <= stats["cert_bound"] <= 1e-6


def test_effective_constant_closed_form(tmp_path):
    text = CONST_V0.replace("v0 = 0.0", "v0 = 1.0") + \
        "\n[effective]\ntheta_grid = -1.5 1.5\n"
    cfg = _write(tmp_path, text)
    assert main(["effective", "--config", cfg, "--out", str(tmp_path)]) == 0
    header, rows = _rows(tmp_path / "effective.csv")
    assert header == ["theta", "H", "H_lo", "H_hi", "branch"]
    by_theta = {float(r[0]): r for r in rows}
    # H = G(theta) + beta v0 exactly on constant media
    assert float(by_theta[-1.5][1]) == pytest.approx(3.25, abs=1e-12)
    assert float(by_theta[1.5][1]) == pytest.approx(3.25, abs=1e-12)


def test_effective_records_run_counters(tmp_path):
    text = PERIODIC + "\n[effective]\ntheta_grid = -1.8 1.8\nx = 40\n" \
        "tol = 1e-3\n"
    cfg = _write(tmp_path, text)
    assert main(["effective", "--config", cfg, "--out", str(tmp_path)]) == 0
    meta = json.loads((tmp_path / "effective.meta.json").read_text())
    stats = meta["stats"]
    assert set(stats) == {"n_evals", "rk4_steps", "theta1_beta", "theta2_beta",
                          "theta1_ci", "theta2_ci", "dx", "theta1_disc_bound",
                          "theta2_disc_bound", "theta1_dx", "theta2_dx"}
    # each side inverts one slope: at least one slope estimate apiece,
    # each row and each endpoint with at least its 40-unit region at the
    # step it settled on
    assert stats["n_evals"] >= 2
    settled = [r["dx"] for r in meta["rows"]] + [stats["theta1_dx"],
                                                 stats["theta2_dx"]]
    assert stats["rk4_steps"] > sum(40 / dx for dx in settled)
    # the endpoints sit on the ladder of the command step; a coarser step
    # stands only with its bar within 0.05 tol
    for i in (1, 2):
        step = stats[f"theta{i}_dx"]
        assert step in [k * stats["dx"] for k in (4, 2, 1)]
        assert 0.0 <= stats[f"theta{i}_disc_bound"] <= (
            0.05 * 1e-3 if step > stats["dx"] else 1e-5)
    assert 0.0 <= stats["theta1_ci"] <= 1e-3
    assert 0.0 <= stats["theta2_ci"] <= 1e-3
    # the flat endpoints theta_i(beta) bound the flat piece around 0
    assert stats["theta1_beta"] < 0.0 < stats["theta2_beta"]


def test_effective_sidecar_rows(tmp_path):
    text = PERIODIC + "\n[effective]\ntheta_grid = -1.8 0 1.8\nx = 40\n" \
        "tol = 1e-3\n"
    cfg = _write(tmp_path, text)
    assert main(["effective", "--config", cfg, "--out", str(tmp_path)]) == 0
    meta = json.loads((tmp_path / "effective.meta.json").read_text())
    _, table = _rows(tmp_path / "effective.csv")
    branch_rows = [r for r in table if r[4] != "flat"]
    # one record per branch row, in the table's order
    rows = meta["rows"]
    assert [(r["theta"], r["lam"], r["lam_lo"], r["lam_hi"]) for r in rows] \
        == [tuple(map(float, r[:4])) for r in branch_rows]
    assert [r["branch"] for r in rows] == [1, 2]
    assert sum(r["n_evals"] for r in rows) == meta["stats"]["n_evals"]
    for r in rows:
        assert {"theta_at_lam", "ci", "n_evals", "rk4_steps", "dx",
                "dtheta_dlam", "dtheta_ci", "dH_dtheta"} <= set(r)
        assert "flagged" not in r
        assert abs(r["theta_at_lam"] - r["theta"]) <= 1e-3
        assert r["n_evals"] >= 1 and r["dtheta_ci"] >= 0.0
        assert r["dH_dtheta"] == 1.0 / r["dtheta_dlam"]
        # Hbar is increasing on the right branch, decreasing on the left
        assert (r["dH_dtheta"] > 0.0) == (r["branch"] == 2)


def test_effective_parallel_matches_sequential(tmp_path):
    text = PERIODIC + "\n[effective]\ntheta_grid = -1.8 -1.5 0 1.5 1.8\n" \
        "x = 40\ntol = 1e-3\n"
    cfg = _write(tmp_path, text)
    d1, d2 = tmp_path / "w1", tmp_path / "w2"
    assert main(["effective", "--config", cfg, "--out", str(d1)]) == 0
    assert main(["effective", "--config", cfg, "--out", str(d2),
                 "--workers", "2"]) == 0
    assert (d1 / "effective.csv").read_bytes() == \
        (d2 / "effective.csv").read_bytes()
    m1, m2 = (json.loads((d / "effective.meta.json").read_text())
              for d in (d1, d2))
    assert len(m1["rows"]) == 4
    assert json.dumps(m1["rows"]) == json.dumps(m2["rows"])
    assert m1["stats"] == m2["stats"]


# parent outputs at an explicit dx = 0.01, before the step-doubling bar:
# with the step given, the bar leaves every existing column untouched
FROZEN_THETA_CURVE = """lam,theta,ci,cert_bound
1.5,0.9985621118796275,5.1687834737291944e-11,4.409799858606789e-09
2.0,1.2236227813813914,3.481900142736444e-10,5.227294996856813e-08
3.0,1.5803401143048579,9.277243058279801e-10,2.1364434465986903e-07
"""
FROZEN_EFFECTIVE = """theta,H,H_lo,H_hi,branch
-1.8,3.8052266705410775,3.24,4.24,left
-1.5,2.8152266705410773,2.25,3.25,left
0.0,1.0,1.0,1.0,flat
1.5,2.7988940043549566,2.25,3.25,right
1.8,3.788894004354957,3.24,4.24,right
"""
IID_EFFECTIVE = ("[env]\nkind = iid-interp\nseed = 3\nwindow = -300 300\n"
                 "dx_env = 0.01\n\n[model]\nbeta = 1.0\n\n[effective]\n"
                 "theta_grid = -1.8 -1.5 0 1.5 1.8\nx = 40\ntol = 0.05\n")


def _close_to_frozen(out, meta):
    """``effective.csv`` in ``out`` is ``FROZEN_EFFECTIVE``, each branch
    ``H`` within the shift its endpoint's bar allows: H = G(theta) + beta
    - G(theta_i(beta)) moves by |G'(theta_i)| times the endpoint's move."""
    G, stats = PowerG(2.0), meta["stats"]
    allowed = {side: abs(float(G.deriv(stats[f"theta{i}_beta"])))
               * stats[f"theta{i}_disc_bound"] + 1e-5
               for i, side in ((1, "left"), (2, "right"))}
    _, rows = _rows(out / "effective.csv")
    frozen = [line.split(",") for line in FROZEN_EFFECTIVE.splitlines()[1:]]
    assert len(rows) == len(frozen)
    for got, want in zip(rows, frozen):
        assert got[0] == want[0] and got[2:] == want[2:]
        if got[4] == "flat":
            assert got[1] == want[1]
        else:
            assert abs(float(got[1]) - float(want[1])) <= allowed[got[4]]


def test_explicit_dx_keeps_the_outputs(tmp_path):
    cfg = _write(tmp_path, PERIODIC.replace("x = 60", "x = 60\ndx = 0.01"))
    assert main(["theta-curve", "--config", cfg, "--out", str(tmp_path)]) == 0
    header, rows = _rows(tmp_path / "theta_curve.csv")
    assert header[-1] == "disc_bound"
    assert "".join(",".join(r) + "\n" for r in [header[:4]] +
                   [r[:4] for r in rows]) == FROZEN_THETA_CURVE
    assert all(0.0 < float(r[4]) < 1e-5 for r in rows)
    # the endpoints coarsen from the given step as the rows do: the table
    # keeps every column but H, and H moves by at most the endpoint's bar
    cfg = _write(tmp_path, IID_EFFECTIVE + "dx = 0.01\n")
    assert main(["effective", "--config", cfg, "--out", str(tmp_path)]) == 0
    meta = json.loads((tmp_path / "effective.meta.json").read_text())
    assert meta["stats"]["dx"] == 0.01
    assert all(math.isfinite(r["disc_bound"]) for r in meta["rows"])
    _close_to_frozen(tmp_path, meta)


def test_effective_default_step_and_bars(tmp_path):
    # no dx in the config: a = 1 on iid-interp, so the largest step, 0.04,
    # keeps every RK4 step monotone up to G(1.8) + beta; every slope
    # estimate carries a step-doubling bar far below its CI.  The row
    # and endpoint estimates coarsen to 4 dx = 0.16, where their bars
    # pass the gate 0.05 tol, the endpoints' CIs (above tol) ungated
    cfg = _write(tmp_path, IID_EFFECTIVE)
    assert main(["effective", "--config", cfg, "--out", str(tmp_path)]) == 0
    meta = json.loads((tmp_path / "effective.meta.json").read_text())
    stats = meta["stats"]
    assert stats["dx"] == 0.04
    assert len(meta["rows"]) == 4
    for r in meta["rows"]:
        assert r["dx"] == 0.16
        assert 0.0 < r["disc_bound"] <= r["ci"] / 100
    assert stats["theta1_dx"] == stats["theta2_dx"] == 0.16
    assert max(stats["theta1_ci"], stats["theta2_ci"]) > 0.05
    for i in (1, 2):
        assert 0.0 < stats[f"theta{i}_disc_bound"] <= 0.05 * 0.05
    # against the frozen table at dx 0.01, the fine-step oracle
    _close_to_frozen(tmp_path, meta)


def test_coarse_rows_keep_the_effective_table(tmp_path, monkeypatch):
    # the row estimates only decide acceptance and the Newton step: with
    # the endpoints held on the full ladder in both runs and every row
    # shot at the command step in the second, the table is the same bytes
    endpoint = hjlab.effective._endpoint

    def full_ladder(*args, **kwargs):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(hjlab.effective, "ROW_STEP_FACTORS", (4, 2, 1))
            return endpoint(*args, **kwargs)

    monkeypatch.setattr(hjlab.effective, "_endpoint", full_ladder)
    cfg = _write(tmp_path, IID_EFFECTIVE)
    d1, d2 = tmp_path / "ladder", tmp_path / "one_step"
    assert main(["effective", "--config", cfg, "--out", str(d1)]) == 0
    monkeypatch.setattr(hjlab.effective, "ROW_STEP_FACTORS", (1,))
    assert main(["effective", "--config", cfg, "--out", str(d2)]) == 0
    m1, m2 = (json.loads((d / "effective.meta.json").read_text())
              for d in (d1, d2))
    assert all(r["dx"] == 0.16 for r in m1["rows"])
    assert all(r["dx"] == 0.04 for r in m2["rows"])
    for key in ("theta1_dx", "theta2_dx", "theta1_beta", "theta2_beta"):
        assert m1["stats"][key] == m2["stats"][key]
    assert (d1 / "effective.csv").read_bytes() == \
        (d2 / "effective.csv").read_bytes()


# the benchmark's effective config (perfbench/workloads.py) on its seed
BENCH_EFFECTIVE = ("[env]\nkind = iid-interp\nseed = 56254\n"
                   "window = -960 960\ndx_env = 0.01\n\n[model]\nbeta = 1.0"
                   "\n\n[effective]\ntheta_grid = -2.5 -2 -1.5 -1 0 1 1.5 2 "
                   "2.5\nx = 600\ntol = 0.03\n")


def test_effective_benchmark_work_counters(tmp_path):
    # every estimate, the lam = beta endpoints included, settles at
    # 4 dx = 0.16 and every row at its first level: 57,869 RK4 steps,
    # against 93,646 with the endpoints at the command step 0.04
    cfg = _write(tmp_path, BENCH_EFFECTIVE)
    assert main(["effective", "--config", cfg, "--out", str(tmp_path)]) == 0
    meta = json.loads((tmp_path / "effective.meta.json").read_text())
    stats = meta["stats"]
    assert stats["dx"] == 0.04
    assert stats["theta1_dx"] == stats["theta2_dx"] == 0.16
    assert stats["n_evals"] == 8
    assert all(r["dx"] == 0.16 for r in meta["rows"])
    assert stats["rk4_steps"] <= 60000


def test_effective_iid_parallel_matches_sequential(tmp_path):
    # a random medium reaches each pool worker once, through the pool
    # initializer; the output does not depend on the worker count
    text = ("[env]\nkind = iid-interp\nseed = 3\nwindow = -300 300\n"
            "dx_env = 0.01\n\n[model]\nbeta = 1.0\n\n[effective]\n"
            "theta_grid = -1.8 -1.5 1.5 1.8\nx = 40\ntol = 0.05\n")
    cfg = _write(tmp_path, text)
    d1, d2 = tmp_path / "w1", tmp_path / "w2"
    assert main(["effective", "--config", cfg, "--out", str(d1)]) == 0
    assert main(["effective", "--config", cfg, "--out", str(d2),
                 "--workers", "2"]) == 0
    assert (d1 / "effective.csv").read_bytes() == \
        (d2 / "effective.csv").read_bytes()
    m1, m2 = (json.loads((d / "effective.meta.json").read_text())
              for d in (d1, d2))
    assert len(m1["rows"]) == 4
    assert json.dumps(m1["rows"]) == json.dumps(m2["rows"])


def test_homogenize_flat_reference_is_beta(tmp_path):
    cfg = _write(tmp_path, HOMOG_IID)
    assert main(["homogenize", "--config", cfg, "--out", str(tmp_path)]) == 0
    header, rows = _rows(tmp_path / "sweep.csv")
    assert header == ["theta", "epsilon", "value", "reference",
                      "domain_sensitivity"]
    eps = [float(r[1]) for r in rows]
    assert eps == [0.25, 0.125]
    for r in rows:
        assert float(r[3]) == 1.0  # theta = 0 sits in the flat piece
        assert 0.0 < float(r[2]) < 2.0


def test_homogenize_worker_merge_and_run_stats(tmp_path):
    cfg = _write(tmp_path, HOMOG_IID)
    d1, d2 = tmp_path / "w1", tmp_path / "w2"
    assert main(["homogenize", "--config", cfg, "--out", str(d1)]) == 0
    assert main(["homogenize", "--config", cfg, "--out", str(d2),
                 "--workers", "2"]) == 0
    assert (d1 / "sweep.csv").read_bytes() == (d2 / "sweep.csv").read_bytes()
    stats = json.loads((d1 / "sweep.meta.json").read_text())["stats"]
    assert stats == json.loads((d2 / "sweep.meta.json").read_text())["stats"]
    assert set(stats) == {"dt", "cfl", "cfl_seen", "evolve_steps",
                          "node_steps", "trim_bound", "trim_margins",
                          "trim_plan", "grad_excursion", "grad_range_seen",
                          "ref_half", "ref_disc_bound"}
    # a flat reference is exact
    assert stats["ref_half"] == stats["ref_disc_bound"] == 0.0
    assert 0.0 < stats["cfl"] <= 0.9 + 1e-12
    # every step the sweep took was monotone on the slopes it had
    assert 0.0 < stats["cfl_seen"] <= stats["cfl"]
    assert stats["dt"] > 0.0
    # one march per domain: half-widths 80 (T = 4), 160 (T = 4 and 8,
    # doubled at 0.25 and base at 0.125) and 320 (T = 8) nodes
    dt = stats["dt"]
    whole = {t: math.floor(t / dt + 1e-9) for t in (4.0, 8.0)}
    tail = {t: int(t - whole[t] * dt > 1e-12 * t) for t in (4.0, 8.0)}
    assert stats["evolve_steps"] == (whole[4.0] + tail[4.0]
                                     + whole[8.0] + tail[4.0] + tail[8.0]
                                     + whole[8.0] + tail[8.0])
    # no window shrinks: the margin at the CFL step exceeds 320 nodes
    assert stats["node_steps"] == (161 * (whole[4.0] + tail[4.0])
                                   + 321 * (whole[8.0] + tail[4.0]
                                            + tail[8.0])
                                   + 641 * (whole[8.0] + tail[8.0]))
    assert stats["trim_bound"] == 0.0
    # theta = 0 sits in the flat piece: slopes of both signs, so both
    # sides keep the upwind margin and the downwind one is null
    m_up, m_dn = stats["trim_margins"]
    assert m_up > 320 and m_dn is None
    # one [n, s, m_up, m_dn] a march, in the order of the ladder; no
    # faster closing rate gains anything on domains no margin trims
    plan = stats["trim_plan"]
    assert [(n, s, m) for n, s, _, m in plan] == [(80, 1.0, None),
                                                  (160, 1.0, None),
                                                  (320, 1.0, None)]
    assert max(m for _, _, m, _ in plan) == m_up
    assert stats["grad_excursion"] is False
    # no excursion: the slopes seen lie inside the CFL gradient range
    p_lo, p_hi = cfl_gradient_range(PowerG(2.0), 1.0, 0.0)
    lo, hi = stats["grad_range_seen"]
    assert p_lo <= lo <= hi <= p_hi


def test_homogenize_failing_growth_envelope_exits_1(tmp_path, capsys):
    # log(1 + p^2) stays below the power-2 lower envelope at |p| = 10
    cfg = _write(tmp_path, HOMOG_IID.replace(
        "family = power\ngamma = 2.0", "family = log-quasiconvex"))
    out = tmp_path / "out"
    assert main(["homogenize", "--config", cfg, "--out", str(out)]) == 1
    assert ("growth certificate failed: margins lower=-84.3, upper=1.1, "
            "lipschitz=") in capsys.readouterr().err
    assert not list(out.glob("*.csv"))


def test_homogenize_records_the_reference_half_width(tmp_path):
    # theta = 1.2 lies on branch 2, where the reference has a half-width
    text = HOMOG_IID.replace("window = -960 960", "window = -200 200") \
        .replace("theta = 0.0", "theta = 1.2") + "ref_x = 100\nref_tol = 0.05\n"
    cfg = _write(tmp_path, text)
    assert main(["homogenize", "--config", cfg, "--out", str(tmp_path)]) == 0
    stats = json.loads((tmp_path / "sweep.meta.json").read_text())["stats"]
    run = load_config(cfg, "homogenize", None, 1, None)
    value, half = hjlab.effective.effective_reference(
        run.make_env(), run.G, run.beta, 1.2, 0.05, X=100.0, dx=0.01)
    assert stats["ref_half"] == half > 0.0
    _, rows = _rows(tmp_path / "sweep.csv")
    assert {float(r[3]) for r in rows} == {value}


def test_non_monotone_step_exits_1(tmp_path, monkeypatch, capsys):
    # an a-priori range far narrower than the slopes the run reaches
    # gives a dt at which a step is not monotone: evolve raises
    # StabilityError, a scientific failure
    monkeypatch.setattr("hjlab.pde.cfl_gradient_range",
                        lambda G, beta, theta: (theta - 0.01, theta + 0.01))
    cfg = _write(tmp_path, HOMOG_IID)
    assert main(["homogenize", "--config", cfg, "--out", str(tmp_path)]) == 1
    assert "not monotone" in capsys.readouterr().err
    assert not (tmp_path / "sweep.csv").exists()


def test_homogenize_window_too_small_exits_before_the_reference(
        tmp_path, monkeypatch, capsys):
    # the doubled domain at eps = 1/8 is [-16, 16]: a window of +-10 cannot
    # hold it, and that is found before any corrector work
    def no_reference(*args, **kwargs):
        pytest.fail("the reference was computed for a sweep that cannot run")

    monkeypatch.setattr(hjlab.cli, "_reference", no_reference)
    cfg = _write(tmp_path, HOMOG_IID.replace("window = -960 960",
                                             "window = -10 10"))
    assert main(["homogenize", "--config", cfg, "--out", str(tmp_path)]) == 1
    assert "cannot cover the doubled domain" in capsys.readouterr().err
    assert not (tmp_path / "sweep.csv").exists()


# at theta = 1.7 the growth check passes and each sweep ran on with no
# output until killed.  gamma = 40 gives dt = 1.16e-12, 6.9e12 steps to
# T = 8; gamma = 12 on the benchmark ladder (eps 1/8-1/32, m = 4) gives
# dt = 1.09e-5, 2.9e6 steps to T = 32 on 10,241 nodes, 3.0e10 node steps
@pytest.mark.parametrize("gamma, epsilons, m, message", [
    (40, "0.25 0.125", 1, "steps of dt = 1.16e-12"),
    (12, "0.125 0.0625 0.03125", 4, "takes 3e+10 node steps")],
    ids=["gamma-40", "gamma-12"])
def test_homogenize_tiny_cfl_step_exits_2_at_once(tmp_path, gamma, epsilons,
                                                  m, message):
    # refused before the reference, in a fresh process given a few seconds
    cfg = _write(tmp_path, HOMOG_IID.replace(
        "gamma = 2.0\ngrowth_gamma = 2.0",
        f"gamma = {gamma}\ngrowth_gamma = {gamma}").replace(
        "theta = 0.0\nepsilons = 0.25 0.125\ndx = 0.05\nm = 1.0",
        f"theta = 1.7\nepsilons = {epsilons}\ndx = 0.05\nm = {m}"))
    out = tmp_path / "out"
    src = str(Path(hjlab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    run = subprocess.run([sys.executable, "-m", "hjlab.cli", "homogenize",
                          "--config", cfg, "--out", str(out)], env=env,
                         capture_output=True, text=True, timeout=20)
    assert run.returncode == 2
    assert message in run.stderr
    assert "Traceback" not in run.stderr
    assert not list(out.glob("*.csv"))


def test_homogenize_requires_growth_certificate(tmp_path):
    text = "\n".join(ln for ln in HOMOG_IID.splitlines()
                     if not ln.startswith("growth_"))
    cfg = _write(tmp_path, text)
    assert main(["homogenize", "--config", cfg, "--out", str(tmp_path)]) == 2


# a lattice past the window, or over the node cap, is refused before its
# coefficients are sampled (x = 1e20 and dx = 1e-300 crashed in np.arange,
# dx = 1e-320 in int(inf)); x = 200 sampled the whole lattice first
@pytest.mark.parametrize("line, code", [
    ("x = 1e20", 1), ("x = 200", 1), ("x = 40\ndx = 1e-300", 2),
    ("x = 40\ndx = 1e-320", 2), ("x = 40\nbranch = 1\ndx = 1e-300", 2)],
    ids=["x-1e20", "x-200", "dx-1e-300", "dx-1e-320", "branch-1-dx-1e-300"])
def test_lattice_is_checked_before_it_is_sampled(tmp_path, monkeypatch,
                                                 line, code):
    def no_sampling(*args):
        pytest.fail("the lattice was sampled")

    monkeypatch.setattr(hjlab.corrector, "_coefficients", no_sampling)
    cfg = _write(tmp_path, IID80.replace("x = 40", line))
    out = tmp_path / "out"
    assert main(["theta-curve", "--config", cfg, "--out", str(out)]) == code
    assert not list(out.glob("*.csv"))


def test_lipschitz_overflow_exits_1(tmp_path, capsys):
    # gamma2 = 1e5: the Lipschitz power on the padded bracket overflowed
    # in choose_dx; now it is inf, and the step is refused as not monotone
    cfg = _write(tmp_path, IID80.replace(
        "family = power\ngamma = 2.0",
        "family = asym-power\ngamma1 = 2.0\ngamma2 = 1e5"))
    out = tmp_path / "out"
    assert main(["theta-curve", "--config", cfg, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "not monotone" in err
    # no dx can mend an infinite Lipschitz constant, and the message
    # does not ask for one
    assert "no finite Lipschitz constant on the padded bracket" in err
    assert "reduce dx" not in err
    assert not list(out.glob("*.csv"))


def test_homogenize_bad_growth_certificate_fails_scientifically(tmp_path):
    # c2 = 0.05 cannot bound p^2 above on [-10, 10]
    cfg = _write(tmp_path, HOMOG_IID.replace("growth_c2 = 1.1",
                                             "growth_c2 = 0.05"))
    assert main(["homogenize", "--config", cfg, "--out", str(tmp_path)]) == 1


def test_corrector_window_error_is_scientific_failure(tmp_path):
    # burn-in ~6.5 pushes the start below the window floor at 0
    text = PROBE_GLUED + "\n[corrector]\nlam = 2.0\nbranch = 2\n" \
        "region = 5 10\ntol = 1e-6\ndx = 0.01\n"
    cfg = _write(tmp_path, text)
    assert main(["corrector", "--config", cfg, "--out", str(tmp_path)]) == 1


def test_hill_check_periodic_reports_none(tmp_path):
    text = PERIODIC + "\n[hill-check]\nh = 0.9\nc = 1.0\ndoublings = 2\n"
    cfg = _write(tmp_path, text)
    assert main(["hill-check", "--config", cfg, "--out", str(tmp_path)]) == 0
    header, rows = _rows(tmp_path / "hill_report.csv")
    assert header == ["h", "C", "window_half", "found", "L1", "L2",
                      "scaled_length", "v_min"]
    assert rows[0][3] == "False"
    assert float(rows[0][2]) == 580.0  # doubled twice from 145


# a list key beside its one-value spelling would silently drop the latter
@pytest.mark.parametrize("line", ["doublings = -1", "doublings = 1.5",
                                  "hs = 0.5", "cs = 2.0"])
def test_bad_doublings_is_config_error(tmp_path, line):
    # rejected before any medium is generated or any report written
    text = PERIODIC + f"\n[hill-check]\nh = 0.9\nc = 1.0\n{line}\n"
    cfg = _write(tmp_path, text)
    assert main(["hill-check", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert not (tmp_path / "hill_report.csv").exists()


def test_hill_check_iid_finds_witness(tmp_path):
    text = """
[env]
kind = iid-interp
seed = 1
window = -30 30
dx_env = 0.01

[model]
beta = 1.0

[hill-check]
h = 0.5
c = 2.0
"""
    cfg = _write(tmp_path, text)
    assert main(["hill-check", "--config", cfg, "--out", str(tmp_path)]) == 0
    _, rows = _rows(tmp_path / "hill_report.csv")
    h, C, half, found, L1, L2, slen, vmin = rows[0]
    assert found == "True"
    assert float(slen) >= 2.0
    assert float(vmin) >= 0.5
    assert -30.0 <= float(L1) <= float(L2) <= 30.0


def test_hill_check_singular_mode(tmp_path):
    text = """
[env]
kind = coupled-singular
seed = 1
window = -60 60
dx_env = 0.01

[model]
beta = 1.0

[hill-check]
mode = singular
cs = 0.2 0.1 0.05
"""
    cfg = _write(tmp_path, text)
    assert main(["hill-check", "--config", cfg, "--out", str(tmp_path)]) == 0
    _, rows = _rows(tmp_path / "hill_report.csv")
    assert [r[0] for r in rows] == ["0.2", "0.1", "0.05"]
    for r in rows:
        assert r[1] == "True" and -60.0 <= float(r[2]) <= 60.0


def test_probe_glued_both_kinds(tmp_path):
    cfg = _write(tmp_path, PROBE_GLUED)
    assert main(["probe", "--config", cfg, "--out", str(tmp_path)]) == 0
    header, rows = _rows(tmp_path / "probe.csv")
    assert header == ["kind", "min_residual", "max_residual", "pass"]
    assert [r[0] for r in rows] == ["sub", "super"]
    assert all(r[3] == "True" for r in rows)
    assert float(rows[0][1]) > 0.0     # sub margin strictly positive
    assert float(rows[1][2]) < 0.0     # super margin strictly negative


def test_probe_corrector_single_kind(tmp_path):
    text = """
[env]
kind = constant
seed = 0
window = -30 30
dx_env = 0.1
a0 = 1.0
v0 = 0.5

[model]
beta = 1.0

[probe]
profile = corrector
lam = 2.0
branch = 2
region = -15 15
delta = 0.1
kind = sub
"""
    cfg = _write(tmp_path, text)
    assert main(["probe", "--config", cfg, "--out", str(tmp_path)]) == 0
    _, rows = _rows(tmp_path / "probe.csv")
    assert len(rows) == 1 and rows[0][0] == "sub" and rows[0][3] == "True"


PROBE_CORRECTOR = """
[env]
kind = periodic
seed = 5
window = -30 30
dx_env = 0.01

[model]
beta = 1.0

[probe]
profile = corrector
lam = 2.0
branch = 2
region = -10 10
delta = 0.1
kind = both
"""


@pytest.mark.parametrize("source", ["glued", "corrector"])
def test_probe_sidecar_records_each_report(tmp_path, source):
    glued = source == "glued"
    cfg = _write(tmp_path, PROBE_GLUED if glued else PROBE_CORRECTOR)
    assert main(["probe", "--config", cfg, "--out", str(tmp_path)]) == 0
    stats = json.loads((tmp_path / "probe.meta.json").read_text())["stats"]
    run = load_config(cfg, "probe", None, 1, None)
    env = run.make_env()
    if glued:
        delta = 0.25
        prof = build_glued_profile(env, run.G, run.beta, delta,
                                   find_hill(env, 0.9, 5.0), order="21",
                                   region=(0.0, 30.0), dx=0.01)
        assert (stats["z1"], stats["z2"]) == (prof.z1, prof.z2)
        assert stats["residual_band"] == list(prof.residual_band)
    else:
        delta = 0.1
        prof = corrector_profile(env, run.G, run.beta, 2.0, 2, (-10.0, 10.0),
                                 1e-6, 0.01)
        assert not {"z1", "z2", "residual_band"} & set(stats)
    for kind in ("sub", "super"):
        rep = residual_probe(env, run.G, run.beta, prof, delta, kind)
        assert stats[f"{kind}_drift"] == rep.drift
        assert stats[f"{kind}_tol"] == rep.tol
        assert stats[f"{kind}_kappa"] == rep.kappa
    # a glued candidate is undecorated, so it has no kappa
    assert (stats["sub_kappa"] is None) == glued


def test_failed_probe_exits_1_and_writes_its_table(tmp_path, capsys):
    # a drift of 1e-9 leaves the RK4 profile's own residual uncovered
    cfg = _write(tmp_path, PROBE_CORRECTOR.replace("delta = 0.1",
                                                   "delta = 1e-9")
                 + "tol_probe = 1e-12\n")
    out = tmp_path / "out"
    assert main(["probe", "--config", cfg, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    _, rows = _rows(out / "probe.csv")
    assert [r[0] for r in rows] == ["sub", "super"]
    assert not (out / "probe.meta.json").exists()
    run = load_config(cfg, "probe", str(tmp_path), 1, None)
    env = run.make_env()
    prof = corrector_profile(env, run.G, run.beta, 2.0, 2, (-10.0, 10.0),
                             1e-6, 0.01)
    for kind, lo, hi, passed in rows:
        rep = residual_probe(env, run.G, run.beta, prof, 1e-9, kind,
                             tol=1e-12)
        assert not rep.passed and passed == "False"
        assert f"{kind} check failed" in err
        assert (float(lo), float(hi)) == (rep.min_residual, rep.max_residual)
    # the command, not the probe, turns the verdict into the error
    with pytest.raises(SignError, match="sub check failed.*; super check"):
        cmd_probe(run)


def test_usage_error_exit_code():
    assert main(["no-such-command"]) == 2
    assert main(["theta-curve"]) == 2  # --config is required
