"""Command-line driver: config files in, CSV tables + JSON sidecars out.

Configs are INI files with one section per concern ([env], [hamiltonian],
[model], [output], one per subcommand) and no other.  Every command is a
pure function of its config: rerunning writes byte-identical data files.
Exit codes: 0 success, 1 scientific failure (a certified invariant did
not hold), 2 configuration/usage error.  Parameters are checked before
any computation; any other exception raised by a command is a bug and
propagates.
"""

import argparse
import configparser
import json
import math
import platform
import sys
import time
from dataclasses import asdict, astuple, dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .corrector import (choose_dx, corrector_profile, estimate_theta,
                        save_profile)
from .effective import (_reference, build_effective_H, save_effective,
                        save_theta_curve)
from .environment import (
    KINDS,
    _pmap,
    check_singular_hill,
    find_hill,
    generate_env,
    save_env,
    write_csv,
)
from .errors import (CertificateError, ConfigError, HillError,
                     ScientificError, SignError)
from .hamiltonian import GrowthCertificate, make_G, validate_growth
from .pde import (SchemeConfig, homogenize_sweep, save_sweep, stable_dt,
                  sweep_ladder)
from .probe import build_glued_profile, residual_probe, save_probe

COMMANDS = ("gen-env", "corrector", "theta-curve", "effective", "homogenize",
            "hill-check", "probe")

# the sections a config may hold
_SECTIONS = ("env", "hamiltonian", "model", "output") + COMMANDS

# the keys a command reads from its own section; any other key there is
# a typo that would silently run at a default
_KEYS = {
    "gen-env": (),
    "corrector": ("lam", "branch", "region", "tol", "dx"),
    "theta-curve": ("lams", "branch", "x", "tol", "dx"),
    "effective": ("theta_grid", "tol", "x", "dx"),
    "homogenize": ("theta", "dx", "m", "epsilons", "reference", "ref_tol",
                   "ref_x", "ref_dx"),
    "hill-check": ("mode", "hs", "h", "cs", "c", "doublings"),
    "probe": ("profile", "delta", "region", "dx", "kind", "lam", "branch",
              "tol", "hill_h", "hill_c", "order", "tol_probe"),
}


# ------------------------------------------------------------
# config ingestion
# ------------------------------------------------------------

def _floats(text: str) -> list[float]:
    try:
        vals = [float(t) for t in text.replace(",", " ").split()]
    except ValueError:
        raise ConfigError(f"expected numbers, got {text!r}") from None
    if not vals:
        raise ConfigError(f"expected at least one number, got {text!r}")
    return vals


@dataclass
class RunConfig:
    """Validated run description; commands read only from here.

    ``stats`` collects the run counters a command reports and ``rows``
    any per-row diagnostics of its table; the sidecar writes both out.
    """

    command: str
    env_kind: str
    env_seed: int
    window: tuple[float, float]
    dx_env: float
    env_params: dict
    G: object
    growth: GrowthCertificate | None
    beta: float
    params: configparser.SectionProxy
    out_dir: Path
    workers: int
    echo: dict
    stats: dict = field(default_factory=dict)
    rows: list = field(default_factory=list)

    def make_env(self, window=None):
        # a pure function of the [env] section: what it rejects is config
        try:
            return generate_env(self.env_kind, self.env_seed,
                                self.window if window is None else window,
                                self.dx_env, params=self.env_params or None)
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"cannot build the medium: {exc}") from exc


def _as_int(raw: str) -> int:
    """An integer written as an integer or an integral float, else ValueError."""
    f = float(raw)
    if not f.is_integer():
        raise ValueError(raw)
    return int(f)


def _get(section: configparser.SectionProxy, key: str, default=None,
         kind=float, positive: bool = False):
    """Typed config value; every number finite, and > 0 with ``positive``."""
    if key not in section:
        if default is None:
            raise ConfigError(
                f"missing required key {key!r} in [{section.name}]")
        return default
    raw = section[key]
    try:
        if kind is float:
            val = float(raw)
        elif kind is int:
            val = _as_int(raw)
        elif kind is list:
            val = _floats(raw)
        else:
            return raw
    except ValueError:
        raise ConfigError(
            f"bad value for {key!r} in [{section.name}]: {raw!r}") from None
    vals = val if kind is list else [val]
    if not all(math.isfinite(v) for v in vals):
        raise ConfigError(
            f"{key!r} in [{section.name}] must be finite, got {raw!r}")
    if positive and not all(v > 0 for v in vals):
        raise ConfigError(
            f"{key!r} in [{section.name}] must be positive, got {raw!r}")
    return val


def load_config(path: str, command: str, out_flag: str | None,
                workers: int, seed_override: int | None) -> RunConfig:
    cp = configparser.ConfigParser(interpolation=None)
    try:  # a repeated key or section, say, or bytes that are not UTF-8
        read = cp.read(path, encoding="utf-8")
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"malformed config {path}: {exc}") from None
    if not read:
        raise ConfigError(f"config file not found: {path}")
    # a misspelled header would leave its keys unread and run at defaults
    unknown = sorted(set(cp.sections()) - set(_SECTIONS))
    if unknown:
        raise ConfigError(f"unknown section(s) {', '.join(unknown)}; a "
                          f"config takes {', '.join(_SECTIONS)}")

    if "env" not in cp:
        raise ConfigError("config needs an [env] section")
    env_sec = cp["env"]
    kind = _get(env_sec, "kind", kind=str)
    if kind not in KINDS:
        raise ConfigError(f"unknown env kind {kind!r}; choose from {KINDS}")
    seed = _get(env_sec, "seed", kind=int)
    if seed_override is not None:
        seed = seed_override
    window = _get(env_sec, "window", kind=list)
    if len(window) != 2 or window[0] >= window[1]:
        raise ConfigError(f"window must be two increasing numbers, got {window}")
    dx_env = _get(env_sec, "dx_env", positive=True)
    # every generator and G parameter is a float, so `1` and `1.0` agree
    env_params = {k: _get(env_sec, k) for k in env_sec
                  if k not in ("kind", "seed", "window", "dx_env")}

    g_params: dict = {}
    growth_kw: dict = {}
    family = "power"
    if "hamiltonian" in cp:
        h = cp["hamiltonian"]
        family = _get(h, "family", "power", str)
        growth_kw = {k.removeprefix("growth_"): _get(h, k)
                     for k in h if k.startswith("growth_")}
        g_params = {k: h[k] if k == "path" else _get(h, k) for k in h
                    if k != "family" and not k.startswith("growth_")}
    # both are built from their constructors' keyword arguments, so a
    # misspelled or missing key is a TypeError
    try:
        G = make_G(family, **g_params)
        growth = GrowthCertificate(**growth_kw) if growth_kw else None
    except (ValueError, KeyError, OSError, TypeError) as exc:
        raise ConfigError(f"cannot build Hamiltonian: {exc}") from exc

    if "model" not in cp:
        raise ConfigError("config needs a [model] section with beta")
    beta = _get(cp["model"], "beta", positive=True)

    echo = {name: dict(cp[name]) for name in cp.sections()}
    if command not in cp:
        cp.add_section(command)
    params = cp[command]
    for name, known in (("model", ("beta",)), ("output", ("dir",)),
                        (command, _KEYS[command])):
        unknown = sorted(set(cp[name]) - set(known)) if name in cp else ()
        if unknown:
            raise ConfigError(
                f"unknown key(s) {', '.join(unknown)} in [{name}], which "
                f"takes {', '.join(known) or 'no keys'} for {command}")

    # lambda levels below beta are outside every contract; fail before compute
    for key in ("lam", "lams"):
        if key in params:
            for lam in _floats(params[key]):
                if lam < beta - 1e-12:
                    raise ConfigError(
                        f"{key} contains {lam} below beta = {beta}")

    out_dir = Path(out_flag or cp.get("output", "dir", fallback="."))
    if workers < 1:
        raise ConfigError(f"--workers must be >= 1, got {workers}")

    return RunConfig(command=command, env_kind=kind, env_seed=seed,
                     window=(window[0], window[1]), dx_env=dx_env,
                     env_params=env_params, G=G, growth=growth, beta=beta,
                     params=params, out_dir=out_dir, workers=workers,
                     echo=echo)


def _branch(params) -> int:
    branch = _get(params, "branch", 2, int)
    if branch not in (1, 2):
        raise ConfigError(f"branch must be 1 or 2, got {branch}")
    return branch


def _region(params) -> tuple[float, float]:
    region = _get(params, "region", kind=list)
    if len(region) != 2 or not region[0] < region[1]:
        raise ConfigError(f"region must be two increasing numbers, got {region}")
    return region[0], region[1]


def _one_or_many(params, key: str, many: str, **kw) -> list[float]:
    """The list under ``many``, or the one value under ``key``; not both."""
    if many not in params:
        return [_get(params, key, **kw)]
    if key in params:
        raise ConfigError(
            f"[{params.name}] sets both {key!r} and {many!r}; set one")
    return _get(params, many, kind=list, **kw)


def _in_unit(vals: list[float], key: str) -> list[float]:
    if not all(0.0 < v < 1.0 for v in vals):
        raise ConfigError(f"{key!r} values must lie in (0, 1), got {vals}")
    return vals


# ------------------------------------------------------------
# commands (each returns the list of files written)
# ------------------------------------------------------------

def cmd_gen_env(cfg: RunConfig) -> list[Path]:
    env = cfg.make_env()
    out = cfg.out_dir / "env.csv"
    save_env(env, str(out))
    return [out]


def cmd_corrector(cfg: RunConfig) -> list[Path]:
    p = cfg.params
    lam = _get(p, "lam")
    branch = _branch(p)
    region = _region(p)
    tol = _get(p, "tol", 1e-6, positive=True)
    dx = _get(p, "dx", 0.01, positive=True)
    env = cfg.make_env()
    prof = corrector_profile(env, cfg.G, cfg.beta, lam, branch, region,
                             tol, dx)
    out = cfg.out_dir / "corrector.csv"
    save_profile(prof, str(out))
    cfg.stats.update(rk4_steps=prof.rk4_steps, cert_bound=prof.cert_bound)
    return [out]


def _theta_task(env, args):
    (G, beta, lam, branch, X, tol, dx) = args
    if env.kind == "constant":
        # disorder-free corrector slopes are exactly constant
        v0 = float(env.v_vals[0])
        theta = G.branch_inverse(branch, max(lam - beta * v0, 0.0))
        return (lam, theta, 0.0, 0.0, 0.0, 0)
    est = estimate_theta(env, G, beta, lam, branch, X, tol=tol, dx=dx)
    return (lam, est.mean, est.ci_halfwidth, est.cert_bound, est.disc_bound,
            est.rk4_steps)


def cmd_theta_curve(cfg: RunConfig) -> list[Path]:
    p = cfg.params
    lams = sorted(set(_get(p, "lams", kind=list)))
    branch = _branch(p)
    X = _get(p, "x", 300.0, positive=True)
    tol = _get(p, "tol", 1e-6, positive=True)
    dx = _get(p, "dx", 0.0, positive=True)
    env = cfg.make_env()
    # without a configured step, the largest monotone one at every level
    dx = dx or choose_dx(env, cfg.G, cfg.beta,
                         [(branch, lam) for lam in lams])
    tasks = [(cfg.G, cfg.beta, lam, branch, X, tol, dx) for lam in lams]
    rows = _pmap(_theta_task, env, tasks, cfg.workers)
    out = cfg.out_dir / "theta_curve.csv"
    save_theta_curve([r[:5] for r in rows], str(out))
    cfg.stats.update(dx=dx, rk4_steps=sum(r[5] for r in rows))
    return [out]


def cmd_effective(cfg: RunConfig) -> list[Path]:
    p = cfg.params
    grid = _get(p, "theta_grid", kind=list)
    tol = _get(p, "tol", 2e-2, positive=True)
    X = _get(p, "x", 300.0, positive=True)
    dx = _get(p, "dx", 0.0, positive=True)
    env = cfg.make_env()
    # without a configured step, the largest monotone one at the levels
    # shot: beta for the endpoints and, as the highest, the a-priori top
    # G(theta) + beta at each branch's extreme slope
    dx = dx or choose_dx(env, cfg.G, cfg.beta, [
        (1, cfg.beta), (2, cfg.beta),
        (1, float(cfg.G(min(grid))) + cfg.beta),
        (2, float(cfg.G(max(grid))) + cfg.beta)])
    eff = build_effective_H(env, cfg.G, cfg.beta, grid, tol, X=X, dx=dx,
                            workers=cfg.workers)
    out = cfg.out_dir / "effective.csv"
    save_effective(eff, str(out))
    cfg.stats.update(dx=dx, n_evals=eff.n_evals, rk4_steps=eff.rk4_steps)
    for i, ep in enumerate(eff.endpoints, 1):
        cfg.stats.update({f"theta{i}_beta": ep.mean,
                          f"theta{i}_ci": ep.ci_halfwidth,
                          f"theta{i}_disc_bound": ep.disc_bound,
                          f"theta{i}_dx": ep.dx})
    # one record per branch row, with Hbar' = 1 / theta'(lam)
    cfg.rows = [dict(asdict(inv), dH_dtheta=1.0 / inv.dtheta_dlam
                     if inv.dtheta_dlam else None) for inv in eff.inversions]
    return [out]


def cmd_homogenize(cfg: RunConfig) -> list[Path]:
    if cfg.growth is None:
        raise ConfigError(
            "homogenize requires a growth certificate: set growth_gamma, "
            "growth_c1, growth_c2 in [hamiltonian]")
    p = cfg.params
    theta = _get(p, "theta")
    dx = _get(p, "dx", 0.05, positive=True)
    M = _get(p, "m", 1.0, positive=True)
    epsilons = _in_unit(_get(p, "epsilons", kind=list), "epsilons")
    reference = _get(p, "reference") if "reference" in p else None
    ref_tol = _get(p, "ref_tol", 2e-2, positive=True)
    ref_X = _get(p, "ref_x", 300.0, positive=True)
    ref_dx = _get(p, "ref_dx", 0.01, positive=True)
    lower, upper, lipschitz = validate_growth(cfg.G, cfg.growth)
    # written so that a NaN margin (an overflowing envelope) fails too
    if not (lower >= -1e-12 and upper >= -1e-12 and lipschitz >= -1e-12):
        raise CertificateError(
            f"growth certificate failed: margins lower={lower:.3g}, "
            f"upper={upper:.3g}, lipschitz={lipschitz:.3g}")

    env = cfg.make_env()
    dt = stable_dt(cfg.G, cfg.beta, theta, dx)
    scheme = SchemeConfig(dx=dx, dt=dt, M=M, T=1.0, theta=theta)
    # a sweep the window cannot hold fails before the reference is computed
    sweep_ladder(env.window, epsilons, scheme)
    if reference is None:
        # Hbar(theta) from correctors on the same medium, and the
        # step-doubling bar of that level
        reference, cfg.stats["ref_half"], cfg.stats["ref_disc_bound"] = \
            _reference(env, cfg.G, cfg.beta, theta, ref_tol, X=ref_X,
                       dx=ref_dx)
    result = homogenize_sweep(env, cfg.G, cfg.beta, epsilons, scheme,
                              reference, workers=cfg.workers)
    out = cfg.out_dir / "sweep.csv"
    save_sweep(result, str(out))
    cfg.stats.update(dt=dt, cfl=result.cfl, cfl_seen=result.cfl_seen,
                     evolve_steps=result.steps,
                     node_steps=result.node_steps,
                     trim_bound=result.trim_bound,
                     trim_margins=list(result.trim_margins),
                     trim_plan=[list(row) for row in result.trim_plan],
                     grad_excursion=result.grad_excursion,
                     grad_range_seen=list(result.grad_range_seen))
    return [out]


def cmd_hill_check(cfg: RunConfig) -> list[Path]:
    p = cfg.params
    mode = _get(p, "mode", "hill", str)
    out = cfg.out_dir / "hill_report.csv"
    if mode == "singular":
        cs = _in_unit(_one_or_many(p, "c", "cs"), "cs")
        env = cfg.make_env()
        rows = []
        for c in cs:
            x0 = check_singular_hill(env, c)
            rows.append((c, x0 is not None, x0))
        write_csv(out, ("c", "found", "x0"), rows)
        return [out]
    if mode != "hill":
        raise ConfigError(f"mode must be 'hill' or 'singular', got {mode!r}")

    hs = _in_unit(_one_or_many(p, "h", "hs"), "hs")
    Cs = _one_or_many(p, "c", "cs", positive=True)
    doublings = _get(p, "doublings", 0, int)
    if doublings < 0:
        raise ConfigError(f"doublings must be >= 0, got {doublings}")
    rows, envs = [], {}  # each window's medium is built once
    for h in hs:
        for C in Cs:
            used = cfg.window
            for attempt in range(doublings + 1):
                if used not in envs:
                    envs[used] = cfg.make_env(window=used)
                witness = find_hill(envs[used], h, C)
                if witness is not None or attempt == doublings:
                    break
                used = (2.0 * used[0], 2.0 * used[1])
            half = max(abs(used[0]), abs(used[1]))
            rows.append((h, C, half, witness is not None)
                        + (astuple(witness) if witness else (None,) * 4))
    write_csv(out, ("h", "C", "window_half", "found", "L1", "L2",
                    "scaled_length", "v_min"), rows)
    return [out]


def cmd_probe(cfg: RunConfig) -> list[Path]:
    p = cfg.params
    source = _get(p, "profile", "corrector", str)
    delta = _get(p, "delta", positive=True)
    region = _region(p)
    dx = _get(p, "dx", 0.01, positive=True)
    kind = _get(p, "kind", "both", str)
    kinds = ("sub", "super") if kind == "both" else (kind,)
    if any(k not in ("sub", "super") for k in kinds):
        raise ConfigError(f"kind must be sub, super or both, got {kind!r}")
    if source == "corrector":
        lam, branch = _get(p, "lam"), _branch(p)
        tol = _get(p, "tol", 1e-6, positive=True)
    elif source == "glued":
        h = _in_unit([_get(p, "hill_h")], "hill_h")[0]
        C = _get(p, "hill_c", positive=True)
        order = _get(p, "order", "21", str)
        if order not in ("21", "12"):
            raise ConfigError(f"order must be '21' or '12', got {order!r}")
    else:
        raise ConfigError(
            f"profile must be 'corrector' or 'glued', got {source!r}")
    # absent, the probe takes its own default tolerance
    tol_probe = _get(p, "tol_probe", 0.0, positive=True) or None
    env = cfg.make_env()
    if source == "corrector":
        prof = corrector_profile(env, cfg.G, cfg.beta, lam, branch, region,
                                 tol, dx)
    else:
        hill = find_hill(env, h, C)
        if hill is None:
            raise HillError(f"no hill witness at (h={h}, C={C}) in the window")
        prof = build_glued_profile(env, cfg.G, cfg.beta, delta, hill,
                                   order=order, region=region, dx=dx)
    reports = [residual_probe(env, cfg.G, cfg.beta, prof, delta, k,
                              tol=tol_probe) for k in kinds]
    out = cfg.out_dir / "probe.csv"
    save_probe(reports, str(out))
    for rep in reports:
        cfg.stats.update({f"{rep.kind}_drift": rep.drift,
                          f"{rep.kind}_tol": rep.tol,
                          f"{rep.kind}_kappa": rep.kappa})
    if source == "glued":
        cfg.stats.update(z1=prof.z1, z2=prof.z2,
                         residual_band=list(prof.residual_band))
    failed = "; ".join(
        f"{r.kind} check failed: residual range [{r.min_residual:.4g}, "
        f"{r.max_residual:.4g}] vs tolerance {r.tol:.3g} at drift {r.drift:.6g}"
        for r in reports if not r.passed)
    if failed:  # probe.csv keeps every check; a failed one exits 1
        raise SignError(failed)
    return [out]


_DISPATCH = {
    "gen-env": cmd_gen_env,
    "corrector": cmd_corrector,
    "theta-curve": cmd_theta_curve,
    "effective": cmd_effective,
    "homogenize": cmd_homogenize,
    "hill-check": cmd_hill_check,
    "probe": cmd_probe,
}


# ------------------------------------------------------------
# entry point
# ------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hjlab",
        description="effective Hamiltonians of 1D viscous HJ equations "
                    "in random media")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        q = sub.add_parser(name)
        q.add_argument("--config", required=True, help="INI run config")
        q.add_argument("--out", default=None, help="output directory")
        q.add_argument("--workers", type=int, default=1)
        q.add_argument("--seed-override", type=int, default=None)
    return parser


def _sidecar(cfg: RunConfig, args, outputs: list[Path], wall: float) -> Path:
    meta = {
        "command": cfg.command,
        "config_path": str(Path(args.config).resolve()),
        "config": cfg.echo,
        "flags": {
            "out": str(cfg.out_dir),
            "workers": cfg.workers,
            "seed_override": args.seed_override,
        },
        "versions": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            # None when the run never loaded scipy; the diffusion solve
            # and the gauss-squash medium load it
            "scipy": getattr(sys.modules.get("scipy"), "__version__", None),
            "hjlab": __version__,
        },
        "wall_time_s": wall,
        "stats": cfg.stats,
        "outputs": [o.name for o in outputs],
    }
    if cfg.rows:
        meta["rows"] = cfg.rows
    path = outputs[0].parent / (outputs[0].stem + ".meta.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse uses 2 for usage errors
        return int(exc.code) if exc.code is not None else 0

    t0 = time.perf_counter()
    try:
        cfg = load_config(args.config, args.command, args.out, args.workers,
                          args.seed_override)
        cfg.out_dir.mkdir(parents=True, exist_ok=True)
        outputs = _DISPATCH[args.command](cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ScientificError as exc:
        print(f"scientific failure: {exc}", file=sys.stderr)
        return 1
    wall = time.perf_counter() - t0
    sidecar = _sidecar(cfg, args, outputs, wall)
    for path in outputs + [sidecar]:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
