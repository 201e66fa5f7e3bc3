"""Stationary random media on finite windows.

A medium is a pair (a, V): a diffusion coefficient a with values in
(0, 1] and a potential V with values in [0, 1], sampled on a regular
grid over a window [x_min, x_max] and interpolated linearly in between.
Each realization derives from a, on first read, the scaled coordinate

    s(x) = integral from x_min to x of dy / a(y)

computed with the trapezoid rule on the same grid.  Because a <= 1,
s-increments dominate x-increments.  Hills, whose condition involves
the diffusion coefficient, are measured by their length in s.

Every generator is a deterministic function of (seed, absolute
coordinate): regenerating the same seed on a translated window
reproduces the same underlying realization.  That makes lattice shifts
exact and realizations bit-identical across runs, which the rest of the
laboratory relies on for reproducibility.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Callable

import numpy as np

from .errors import ConfigError, WindowError

__all__ = [
    "EnvRealization",
    "HillWitness",
    "generate_env",
    "sample_many",
    "s_at",
    "find_hill",
    "check_singular_hill",
    "reflect",
    "save_env",
    "write_csv",
    "KINDS",
]

# ============================================================
# Deterministic lattice randomness
# ============================================================
# A counter-based 64-bit mixer (splitmix64 constants).  uniform(seed, k)
# depends only on (seed, stream, k), so any window sees the same knot
# values at the same absolute lattice sites.

_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)

# stream tags keep the independent fields of one seed decorrelated
_STREAM_V = 0
_STREAM_PHASE = 1
_STREAM_GS_V = 2
_STREAM_GS_A = 3
_STREAM_GS_PHASE_V = 4
_STREAM_GS_PHASE_A = 5
_STREAM_DEPTH = 6
_STREAM_CS_PHASE = 7


def _mix64(z: np.ndarray) -> np.ndarray:
    z = (z ^ (z >> np.uint64(30))) * _MIX1
    z = (z ^ (z >> np.uint64(27))) * _MIX2
    return z ^ (z >> np.uint64(31))


def _lattice_uniform(seed: int, idx, stream: int) -> np.ndarray:
    """iid Uniform(0,1) marks on the integer lattice, vectorized over idx."""
    k = np.asarray(idx, dtype=np.int64)
    # zig-zag so negative sites get distinct counters
    z = np.where(k >= 0, 2 * k, -2 * k - 1).astype(np.uint64)
    with np.errstate(over="ignore"):  # modular 64-bit arithmetic by design
        key = _mix64(np.uint64(seed & 0xFFFFFFFFFFFFFFFF) + _GAMMA * np.uint64(stream + 1))
        bits = _mix64(_mix64(z * _GAMMA + key) + _GAMMA)
    return (bits >> np.uint64(11)).astype(np.float64) * (2.0 ** -53)


def _lattice_normal(seed: int, idx, stream: int) -> np.ndarray:
    # only the gauss-squash medium draws normals: load scipy.special here
    from scipy.special import ndtri

    u = _lattice_uniform(seed, idx, stream)
    tiny = 2.0 ** -53
    return ndtri(np.clip(u, tiny, 1.0 - tiny))


def _phase(seed: int, stream: int) -> float:
    return float(_lattice_uniform(seed, np.array([0]), stream)[0])


def _bump(u: np.ndarray) -> np.ndarray:
    """Smooth compactly supported kernel, equal to 1 at 0, 0 for |u| >= 1."""
    out = np.zeros_like(u, dtype=np.float64)
    inside = np.abs(u) < 1.0
    ui = u[inside]
    out[inside] = np.exp(1.0 - 1.0 / (1.0 - ui * ui))
    return out


# ============================================================
# Generators
# ============================================================
# A generator checks its parameters, and any rule about the whole
# (snapped) window, once; it returns the sampler of one block of nodes,
# ``sample(xs) -> (a, v)`` on ascending node coordinates.  A sampler is a
# function of (seed, absolute coordinate) alone, so the medium has the
# same bits however the window is cut into blocks.

def _check_unit_marks(kind: str, window) -> None:
    """Media with marks on the unit lattice need whole units to resolve:
    past 2^53 from 0 adjacent doubles are more than a unit apart."""
    if max(abs(window[0]), abs(window[1])) > 2.0 ** 53:
        raise ConfigError(
            f"{kind} window {window} lies over 2^53 units from 0, where "
            f"its unit lattice marks are no longer resolved")


def _marks_read(seed: int, m: np.ndarray, reach: int,
                stream: int) -> tuple[np.ndarray, np.ndarray]:
    """``(marks, i)``, the mark at lattice site ``m + k`` being
    ``marks[i + k]`` for k = 0 .. reach, on ascending sites ``m``.  Each
    site of the block's span is hashed once, or, where the span holds
    more sites than the block has nodes, only the sites the nodes read.
    """
    if m[-1] - m[0] < m.size:
        marks = _lattice_uniform(seed, np.arange(m[0], m[-1] + reach + 1),
                                 stream)
        return marks, m - m[0]
    sites = m[:, None] + np.arange(reach + 1)
    return (_lattice_uniform(seed, sites, stream).ravel(),
            (reach + 1) * np.arange(m.size))


def _gen_iid_interp(seed: int, window, dx: float, a0=1.0, phase=None):
    a0 = float(a0)
    if not (0.0 < a0 <= 1.0):
        raise ConfigError(f"iid-interp a0 must lie in (0, 1], got {a0}")
    _check_unit_marks("iid-interp", window)
    ph = _phase(seed, _STREAM_PHASE) if phase is None else float(phase)

    def sample(xs):
        t = xs - ph
        m = np.floor(t).astype(np.int64)
        w = t - m
        marks, i = _marks_read(seed, m, 1, _STREAM_V)
        v = (1.0 - w) * marks[i] + w * marks[i + 1]
        return np.full_like(xs, a0), v
    return sample


def _gen_periodic(seed: int, window, dx: float, period=1.0, phase=None):
    ph = _phase(seed, _STREAM_PHASE) if phase is None else float(phase)
    period = float(period)
    m = int(round(period / dx))
    # reduce on the lattice so translation by a whole period is the
    # identity bit-for-bit, not merely up to sin() roundoff
    on_lattice = m >= 1 and m * dx == period

    def sample(xs):
        if on_lattice:
            xs = (np.rint(xs / dx).astype(np.int64) % m) * dx
        v = np.sin(np.pi / period * (xs + ph)) ** 2
        return np.ones_like(v, dtype=np.float64), v
    return sample


def _gauss_field(seed: int, stream: int, phase_stream: int, ell: float,
                 phase, xs: np.ndarray) -> np.ndarray:
    """Moving average of lattice Gaussians with a compact smooth kernel."""
    h0 = ell / 4.0
    ph = (_phase(seed, phase_stream) if phase is None else float(phase)) * h0
    m_lo = int(math.floor((xs[0] - ph - ell) / h0))
    m_hi = int(math.ceil((xs[-1] - ph + ell) / h0))
    z = np.zeros_like(xs)
    x0, dx = xs[0], xs[1] - xs[0] if xs.size > 1 else 1.0
    # every lattice normal in one draw
    normals = _lattice_normal(seed, np.arange(m_lo, m_hi + 1), stream)
    for m in range(m_lo, m_hi + 1):
        center = m * h0 + ph
        i0 = max(0, int(math.ceil((center - ell - x0) / dx)))
        i1 = min(xs.size, int(math.floor((center + ell - x0) / dx)) + 1)
        if i0 >= i1:
            continue
        z[i0:i1] += normals[m - m_lo] * _bump((xs[i0:i1] - center) / ell)
    return z


# l2 mass of the kernel on its h0 = ell/4 lattice; normalizes the field variance
_SIGMA0 = math.sqrt(sum(
    float(_bump(np.array([j / 4.0]))[0]) ** 2 for j in range(-4, 5)))


def _gen_gauss_squash(seed: int, window, dx: float, corr_len=2.0,
                      kappa=0.2, gain=2.5, phase=None):
    ell, kappa, gain = float(corr_len), float(kappa), float(gain)
    if ell <= 0:
        raise ConfigError(f"gauss-squash corr_len must be positive, got {ell}")
    if not (0.0 < kappa < 1.0):
        raise ConfigError(f"gauss-squash kappa must lie in (0, 1), got {kappa}")
    length = window[1] - window[0]
    if length < 2.0 * ell:
        raise WindowError(
            f"window of length {length:g} too small for correlation length {ell:g}")

    def sample(xs):
        zv = _gauss_field(seed, _STREAM_GS_V, _STREAM_GS_PHASE_V, ell, phase, xs)
        za = _gauss_field(seed, _STREAM_GS_A, _STREAM_GS_PHASE_A, ell, phase, xs)
        v = 1.0 / (1.0 + np.exp(-gain * zv / _SIGMA0))
        a = kappa + (1.0 - kappa) / (1.0 + np.exp(-gain * za / _SIGMA0))
        return a, v
    return sample


def _gen_coupled_singular(seed: int, window, dx: float, bump_width=0.35,
                          depth_power=2.0, phase=None):
    # Bumps on the unit lattice: at the k-th center the diffusion dips to a
    # random depth d_k while the potential rises to 1 - d_k, so sites with
    # a <= c and V >= 1 - c occur for every level c down to the smallest
    # realized depth.  Depths are pushed toward 0 (power of a uniform).
    width, dpow = float(bump_width), float(depth_power)
    if not (0.0 < width <= 0.49):
        raise ConfigError(f"coupled-singular bump_width must lie in (0, 0.49], got {width}")
    _check_unit_marks("coupled-singular", window)
    ph = _phase(seed, _STREAM_CS_PHASE) if phase is None else float(phase)

    def sample(xs):
        m = np.round(xs - ph).astype(np.int64)
        u = (xs - ph - m) / width
        marks, i = _marks_read(seed, m, 0, _STREAM_DEPTH)
        d = marks[i] ** dpow
        b = _bump(u)
        return 1.0 - (1.0 - d) * b, (1.0 - d) * b
    return sample


def _gen_constant(seed: int, window, dx: float, a0=1.0, v0=0.0):
    a0, v0 = float(a0), float(v0)
    if not (0.0 < a0 <= 1.0):
        raise ConfigError(f"constant a0 must lie in (0, 1], got {a0}")
    if not (0.0 <= v0 <= 1.0):
        raise ConfigError(f"constant v0 must lie in [0, 1], got {v0}")
    return lambda xs: (np.full_like(xs, a0), np.full_like(xs, v0))


_GENERATORS: dict[str, Callable] = {
    "iid-interp": _gen_iid_interp,
    "gauss-squash": _gen_gauss_squash,
    "periodic": _gen_periodic,
    "coupled-singular": _gen_coupled_singular,
    "constant": _gen_constant,
}

KINDS = tuple(_GENERATORS)

# The medium is built, written and its s-table integrated this many nodes
# at a time, so that a window costs its kept arrays plus a few blocks.
_BLOCK = 1 << 15

# A window holds at most this many nodes: 10^8 nodes keep 1.6 GB of
# arrays (2.4 with s), beyond what a run needs or a host may have.
_MAX_NODES = 10 ** 8


def _blocks(count: int):
    """``(b0, b1)`` for each block of ``range(count)``, in order."""
    return ((b0, min(b0 + _BLOCK, count)) for b0 in range(0, count, _BLOCK))


def _nodes(j0: int, dx: float, b0: int, b1: int) -> np.ndarray:
    """Coordinates of nodes b0 .. b1 - 1 of a grid whose first node is j0 dx."""
    return (j0 + np.arange(b0, b1)) * dx


# ============================================================
# Realization container
# ============================================================

@dataclass(frozen=True)
class EnvRealization:
    """One sampled medium: (a, V) on a regular grid.

    Arrays are read-only; treat instances as immutable values.  The
    s-table is derived from ``a_vals`` on first read and kept.  ``flags``
    marks degenerate constructions (a constant potential never attains
    the full range [0, 1]; a reflected realization is a space-reversed
    view, not a draw of its generator).
    """

    seed: int
    kind: str
    window: tuple[float, float]
    dx_env: float
    a_vals: np.ndarray
    v_vals: np.ndarray
    params: dict = field(default_factory=dict)
    flags: tuple[str, ...] = ()

    def __post_init__(self):
        for arr in (self.a_vals, self.v_vals):
            arr.setflags(write=False)
        n = self.a_vals.size
        if self.v_vals.size != n:
            raise ValueError("a_vals and v_vals must have equal length")
        if n < 2:
            raise ValueError("a realization needs at least two grid points")
        # asks a and V to pass the comparisons, which a NaN fails
        amin = float(self.a_vals.min())
        if not (amin > 0.0 and float(self.a_vals.max()) <= 1.0):
            raise ValueError("diffusion coefficient must take values in (0, 1]")
        if not (float(self.v_vals.min()) >= 0.0
                and float(self.v_vals.max()) <= 1.0):
            raise ValueError("potential must take values in [0, 1]")
        # twice a bound on the s-table, and on each sum of two
        # reciprocals of a in it: the table it derives is finite
        if not math.isfinite(2.0 * max(1.0, n * self.dx_env) / amin):
            raise ValueError(f"s-table overflows: min a = {amin:g} over "
                             f"a length of {n * self.dx_env:g}")

    @cached_property
    def s_table(self) -> np.ndarray:
        """s at each node by the trapezoid rule, each block's increments
        summed on from the last s before it: the additions of one cumsum."""
        s = np.zeros(self.n)
        for c0, c1 in _blocks(self.n - 1):
            inv = 1.0 / self.a_vals[c0:c1 + 1]
            ds = 0.5 * self.dx_env * (inv[:-1] + inv[1:])
            ds[0] += s[c0]
            np.cumsum(ds, out=s[c0 + 1:c1 + 1])
        s.setflags(write=False)
        return s

    @property
    def n(self) -> int:
        return self.a_vals.size

    @property
    def lattice_origin(self) -> int:
        """Index of the first node on the global lattice {j * dx_env}."""
        return int(round(self.window[0] / self.dx_env))

    @property
    def xs(self) -> np.ndarray:
        # nodes live on the global lattice so that windows over the same
        # seed agree bitwise wherever they overlap
        return _nodes(self.lattice_origin, self.dx_env, 0, self.n)


@dataclass(frozen=True)
class HillWitness:
    """A maximal grid interval on which V stays at or above a level h."""

    L1: float
    L2: float
    scaled_length: float
    v_min_on_interval: float


def generate_env(kind: str, seed: int, window: tuple[float, float],
                 dx_env: float, params: dict | None = None) -> EnvRealization:
    """Sample the medium ``kind`` on ``window`` with grid step ``dx_env``.

    Grid nodes are the restriction of the global lattice {j * dx_env} to
    the window (endpoints snapped outward by less than one step).  This
    keeps node coordinates, and therefore sampled values, bit-identical
    between any two windows over the same seed wherever they overlap.
    The window is sampled ``_BLOCK`` nodes at a time into the kept
    arrays a and V, and may hold at most ``_MAX_NODES`` nodes; the
    s-table is left to its first read.
    """
    if kind not in _GENERATORS:
        raise ConfigError(f"unknown environment kind {kind!r}; known: {', '.join(KINDS)}")
    x_min, x_max = float(window[0]), float(window[1])
    if not (x_max > x_min):
        raise ConfigError(f"empty window {window}")
    if not dx_env > 0:
        raise ConfigError(f"dx_env must be positive, got {dx_env}")
    if dx_env > x_max - x_min:
        raise ConfigError(
            f"dx_env {dx_env:g} is longer than the window {window}")
    params = dict(params or {})
    # lattice indices of the first and last node, counted as floats: a
    # step too short for floating point gives inf nodes, not an overflow
    j0 = np.floor(x_min / dx_env + 1e-9)
    j1 = max(np.ceil(x_max / dx_env - 1e-9), j0 + 1)
    if not j1 - j0 + 1 <= _MAX_NODES:
        raise ConfigError(
            f"window {window} at dx_env {dx_env:g} holds {j1 - j0 + 1:.4g} "
            f"nodes; at most {_MAX_NODES} are allowed")
    if max(-j0, j1) >= 2.0 ** 53:
        raise ConfigError(
            f"window {window} lies over 2^53 steps of dx_env from 0, where "
            f"node indices are no longer exact")
    j0, j1 = int(j0), int(j1)
    n = j1 - j0 + 1
    snapped = tuple((np.array([j0, j1]) * dx_env).tolist())
    # the generator's keyword arguments are its parameters: an unknown
    # key is a TypeError
    sample = _GENERATORS[kind](int(seed), snapped, dx_env, **params)
    a, v = np.empty(n), np.empty(n)
    for b0, b1 in _blocks(n):
        a[b0:b1], v[b0:b1] = sample(_nodes(j0, dx_env, b0, b1))
    flags = ("degenerate-potential",) if kind == "constant" else ()
    return EnvRealization(seed=int(seed), kind=kind, window=snapped,
                          dx_env=dx_env, a_vals=a, v_vals=v, params=params,
                          flags=flags)


# ============================================================
# Sampling and the scaled coordinate
# ============================================================

def _locate(env: EnvRealization, x) -> tuple[np.ndarray, np.ndarray]:
    """Cell index and interpolation weight for points x; exact at nodes."""
    xq = np.asarray(x, dtype=np.float64)
    x0, x1 = env.window
    tol = 1e-9 * max(1.0, abs(x0), abs(x1))
    if np.any(xq < x0 - tol) or np.any(xq > x1 + tol):
        raise WindowError(
            f"sample point outside window [{x0:g}, {x1:g}]")
    t = (xq - x0) / env.dx_env
    i = np.clip(np.floor(t).astype(np.int64), 0, env.n - 2)
    w = np.clip(t - i, 0.0, 1.0)
    # snap to the node when the query is a node up to roundoff
    near = np.rint(t)
    hit = np.abs(t - near) <= 1e-9
    i = np.where(hit, np.clip(near.astype(np.int64), 0, env.n - 2), i)
    w = np.where(hit, np.where(near >= env.n - 1, 1.0, 0.0), w)
    return i, w


def sample_many(env: EnvRealization, x) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized (a, V) at arbitrary points of the window."""
    i, w = _locate(env, x)
    a = (1.0 - w) * env.a_vals[i] + w * env.a_vals[i + 1]
    v = (1.0 - w) * env.v_vals[i] + w * env.v_vals[i + 1]
    return a, v


def s_at(env: EnvRealization, x) -> np.ndarray:
    """Scaled coordinate s(x), equal to the s-table at nodes.

    Off-node points get the partial trapezoid contribution of the cell,
    so s_at is a single fixed function of x and between-point
    differences are exactly additive.
    """
    i, w = _locate(env, x)
    xq = np.asarray(x, dtype=np.float64)
    a_x = (1.0 - w) * env.a_vals[i] + w * env.a_vals[i + 1]
    x_node = env.window[0] + env.dx_env * i
    partial = (xq - x_node) * 0.5 * (1.0 / env.a_vals[i] + 1.0 / a_x)
    return env.s_table[i] + partial


# ============================================================
# Hills
# ============================================================

def find_hill(env: EnvRealization, h: float, C: float) -> HillWitness | None:
    """First maximal grid interval with V >= h and s-length >= C.

    One left-to-right sweep over the stored samples; returns None when no
    maximal interval is long enough in scaled length.
    """
    if not (0.0 < h < 1.0):
        raise ValueError(f"hill level h must lie in (0, 1), got {h}")
    if C <= 0:
        raise ValueError(f"hill s-length C must be positive, got {C}")
    mask = env.v_vals >= h
    if not mask.any():
        return None
    m = mask.astype(np.int8)
    starts = np.flatnonzero(np.diff(m) == 1) + 1
    stops = np.flatnonzero(np.diff(m) == -1)
    if mask[0]:
        starts = np.concatenate(([0], starts))
    if mask[-1]:
        stops = np.concatenate((stops, [env.n - 1]))
    j0 = env.lattice_origin
    for i, j in zip(starts, stops):
        slen = float(env.s_table[j] - env.s_table[i])
        if slen >= C:
            return HillWitness(
                L1=float((j0 + i) * env.dx_env),
                L2=float((j0 + j) * env.dx_env),
                scaled_length=slen,
                v_min_on_interval=float(env.v_vals[i:j + 1].min()),
            )
    return None


def check_singular_hill(env: EnvRealization, c: float) -> float | None:
    """First grid point where a <= c and V >= 1 - c, or None."""
    if not (0.0 < c < 1.0):
        raise ValueError(f"singular level c must lie in (0, 1), got {c}")
    idx = np.flatnonzero((env.a_vals <= c) & (env.v_vals >= 1.0 - c))
    if idx.size == 0:
        return None
    return float((env.lattice_origin + idx[0]) * env.dx_env)


# ============================================================
# Lattice transformations
# ============================================================

def reflect(env: EnvRealization) -> EnvRealization:
    """Space-reversed view x -> -x, used for branch-1 symmetry checks."""
    return EnvRealization(seed=env.seed, kind=env.kind,
                          window=(-env.window[1], -env.window[0]),
                          dx_env=env.dx_env, a_vals=env.a_vals[::-1],
                          v_vals=env.v_vals[::-1], params=dict(env.params),
                          flags=env.flags + ("reflected",))


# ============================================================
# One medium, many tasks
# ============================================================

_pool_env = None  # the medium of a pool worker, set once by its initializer


def _set_pool_env(env: EnvRealization) -> None:
    global _pool_env
    _pool_env = env


def _call_with_pool_env(fn, task):
    return fn(_pool_env, task)


def _pmap(fn, env: EnvRealization, tasks, workers: int) -> list:
    """``fn(env, task)`` over ``tasks``, results in task order.

    At ``workers > 1`` a process pool runs them, and ``env`` reaches
    each worker once, through the pool initializer, not once per task.
    """
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers,
                                 initializer=_set_pool_env,
                                 initargs=(env,)) as pool:
            return list(pool.map(partial(_call_with_pool_env, fn), tasks))
    return [fn(env, t) for t in tasks]


# ============================================================
# Serialization
# ============================================================

def _field(v) -> str:
    if type(v) is float:  # the common case, tested first
        return repr(v)
    if v is None:
        return ""
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def write_csv(path, header, rows, meta=()) -> None:
    """Write one table: ``# key value`` lines, the header, then the rows.

    Every table the package writes goes through here.  A float (numpy's
    too) is written with ``repr(float(v))``, which round-trips every
    double exactly; ``None`` is an empty field and anything else is
    ``str(v)``.  Nothing is quoted and every line ends in ``\n``.
    """
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(f"# {key} {_field(val)}\n" for key, val in meta)
        fh.write(",".join(header) + "\n")
        # line by line: a long table is never held as one string
        fh.writelines(",".join(map(_field, row)) + "\n" for row in rows)


def save_env(env: EnvRealization, path: str) -> None:
    """Write `x,a,V,s`, one row per grid node; reads the s-table."""
    meta = [("kind", env.kind), ("seed", env.seed), ("dx_env", env.dx_env)]
    if env.params:
        meta.append(("params", json.dumps(env.params, sort_keys=True)))
    if env.flags:
        meta.append(("flags", json.dumps(list(env.flags))))
    # the rows of one block of nodes at a time
    rows = (row for b0, b1 in _blocks(env.n) for row in zip(
        _nodes(env.lattice_origin, env.dx_env, b0, b1).tolist(),
        env.a_vals[b0:b1].tolist(), env.v_vals[b0:b1].tolist(),
        env.s_table[b0:b1].tolist()))
    write_csv(path, ("x", "a", "V", "s"), rows, meta)
