"""Static corrector construction for a f' + G(f) + beta V = lam.

The slope field f of a corrector solves a first-order ODE whose flow is
order-preserving inside the invariant slope bracket, so the runs from
the bracket's two ends enclose the stationary solution, and a burn-in
over which they meet to within a tolerance produces it to that
tolerance:

* one fixed-step RK4 loop integrates the ODE with a bracket-exit
  guard — the bracket is invariant for the exact flow, so leaving it
  signals a bad step size or bad inputs, never a feature.  Branch 2 is
  shot rightward and branch 1 leftward, on the medium and G as given:
  the loop serves both, with a signed step;
* ``corrector_profile`` shoots through a burn-in from both ends of the
  bracket, with a step checked to keep each RK4 step increasing in f.
  Every bracketed solution, the stationary corrector among them, then
  stays between those two runs, so their measured distance on the
  region is the certificate; the burn-in doubles until it is at most
  tol.  ``burn_in_length`` gives the first burn-in, from the branch's
  linear contraction rate where it is positive, clipped to what the
  window holds.  Both runs share one
  pass of sampled stage coefficients, and the check run stops at the
  first node where it equals the reported run bit for bit: an RK4 step
  depends only on f and those coefficients, so the rest of the check
  run would repeat the reported run exactly;
* ``estimate_theta`` averages the corrector slope over a long window
  with a discretization bar from step doubling (the same run at twice
  the step, on the same stage coefficients) and a batch-means
  confidence interval over ten batches, and on
  request the derivative of that average in lam: the tangent
  g = df/dlam of the discrete RK4 run (start and lattice held fixed),
  rebuilt after the run from its node values (each step is affine in
  g, and a log-depth affine scan composes the steps);
* ``choose_dx`` picks the largest shooting step that keeps every RK4
  step increasing in f at the levels a command shoots;
* ``residual_series`` evaluates a f' + G(f) + beta V on a profile's
  interior nodes.

This is the shooting layer only: the glued sub/supersolution profiles
built from its runs, and their residual probes, live in ``probe``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .environment import _MAX_NODES, EnvRealization, sample_many, write_csv
from .errors import (BracketExitError, CertificateError, ConfigError,
                     WindowError)
from .hamiltonian import bracket, monotonicity_modulus

__all__ = [
    "CorrectorProfile",
    "ThetaEstimate",
    "burn_in_length",
    "choose_dx",
    "corrector_profile",
    "estimate_theta",
    "residual_series",
    "save_profile",
]

_BRACKET_GUARD = 1e-9


# ============================================================
# Profile containers
# ============================================================

@dataclass(frozen=True)
class CorrectorProfile:
    """Slope field of a one-sided corrector on a reported region.

    ``cert_bound`` bounds the sup-distance to the stationary slope of
    the discrete flow on the region: the measured width of the two-run
    enclosure, or the full bracket width for a single run.
    ``rk4_steps`` counts the RK4 steps integrated to build the profile
    (0 when not recorded, as for the one-sided runs that
    ``probe.build_glued_profile`` joins).  ``g_vals``
    holds the tangent df/dlam at the grid nodes when it was asked for,
    else None.  ``disc_bound`` is the step-doubling bar of the region
    average, |mean at dx - mean at 2 dx|, when it was asked for, else
    None.
    """

    branch: int
    lam: float
    beta: float
    grid: np.ndarray
    f_vals: np.ndarray
    burn_in: float
    cert_bound: float
    rk4_steps: int = 0
    g_vals: np.ndarray | None = None
    disc_bound: float | None = None

    def __post_init__(self):
        self.grid.setflags(write=False)
        self.f_vals.setflags(write=False)
        if self.g_vals is not None:
            self.g_vals.setflags(write=False)

    @property
    def dx(self) -> float:
        # the body step: a short tail step, if any, is the first step on
        # branch 1 and the last on branch 2
        g = self.grid
        return float(g[-1] - g[-2] if self.branch == 1 else g[1] - g[0])


@dataclass(frozen=True)
class ThetaEstimate:
    """Ergodic average of a corrector slope with a batch-means CI.

    ``disc_bound`` is the step-doubling bar |mean - mean at 2 dx|, and
    ``dx`` the step the estimate was shot at.  The bar is an estimate,
    not a bound: a step longer than ``dx_env`` straddles the kinks of a
    piecewise-linear medium (at dx 0.16, 1.5 to 8.8 times the bar off
    the dx 0.01 mean on four benchmark seeds, below 0.1% of tol).
    ``dtheta_dlam`` and ``dtheta_ci`` are the same average and CI of the
    tangent df/dlam, when it was asked for (else None).
    """

    branch: int
    lam: float
    beta: float
    mean: float
    ci_halfwidth: float
    window_length: float
    cert_bound: float
    rk4_steps: int = 0
    dtheta_dlam: float | None = None
    dtheta_ci: float | None = None
    disc_bound: float | None = None
    dx: float | None = None


# ============================================================
# Shooting core
# ============================================================

@dataclass(frozen=True)
class _Stages:
    """RK4 lattice from L to x_end and the ODE coefficients at its stage
    points: f' = B - A G(f) with A = 1/a and B = (lam - beta V)/a.

    Stage 2i is node i, stage 2i + 1 the midpoint of step i.  ``dx`` and
    ``tail`` are signed: negative when the lattice runs leftward
    (x_end < L), so one stepping loop serves both directions.  The
    coefficients are kept as lists, for the scalar stepping loop, and
    as the arrays they came from, for the vectorized tangent pass.
    """

    xs: np.ndarray
    A: list
    B: list
    A_arr: np.ndarray
    B_arr: np.ndarray
    dx: float
    n_full: int
    tail: float

    @property
    def n_steps(self) -> int:
        return self.xs.size - 1


def _stages(env: EnvRealization, lam: float, beta: float, L: float,
            x_end: float, dx: float) -> _Stages:
    """Sample the coefficients at every RK4 stage point in one pass.

    The lattice runs from L towards x_end, on either side of L.  Before
    anything is allocated, a lattice that reaches past the window is a
    ``WindowError`` and one of more than ``_MAX_NODES`` steps a
    ``ConfigError``.
    """
    span = abs(x_end - L)
    if span == 0:
        raise ValueError(f"integration span must be nonzero, got [{L}, {x_end}]")
    x0, x1 = env.window
    # the tolerance of the sampler's own window check
    pad = 1e-9 * max(1.0, abs(x0), abs(x1))
    if not x0 - pad <= min(L, x_end) <= max(L, x_end) <= x1 + pad:
        raise WindowError(f"lattice from {L:g} to {x_end:g} reaches past "
                          f"the window [{x0:g}, {x1:g}]")
    if not span / dx <= _MAX_NODES:
        raise ConfigError(f"step {dx:g} is too short: the lattice from "
                          f"{L:g} to {x_end:g} would take more than "
                          f"{_MAX_NODES} steps")
    # steps of exactly dx plus one short tail step: a rescaled step would
    # lose commensurability with periodic media and stop integrator
    # error from cancelling between periods
    n_full = int(math.floor(span / dx + 1e-9))
    tail = span - n_full * dx
    if tail <= 1e-9 * max(1.0, abs(x_end)):
        tail = 0.0
    if x_end < L:
        dx, tail = -dx, -tail
    xs = L + dx * np.arange(n_full + 1)
    stage_x = L + 0.5 * dx * np.arange(2 * n_full + 1)
    if tail != 0.0:
        xs = np.concatenate((xs, [x_end]))
        stage_x = np.concatenate((stage_x, [x_end - 0.5 * tail, x_end]))
    A, B = _coefficients(env, lam, beta, stage_x)
    return _Stages(xs=xs, A=A.tolist(), B=B.tolist(), A_arr=A, B_arr=B,
                   dx=dx, n_full=n_full, tail=tail)


def _coefficients(env: EnvRealization, lam: float, beta: float,
                  x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A = 1/a and B = (lam - beta V)/a at the points x."""
    a, v = sample_many(env, x)
    # B and A take over the sample buffers: keeping them for the tangent
    # pass then costs no memory
    B = np.multiply(beta, v, out=v)
    np.subtract(lam, B, out=B)
    B /= a
    return np.divide(1.0, a, out=a), B


def _doubled_stages(env: EnvRealization, st: _Stages, lam: float,
                    beta: float, first: int) -> _Stages:
    """The lattice of ``st`` from its node ``first`` at twice the step.

    The doubled lattice's nodes and midpoints are nodes of ``st``, so
    its coefficients are every other stage coefficient of ``st``, and
    its lists share their floats; only a final short step, if any,
    samples the medium, at its two stage points.
    """
    n_full = (st.n_full - first) // 2
    last = first + 2 * n_full
    every_other = slice(2 * first, 2 * last + 1, 2)
    xs = st.xs[first:last + 1:2]
    A, B = st.A_arr[every_other], st.B_arr[every_other]
    A_list, B_list = st.A[every_other], st.B[every_other]
    x_end = float(st.xs[-1])
    tail = x_end - float(st.xs[last])
    if last < st.xs.size - 1:
        A_t, B_t = _coefficients(env, lam, beta,
                                 np.array([x_end - 0.5 * tail, x_end]))
        xs = np.concatenate((xs, [x_end]))
        A, B = np.concatenate((A, A_t)), np.concatenate((B, B_t))
        A_list += A_t.tolist()
        B_list += B_t.tolist()
    else:
        tail = 0.0
    return _Stages(xs=xs, A=A_list, B=B_list, A_arr=A, B_arr=B,
                   dx=2.0 * st.dx, n_full=n_full, tail=tail)


def _rk4_run(st: _Stages, G, c: float, p_lo: float, p_hi: float,
             until: list | None = None) -> list:
    """Node values of the RK4 run from c over the lattice of ``st``.

    With ``until`` (the node values of another run over the same
    stages), stop at the first node where the value equals ``until``'s
    and return the values up to and including that node: one step is a
    function of f and the stage coefficients only, so from there on the
    two runs are the same run.  The stepping loop is scalar Python,
    which beats array dispatch at size 1 by a wide margin.
    """
    A, B, xs, n_full = st.A, st.B, st.xs, st.n_full
    geval = G.scalar
    lo = p_lo - _BRACKET_GUARD
    hi = p_hi + _BRACKET_GUARD
    n_steps = st.n_steps
    check = until is not None
    fs = [0.0] * (n_steps + 1)
    f = float(c)
    fs[0] = f
    h = st.dx
    h2 = 0.5 * h
    h6 = h / 6.0
    for i in range(n_steps):
        if i == n_full:
            h = st.tail
            h2 = 0.5 * h
            h6 = h / 6.0
        j = 2 * i
        a0, am, a1 = A[j], A[j + 1], A[j + 2]
        b0, bm, b1 = B[j], B[j + 1], B[j + 2]
        k1 = b0 - a0 * geval(f)
        k2 = bm - am * geval(f + h2 * k1)
        k3 = bm - am * geval(f + h2 * k2)
        k4 = b1 - a1 * geval(f + h * k3)
        f = f + h6 * (k1 + 2.0 * (k2 + k3) + k4)
        if not (lo <= f <= hi):
            raise BracketExitError(
                f"slope left the invariant bracket [{p_lo:g}, {p_hi:g}] "
                f"near x = {float(xs[i + 1]):.6g} (f = {f:.6g}); "
                f"reduce the integration step or check the inputs")
        fs[i + 1] = f
        if check and f == until[i + 1]:
            return fs[:i + 2]
    return fs


_TANGENT_CHUNK = 4096


def _rk4_tangent(st: _Stages, G, fs: np.ndarray) -> np.ndarray:
    """Node values of g = df/dlam along the RK4 run ``fs`` over ``st``.

    Every stage coefficient B has dB/dlam = A, so differentiating one
    step gives stage derivatives k' = A (1 - G'(y) y') at the step's
    stage values y = f, f + h/2 k1, f + h/2 k2, f + h k3.  Those are
    rebuilt here, vectorized, from the stored node values with the
    loop's own operations.  The step is then affine in g,
    g_{i+1} = alpha_i g_i + beta_i: its slope is the tangent step from
    g = 1 without the forcing A, its offset the step from g = 0 with
    it.  The recurrence is solved in fixed-size chunks, so the
    temporaries stay small, each by a log-depth affine scan: after the
    pass at offset k every entry holds the composition of the (up to)
    2k steps ending at it.  The scan has no division, so it is safe for
    any sign of alpha.  The tangent starts at 0: the start value's own
    dependence on lam decays over the burn-in like the start itself.
    """
    n = fs.size - 1
    A, B, gder = st.A_arr, st.B_arr, G.deriv
    g = np.empty(n + 1)
    g[0] = 0.0
    for i0 in range(0, n, _TANGENT_CHUNK):
        i1 = min(i0 + _TANGENT_CHUNK, n)
        f = fs[i0:i1]
        a0, am, a1 = (A[2 * i0:2 * i1:2], A[2 * i0 + 1:2 * i1:2],
                      A[2 * i0 + 2:2 * i1 + 1:2])
        b0, bm = B[2 * i0:2 * i1:2], B[2 * i0 + 1:2 * i1:2]
        h = np.full(i1 - i0, st.dx)
        h[max(st.n_full - i0, 0):] = st.tail
        h2 = 0.5 * h
        h6 = h / 6.0
        k1 = b0 - a0 * G(f)
        y2 = f + h2 * k1
        k2 = bm - am * G(y2)
        y3 = f + h2 * k2
        k3 = bm - am * G(y3)
        y4 = f + h * k3
        d1, d2, d3, d4 = (a0 * gder(f), am * gder(y2), am * gder(y3),
                          a1 * gder(y4))

        def step(g0, forced):
            c0, cm, c1 = (a0, am, a1) if forced else (0.0, 0.0, 0.0)
            q1 = c0 - d1 * g0
            q2 = cm - d2 * (g0 + h2 * q1)
            q3 = cm - d3 * (g0 + h2 * q2)
            q4 = c1 - d4 * (g0 + h * q3)
            return g0 + h6 * (q1 + 2.0 * (q2 + q3) + q4)

        alpha = step(1.0, False)
        r = step(0.0, True)
        r[0] += alpha[0] * g[i0]
        k = 1
        while k < r.size:
            r[k:] += alpha[k:] * r[:-k]
            alpha[k:] *= alpha[:-k]
            k *= 2
        g[i0 + 1:i1 + 1] = r
    return g


def _rk4_forward(env: EnvRealization, G, lam: float, beta: float,
                 L: float, c: float, x_end: float, dx: float,
                 p_lo: float, p_hi: float) -> tuple[np.ndarray, np.ndarray]:
    """Integrate f' = (lam - beta V - G(f)) / a from (L, c) to x_end."""
    st = _stages(env, lam, beta, L, x_end, dx)
    return st.xs, np.asarray(_rk4_run(st, G, c, p_lo, p_hi))


# first burn-in, in x-units, where the branch has no linear contraction
# rate (mu = 0, as at lam = beta for the smooth families)
_DEGENERATE_BURN_IN = 16.0


def burn_in_length(G, beta: float, lam: float, tol: float,
                   branch: int = 2) -> float:
    """First burn-in length for the two-run enclosure.

    Where the modulus of ``branch`` has a linear rate mu > 0 it is the
    s-length Phi(tol) = log(K / tol) / mu over which that rate shrinks
    the bracket width K to tol; since a <= 1 (s dominates x), it is
    also an x-length on every realization.  Where mu = 0 it is
    ``_DEGENERATE_BURN_IN``.
    """
    if tol <= 0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    M = monotonicity_modulus(G, lam, beta, branch=branch)
    if tol >= M.K:
        return 0.0
    return M.phi(tol) if M.mu > 0.0 else _DEGENERATE_BURN_IN


def _check_monotone_steps(A_max: float, G, beta: float, p_lo: float,
                          p_hi: float, dx: float) -> None:
    """Require every RK4 step over the bracket to be increasing in f.

    With A = 1/a and z_k = h A G'(y_k) at the four stage values y_k,
    the step's derivative in f is multilinear in (z_1, ..., z_4), so
    over |z_k| <= 1 its minimum sits at a vertex of the cube, where it
    is 0.375 > 0.  The ODE right-hand side is at most beta max(A) in
    size on the bracket (V in [0, 1]), so once |dx| max(A) L <= 1 for
    the Lipschitz constant L of G on the padded bracket, every stage
    offset is at most 1.75 |dx| max(A) beta, inside the pad of
    2 |dx| max(A) beta, and |z_k| <= 1 follows.  ``A_max`` is max(A)
    over the stage points the steps use.
    """
    pad = 2.0 * abs(dx) * A_max * beta
    lip = G.lipschitz_on((p_lo - pad, p_hi + pad))
    if not math.isfinite(lip):
        raise CertificateError(
            f"RK4 step is not monotone in f: G has no finite Lipschitz "
            f"constant on the padded bracket [{p_lo - pad:g}, {p_hi + pad:g}]"
            f", so no dx makes the step monotone")
    prod = abs(dx) * A_max * lip
    if prod > 1.0:
        raise CertificateError(
            f"RK4 step is not monotone in f: |dx| max(1/a) Lip(G) = "
            f"{prod:.3g} > 1 on the bracket [{p_lo:g}, {p_hi:g}]; reduce dx")


# shooting steps ``choose_dx`` picks from, largest first
DX_CHOICES = (0.04, 0.02, 0.01)


def choose_dx(env: EnvRealization, G, beta: float, levels) -> float:
    """Largest step of ``DX_CHOICES`` that passes the monotone-step check
    at every ``(branch, lam)`` of ``levels``; the smallest if none does.

    The check takes max(1/a) over the whole window: the spans a command
    will shoot are not known yet, and a window-wide bound can only err
    towards a smaller step.  Steps above 0.01 trade pointwise accuracy
    for speed, so they suit slope averages, whose every estimate carries
    its step-doubling bar, and not the profiles certified pointwise.
    Where the medium is piecewise linear on a lattice finer than the
    step (``dx_env`` = 0.01), the steps straddle its kinks and the error
    is set by them, not by RK4 truncation: on the periodic medium the
    average at dx = 0.04 is off the one-cell average by 5e-7 to 1.6e-6
    (lam = 1 to 4), at or below its bar, against 5e-10 at dx = 0.01.
    """
    for dx in DX_CHOICES:
        if _monotone_on_window(env, G, beta, levels, dx):
            return dx
    return DX_CHOICES[-1]


def _monotone_on_window(env: EnvRealization, G, beta: float, levels,
                        dx: float) -> bool:
    """Whether ``dx`` passes the monotone-step check at every
    ``(branch, lam)`` of ``levels``, with max(1/a) over the whole window."""
    A_max = 1.0 / float(env.a_vals.min())
    try:
        for branch, lam in levels:
            _check_monotone_steps(A_max, G, beta,
                                  *bracket(G, branch, lam, beta), dx)
    except CertificateError:
        return False
    return True


def corrector_profile(env: EnvRealization, G, beta: float, lam: float,
                      branch: int, region: tuple[float, float], tol: float,
                      dx: float, tangent: bool = False,
                      doubled: bool = False) -> CorrectorProfile:
    """Certified corrector slope on ``region``.

    Shoots from both ends of the slope bracket, a burn-in before the
    region, and reports the run that starts nearer 0 (``p_lo`` on
    branch 2, ``p_hi`` on branch 1).  Each RK4 step is increasing in f
    (``_check_monotone_steps``, on the attempt's own stage
    coefficients), so the run from any start in the bracket, the
    stationary corrector's included, lies between the two; their
    largest distance on the region is ``cert_bound``.  The first
    burn-in is ``burn_in_length``, clipped to the longest the window
    holds; while the distance exceeds tol the burn-in doubles, again
    within the window, and both runs start again.  ``WindowError``
    when an attempt at the window's limit still does not close.  Both
    runs of an attempt use one pass of sampled stage coefficients, and
    the check run stops at the first node where it equals the reported
    run bit for bit; from there on it would repeat the reported run
    exactly.  ``rk4_steps`` counts the steps of every run.  With
    ``tangent``, the profile also carries df/dlam of the reported run
    (``g_vals``).  With ``doubled``, the reported run of the accepted
    attempt is run again at twice the step, on every other stage
    coefficient, and ``disc_bound`` is the change of the region
    average.  The doubled lattice starts at node ``n_burn % 2``, so the
    region starts on one of its nodes and the reported run is
    untouched.
    """
    x_lo, x_hi = float(region[0]), float(region[1])
    if x_hi <= x_lo:
        raise ValueError(f"empty region {region}")
    p_lo, p_hi = bracket(G, branch, lam, beta)
    # the longest burn-in the window holds, in whole steps; counts past
    # _MAX_NODES, which ``_stages`` refuses, are clipped before they can
    # overflow an int
    room = x_lo - env.window[0] if branch == 2 else env.window[1] - x_hi
    n_max = math.floor(min((room + 1e-9) / dx, _MAX_NODES + 1))
    if n_max < 0:
        raise WindowError(f"region {region} is outside the window {env.window}")
    # round the burn-in up to whole steps so region nodes sit exactly on
    # the integration lattice, the first of them at node n_burn
    n_burn = math.ceil(min(burn_in_length(G, beta, lam, tol, branch=branch)
                           / dx, n_max) - 1e-9)
    # branch 2 runs rightward through the region, branch 1 leftward
    starts = (p_lo, p_hi) if branch == 2 else (p_hi, p_lo)
    steps = 0
    while True:
        x_burn = n_burn * dx
        L, x_end = (x_lo - x_burn, x_hi) if branch == 2 else (x_hi + x_burn, x_lo)
        st = _stages(env, lam, beta, L, x_end, dx)
        _check_monotone_steps(float(st.A_arr.max()), G, beta, p_lo, p_hi, dx)
        fs = _rk4_run(st, G, starts[0], p_lo, p_hi)
        fs_alt = _rk4_run(st, G, starts[1], p_lo, p_hi, until=fs)
        steps += len(fs_alt) - 1 + st.n_steps
        # past the check run's last node the two runs are equal
        fs = np.asarray(fs)
        diff = np.abs(fs[n_burn:len(fs_alt)] - np.asarray(fs_alt[n_burn:]))
        width = float(diff.max()) if diff.size else 0.0
        if width <= tol:
            break
        if n_burn == n_max:
            raise WindowError(
                f"region {region} with a burn-in of {x_burn:g}, the longest "
                f"the window {env.window} holds: the two starts still "
                f"differed by {width:.3g} > {tol:g}")
        n_burn = min(max(2 * n_burn, 1), n_max)
    disc = None
    if doubled:
        first = n_burn % 2
        st2 = _doubled_stages(env, st, lam, beta, first)
        steps += st2.n_steps
        k = (n_burn - first) // 2
        fs2 = np.asarray(_rk4_run(st2, G, fs[first], p_lo, p_hi))
        disc = abs(float(np.trapezoid(fs[n_burn:], st.xs[n_burn:])
                         - np.trapezoid(fs2[k:], st2.xs[k:]))) / (x_hi - x_lo)
    gs = _rk4_tangent(st, G, fs)[n_burn:] if tangent else None
    xs, fs = st.xs[n_burn:], fs[n_burn:]
    if branch == 1:
        xs, fs = xs[::-1], fs[::-1]
        if tangent:
            gs = gs[::-1]
    return CorrectorProfile(branch=branch, lam=lam, beta=beta,
                            grid=xs, f_vals=fs, burn_in=x_burn,
                            cert_bound=width, rk4_steps=steps, g_vals=gs,
                            disc_bound=disc)


def residual_series(env: EnvRealization, grid: np.ndarray, f_vals: np.ndarray,
                    G, beta: float) -> np.ndarray:
    """Centered-difference residual a f' + G(f) + beta V at interior nodes.

    f' is the three-point formula on the actual node spacing, so a short
    tail step of the RK4 lattice is differenced correctly.
    """
    a, v = sample_many(env, grid[1:-1])
    df = np.gradient(f_vals, grid)[1:-1]
    return a * df + np.asarray(G(f_vals[1:-1])) + beta * v


# ============================================================
# Theta estimation
# ============================================================

# the CI's batch count and t_0.975(N - 1), P(|T| > t) = 0.05 for
# Student's t with 9 degrees of freedom: one ulp above the correctly
# rounded root 2.2621571627982053
_N_BATCHES = 10
_T975 = 2.262157162798206


def _window_mean(vals: np.ndarray, grid: np.ndarray,
                 X: float) -> tuple[float, float]:
    """Trapezoid average over the window and its batch-means half-width."""
    mean = float(np.trapezoid(vals, grid) / X)
    edges = np.linspace(0, vals.size - 1, _N_BATCHES + 1).astype(int)
    bm = np.array([vals[edges[k]:edges[k + 1] + 1].mean()
                   for k in range(_N_BATCHES)])
    return mean, _T975 * float(bm.std(ddof=1)) / math.sqrt(_N_BATCHES)


def estimate_theta(env: EnvRealization, G, beta: float, lam: float,
                   branch: int, X: float, *, tol: float = 1e-6,
                   dx: float = 0.01, tangent: bool = False) -> ThetaEstimate:
    """Ergodic average of the corrector slope over [0, X].

    The mean is the trapezoid average of a certified profile, with its
    step-doubling bar ``disc_bound`` (``corrector_profile(...,
    doubled=True)``, half a run more; an estimate, not a bound); the
    confidence interval comes from ten contiguous batch means (Student
    t, 95%); a narrower one needs a longer X.  Branch 1 averages over
    [-X, 0].  With ``tangent``, the same average and CI of df/dlam give
    ``dtheta_dlam`` and ``dtheta_ci``: the derivative of the discrete
    mean in lam, exact up to the start value and burn-in length, whose
    own dependence on lam the burn-in has forgotten.
    """
    if X <= 0:
        raise ValueError(f"window length must be positive, got {X}")
    region = (0.0, X) if branch == 2 else (-X, 0.0)
    prof = corrector_profile(env, G, beta, lam, branch, region, tol, dx,
                             tangent=tangent, doubled=True)
    mean, ci = _window_mean(prof.f_vals, prof.grid, X)
    dmean = dci = None
    if tangent:
        dmean, dci = _window_mean(prof.g_vals, prof.grid, X)
    return ThetaEstimate(branch=branch, lam=lam, beta=beta, mean=mean,
                         ci_halfwidth=ci, window_length=X,
                         cert_bound=prof.cert_bound,
                         rk4_steps=prof.rk4_steps, dtheta_dlam=dmean,
                         dtheta_ci=dci, disc_bound=prof.disc_bound,
                         dx=float(dx))


# ============================================================
# Serialization
# ============================================================

def save_profile(prof: CorrectorProfile, path: str) -> None:
    """Write `x,f`, one row per grid node."""
    write_csv(path, ("x", "f"),
              zip(prof.grid.tolist(), prof.f_vals.tolist()),
              [("branch", prof.branch), ("lambda", prof.lam),
               ("beta", prof.beta), ("burn_in", prof.burn_in),
               ("cert_bound", prof.cert_bound)])
