"""Monotone finite-difference solver for the viscous HJ equation.

Discretizes ``du/dt = a(x) d2u/dx2 + G(du/dx) + beta V(x)`` with a
semi-implicit Euler step: the upwind (Godunov) flux of the quasiconvex
Hamiltonian and the source are explicit, the central second difference
of the diffusion is implicit.  Each step is

    w = u + h (godunov_flux(G, D-u, D+u) + beta V)
    (I - h diag(a) D2) u_new = w + boundary term

with the flux ``max(G(min(D-u, 0)), G(max(D+u, 0)))``.  On a step whose
slopes all have one sign (lo >= 0 or hi <= 0 below, the range the step
certificate reads anyway) one of its terms is the constant G(0), so the
step evaluates ``max(G(0), G(D+u))`` or ``max(G(D-u), G(0))``: one G
call in place of two, bit for bit the same flux.  The G(0) floor stays,
since a tabulated G may have its minimum off p = 0.

The implicit stage is monotone at every step size, because
``I - h diag(a) D2`` is an M-matrix and its inverse is entrywise
nonnegative, so diffusion puts no limit on dt.  The explicit stage is
monotone exactly when ``dt Lip(G on [lo, hi]) / dx <= 1``, with lo and
hi the least D-u and the largest D+u of that step.  ``stable_dt`` steps
at ``dt kappa / dx = 0.9``, kappa a Lipschitz constant of G on the
a-priori slope range ``cfl_gradient_range``: the branch bracket over
the levels a run from linear data can hold.  That range is a good
guess, not a proof, so the certificate is the step itself: ``evolve``
compares every step's [lo, hi] with the range (two float comparisons)
and, for a step whose slopes leave it, checks the bound on the union of
both, raising ``StabilityError`` when it fails.  Every executed step is
therefore monotone.  Row-scaled by ``diag(a)^-1`` the implicit matrix
is symmetric positive definite, so the implicit stage is one LAPACK
``dpttrf`` per step size and one ``dpttrs`` per step
(``diffusion_solver``), taken from scipy's ``_flapack`` extension
without the ``scipy.linalg`` package (``_lapack_pt``).  Monotonicity is
what makes the scheme converge to the viscosity solution, so everything
here favours plainness over order: first order in time, no limiters.

Also holds the epsilon-sweep driver that empirically verifies the
homogenized limit.  The sweep marches each distinct domain once and
reads u(T, 0) at every stop.  The domains march in lockstep: ``evolve``
lays each domain's current window as one block of a stacked grid, each
block closed by its own ghost slots, so one pass of the explicit stage
and one block-diagonal ``dpttrs`` step all of them, and each block
comes out bit for bit as a run on it alone.  The grid is laid again
only where some domain changes its window or reaches a stop, so the
sweep pays the fixed cost of a step (a dozen numpy and LAPACK calls)
once per step rather than once per domain and step.  Since
the scheme is monotone, what a node far from x = 0 does reaches x = 0
only through tails the scheme's spread bounds, so each march drops the
nodes beyond derived margins (``_trim_margin``).  Upwind, the window
recedes at a closing rate of s >= 1 nodes a step going back in time,
``ceil(s (K - k)) + m_up`` nodes at step k of K, against an advection
of at most one node a step (``dt kappa / dx <= 0.9``): the faster it
closes in, the faster an edge's error decays toward x = 0, so the
larger s, the smaller ``m_up``, on windows that are wider early on.
Each march takes the s of ``_TRIM_RATES`` whose windows cost least
(``_Lane``), s = 1 among them, so no march plans more work than at one
node a step.  On the benchmark sweep (theta 1.7, dx 0.05) the domains
of 640, 1,280, 2,560 and 5,120 nodes take s = 1, 1.375, 1.375 and 1.25,
with ``m_up`` 1,942, 426, 433 and 581 nodes where s = 1 needs about
2,000.  Off the flat piece every slope a
run can hold has one sign, so the upwind flux reads one neighbour only
and an error from the downwind edge reaches x = 0 only by diffusion,
against a drift of at least ``dt inf|G'| / dx`` nodes a step: that side
keeps the lesser of a constant margin and the upwind count.  The bound
weighs the row of x = 0, carried back through the window's own stages,
by an exponential weight, the reflection at the window's far Neumann
end included, so every stop is within a certified bound (below 1e-16
while the slopes stay in the a-priori range) of a fresh run on the
whole domain, and the same run bit for bit while no window shrinks.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .environment import (_MAX_NODES, EnvRealization, _locate, _pmap,
                          sample_many, write_csv)
from .errors import ConfigError, StabilityError, WindowError

__all__ = [
    "SchemeConfig",
    "EvolveResult",
    "SweepResult",
    "godunov_flux",
    "cfl_gradient_range",
    "stable_dt",
    "diffusion_solver",
    "evolve",
    "sweep_ladder",
    "homogenize_sweep",
    "save_sweep",
]

# hyperbolic CFL bound of the explicit stage; stable_dt steps right at it
_CFL_MAX = 0.9
# a trimmed march certifies |u(T, 0) - u_fresh(T, 0)| below this
_TRIM_TOL = 1e-16
# a march moves to a smaller window once it needs less than this share
_TRIM_SHRINK = 0.85
# closing rates, in nodes a step, of the upwind side that a march plans
# with (``_Lane``), 1 among them; eighths, so ``s * steps`` is exact
_TRIM_RATES = (1.0, 1.125, 1.25, 1.375, 1.5, 1.75, 2.0)
# the plan charges each new window, which starts an evolve call, this
# many steps on it.  A call's set-up took 0.3-0.75 ms (5-7 steps) on a
# 2-vCPU Xeon; on the benchmark sweep any charge from 0 to 60 timed the
# same, and 30 keeps the calls at 36 (45 at 0)
_WINDOW_STEPS = 30
# a sweep is refused past this untrimmed work, ceil(T / dt) steps on its
# last doubled domain: about 100 s of evolve at 10 ns a node step, where
# the benchmark sweep takes 2.9e7 node steps and the largest tested 1.1e8
_MAX_NODE_STEPS = 1e10


# ============================================================
# Scheme configuration
# ============================================================

@dataclass(frozen=True)
class SchemeConfig:
    """Grid and ghost slope for one evolve run.

    Every run closes its grid with the ghosts ``u[0] - theta dx`` and
    ``u[n] + theta dx``, which keep the step monotone at the end nodes
    too; ``theta`` also feeds the CFL gradient range.
    """

    dx: float
    dt: float
    M: float
    T: float
    theta: float

    def __post_init__(self):
        for name in ("dx", "dt", "M", "T"):
            val = getattr(self, name)
            if not (isinstance(val, (int, float))
                    and not isinstance(val, bool)
                    and math.isfinite(val) and val > 0):
                raise ConfigError(f"{name} must be a positive number, got {val}")
        n = self.M / self.dx
        if abs(n - round(n)) > 1e-9 * max(1.0, n):
            raise ConfigError(
                f"M = {self.M} must be a whole number of grid steps "
                f"(dx = {self.dx}) so x = 0 lands on a node")


def cfl_gradient_range(G, beta: float, theta: float) -> tuple[float, float]:
    """A-priori slope range of a run from linear data with slope theta.

    The scheme is monotone and commutes with constants, so its discrete
    u_t stays within its range at t = 0, ``G(theta) + beta V`` in
    ``[G(theta), G(theta) + beta]``.  Where ``a u''`` is small, the level
    ``G(u') = u_t - beta V - a u''`` then lies in
    ``[G(theta) - beta, G(theta) + beta]``, and the slopes in that band's
    branch bracket: ``[G2^-1(G(theta) - beta), G2^-1(G(theta) + beta)]``
    for theta > 0 with ``G(theta) >= beta``, its mirror on branch 1 for
    theta < 0, and both branches at ``G(theta) + beta`` when
    ``G(theta) < beta`` (the flat piece and its neighbourhood).  Nothing
    bounds ``a u''`` here, so the range is not certified: it chooses dt,
    and ``evolve`` checks every step whose slopes leave it.
    """
    beta = float(beta)
    with np.errstate(over="ignore"):  # an overflowing G(theta) is inf
        g = float(G(theta))
    top = g + beta
    if g < beta:
        return G.branch_inverse(1, top), G.branch_inverse(2, top)
    if theta > 0:
        return G.branch_inverse(2, g - beta), G.branch_inverse(2, top)
    return G.branch_inverse(1, top), G.branch_inverse(1, g - beta)


def stable_dt(G, beta: float, theta: float, dx: float) -> float:
    """Largest dt with ``dt kappa / dx <= _CFL_MAX``: ``_CFL_MAX dx / kappa``.

    kappa is the Lipschitz constant of G on ``cfl_gradient_range``.  The
    bound reads nothing of the medium: a(x) enters only the implicit
    stage, and V only the source.  The range is not certified, so this
    step is monotone as long as the slopes stay in it; ``evolve``
    certifies each step that leaves it, and raises if that step is not
    monotone.  A range on which G is flat (one point, as at beta = 0 and
    theta = 0) gives no step: ``ConfigError``, so the caller sets dt.  So
    does a range on which G has no finite Lipschitz constant, where the
    step would be 0.
    """
    p_range = cfl_gradient_range(G, beta, theta)
    kappa = G.lipschitz_on(p_range)
    if not kappa > 0.0:
        raise ConfigError(f"G is flat on the slope range {p_range}: "
                          "no CFL step, set dt")
    if not math.isfinite(kappa):
        raise ConfigError(f"G has no finite Lipschitz constant on the slope "
                          f"range {p_range}: no CFL step")
    return _CFL_MAX * dx / kappa


def _steps_to(T: float, dt: float) -> tuple[int, float]:
    """Whole steps of ``dt`` to T, ``floor(T/dt + 1e-9)``, and the tail
    step to T, 0 where it is at or below ``1e-12 T``."""
    whole = int(math.floor(T / dt + 1e-9))
    tail = T - whole * dt
    return whole, (tail if tail > 1e-12 * T else 0.0)


# ============================================================
# Upwind flux
# ============================================================

def godunov_flux(G, p_minus, p_plus, out=None, *, p_range=None, g0=None):
    """Upwind flux for u_t = G(u_x), G quasiconvex with minimum at 0.

    max(G1(min(p-, 0)), G2(max(p+, 0))): each side contributes only the
    slope pointing into its characteristic direction, so the assembled
    scheme is nondecreasing in both neighbor values.  ``out`` is an
    optional array buffer for the result.

    ``p_range = (lo, hi)``, bounds on every slope of both arguments, lets
    a one-signed step evaluate G once: when ``lo >= 0`` each
    ``min(p-, 0)`` is a zero (G(-0.0) is G(0.0) for every family) and the
    flux is ``max(G(0), G(p+))``, and
    when ``hi <= 0`` it is ``max(G(p-), G(0))``, the two-sided value bit
    for bit (the max keeps its argument order).  The G(0) floor stays:
    a tabulated G may have its minimum off p = 0, where G(p) < G(0) for
    small p of one sign.  ``g0`` is G(0) when the caller holds it.
    """
    lo, hi = (math.nan, math.nan) if p_range is None else p_range
    if lo >= 0.0 or hi <= 0.0:
        g0 = G(0.0) if g0 is None else g0
        out = (np.maximum(g0, G(p_plus), out=out) if lo >= 0.0
               else np.maximum(G(p_minus), g0, out=out))
    else:
        down = G(np.minimum(p_minus, 0.0))
        up = G(np.maximum(p_plus, 0.0))
        out = np.maximum(down, up, out=out)
    return float(out) if np.ndim(out) == 0 else out


# ============================================================
# Time evolution
# ============================================================

@dataclass(frozen=True)
class EvolveResult:
    """Final slice of one run plus bookkeeping.

    ``xs`` and ``u`` hold the grid nodes of every window, one after the
    other, and no ghost; ``steps`` counts the steps of the run, each of
    which steps every window.  ``cfl`` is the a-priori CFL number, on
    ``cfl_gradient_range``.  ``grad_range_seen`` is the observed
    (min D-, max D+) over all steps and windows; ``grad_excursion`` flags
    any escape from the a-priori range (the run still completes: each
    such step was checked monotone on its own slopes).  ``cfl_seen = dt
    Lip(G on grad_range_seen) / dx`` is the largest CFL number any step
    really had, at most 1.
    """

    xs: np.ndarray
    u: np.ndarray
    t: float
    steps: int
    cfl: float
    grad_range_seen: tuple[float, float]
    grad_excursion: bool
    cfl_seen: float

    def __post_init__(self):
        self.xs.setflags(write=False)
        self.u.setflags(write=False)


def _lapack_pt():
    """LAPACK's ``(dpttrf, dpttrs)``, loaded without ``scipy.linalg``.

    Importing ``scipy.linalg`` runs its package init, which pulls in
    ``scipy._lib._util`` and through it ``numpy.ma``, ``numpy.testing``,
    ``unittest`` and more: about 0.3 s and 23 MB on a 2-vCPU Xeon, where
    the extension alone takes 4 ms and 0.6 MB.  So the f2py extension
    ``scipy.linalg._flapack`` that holds the two routines is loaded from
    scipy's ``linalg`` directory by itself, under its full name, and
    registered in ``sys.modules``, where a later ``import scipy.linalg``
    finds and reuses it.  ``import scipy`` comes first, since on some
    platforms it preloads the BLAS that ``_flapack`` links against.  The
    routines are the objects ``scipy.linalg.lapack`` re-exports; when the
    extension is not found or does not load, they come from there.
    """
    name = "scipy.linalg._flapack"
    flapack = sys.modules.get(name)
    if flapack is None:
        import importlib.machinery as machinery
        import importlib.util

        import scipy

        spec = machinery.FileFinder(
            f"{scipy.__path__[0]}/linalg",
            (machinery.ExtensionFileLoader, machinery.EXTENSION_SUFFIXES),
        ).find_spec(name)
        if spec is not None:
            try:
                flapack = importlib.util.module_from_spec(spec)
                sys.modules[name] = flapack
                spec.loader.exec_module(flapack)
            except ImportError:
                sys.modules.pop(name, None)
                flapack = None
    if flapack is None:
        from scipy.linalg.lapack import dpttrf, dpttrs
        return dpttrf, dpttrs
    return flapack.dpttrf, flapack.dpttrs


def diffusion_solver(a, h: float, dx: float, ghosts=()):
    """Solver ``solve(w)`` for ``(I - h diag(a) D2) u = w`` on the run grid.

    D2 is the central second difference, closed by the linear ghosts
    ``u[0] - theta dx`` and ``u[n] + theta dx``, whose theta part the
    caller moves to the right-hand side (``-/+ h a theta / dx``).  That
    leaves end rows ``(1 + r) u[0] - r u[1]``, ``r = h a / dx**2``: a
    diagonally dominant M-matrix with an entrywise nonnegative inverse.

    Each row divided by its ``a_i`` gives diagonal ``1/a_i + 2 c`` (with
    ``1/a_i + c`` at the end rows) and off-diagonals ``-c``,
    ``c = h / dx**2``: a symmetric positive definite matrix, factored
    once here by ``dpttrf``.  ``solve`` scales ``w`` by ``1/a`` and runs
    ``dpttrs``; it overwrites ``w`` with the solution and returns it.
    Where every ``a`` is 1 the scaling is the identity, and is skipped.

    The rows listed in ``ghosts`` (none at either end) are identity rows
    coupled to nothing, and their neighbours are end rows: the system is
    block diagonal, one block per stretch of grid between ghost rows, as
    ``evolve`` lays several windows side by side.  With a zero coupling
    ``dpttrf`` subtracts ``0 * 0`` and ``dpttrs`` a finite ``b * 0``, so
    each block is solved to the bits of its own solver.
    """
    dpttrf, dpttrs = _lapack_pt()
    scale = 1.0 / np.asarray(a, dtype=np.float64)
    c = h / dx ** 2
    diag = scale + 2.0 * c
    off = np.full(scale.size - 1, -c)
    ghosts = np.asarray(ghosts, dtype=np.intp)
    ends = np.concatenate(([0, scale.size - 1], ghosts - 1, ghosts + 1))
    diag[ends] = scale[ends] + c
    scale[ghosts] = diag[ghosts] = 1.0
    off[ghosts - 1] = off[ghosts] = 0.0
    unit = bool(np.all(scale == 1.0))
    diag, off, info = dpttrf(diag, off)
    if info != 0:
        raise StabilityError(
            f"diffusion matrix is not positive definite (dpttrf info {info})")

    def solve(w):
        if not unit:
            # .T scales rows when w holds several right-hand sides as columns
            np.multiply(w.T, scale, out=w.T)
        x, _ = dpttrs(diag, off, w, overwrite_b=1)
        if x is not w:  # dpttrs copied a right-hand side it could not reuse
            w[...] = x
        return w

    return solve


def evolve(env: EnvRealization, G, beta: float, initial_data,
           scheme: SchemeConfig, *, windows=None) -> EvolveResult:
    """March the monotone scheme from t = 0 to t = scheme.T.

    The grid is laid by node index from x = 0: a window ``(left,
    right)`` holds the nodes ``x = dx j`` for ``j = -left..right``, so
    x = 0 is a node exactly and any window is an exact slice of a wider
    centred one (a trimmed ``homogenize`` window).  The default is the
    one centred window of half-width ``scheme.M``.  ``windows``, a
    sequence of such pairs, marches several in lockstep, each closed by
    its own ghosts.  They sit side by side in one array, each between
    its two ghost slots, so a step is one pass of the explicit stage over
    all of them and one block-diagonal solve (``diffusion_solver``, the
    ghost slots its identity rows); the difference between two
    neighbouring ghost slots is overwritten by a real slope before the
    flux reads it.  Every window's nodes come out bit for bit as from a
    run on that window alone, and a single window is the one-block case
    of the same loop.  ``initial_data`` is a callable evaluated on the
    grid (the windows' nodes one after the other) or an array of
    matching length.
    Ghost values extend u linearly with slope ``scheme.theta``.  Raises
    ``StabilityError`` when dt breaks the CFL bound on the a-priori range
    ``cfl_gradient_range``, when a step whose slopes on a window leave
    that range is not monotone there (``dt Lip(G) / dx > 1`` on the union
    of those slopes and the range), and on non-finite values (which, with
    every step monotone, indicate a bug rather than instability).
    """
    beta = float(beta)
    dx, dt = scheme.dx, scheme.dt
    if windows is None:
        half = int(round(scheme.M / dx))
        windows = ((half, half),)
    elif not windows or any(min(w) < 0 or sum(w) < 1 for w in windows):
        raise ConfigError(f"windows {windows} need (left, right) node "
                          "counts of at least 0 and two nodes each")
    xs = dx * np.concatenate([np.arange(-left, right + 1)
                              for left, right in windows])
    a, v = sample_many(env, xs)
    p_lo, p_hi = cfl_gradient_range(G, beta, scheme.theta)
    kappa = G.lipschitz_on((p_lo, p_hi))
    cfl = dt * kappa / dx  # of the explicit stage; diffusion adds no term
    if cfl > _CFL_MAX + 1e-12:
        raise StabilityError(
            f"CFL number {cfl:.3f} exceeds the hyperbolic bound "
            f"dt kappa / dx <= {_CFL_MAX} (kappa = {kappa:.3g}); shrink dt "
            f"below {stable_dt(G, beta, scheme.theta, dx):.3e}")

    u = np.asarray(initial_data(xs) if callable(initial_data)
                   else initial_data, dtype=np.float64)
    if u.shape != xs.shape:
        raise ConfigError(
            f"initial data has {u.shape[0] if u.ndim else 0} values for "
            f"{xs.size} grid nodes")
    if not np.all(np.isfinite(u)):
        raise StabilityError("initial data contains non-finite values")

    n_steps, dt_tail = _steps_to(scheme.T, dt)

    # window b lies in ue[g_lo[b] + 1:g_hi[b]], between its ghost slots;
    # u = ue[1:-1] holds the slots between windows as identity rows
    sizes = np.array([left + right + 1 for left, right in windows])
    g_hi = np.cumsum(sizes + 2) - 1
    g_lo = g_hi - sizes - 1
    ue = np.empty(g_hi[-1] + 1, dtype=np.float64)
    nodes = np.ones(ue.size, dtype=bool)
    nodes[g_lo] = nodes[g_hi] = False
    ue[nodes] = u
    u, inner = ue[1:-1], nodes[1:-1]
    a_u, src = np.ones(u.size), np.zeros(u.size)
    a_u[inner] = a
    src[inner] = beta * v
    theta = scheme.theta
    # each ghost slot from its end node: x - y is x + (-y) bit for bit
    slots = np.concatenate((g_lo, g_hi))
    slot_from = np.concatenate((g_lo + 1, g_hi - 1))
    slot_off = np.repeat((-theta * dx, theta * dx), sizes.size)
    # the slope between two windows' slots is replaced by the one before
    # it, the first window's high ghost slope
    joint = g_hi[:-1]
    joint_from = joint - 1
    ends = np.concatenate((g_lo, g_hi - 2))  # end nodes, indexed in u
    g0 = G(0.0)
    # one factorization per distinct step size, with its boundary terms
    implicit = {h: (diffusion_solver(a_u, h, dx, np.flatnonzero(~inner)),
                    np.concatenate((-(h * a_u[g_lo] * theta / dx),
                                    h * a_u[g_hi - 2] * theta / dx)))
                for h in {dt, dt_tail} if h > 0.0}
    seen_lo, seen_hi = math.inf, -math.inf
    lows, highs = np.empty(sizes.size), np.empty(sizes.size)

    inv_dx = 1.0 / dx
    d = np.empty(ue.size - 1, dtype=np.float64)
    flux = np.empty(u.size, dtype=np.float64)
    ue_hi, ue_lo, d_minus, d_plus = ue[1:], ue[:-1], d[:-1], d[1:]
    t, step = 0.0, 0
    total = n_steps + (1 if dt_tail > 0.0 else 0)
    while step < total:
        h = dt if step < n_steps else dt_tail
        solve, bc = implicit[h]
        ue[slots] = ue[slot_from] + slot_off
        # d[i] is D-u at node i and D+u at node i - 1
        np.subtract(ue_hi, ue_lo, out=d)
        d *= inv_dx
        d[joint] = d[joint_from]
        np.minimum.reduceat(d, g_lo, out=lows)
        np.maximum.reduceat(d, g_lo, out=highs)
        lo, hi = float(lows.min()), float(highs.max())
        if not (math.isfinite(lo) and math.isfinite(hi)):
            break  # a NaN or inf in u reaches both reductions
        seen_lo, seen_hi = min(seen_lo, lo), max(seen_hi, hi)
        if lo < p_lo or hi > p_hi:
            # the a-priori CFL does not cover this step: certify it itself,
            # on each window's own slopes
            for w_lo, w_hi in zip(lows.tolist(), highs.tolist()):
                if not (w_lo < p_lo or w_hi > p_hi):
                    continue
                kappa_step = G.lipschitz_on((min(w_lo, p_lo), max(w_hi, p_hi)))
                if h * kappa_step / dx > 1.0:
                    raise StabilityError(
                        f"step {step + 1} (t = {t:.6g}) is not monotone: its "
                        f"slopes [{w_lo:.4g}, {w_hi:.4g}] leave the a-priori "
                        f"range [{p_lo:.4g}, {p_hi:.4g}] and give dt Lip(G) "
                        f"/ dx = {h * kappa_step / dx:.3f} > 1; dt <= "
                        f"{dx / kappa_step:.3e} would have been monotone")
        # explicit stage, written into u (the flux reads d only)
        godunov_flux(G, d_minus, d_plus, out=flux, p_range=(lo, hi), g0=g0)
        flux += src
        flux *= h
        u += flux
        u[ends] += bc
        # implicit stage
        solve(u)
        t += h
        step += 1
    u = ue[nodes]
    if step < total or not np.all(np.isfinite(u)):
        raise StabilityError(
            f"non-finite values at t = {t:.6g} despite CFL "
            f"{cfl:.3f}: this is a bug, not instability")

    h_max = dt if n_steps else dt_tail
    return EvolveResult(
        xs=xs, u=u, t=t, steps=step, cfl=cfl,
        grad_range_seen=(seen_lo, seen_hi),
        grad_excursion=bool(seen_lo < p_lo or seen_hi > p_hi),
        cfl_seen=h_max * G.lipschitz_on((seen_lo, seen_hi)) / dx)


# ============================================================
# Homogenization sweep
# ============================================================

@dataclass(frozen=True)
class SweepResult:
    """epsilon ladder versus the effective prediction at one slope.

    ``values[i]`` is eps * u_theta(1/eps, 0) on the base domain;
    ``domain_sensitivity[i]`` is its change when the domain half-width
    doubles -- the honest surrogate for boundary error.  ``steps`` is
    the number of steps marched, one march per distinct domain, summed
    over the domains: the domains march in lockstep, so ``evolve`` runs
    fewer steps, each of which steps several domains.
    ``reference`` is the prediction the sweep was given, stored as is.
    ``cfl`` is the a-priori CFL number of the step, on
    ``cfl_gradient_range``, as in ``EvolveResult``.
    ``grad_range_seen``, ``cfl_seen`` and ``node_steps`` are taken over
    the sweep's ``evolve`` calls: the hull of their ``grad_range_seen``
    (the range ``grad_excursion`` tests), the largest of their
    ``cfl_seen`` and the sum of their ``steps * xs.size``.
    ``trim_bound`` is the largest certified
    ``|u(T, 0) - u_fresh(T, 0)|`` of a march whose window shrank (0 when
    none did).  ``trim_margins`` is ``(m_up, m_dn)``, the largest margins
    in nodes of the upwind and downwind sides over the marches
    (``_march``), with ``m_dn`` None when the a-priori slopes can change
    sign, so that every march takes ``m_up`` on both sides.
    ``trim_plan`` holds one ``(n, s, m_up, m_dn)`` per march, in the
    order of the ladder: its half-width in nodes, the closing rate of
    its upwind side and its margins at that rate (``_Lane``).
    """

    theta: float
    epsilons: np.ndarray
    values: np.ndarray
    reference: float
    domain_sensitivity: np.ndarray
    grad_excursion: bool = False
    steps: int = 0
    grad_range_seen: tuple[float, float] | None = None
    node_steps: int = 0
    trim_bound: float = 0.0
    cfl: float = 0.0
    cfl_seen: float = 0.0
    trim_margins: tuple[float, float | None] | None = None
    trim_plan: tuple[tuple[int, float, float, float | None], ...] = ()

    def __post_init__(self):
        if self.epsilons.size != self.values.size or \
                self.epsilons.size != self.domain_sensitivity.size:
            raise ValueError("epsilons, values, sensitivities must align")
        if np.any(np.diff(self.epsilons) >= 0):
            raise ValueError("epsilons must be strictly decreasing")
        for arr in (self.epsilons, self.values, self.domain_sensitivity):
            arr.setflags(write=False)


@functools.lru_cache(maxsize=256)
def _trim_rate(q: float, c: float, s: float = 1.0) -> float:
    """Largest lam with ``f(lam) <= 1``, by bisection (see ``_trim_margin``).

    ``f(lam) = e^(-(s - 1) lam) (1 - q + q e^-lam) / (1 - 2 c (cosh lam
    - 1))``: q is the least share of the walk that each step's explicit
    stage carries one node away from the edge, counting the edge's own
    first node a step where it closes in (upwind, ``q = 1 - d``), and
    s - 1 the further nodes a step by which it closes in (s = 1 for a
    fixed edge).  ``log f`` is convex (a sum of log-MGFs and a
    linear term), 0 at 0 with slope ``-q - (s - 1)`` there, and infinite
    where ``2 c (cosh lam - 1) = 1``, so for ``q + s > 1`` it is <= 0
    exactly on [0, lam*]; for q = 0 and s = 1 only lam = 0 qualifies.
    The bisection stops where its midpoint meets an end, since no later
    step can move either.  A march plans with a few values of s and
    domains that share ``c``, so the rates are cached.
    """
    def log_f(lam):
        den = 1.0 - 4.0 * c * math.sinh(0.5 * lam) ** 2
        if den <= 0.0:
            return math.inf
        return (math.log1p(q * math.expm1(-lam)) - math.log(den)
                - (s - 1.0) * lam)

    lo, hi = 0.0, math.acosh(1.0 + 0.5 / c)
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if log_f(mid) <= 0.0:
            lo = mid
        else:
            hi = mid
    return lo


def _trim_weights(c: float, d: float, d_min: float, k_last: int, s: float):
    """Rates and factors of the edge weights of a trimmed march.

    Returns ``weights(w) = ((lam_up, f_up), (lam_dn, f_dn))``: an edge
    that closes in by s nodes a step, m nodes out at the last step,
    holds at most ``f_up exp(-lam_up m)`` of the weight of x = 0 at each
    step, and one that stays m nodes out downwind at most ``f_dn
    exp(-lam_dn m)``, the window's far end at least w nodes from x = 0
    (``_trim_margin``).  The two rates do not depend on w and are taken
    once here; ``weights`` computes only the factors.
    """
    lam_up, lam_dn = _trim_rate(1.0 - d, c, s), _trim_rate(d_min, c)
    # the far end's losses summed over the steps, in ratio to s = 1
    ratio = (1.0 if s == 1.0
             else math.expm1(-lam_up) / math.expm1(-s * lam_up))

    def mgf(lam):
        return 1.0 / (1.0 - 4.0 * c * math.sinh(0.5 * lam) ** 2)

    mgf_up, mgf_dn = mgf(lam_up), mgf(lam_dn)

    def weights(w):
        return ((lam_up, mgf_up * (1.0 + c * math.exp(-lam_up * w) * ratio
                                   * -math.expm1(-s * lam_up * k_last))),
                (lam_dn, mgf_dn * (1.0 + k_last * (c + d_min)
                                   * math.exp(-lam_dn * w)
                                   * -math.expm1(-lam_dn))))

    return weights


def _trim_scales(env, G, theta: float, p_range, dx: float, dt: float,
                 n: int) -> tuple[float, float, float, float]:
    """``(c, d, d_min, half)`` of a march on [-n dx, n dx] over the slopes
    ``p_range``, as ``_trim_margin`` defines them: its diffusion number
    at max(a) over the domain, its CFL number, the least share moved
    away from the downwind edge (0 where ``p_range`` reaches 0), and
    ``inj / 2``."""
    p_lo, p_hi = p_range
    ends, _ = _locate(env, (-n * dx, n * dx))
    a_max = float(np.max(env.a_vals[ends[0]:ends[1] + 2]))
    kappa = G.lipschitz_on(p_range)
    d_min = (dt * G.abs_derivative_inf(p_lo, p_hi) / dx
             if p_lo > 0.0 or p_hi < 0.0 else 0.0)
    return (dt * a_max / dx ** 2, dt * kappa / dx, d_min,
            dt * (kappa + a_max / dx) * max(theta - p_lo, p_hi - theta))


def _trim_margin(scales, k_last: int, n: int, margins=None, *, s: float):
    """Margins in nodes of a trimmed march, and the bound of each side.

    ``scales`` is ``(c, d, d_min, half)`` of the march, from
    ``_trim_scales``; ``s`` is the closing rate of its upwind side.

    A march of ``k_last`` steps (``dt`` or shorter) on [-n dx, n dx]
    reads u at x = 0 only, so it may run on a window of fewer nodes, with
    linear-theta ghosts at the window's edges.  The difference e from the
    march on the whole domain then obeys ``e <- N (E e + j)``: E and N
    are the window's explicit and implicit stages linearized between the
    two runs, nonnegative with unit row sums since the step is monotone,
    and j is what an edge injects, at most ``inj / 2 = dt (kappa + max(a)
    / dx) |p - theta|`` a step, p the slope there, kappa the Lipschitz
    constant of G on the slope range ``p_range`` and max(a) over the
    domain.  So an edge adds to ``|e(T, 0)|`` at most ``inj / 2`` times
    the weight r that the row of x = 0, carried back through the steps
    after k and the N of step k, puts on that edge, summed over k.  That
    weight is bounded through ``r U / U(edge)`` for an exponential weight
    U, ``e^(lam l)`` with l the distance from x = 0 toward the edge:

    * The implicit stage: row i of ``A = I - h diag(a) D2`` maps U to
      ``U_i / M(lam)`` or more in the interior, ``M(lam) = 1 / (1 - 2 c
      (cosh lam - 1))`` and ``c = dt max(a) / dx**2``, and to U_i or more
      at the edge's own end row, where U grows outward.  At the far end
      row, where U falls outward and the Neumann row reflects weight
      inward, it loses ``c (1 - e^-lam) U_far``.  Since ``N = A^-1`` is
      nonnegative with unit row sums,
      ``N U <= M U + M c (1 - e^-lam) U_far``.
    * Upwind, or on both sides when the slopes can change sign, step k
      runs on the ``ceil(s (k_last - k)) + m_up`` nodes on that side of
      x = 0: the edge closes in by s >= 1 nodes a step, and the explicit
      stage moves at most ``d = dt kappa / dx`` of the weight toward it.
      With ``U_j = e^(lam (l - s j))`` after j steps back, which is at
      least ``e^(lam m_up)`` at the edge, each step grows ``r U_j`` by at
      most ``f(lam) = e^(-s lam) (1 - d + d e^lam) M(lam) = e^(-(s - 1)
      lam) (1 - q + q e^-lam) M(lam)``, a ``_trim_rate`` with ``q = 1 -
      d`` and this s, plus the far end's loss.  The far end is at least w
      nodes from x = 0, so j steps back it loses at most ``c (1 - e^-lam)
      e^(-lam (w + s j))``, and at ``f <= 1`` these losses sum over the
      ``k_last`` steps to at most ``c e^(-lam w) (1 - e^-lam) (1 -
      e^(-s lam k_last)) / (1 - e^(-s lam))``, which is ``c e^(-lam w)
      (1 - e^(-lam k_last))`` at s = 1.  So, with the N of step k, the
      edge's weight is at most ``M (1 + that sum) e^(-lam m_up)``.  A
      larger s closes in faster, so lam is larger and m_up smaller, on
      wider windows early in the march (``_Lane`` weighs the two).
    * Downwind, when ``p_range`` lies on one side of 0: G' has one sign
      there, so each node takes its explicit share, at least ``d_min =
      dt inf|G'| / dx``, from its upwind neighbour only, and the
      explicit stage moves weight away from the downwind edge but for
      the upwind end node, which keeps it.  That edge can stay ``m_dn``
      nodes out at every step: the fixed weight ``e^(lam l)`` grows by
      at most ``f(lam) = (1 - d_min + d_min e^-lam) M(lam)`` a step, a
      ``_trim_rate`` with ``q = d_min``, plus at most ``(c + d_min)
      (1 - e^-lam) e^(-lam w)`` from the upwind end, so the edge's
      weight is at most ``M (1 + k_last (c + d_min) (1 - e^-lam)
      e^(-lam w)) e^(-lam m_dn)``.  The explicit stage never moves the
      weight toward this edge, so an edge that closes in at the upwind
      schedule is bounded as the upwind one is: the downwind side runs
      on ``min(m_dn, ceil(s (k_last - k)) + m_up)`` nodes, and its term
      is the sum.

    A shorter tail step keeps both ``f`` at most 1.  Each term is
    ``k_last (inj / 2)`` times its weight bound, with w taken as
    ``min(n, m_up, m_dn)``, at most the far side of any window.  The two
    rates are taken once a call (``_trim_weights``), and only the
    factors for each w.
    Without ``margins``, each margin is the least that puts its term
    below ``_TRIM_TOL`` over the number of terms (three one-sided, two
    otherwise), with ``p_range`` the a-priori ``cfl_gradient_range``;
    ``m_dn`` is None when that range reaches 0.  The terms hold while
    the slopes of both runs stay in ``p_range``, so a sweep whose slopes
    leave it (``grad_excursion``) takes them again at each march's
    ``margins`` and s (``m_dn`` None for the symmetric plan), over the
    slopes of all its ``evolve`` calls too: the terms grow with the
    range; where those reach 0, ``d_min`` is 0 and the fixed downwind
    term is its ``lam = 0`` value ``k_last inj / 2``.  Returns
    ``((m_up, m_dn), (term_up, term_dn))``, with ``term_dn = term_up``
    when ``m_dn`` is None, or ``((inf, None), (0.0, 0.0))`` when no
    ``margins`` are given and ``d >= 1``: then no margin is certified
    and the march keeps its whole domain.  A term is inf when ``d > 1``.
    """
    c, d, d_min, half = scales
    if margins is None and d >= 1.0:
        return (math.inf, None), (0.0, 0.0)
    if d > 1.0:
        return margins, (math.inf, math.inf)
    weights = _trim_weights(c, d, d_min, k_last, s)

    if margins is None:
        sides = 2 if d_min > 0.0 else 1
        log_ratio = math.log(k_last * half * (sides + 1) / _TRIM_TOL)

        def least(w):
            return [max(1, math.ceil((log_ratio + math.log(factor)) / lam))
                    for lam, factor in weights(w)[:sides]]

        # no margin is below its value for a far end at infinity, so the
        # far end stays at least min(n, those) out: the margins for that
        # w are certified
        margins = least(min(n, *least(math.inf)))
        margins = (margins[0], margins[1] if sides == 2 else None)
    m_up, m_dn = margins
    (lam_up, f_up), (lam_dn, f_dn) = weights(
        min(n, m_up, n if m_dn is None else m_dn))
    term_up = k_last * half * f_up * math.exp(-lam_up * m_up)
    if m_dn is None:
        return margins, (term_up, term_up)
    return margins, (term_up, term_up + k_last * half * f_dn
                     * math.exp(-lam_dn * m_dn))


def _trim_windows(n: int, k_last: int, margins, s: float, up_right: bool):
    """The windows of a trimmed march: (first step, nodes left of x = 0,
    nodes right of it) of each.

    Step k needs ``up = min(n, ceil(s (k_last - k)) + m_up)`` nodes on
    the upwind side (the right one when ``up_right``), and the least of
    that and ``m_dn`` on the other (``up`` when ``m_dn`` is None).  A
    window lasts until the upwind side needs less than ``_TRIM_SHRINK``
    of its ``up`` nodes: from the first k with ``ceil(s (k_last - k)) <=
    room = ceil(_TRIM_SHRINK up) - 1 - m_up``, where ``k_last - k =
    floor(room / s)``.
    """
    m_up, m_dn = margins

    def window(k):
        up = min(n, math.ceil(s * (k_last - k)) + m_up)
        dn = up if m_dn is None else min(up, m_dn)
        return (k, dn, up) if up_right else (k, up, dn)

    windows = [window(0)]
    while True:
        up = windows[-1][2 if up_right else 1]
        room = math.ceil(_TRIM_SHRINK * up) - 1 - m_up
        if room < s:  # no step before k_last needs fewer nodes
            return windows
        windows.append(window(k_last - math.floor(room / s)))


def _plan_cost(windows, k_last: int) -> int:
    """What a march on ``windows`` (``_trim_windows``) costs, in node
    steps: its steps times their window's nodes, plus ``_WINDOW_STEPS``
    steps on each window after the first, the set-up of the ``evolve``
    call that the window starts."""
    ends = [k for k, _, _ in windows[1:]] + [k_last]
    return sum((end - k + (_WINDOW_STEPS if k else 0)) * (left + right + 1)
               for (k, left, right), end in zip(windows, ends))


class _Lane:
    """One domain of a lockstep march: its plan and its state.

    The plan is ``_march``'s: ``whole`` and ``tails`` of each stop, the
    closing rate ``s`` of the upwind side, the margins and their terms
    at that rate, and ``windows`` (``_trim_windows``).  Of
    ``_TRIM_RATES`` the lane takes the rate whose windows cost least
    (``_plan_cost``), the first on a tie, so it never plans more than at
    s = 1; ``cost`` is that plan's.  ``u`` lives on the current window,
    ``left`` and ``right`` nodes either side of x = 0, and ``at_zero``
    maps each stop T marched to u(T, 0).
    """

    def __init__(self, env, G, theta, p_range, dx, dt, n, stops):
        self.n, self.stops = n, stops
        self.whole, self.tails = zip(*(_steps_to(t, dt) for t in stops))
        self.k_last = k_last = self.whole[-1] + (self.tails[-1] > 0.0)
        # the upwind side is the right one when the slopes are all positive
        self.up_right = up_right = p_range[0] > 0.0
        scales = _trim_scales(env, G, theta, p_range, dx, dt, n)
        plans = []
        for s in _TRIM_RATES:
            margins, terms = _trim_margin(scales, k_last, n, s=s)
            windows = _trim_windows(n, k_last, margins, s, up_right)
            plans.append((_plan_cost(windows, k_last), s, margins, terms,
                          windows))
        (self.cost, self.s, self.margins, self.terms,
         self.windows) = min(plans, key=lambda plan: plan[0])
        self.events = {k for k, _, _ in self.windows} | set(self.whole)
        # u(0, x) = theta x on the grid evolve lays over the whole domain
        self.u = theta * (dx * (np.arange(2 * n + 1) - n))
        self.left = self.right = n
        self.at_zero = {}


def _tally(parts):
    """``(steps, node steps, least slope, largest slope, cfl_seen)`` over
    ``parts`` of that shape: the sums, the hull and the largest."""
    steps, node_steps, lo, hi, cfl_seen = zip(*parts)
    return sum(steps), sum(node_steps), min(lo), max(hi), max(cfl_seen)


def _march(env, args):
    """March u(0, x) = theta x on each domain [-n dx, n dx] once, to its
    increasing stops, every domain in lockstep.

    ``args`` is ``(G, beta, theta, scheme, domains)``, each domain a pair
    ``(n, stops)``.  The whole steps of ``_steps_to(T, dt)`` advance a
    domain's shared state, and its tail step, if any, is stepped on a
    copy: the steps of ``evolve(T)``, which takes them from the same
    rule.  Only u(T, 0) is read, so the march drops the nodes that cannot
    reach x = 0, by the margins of ``_trim_margin`` at the closing rate s
    its ``_Lane`` plans: step k needs ``min(n, ceil(s (k_last - k)) +
    m_up)`` nodes on the upwind side, ``k_last`` counting every step to
    the domain's last stop (its tail included), and the least of that
    and ``m_dn`` on the downwind side (the upwind count when the a-priori
    slopes can change sign, ``m_dn`` None).  A domain keeps one window
    until its upwind side needs less than ``_TRIM_SHRINK`` of its nodes
    there, then goes on from the slice of u on the smaller window, with
    linear-theta ghosts at its edges.
    ``evolve`` lays its grids by node index from x = 0, so each window's
    grid is an exact slice of the domain's, and while no window has
    shrunk, the march is the fresh run bit for bit.

    The domains step together.  Between two consecutive events of any
    domain (a window change or a stop's last whole step) one ``evolve``
    call steps every domain not yet past its last stop, each on its
    current window (``windows=``); each tail step is its own call on
    that domain's window.  ``evolve`` gives every window the bits of a
    run on it alone, so each domain's values are those of its own march.
    Returns the lanes, each with u(T, 0) at its stops (``at_zero``), and
    the ``_tally`` of the calls: steps times windows, steps times nodes,
    and the slopes and ``cfl_seen`` of each.
    """
    G, beta, theta, scheme, domains = args
    dx, dt = scheme.dx, scheme.dt
    p_range = cfl_gradient_range(G, beta, theta)
    lanes = [_Lane(env, G, theta, p_range, dx, dt, n, stops)
             for n, stops in domains]
    calls = []

    def run(lanes, steps, h):
        """Step ``lanes`` together; each lane's u after the steps."""
        r = evolve(env, G, beta, np.concatenate([ln.u for ln in lanes]),
                   SchemeConfig(dx=dx, dt=h, M=scheme.M, T=steps * h,
                                theta=theta),
                   windows=[(ln.left, ln.right) for ln in lanes])
        calls.append((r.steps * len(lanes), r.steps * r.xs.size,
                      *r.grad_range_seen, r.cfl_seen))
        sizes = [ln.u.size for ln in lanes]
        return np.split(r.u, np.cumsum(sizes[:-1]))

    k_prev = 0
    for k_end in sorted(set().union(*(ln.events for ln in lanes))):
        live = [ln for ln in lanes if k_end <= ln.whole[-1]]
        if k_end > k_prev:
            for ln, u in zip(live, run(live, k_end - k_prev, dt)):
                ln.u = u
        for ln in live:
            for k, new_left, new_right in ln.windows:
                if k == k_end:
                    ln.u = ln.u[ln.left - new_left:ln.left + new_right + 1]
                    ln.left, ln.right = new_left, new_right
            for t_stop, k, tail in zip(ln.stops, ln.whole, ln.tails):
                if k == k_end:
                    u = run([ln], 1, tail)[0] if tail else ln.u
                    ln.at_zero[t_stop] = float(u[ln.left])
        k_prev = k_end
    return lanes, _tally(calls)


def sweep_ladder(window, epsilons, scheme: SchemeConfig):
    """The distinct epsilons of a sweep, decreasing, and the base domain
    half-width in nodes, ``ceil(M / (eps dx))``, of each.  ``ConfigError``
    on an empty ladder, an epsilon outside (0, 1) or a last stop ``T =
    1/eps`` that needs more than ``_MAX_NODES`` steps of ``scheme.dt``
    or, on its doubled domain, more than ``_MAX_NODE_STEPS`` node steps;
    ``WindowError`` when the medium's ``window`` cannot cover the doubled
    domain at the least epsilon, so a caller can check a sweep before
    computing anything."""
    eps_arr = np.asarray(sorted(set(float(e) for e in epsilons),
                                reverse=True), dtype=np.float64)
    if eps_arr.size == 0:
        raise ConfigError("need at least one epsilon")
    if np.any(eps_arr <= 0.0) or np.any(eps_arr >= 1.0):
        raise ConfigError("epsilons must lie in (0, 1)")
    steps = 1.0 / eps_arr[-1] / scheme.dt
    if not steps <= _MAX_NODES:
        raise ConfigError(
            f"the stop T = {1.0 / eps_arr[-1]:g} needs {steps:.3g} steps of "
            f"dt = {scheme.dt:.3g}; at most {_MAX_NODES} are allowed")
    halves = [math.ceil(scheme.M / (eps * scheme.dx) - 1e-9)
              for eps in eps_arr]
    work = math.ceil(steps) * (4 * halves[-1] + 1)
    if not work <= _MAX_NODE_STEPS:
        raise ConfigError(
            f"the stop T = {1.0 / eps_arr[-1]:g} takes {work:.3g} node steps "
            f"on its doubled domain; at most {_MAX_NODE_STEPS:.0e} are allowed")
    m_widest = 2.0 * halves[-1] * scheme.dx
    if window[0] > -m_widest - scheme.dx or window[1] < m_widest + scheme.dx:
        raise WindowError(
            f"environment window {window} cannot cover the doubled "
            f"domain [-{m_widest:g}, {m_widest:g}] at eps = {eps_arr[-1]:g}")
    return eps_arr, halves


def homogenize_sweep(env: EnvRealization, G, beta: float, epsilons,
                     scheme: SchemeConfig, reference: float, *,
                     workers: int = 1) -> SweepResult:
    """Record eps * u_theta(1/eps, 0) along an epsilon ladder.

    theta is ``scheme.theta``, the slope ``evolve`` reads for its
    ghosts.  ``scheme.M`` is the half-width of the scaled domain: each
    epsilon reads [-M/eps, M/eps] at unit scale (and [-2M/eps, 2M/eps]
    for the sensitivity), evolving u(0, x) = theta x to T = 1/eps under
    ``evolve``'s linear-theta ghosts.  ``scheme.T`` belongs to
    ``evolve``, and the sweep does not read it.  Domains
    are keyed by their half-width in nodes and each is marched once,
    stopping at every T that reads it: on a halving ladder the doubled
    domain at eps is the base domain at eps/2.  Each march runs only on
    the nodes that can reach x = 0 before its last stop (``_march``), so
    a value is a fresh run's to within ``trim_bound``; when the slopes of
    the sweep's ``evolve`` calls leave the a-priori range, every march's
    terms are taken again over their hull (``_trim_margin``).  The
    marches step in lockstep, one ``evolve`` step for all of them;
    ``workers > 1`` splits the domains into that many groups, each
    marched in lockstep in a process pool.  The result does not depend
    on the grouping.
    ``reference`` is the prediction Hbar(theta) the values are
    compared with, computed elsewhere (``effective_reference``): the
    sweep only stores it, so it shares no code with what it checks.
    """
    beta = float(beta)
    theta = float(scheme.theta)
    eps_arr, halves = sweep_ladder(env.window, epsilons, scheme)

    # half-width in nodes -> its stops, increasing since eps decreases
    stops = {}
    for eps, n in zip(eps_arr, halves):
        for width in (n, 2 * n):
            stops.setdefault(width, []).append(1.0 / eps)
    # one group of domains per worker, dealt round the workers in turn
    domains = list(stops.items())
    k = max(1, min(workers, len(domains)))
    groups = [domains[i::k] for i in range(k)]
    results = _pmap(_march, env, [(G, beta, theta, scheme, g)
                                  for g in groups], k)
    steps, node_steps, lo, hi, cfl_seen = _tally(t for _, t in results)
    lanes = {ln.n: ln for group, _ in results for ln in group}
    p_lo, p_hi = cfl_gradient_range(G, beta, theta)
    excursion = lo < p_lo or hi > p_hi
    bounds = []
    for ln in lanes.values():
        terms = ln.terms
        if excursion:
            # the terms hold on the a-priori range only; over the slopes
            # seen they are larger, and cover every march
            scales = _trim_scales(env, G, theta, (min(lo, p_lo),
                                                  max(hi, p_hi)),
                                  scheme.dx, scheme.dt, ln.n)
            _, terms = _trim_margin(scales, ln.k_last, ln.n, ln.margins,
                                    s=ln.s)
        # the terms of the sides whose window shrank below n
        sides = (ln.right, ln.left) if ln.up_right else (ln.left, ln.right)
        bounds.append(sum((term for term, w in zip(terms, sides)
                           if w < ln.n), 0.0))
    values = np.array([eps * lanes[n].at_zero[1.0 / eps]
                       for eps, n in zip(eps_arr, halves)])
    doubled = np.array([eps * lanes[2 * n].at_zero[1.0 / eps]
                        for eps, n in zip(eps_arr, halves)])
    m_up, m_dn = zip(*(ln.margins for ln in lanes.values()))
    return SweepResult(theta=theta, epsilons=eps_arr, values=values,
                       reference=float(reference),
                       domain_sensitivity=np.abs(doubled - values),
                       grad_excursion=excursion, steps=steps,
                       grad_range_seen=(lo, hi), node_steps=node_steps,
                       trim_bound=max(bounds),
                       cfl=scheme.dt * G.lipschitz_on((p_lo, p_hi))
                       / scheme.dx,
                       cfl_seen=cfl_seen,
                       trim_margins=(max(m_up), max(
                           (m for m in m_dn if m is not None), default=None)),
                       trim_plan=tuple((n, lanes[n].s, *lanes[n].margins)
                                       for n in stops))


# ============================================================
# Persistence
# ============================================================

def save_sweep(result: SweepResult, path: str) -> None:
    """Write `theta,epsilon,value,reference,domain_sensitivity` rows."""
    write_csv(path, ("theta", "epsilon", "value", "reference",
                     "domain_sensitivity"),
              ((result.theta, eps, val, result.reference, ds)
               for eps, val, ds in zip(result.epsilons, result.values,
                                       result.domain_sensitivity)))

