"""Reference computations the tests compare hjlab against.

None of these runs in a command.  Each is the plain form of a quantity
the package computes another way:

* ``shoot``: one bracket-checked RK4 run with no burn-in or second
  start, the dense-step oracle for ``corrector_profile``;
* ``scheme_update``: one fully explicit Euler step of the three-point
  monotone scheme, the explicit-march oracle for ``pde.evolve``;
* ``profile_antiderivative``: the cumulative trapezoid of a corrector
  slope, the exact-solution data ``u = t lam + F``;
* ``inverse_modulus``: the upper rate of ``theta2`` in lam, from the
  branch inverse of G alone;
* ``cell_average`` and ``cell_level``: the one-cell slope average of a
  periodic medium from a dense-step ``shoot``, and the level that gives
  a slope average, by bisection;
* ``walk_tail``: the exact tail of the walk that dominates a trimmed
  march's error from its upwind or its downwind edge, by direct
  convolution, against which the Chernoff rates of ``pde._trim_rate``
  are checked;
* ``Reflected``: the mirror image ``G(-p)`` of any G family, whose
  branch 2 is G's branch 1: with a reflected medium it is the
  rightward oracle for a branch-1 (leftward) run;
* ``branch_table``, ``branch_of``, ``hbar`` and ``hbar_interval``: an
  ``EffectiveH`` read back at any slope, by linear interpolation of its
  branch rows between the flat endpoints and the grid ends;
* ``iid_interp_per_node``, ``coupled_singular_per_node`` and
  ``gauss_field_per_mark``: the media with every lattice mark hashed
  where it is read, once per node (per kernel for the Gaussian field),
  against which the generators' single hash of each mark is checked.
"""

import math

import numpy as np

from hjlab import environment
from hjlab.corrector import CorrectorProfile, _rk4_forward
from hjlab.hamiltonian import bracket
from hjlab.pde import godunov_flux


def shoot(env, G, beta: float, lam: float, branch: int,
          L: float, c: float, dx: float) -> CorrectorProfile:
    """One shooting run across the remaining window.

    Branch 2 integrates rightward from L to the window's right end,
    branch 1 leftward from L to the window's left end; the grid is
    returned in ascending order either way.  The run is *checked*
    against the invariant bracket, never clamped to it.
    """
    if lam < beta:
        raise ValueError(f"corrector level lam={lam} must be >= beta={beta}")
    p_lo, p_hi = bracket(G, branch, lam, beta)
    if not (p_lo - 1e-12 <= c <= p_hi + 1e-12):
        raise ValueError(f"start value c={c} outside branch bracket [{p_lo:g}, {p_hi:g}]")
    if branch not in (1, 2):
        raise ValueError(f"branch must be 1 or 2, got {branch}")
    xs, fs = _rk4_forward(env, G, lam, beta, L, c, env.window[branch - 1],
                          dx, p_lo, p_hi)
    if branch == 1:
        xs, fs = xs[::-1], fs[::-1]
    return CorrectorProfile(branch=branch, lam=lam, beta=beta,
                            grid=xs, f_vals=fs, burn_in=0.0,
                            cert_bound=p_hi - p_lo, rk4_steps=xs.size - 1)


def scheme_update(G, beta: float, u_left, u_center, u_right, a, v,
                  dx: float, dt: float):
    """One explicit-Euler step of the three-point monotone scheme.

    Monotone when ``dt (2 a / dx**2 + kappa / dx) <= 1``.  With ``a = 0``
    it is the explicit stage of ``evolve``, monotone when
    ``dt kappa / dx <= 1``.
    """
    lap = (u_right - 2.0 * u_center + u_left) / dx ** 2
    flux = godunov_flux(G, (u_center - u_left) / dx, (u_right - u_center) / dx)
    return u_center + dt * (a * lap + flux + beta * v)


def profile_antiderivative(profile):
    """F(x) = integral of the profile slope, pinned to F(0) = 0.

    Linear interpolation between profile nodes; clamps outside the
    profile grid (callers should cover their scheme domain).
    """
    grid = profile.grid
    f = profile.f_vals
    # cumulative trapezoid, starting at 0
    F = np.concatenate(
        ([0.0], np.cumsum(np.diff(grid) * (f[1:] + f[:-1]) / 2.0)))
    if grid[0] <= 0.0 <= grid[-1]:
        F = F - np.interp(0.0, grid, F)

    def antiderivative(x):
        return np.interp(x, grid, F)

    return antiderivative


def inverse_modulus(G, lam: float, beta: float, eps: float,
                    branch: int = 2, n: int = 2049) -> float:
    """Largest jump of the branch inverse over a level step ``eps``.

    Grid supremum of ``|G_b^{-1}(y+eps) - G_b^{-1}(y)|`` for
    ``y, y+eps`` in ``[lam-beta, lam+1]``; the matching upper rate is
    ``theta2(lam+eps) - theta2(lam) <= inverse_modulus(...)``.
    """
    eps = float(eps)
    if not 0.0 < eps <= 1.0:
        raise ValueError(f"eps must lie in (0, 1], got {eps}")
    lo = max(float(lam) - float(beta), 0.0)
    hi = float(lam) + 1.0
    ys = np.linspace(lo, hi - eps, n)
    return float(max(abs(G.branch_inverse(branch, y + eps)
                         - G.branch_inverse(branch, y)) for y in ys))


def cell_average(env, G, beta: float, lam: float, period: float = 1.0,
                 dx: float = 5e-4) -> float:
    """One-period slope average of the branch-2 corrector, periodic medium.

    A dense-step ``shoot`` from the bracket floor at the window's left
    end, averaged by the trapezoid rule over the window's last
    ``period``; the rest of the window is the burn-in.
    """
    p_lo, _ = bracket(G, 2, lam, beta)
    prof = shoot(env, G, beta, lam, 2, env.window[0], p_lo, dx)
    m = prof.grid >= env.window[1] - period - 1e-12
    return float(np.trapezoid(prof.f_vals[m], prof.grid[m]) / period)


def cell_level(env, G, beta: float, theta: float, lo: float, hi: float,
               tol: float = 1e-10) -> float:
    """Level in [lo, hi] whose ``cell_average`` is theta, by bisection.

    The average increases with the level, so [lo, hi] must straddle it.
    """
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if cell_average(env, G, beta, mid) < theta:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def walk_tail(d: float, c: float, steps: int, ms,
              closing: bool = True) -> np.ndarray:
    """``sum_k P(S_k >= m)`` over k = 1..steps, for each m in ``ms``.

    S_k sums k independent steps.  Y has the two-sided geometric law
    ``r**|j| / sqrt(1 + 4c)`` of ``(I - c D2)^-1`` on the integers, the
    implicit stage, and B is Bernoulli(d), the explicit stage moving
    weight one node.  Toward an edge that closes in (upwind), a step is
    ``B + Y - 1``: the explicit stage may move toward the edge, and -1 is
    the edge closing in.  Toward a fixed downwind edge
    (``closing=False``), a step is ``Y - B``: the explicit stage moves
    weight only away from it, with d the least share it moves.  The law
    of S_k is convolved out step by step, Y cut where ``r**|j| < 1e-30``.
    """
    r = (1.0 + 2.0 * c - math.sqrt(1.0 + 4.0 * c)) / (2.0 * c)
    cut = math.ceil(math.log(1e-30) / math.log(r))
    y = r ** np.abs(np.arange(-cut, cut + 1)) / math.sqrt(1.0 + 4.0 * c)
    # offsets -cut - 1 .. cut either way
    step = np.convolve([1.0 - d, d] if closing else [d, 1.0 - d], y)
    law, lo = np.array([1.0]), 0  # law[i] = P(S_k = lo + i)
    tails = np.zeros(len(ms))
    for _ in range(steps):
        law, lo = np.convolve(law, step), lo - cut - 1
        tails += [law[m - lo:].sum() for m in ms]
    return tails


class Reflected:
    """G(-p) for any G family, built from G's methods on the mirrored
    arguments: the branches swap, and so do the ends of every interval."""

    def __init__(self, G):
        self.G = G

    def __call__(self, p):
        return self.G(-np.asarray(p, dtype=np.float64))

    @property
    def scalar(self):
        g = self.G.scalar
        return lambda p: g(-p)

    def deriv(self, p):
        return -self.G.deriv(-np.asarray(p, dtype=np.float64))

    def branch_inverse(self, branch: int, y: float) -> float:
        return -self.G.branch_inverse(3 - branch, y)

    def lipschitz_on(self, interval) -> float:
        lo, hi = interval
        return self.G.lipschitz_on((-hi, -lo))

    def abs_derivative_inf(self, p_lo: float, p_hi: float) -> float:
        return self.G.abs_derivative_inf(-p_hi, -p_lo)


def branch_table(eff, branch: int) -> np.ndarray:
    """The rows of one branch as a float array with columns
    ``(theta, lam, lam_lo, lam_hi)``, sorted by theta."""
    rows = [(i.theta, i.lam, i.lam_lo, i.lam_hi)
            for i in eff.inversions if i.branch == branch]
    return np.array(rows, dtype=np.float64).reshape(-1, 4)


def branch_of(eff, theta: float) -> str:
    if theta > eff.endpoints[1].mean:
        return "right"
    if theta < eff.endpoints[0].mean:
        return "left"
    return "flat"


def _interp(eff, theta: float, col: int) -> float:
    side = branch_of(eff, theta)
    if side == "flat":
        return eff.flat_value
    if side == "right":
        tab = branch_table(eff, 2)
        xp = np.concatenate(([eff.endpoints[1].mean], tab[:, 0]))
        fp = np.concatenate(([eff.flat_value], tab[:, col]))
        if theta > xp[-1]:
            raise ValueError(
                f"theta={theta:g} beyond the right branch table "
                f"(max {xp[-1]:g}); rebuild with a wider grid")
    else:
        tab = branch_table(eff, 1)
        xp = np.concatenate((tab[:, 0], [eff.endpoints[0].mean]))
        fp = np.concatenate((tab[:, col], [eff.flat_value]))
        if theta < xp[0]:
            raise ValueError(
                f"theta={theta:g} beyond the left branch table "
                f"(min {xp[0]:g}); rebuild with a wider grid")
    return float(np.interp(theta, xp, fp))


def hbar(eff, theta: float) -> float:
    """Hbar(theta): flat constant inside, monotone interpolation outside."""
    return _interp(eff, float(theta), 1)


def hbar_interval(eff, theta: float) -> tuple[float, float]:
    """(lo, hi) bracket for Hbar(theta) from the safeguard brackets."""
    theta = float(theta)
    return _interp(eff, theta, 2), _interp(eff, theta, 3)


def window_walk(p: float, c: float, left: int, right: int, steps: int,
                grow=(0, 0)) -> tuple[float, float]:
    """Weight of x = 0 on each end of a trimmed march's window, exactly.

    The window runs from ``left`` nodes left of x = 0 to ``right`` right
    of it at the last step, each side ``ceil(grow j)`` nodes wider j
    steps further back (an edge that closes in ``grow`` nodes a step,
    which may be fractional).  Its explicit stage moves
    share p of each node's weight one node right, toward the upwind side,
    but for the right end node, whose upwind neighbour is a ghost; its
    implicit stage is the inverse N of ``I - h diag(a) D2`` with Neumann
    end rows, ``h a / dx**2`` varying in [c/2, c] from node to node.
    The row r of x = 0, carried back as ``r <- r N E``, puts ``(r N)``
    on an end at each step; returns the sums over ``steps`` steps on the
    left end and the right end.
    """
    r, weights = np.zeros(left + right + 1), np.zeros(2)
    r[left] = 1.0
    lo, hi = left, right
    for j in range(steps):
        wider = left + math.ceil(j * grow[0]), right + math.ceil(j * grow[1])
        r = np.pad(r, (wider[0] - lo, wider[1] - hi))
        lo, hi = wider
        cj = c * (0.75 + 0.25 * np.cos(np.arange(-lo, hi + 1)))
        a = (np.diag(1.0 + 2.0 * cj) - np.diag(cj[1:], -1)
             - np.diag(cj[:-1], 1))
        a[0, 0], a[-1, -1] = 1.0 + cj[0], 1.0 + cj[-1]
        rn = np.linalg.solve(a.T, r)
        weights += rn[0], rn[-1]
        r = (1.0 - p) * rn
        r[1:] += p * rn[:-1]
        r[-1] += p * rn[-1]
    return tuple(weights)


def iid_interp_per_node(seed: int, xs, phase=None) -> np.ndarray:
    """The ``iid-interp`` potential, each node hashing both its marks."""
    ph = (environment._phase(seed, environment._STREAM_PHASE)
          if phase is None else float(phase))
    t = xs - ph
    m = np.floor(t).astype(np.int64)
    w = t - m
    v0 = environment._lattice_uniform(seed, m, environment._STREAM_V)
    v1 = environment._lattice_uniform(seed, m + 1, environment._STREAM_V)
    return (1.0 - w) * v0 + w * v1


def coupled_singular_per_node(seed: int, xs, width: float = 0.35,
                              dpow: float = 2.0, phase=None):
    """The ``coupled-singular`` (a, V), each node hashing its mark."""
    ph = (environment._phase(seed, environment._STREAM_CS_PHASE)
          if phase is None else float(phase))
    m = np.round(xs - ph).astype(np.int64)
    d = environment._lattice_uniform(seed, m,
                                     environment._STREAM_DEPTH) ** dpow
    b = environment._bump((xs - ph - m) / width)
    return 1.0 - (1.0 - d) * b, (1.0 - d) * b


def gauss_field_per_mark(seed: int, stream: int, phase_stream: int,
                         ell: float, phase, xs) -> np.ndarray:
    """The moving average of ``gauss-squash``, one normal drawn per kernel."""
    h0 = ell / 4.0
    ph = (environment._phase(seed, phase_stream)
          if phase is None else float(phase)) * h0
    m_lo = int(math.floor((xs[0] - ph - ell) / h0))
    m_hi = int(math.ceil((xs[-1] - ph + ell) / h0))
    z = np.zeros_like(xs)
    x0, dx = xs[0], xs[1] - xs[0]
    for m in range(m_lo, m_hi + 1):
        center = m * h0 + ph
        i0 = max(0, int(math.ceil((center - ell - x0) / dx)))
        i1 = min(xs.size, int(math.floor((center + ell - x0) / dx)) + 1)
        if i0 < i1:
            xi = environment._lattice_normal(seed, np.array([m]), stream)[0]
            z[i0:i1] += xi * environment._bump((xs[i0:i1] - center) / ell)
    return z
