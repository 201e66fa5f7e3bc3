"""Effective Hamiltonian assembly: branch inversion and the flat piece.

The homogenized equation reads ``du/dt = Hbar(du/dx)``.  In a medium
whose potential keeps returning to near-maximal stretches, Hbar has two
strictly monotone branches -- obtained by inverting the slope averages
``lam -> theta_i(lam)`` of the one-sided correctors -- joined by an
exactly flat piece at height ``beta`` on ``(theta1(beta), theta2(beta))``.

Slope averages carry Monte Carlo error, so the inversion matches the
slope with its tolerance measured in theta (the observable we actually
estimate).  It runs a safeguarded Newton iteration on the level: each
slope estimate also returns the exact derivative ``dtheta/dlam`` of its
discrete average (a tangent-linear pass over the same shooting run),
and the iteration keeps to the a-priori bracket
``lam in [max(beta, G(theta)), G(theta) + beta]``, falling back to
bisection whenever a Newton step would leave it.  It starts at the
branch endpoint's offset carried over to theta: ``Hbar - G`` is exactly
``beta - G(theta_i(beta))`` at the endpoint and moves little along the
branch, so the first level ``G(theta) + beta - G(theta_i(beta))`` is
usually accepted as it stands.  Every returned level comes with that
safeguard bracket ``[lam_lo, lam_hi]`` as narrowed at acceptance.

Disorder-free (constant) media are special-cased throughout: their
correctors are constants, so every inversion is the closed form
``lam = G(theta) + beta*v0`` and the flat piece degenerates to the
single slope 0 at height ``beta*v0``.  The general path cannot stand
in for them when v0 < 1: its level bracket and its flat level beta
assume sup V = 1, and at v0 = 1 both endpoints are 0, which its
side-of-0 check rejects.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .corrector import ThetaEstimate, _monotone_on_window, estimate_theta
from .environment import EnvRealization, _pmap, write_csv
from .errors import (CertificateError, ConfigError, FlatPieceError,
                     ScientificError)

__all__ = [
    "LambdaInversion",
    "EffectiveH",
    "invert_theta",
    "build_effective_H",
    "effective_reference",
    "kappa_tilde",
    "save_effective",
    "save_theta_curve",
]

# levels one inversion may measure before it gives up
_MAX_EVALS = 200
# enclosure tolerances of the row estimates and of the lam = beta ones,
# which merge only across hills: loose, to keep the window modest
_PROFILE_TOL = 1e-6
_ENDPOINT_TOL = 1e-2
# multiples of the command step a slope estimate (a row level or a
# lam = beta endpoint) is shot at, largest first; the last is the
# command step itself, where no bar gate applies
ROW_STEP_FACTORS = (4, 2, 1)
# an estimate at a coarser step stands when its step-doubling bar is at
# most this fraction of the theta tolerance
_ROW_BAR_FRACTION = 0.05


@dataclass(frozen=True)
class LambdaInversion:
    """One inverted level: theta_hat(lam) matched the target slope.

    ``[lam_lo, lam_hi]`` is the safeguard bracket at acceptance;
    ``theta_at_lam`` and ``ci`` are the final slope estimate and its
    batch-means half-width, ``dtheta_dlam`` and ``dtheta_ci`` the
    derivative of that estimate in lam and its half-width (None where
    no tangent was computed, as for a reused endpoint), and
    ``disc_bound`` its step-doubling bar (0 on constant media, where
    the level is exact).  ``dx`` is the step that estimate was shot at
    (None on constant media).  ``n_evals`` counts slope estimates spent,
    those rejected at a coarser step included, and ``rk4_steps`` their
    RK4 steps.  A reused endpoint estimate counts toward neither.
    """

    branch: int
    theta: float
    lam: float
    lam_lo: float
    lam_hi: float
    theta_at_lam: float
    ci: float
    n_evals: int
    rk4_steps: int = 0
    dtheta_dlam: float | None = None
    dtheta_ci: float | None = None
    disc_bound: float | None = None
    dx: float | None = None


@dataclass(frozen=True)
class EffectiveH:
    """Piecewise effective Hamiltonian: monotone branches + flat piece.

    ``endpoints`` are the flat endpoints theta_1(beta) and theta_2(beta),
    as the slope estimates at lam = beta they were read from, each with
    its ci, step-doubling bar and the step it settled on.  On constant
    media both are the exact slope 0 at ``flat_value`` (no window, ci and
    bar 0, ``dx`` None).  ``inversions`` holds each branch row once, as
    its ``LambdaInversion`` (branch 1, then branch 2, each in theta
    order).  ``flat_thetas`` are the grid slopes on the flat piece, at
    ``flat_value``: ``beta`` for random media (whose potential sup is 1),
    ``beta*v0`` for constant media.  That value is exact; only the
    endpoints are statistical.

    ``n_evals`` and ``rk4_steps`` sum up the work of the build: slope
    estimates of the inversions, and RK4 steps of the endpoint estimates
    (rejected attempts included) and the inversions.
    """

    beta: float
    endpoints: tuple[ThetaEstimate, ThetaEstimate]
    flat_thetas: np.ndarray
    flat_value: float
    n_evals: int = 0
    rk4_steps: int = 0
    inversions: tuple[LambdaInversion, ...] = ()

    def __post_init__(self):
        self.flat_thetas.setflags(write=False)


# ============================================================
# Rate-bound constant (a pure function of G)
# ============================================================

def kappa_tilde(G, lam: float, beta: float, branch: int = 2) -> float:
    """Branch Lipschitz constant controlling how slowly theta moves.

    Taken on the slope interval that the corrector plus a unit of extra
    level can reach: for branch 2 this is
    ``[G2^{-1}(lam-beta), G2^{-1}(lam+1)]``.  Along the branch,
    ``theta2(lam+e) - theta2(lam) >= e / kappa_tilde``.
    """
    lam = float(lam)
    y_lo = max(lam - float(beta), 0.0)
    if branch == 2:
        iv = (G.branch_inverse(2, y_lo), G.branch_inverse(2, lam + 1.0))
    elif branch == 1:
        iv = (G.branch_inverse(1, lam + 1.0), G.branch_inverse(1, y_lo))
    else:
        raise ValueError(f"branch must be 1 or 2, got {branch}")
    return float(G.lipschitz_on(iv))


# ============================================================
# Slope estimates, the levels that rest on them, and the step ladder
# ============================================================

def _exact(G, beta: float, lam: float, theta: float,
           branch: int) -> ThetaEstimate:
    """The exact slope ``theta`` of a constant corrector at level ``lam``:
    no window, ci or bar, and theta'(lam) = 1 / G'(theta)."""
    dG = float(G.deriv(theta))
    return ThetaEstimate(branch=branch, lam=lam, beta=beta, mean=float(theta),
                         ci_halfwidth=0.0, window_length=0.0, cert_bound=0.0,
                         dtheta_dlam=1.0 / dG if dG != 0.0 else math.inf,
                         dtheta_ci=0.0, disc_bound=0.0)


def _inversion(theta: float, est: ThetaEstimate, lo: float, hi: float,
               spent=()) -> LambdaInversion:
    """The level ``est.lam``, with safeguard bracket ``[lo, hi]``, matched
    to ``theta`` on the estimate ``est``; ``spent`` are those it cost."""
    return LambdaInversion(branch=est.branch, theta=theta, lam=est.lam,
                           lam_lo=lo, lam_hi=hi, theta_at_lam=est.mean,
                           ci=est.ci_halfwidth, n_evals=len(spent),
                           rk4_steps=sum(e.rk4_steps for e in spent),
                           dtheta_dlam=est.dtheta_dlam,
                           dtheta_ci=est.dtheta_ci,
                           disc_bound=est.disc_bound, dx=est.dx)


def _on_ladder(env: EnvRealization, G, beta: float, lam: float, branch: int,
               steps: list[float], ests: list[ThetaEstimate], fits, *,
               X: float, enclose: float,
               tangent: bool = False) -> ThetaEstimate:
    """Slope estimate at ``lam`` on the coarsest step of ``steps`` that
    stands.

    ``steps`` are the steps still open, largest first.  A step before
    the last stands when it keeps every RK4 step monotone at ``lam``
    (with max(1/a) over the whole window, as in ``choose_dx``) and its
    estimate ``fits``; otherwise, or when that attempt raises (its
    doubled run leaving the bracket, say), the step is dropped from
    ``steps`` and the next one is tried.  The last step takes its
    estimate as it comes.  Every estimate made, rejected ones included,
    is appended to ``ests``.
    """
    def shoot() -> ThetaEstimate:
        est = estimate_theta(env, G, beta, lam, branch, X=X, tol=enclose,
                             dx=steps[0], tangent=tangent)
        ests.append(est)
        return est

    while len(steps) > 1:
        try:
            if _monotone_on_window(env, G, beta, [(branch, lam)], steps[0]):
                est = shoot()
                if fits(est):
                    return est
        except ScientificError:
            pass
        del steps[0]
    return shoot()


def _endpoint(env: EnvRealization, G, beta: float, branch: int, tol: float,
              *, X: float, dx: float) -> tuple[ThetaEstimate, int]:
    """The flat endpoint theta_branch(beta) on the step ladder, and the
    RK4 steps of every attempt it took.

    It gates on the step-doubling bar alone (at most ``0.05 tol``): its
    ci does not shrink with the step.  The flat piece straddles 0, so an
    endpoint on the wrong side of 0 raises ``CertificateError``.
    """
    ests: list[ThetaEstimate] = []
    est = _on_ladder(env, G, beta, beta, branch,
                     [k * dx for k in ROW_STEP_FACTORS], ests,
                     lambda e: e.disc_bound <= _ROW_BAR_FRACTION * tol,
                     X=X, enclose=_ENDPOINT_TOL)
    if not (1.0 if branch == 2 else -1.0) * est.mean > 0.0:
        raise CertificateError(
            f"flat endpoint theta{branch}(beta) = {est.mean:.6g} is on the "
            f"wrong side of 0: the flat piece straddles 0")
    return est, sum(e.rk4_steps for e in ests)


# ============================================================
# Branch inversion
# ============================================================

def _invert_constant(env: EnvRealization, G, beta: float, theta: float,
                     branch: int) -> LambdaInversion:
    if (1.0 if branch == 2 else -1.0) * theta < 0.0:
        raise FlatPieceError(
            f"theta={theta:g} is on the wrong side of the degenerate flat "
            f"point 0 for branch {branch}")
    # the corrector is the constant G_b^-1(lam - beta v0)
    lam = float(G(theta)) + beta * float(env.v_vals[0])
    return _inversion(theta, _exact(G, beta, lam, theta, branch), lam, lam)


def invert_theta(env: EnvRealization, G, beta: float, theta: float,
                 branch: int, tol: float, *, X: float = 500.0,
                 dx: float = 0.01,
                 endpoint: ThetaEstimate | None = None) -> LambdaInversion:
    """Level lam on the requested branch with theta_branch(lam) = theta.

    Safeguarded Newton iteration on lam, with the stopping rule measured
    in theta: accept a level once |theta_hat(lam) - theta| <= tol.  Each
    slope estimate carries the exact derivative of its discrete average
    in lam (``estimate_theta(..., tangent=True)``), which gives the
    Newton step.  Slopes lie in the invariant bracket
    ``[G_b^-1(lam - beta), G_b^-1(lam)]``, so the level sits in
    ``[max(beta, G(theta)), G(theta) + beta]``.  The iteration starts at
    ``G(theta) + beta - G(endpoint.mean)``, the endpoint's offset
    ``Hbar - G`` carried over to theta and clipped into that bracket (at
    theta = endpoint.mean it is beta, the level there).  It narrows the
    bracket with every estimate (the map is monotone) and bisects
    whenever a Newton step would leave it, except that a step past an
    upper end not yet measured measures that end.  When the estimate at
    the upper end falls short of theta by more than tol, the bracket
    moves up by beta (keeping its width at most beta) until it does
    not.  If the bracket collapses to rounding first, the last estimate
    is accepted only when its mismatch is within tol plus its ci.

    Each level is measured on the step ladder: the largest step of
    ``ROW_STEP_FACTORS`` times ``dx`` (4, 2 and 1 times) that keeps
    every RK4 step monotone at that level, with max(1/a) over the whole
    window as in ``choose_dx``.  An estimate at a coarser step than
    ``dx`` stands when its step-doubling bar is at most ``0.05 tol``
    and its ci at most tol; otherwise, or when that attempt raises (its
    doubled run leaving the bracket, say), the level is measured again
    at half the step.  The row keeps the step it settles on for its
    later levels.  At ``dx`` itself the estimate is taken as it comes,
    and a ci above tol raises.  A row estimate only decides acceptance
    and the Newton step, so its bar at the coarser step is all it must
    answer for.

    The slope must sit at or beyond the flat endpoint theta_branch(beta)
    (up to the endpoint's ci); strictly inside the flat piece there is
    no preimage and the caller should use the flat value instead.  At
    the endpoint the inversion is the endpoint estimate itself, with
    its own step as ``dx``.

    ``endpoint`` lets callers reuse a lam=beta estimate across many
    inversions; when omitted it is computed here on the same ladder,
    with ``_ENDPOINT_TOL`` as the enclosure tolerance and the bar alone
    as the gate (its ci does not shrink with the step); one on the
    wrong side of 0 raises ``CertificateError``.
    """
    beta = float(beta)
    theta = float(theta)
    tol = float(tol)
    if branch not in (1, 2):
        raise ValueError(f"branch must be 1 or 2, got {branch}")
    if beta <= 0.0:
        raise ValueError(f"beta must be positive, got {beta}")
    if tol <= 0.0:
        raise ValueError(f"tol must be positive, got {tol}")
    if env.kind == "constant":
        return _invert_constant(env, G, beta, theta, branch)

    s = 1.0 if branch == 2 else -1.0
    if endpoint is None:
        endpoint, _ = _endpoint(env, G, beta, branch, tol, X=X, dx=dx)
    if endpoint.branch != branch or endpoint.lam != beta:
        raise ValueError("endpoint estimate must be this branch at lam = beta")
    if s * theta < s * endpoint.mean - endpoint.ci_halfwidth:
        raise FlatPieceError(
            f"theta={theta:g} lies inside the flat piece (branch-{branch} "
            f"endpoint {endpoint.mean:.6g} +/- {endpoint.ci_halfwidth:.2g}); "
            f"Hbar = beta there")
    if s * theta <= s * endpoint.mean:
        # at (or a ci-hair below) the endpoint: the level is beta itself
        if endpoint.ci_halfwidth > tol:
            raise CertificateError(
                f"endpoint ci {endpoint.ci_halfwidth:.3g} exceeds the "
                f"requested theta tolerance {tol:.3g}: grow X")
        return _inversion(theta, endpoint, beta, beta)

    ests: list[ThetaEstimate] = []  # every estimate, rejected ones included
    levels: list[float] = []
    # the steps still open to this row, largest first
    steps = [k * dx for k in ROW_STEP_FACTORS]

    def fits(est: ThetaEstimate) -> bool:
        return (est.ci_halfwidth <= tol
                and est.disc_bound <= _ROW_BAR_FRACTION * tol)

    def measure(lam: float) -> ThetaEstimate:
        if len(levels) >= _MAX_EVALS:
            raise CertificateError(
                f"inversion exceeded {_MAX_EVALS} levels")
        levels.append(lam)
        est = _on_ladder(env, G, beta, lam, branch, steps, ests, fits, X=X,
                         enclose=_PROFILE_TOL, tangent=True)
        if est.ci_halfwidth > tol:
            raise CertificateError(
                f"batch-means ci {est.ci_halfwidth:.3g} at lam={lam:.6g} "
                f"exceeds the requested theta tolerance {tol:.3g}: grow X")
        return est

    # slopes at level lam lie in [G_b^-1(lam - beta), G_b^-1(lam)]
    g_theta = float(G(theta))
    lo, hi = max(beta, g_theta), beta + max(g_theta, tol)
    # the offset Hbar - G is exactly beta at the endpoint: carry it over
    lam = min(max(g_theta + beta - float(G(endpoint.mean)), lo), hi)
    est = measure(lam)
    hi_measured = False
    while True:
        if abs(est.mean - theta) <= tol:
            return _inversion(theta, est, lo, hi, ests)
        if s * est.mean < s * theta:
            if lam == hi:
                # the upper end itself falls short: move the bracket up
                lo, hi = hi, hi + beta
                lam, est = hi, measure(hi)
                continue
            lo = lam
        else:
            hi, hi_measured = lam, True
        if hi - lo <= 1e-12 * max(1.0, hi):
            break
        # Newton step; measure the upper end first when the step leaves
        # the bracket upward, and bisect when it leaves it otherwise or
        # the slope has the wrong sign
        slope = est.dtheta_dlam
        step = lam + (theta - est.mean) / slope if s * slope > 0.0 else lo
        if step >= hi and not hi_measured:
            lam = hi
        else:
            lam = step if lo < step < hi else 0.5 * (lo + hi)
        est = measure(lam)
    # bracket collapsed to rounding before the theta tolerance was met:
    # accept only if the residual mismatch is explained by the ci
    if abs(est.mean - theta) <= tol + est.ci_halfwidth:
        return _inversion(theta, est, lo, hi, ests)
    raise CertificateError(
        f"inversion exhausted level resolution with |theta_hat - theta| = "
        f"{abs(est.mean - theta):.3g} > tol = {tol:.3g}: the slope estimate "
        f"is biased beyond its ci; grow X")


# ============================================================
# Assembly
# ============================================================

def _invert_task(env, args):
    G, beta, theta, branch, tol, X, dx, endpoint = args
    return invert_theta(env, G, beta, theta, branch, tol, X=X, dx=dx,
                        endpoint=endpoint)


def build_effective_H(env: EnvRealization, G, beta: float, theta_grid,
                      tol: float, *, X: float = 500.0, dx: float = 0.01,
                      workers: int = 1) -> EffectiveH:
    """Assemble Hbar on a slope grid: branch inversions plus the flat piece.

    Estimates the flat endpoints theta_i(beta) first (the lam = beta
    estimates are reused by every inversion), each on the rows' step
    ladder with its bar alone gated at ``0.05 tol`` (``invert_theta``),
    then inverts each grid slope strictly outside (theta1, theta2) on
    its branch.  Grid slopes inside the estimated flat interval are
    carried as flat rows at the exact flat value.  The grid must reach
    beyond both endpoints, which straddle 0, so a grid without a
    negative and a positive slope fails before any estimate.  The
    levels must certify the shape: strictly monotone on each branch,
    never below the flat value, above it at both grid ends.

    ``workers > 1`` farms the independent slope inversions out to a
    process pool; results are merged in grid order, so the output is
    identical to the sequential run.
    """
    # sorted(set(...)), not np.unique, which imports numpy.ma
    grid = np.array(sorted(set(np.asarray(theta_grid, dtype=np.float64)
                               .tolist())), dtype=np.float64)
    if grid.size == 0:
        raise ConfigError("theta grid is empty")
    if not np.all(np.isfinite(grid)):
        raise ConfigError("theta grid must be finite")
    if not grid[0] < 0.0 < grid[-1]:
        raise ConfigError("theta grid needs a negative and a positive "
                          "slope: the flat piece straddles 0")
    beta = float(beta)
    tol = float(tol)

    if env.kind == "constant":
        # the flat piece degenerates to the exact slope 0
        flat_value = beta * float(env.v_vals[0])
        endpoints = tuple(_exact(G, beta, flat_value, 0.0, b) for b in (1, 2))
        ep_steps = 0
    else:
        flat_value = beta
        ep2, steps2 = _endpoint(env, G, beta, 2, tol, X=X, dx=dx)
        ep1, steps1 = _endpoint(env, G, beta, 1, tol, X=X, dx=dx)
        endpoints, ep_steps = (ep1, ep2), steps1 + steps2
    t1, t2 = (ep.mean for ep in endpoints)

    left = grid[grid < t1]
    right = grid[grid > t2]
    flat = grid[(grid >= t1) & (grid <= t2)]
    if left.size == 0 or right.size == 0:
        raise ConfigError(
            f"theta grid must reach beyond both flat endpoints "
            f"({t1:.4g}, {t2:.4g})")

    tasks = [(G, beta, float(th), b, tol, X, dx, endpoints[b - 1])
             for b, side in ((1, left), (2, right)) for th in side]
    invs = _pmap(_invert_task, env, tasks, workers)

    lams1, lams2 = ([i.lam for i in invs if i.branch == k] for k in (1, 2))
    if any(b >= a for a, b in zip(lams1, lams1[1:])):
        raise CertificateError(
            "left branch table is not strictly decreasing; grow X or "
            "spread the theta grid")
    if any(b <= a for a, b in zip(lams2, lams2[1:])):
        raise CertificateError(
            "right branch table is not strictly increasing; grow X or "
            "spread the theta grid")
    if any(i.lam < flat_value - 1e-12 for i in invs):
        raise CertificateError("branch levels fell below the flat value")
    if invs[0].lam <= flat_value or invs[-1].lam <= flat_value:
        raise CertificateError(
            "branch tables do not rise above the flat value at the grid "
            "ends (coercivity check)")

    return EffectiveH(beta=beta, endpoints=endpoints, flat_thetas=flat,
                      flat_value=flat_value,
                      n_evals=sum(i.n_evals for i in invs),
                      rk4_steps=ep_steps + sum(i.rk4_steps for i in invs),
                      inversions=tuple(invs))


def effective_reference(env: EnvRealization, G, beta: float, theta: float,
                        tol: float, *, X: float = 500.0,
                        dx: float = 0.01) -> tuple[float, float]:
    """Hbar(theta) with an honest half-width, for a single slope.

    Returns ``(value, half)``: on the flat piece the value is exact and
    half = 0.  On a branch, a level increment e moves the slope by at
    least e / kappa_tilde, so matching the slope to tol + ci pins the
    level to half = kappa_tilde * (tol + ci) -- usually far tighter
    than the leftover safeguard bracket.

    Only the flat endpoint on theta's side of 0 is estimated (branch 2
    for theta >= 0): the flat piece straddles 0, so the other endpoint
    cannot decide where theta lies.  It is shot on the step ladder of
    ``invert_theta``, its bar alone gated at ``0.05 tol``, as in
    ``build_effective_H``.  An endpoint on the wrong side of 0 raises
    ``CertificateError``, as there.
    """
    value, half, _ = _reference(env, G, beta, theta, tol, X=X, dx=dx)
    return value, half


def _reference(env: EnvRealization, G, beta: float, theta: float,
               tol: float, *, X: float = 500.0,
               dx: float = 0.01) -> tuple[float, float, float]:
    """``effective_reference`` plus the step-doubling bar of the level
    (0 where the value is exact).

    The endpoint and the level's estimates are shot on the step ladder
    of ``invert_theta`` from ``dx``, gated at ``0.05 tol``.  The level
    moves by ``|G'(theta_b(beta))|`` times a move of the endpoint, whose
    mean sets the Newton start, and by a move of the row's slope over
    ``|dtheta/dlam|``; the bar is those two moves at the two bars."""
    beta = float(beta)
    theta = float(theta)
    branch = 2 if theta >= 0.0 else 1
    if env.kind == "constant":
        return _invert_constant(env, G, beta, theta, branch).lam, 0.0, 0.0
    ep, _ = _endpoint(env, G, beta, branch, tol, X=X, dx=dx)
    if abs(theta) < abs(ep.mean):  # inside the flat piece
        return beta, 0.0, 0.0
    inv = invert_theta(env, G, beta, theta, branch, tol, X=X, dx=dx,
                       endpoint=ep)
    half = kappa_tilde(G, inv.lam, beta, branch=branch) * (tol + inv.ci)
    # at the endpoint itself (no row measured) the level is beta
    row = inv.disc_bound / abs(inv.dtheta_dlam) if inv.n_evals else 0.0
    return inv.lam, half, abs(float(G.deriv(ep.mean))) * ep.disc_bound + row


# ============================================================
# Persistence
# ============================================================

def save_effective(eff: EffectiveH, path: str) -> None:
    """Write `theta,H,H_lo,H_hi,branch` rows sorted by theta."""
    rows = [(i.theta, i.lam, i.lam_lo, i.lam_hi,
             "left" if i.branch == 1 else "right") for i in eff.inversions]
    rows += [(th, eff.flat_value, eff.flat_value, eff.flat_value, "flat")
             for th in eff.flat_thetas]
    rows.sort(key=lambda r: r[0])
    write_csv(path, ("theta", "H", "H_lo", "H_hi", "branch"), rows)


def save_theta_curve(rows, path: str) -> None:
    """Write `lam,theta,ci,cert_bound,disc_bound`, one row per such tuple."""
    write_csv(path, ("lam", "theta", "ci", "cert_bound", "disc_bound"), rows)
