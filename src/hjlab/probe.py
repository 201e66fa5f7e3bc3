"""The paper's sub/supersolution constructions and their residual probes.

The flat piece of Hbar rests on glued test functions: at lam = beta,
``build_glued_profile`` joins the two one-sided correctors across a
potential hill by a bridge whose residual stays within a few delta of
beta.  ``residual_series`` evaluates a profile's residual, with or
without the decoration of a corrector candidate, and ``residual_probe``
reports its sign for a drifted glued or corrector profile; the command
line decides what a failed check means.  Neither the inversion nor the
finite-difference solver uses this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .corrector import CorrectorProfile, _rk4_forward
from .environment import (_MAX_NODES, EnvRealization, HillWitness, s_at,
                          sample_many, write_csv)
from .errors import GlueError, WindowError
from .hamiltonian import bracket

__all__ = [
    "GluedProfile",
    "SignReport",
    "find_low_slope_points",
    "build_glued_profile",
    "residual_series",
    "residual_probe",
    "save_probe",
]


@dataclass(frozen=True)
class GluedProfile:
    """Flat-piece profile: two one-sided correctors joined by a bridge.

    ``order`` is "21" (branch 2 left of branch 1, tent-shaped potential
    primitive, subsolution candidate) or "12" (the mirror construction,
    supersolution candidate).  ``residual_band`` is the observed range
    of a f' + G(f) + beta V over interior grid points.
    """

    order: str
    delta: float
    beta: float
    z1: float
    z2: float
    grid: np.ndarray
    f_vals: np.ndarray
    residual_band: tuple[float, float]

    def __post_init__(self):
        self.grid.setflags(write=False)
        self.f_vals.setflags(write=False)


@dataclass(frozen=True)
class SignReport:
    """One-sided residual check of a drifted profile."""

    kind: str
    drift: float
    min_residual: float
    max_residual: float
    tol: float
    passed: bool
    kappa: float | None = None


# ============================================================
# Flat-piece gluing
# ============================================================

def _hill_levels(G, beta: float, delta: float) -> tuple[float, float]:
    """(required hill level, required hill s-length) for gluing at delta."""
    h_req = 1.0 - delta / beta
    s_req = (G.branch_inverse(2, beta) - G.branch_inverse(1, beta)) / delta
    return h_req, s_req


def find_low_slope_points(grid: np.ndarray, f1: np.ndarray, f2: np.ndarray,
                          G, beta: float, delta: float, hill: HillWitness,
                          order: str = "21") -> tuple[float, float]:
    """Junction points (z1, z2) inside the hill where both one-sided
    corrector slopes have G-value at most 2 delta.

    ``f1`` and ``f2`` are the branch-1 and branch-2 slopes on ``grid``
    at the degenerate level lam = beta.  Points are positioned for the
    requested gluing order: z2 < z1 for "21", z1 < z2 for "12".  Every
    returned point is verified directly on the grid values.
    """
    if delta <= 0:
        raise ValueError(f"delta must be positive, got {delta}")
    if order not in ("21", "12"):
        raise ValueError(f"order must be '21' or '12', got {order!r}")
    _, s_req = _hill_levels(G, beta, delta)
    s_hill = hill.scaled_length
    if s_hill <= s_req:
        raise GlueError(
            f"hill s-length {s_hill:g} does not exceed the required "
            f"{s_req:g} = (G2^-1(beta) - G1^-1(beta)) / delta")
    lvl = 2.0 * delta
    m = (grid >= hill.L1 - 1e-12) & (grid <= hill.L2 + 1e-12)
    if not m.any():
        raise GlueError("profile does not cover the hill")

    def low_points(f, branch):
        ok = np.asarray(G(f[m])) <= lvl
        if not ok.any():
            raise GlueError(
                f"no low-slope point of branch {branch} inside the hill "
                f"(need G(f) <= {lvl:g}); hill too short for delta = {delta:g}")
        return grid[m][ok]

    low1 = low_points(f1, 1)
    low2 = low_points(f2, 2)
    if order == "21":
        z2 = float(low2[0])          # earliest along branch 2's travel
        z1 = float(low1[-1])         # earliest along branch 1's (leftward) travel
        if not z2 < z1:
            raise GlueError(
                f"low-slope points out of order for '21' (z2 = {z2:g} >= z1 = {z1:g}); "
                f"hill too short for delta = {delta:g}")
    else:
        z1 = float(low1[0])          # deepest penetration of branch 1
        z2 = float(low2[-1])         # deepest penetration of branch 2
        if not z1 < z2:
            raise GlueError(
                f"low-slope points out of order for '12' (z1 = {z1:g} >= z2 = {z2:g}); "
                f"hill too short for delta = {delta:g}")
    return z1, z2


def _hermite(t: np.ndarray, p0: float, m0: float, p1: float, m1: float):
    """Cubic Hermite value and derivative on a unit interval."""
    t2 = t * t
    t3 = t2 * t
    val = (p0 * (2 * t3 - 3 * t2 + 1) + m0 * (t3 - 2 * t2 + t)
           + p1 * (-2 * t3 + 3 * t2) + m1 * (t3 - t2))
    der = (p0 * (6 * t2 - 6 * t) + m0 * (3 * t2 - 4 * t + 1)
           + p1 * (-6 * t2 + 6 * t) + m1 * (3 * t2 - 2 * t))
    return val, der


def build_glued_profile(env: EnvRealization, G, beta: float, delta: float,
                        hill: HillWitness, region: tuple[float, float],
                        order: str = "21", dx: float = 0.01) -> GluedProfile:
    """Glue the two one-sided correctors at lam = beta across a hill.

    The profile keeps each corrector slope on its own side of the
    junctions and crosses the bracket through a bridge that is affine in
    the scaled coordinate s, with cubic Hermite blending zones of
    s-length 1 at both junctions so the result is C^1.  The bridge
    bounds G(g) <= 3 delta and -2 delta <= a g' <= delta are verified a
    posteriori; together with V >= 1 - delta/beta on the hill they pin
    the residual inside [beta - 3 delta, beta + 4 delta].
    """
    if order not in ("21", "12"):
        raise ValueError(f"order must be '21' or '12', got {order!r}")
    h_req, _ = _hill_levels(G, beta, delta)
    if hill.v_min_on_interval < h_req - 1e-12:
        raise GlueError(
            f"hill level {hill.v_min_on_interval:g} below the required "
            f"1 - delta/beta = {h_req:g}")
    R_lo, R_hi = float(region[0]), float(region[1])
    if R_lo > hill.L1 or R_hi < hill.L2:
        raise ValueError("region must contain the hill")
    if R_lo < env.window[0] - 1e-9 or R_hi > env.window[1] + 1e-9:
        raise WindowError("glue region falls outside the environment window")

    # snap the region span to a whole number of steps so the two
    # opposite-direction integrations share one node lattice
    # (clipped past _MAX_NODES, which ``_stages`` refuses, so the count
    # cannot overflow an int)
    n_span = math.ceil(min((R_hi - R_lo) / dx, _MAX_NODES + 1) - 1e-9)
    R_hi = R_lo + n_span * dx
    if R_hi > env.window[1] + 1e-9:
        raise WindowError("glue region falls outside the environment window")

    # one-sided solutions across the whole region; any bracketed solution
    # solves the equation exactly, which is all the residual needs
    p_lo2, p_hi2 = bracket(G, 2, beta, beta)
    p_lo1, p_hi1 = bracket(G, 1, beta, beta)
    xs2, fs2 = _rk4_forward(env, G, beta, beta, R_lo, 0.5 * (p_lo2 + p_hi2),
                            R_hi, dx, p_lo2, p_hi2)
    xs1, fs1 = _rk4_forward(env, G, beta, beta, R_hi, 0.5 * (p_lo1 + p_hi1),
                            R_lo, dx, p_lo1, p_hi1)
    xs1, fs1 = xs1[::-1], fs1[::-1]
    if xs1.size != xs2.size or float(np.max(np.abs(xs1 - xs2))) > 1e-9:
        raise RuntimeError("one-sided grids failed to align")
    grid = xs2

    z1, z2 = find_low_slope_points(grid, fs1, fs2, G, beta, delta, hill,
                                   order)
    z_from, z_to = (z2, z1) if order == "21" else (z1, z2)
    # junctions live on grid nodes: work with indices so the pieces, the
    # bridge endpoints, and the s-coordinates all refer to the same node
    h = float(grid[1] - grid[0])
    i_from = int(round((z_from - grid[0]) / h))
    i_to = int(round((z_to - grid[0]) / h))
    s_grid = s_at(env, grid)
    s_from = float(s_grid[i_from])
    s_to = float(s_grid[i_to])
    ds = s_to - s_from
    s_budget = (G.branch_inverse(2, 3 * delta) - G.branch_inverse(1, 3 * delta) + 1.0) / delta
    if ds <= max(s_budget, 2.0):
        raise GlueError(
            f"junction s-gap {ds:g} below the bridge budget "
            f"{max(s_budget, 2.0):g}; hill too short for delta = {delta:g}")

    f_left, f_right = (fs2, fs1) if order == "21" else (fs1, fs2)
    p_from = float(f_left[i_from])
    p_to = float(f_right[i_to])

    # ds-derivatives of the corrector pieces at the junctions (exact ODE)
    _, v_j = sample_many(env, grid[[i_from, i_to]])
    m_from = beta * (1.0 - v_j[0]) - float(G(np.array([p_from]))[0])
    m_to = beta * (1.0 - v_j[1]) - float(G(np.array([p_to]))[0])
    m_core = (p_to - p_from) / ds

    idx = np.arange(grid.size)
    g = np.where(idx <= i_from, f_left, f_right).astype(np.float64)
    mid = (idx > i_from) & (idx < i_to)
    sm = s_grid[mid]
    gm = np.empty(sm.size)
    dgm = np.empty(sm.size)  # d/ds derivatives, for the a posteriori check
    zone0 = sm <= s_from + 1.0
    zone1 = sm >= s_to - 1.0
    core = ~(zone0 | zone1)
    av0 = p_from + m_core * 1.0
    av1 = p_to - m_core * 1.0
    gm[core] = p_from + m_core * (sm[core] - s_from)
    dgm[core] = m_core
    v0, d0 = _hermite(sm[zone0] - s_from, p_from, m_from, av0, m_core)
    gm[zone0] = v0
    dgm[zone0] = d0
    v1, d1 = _hermite((sm[zone1] - (s_to - 1.0)), av1, m_core, p_to, m_to)
    gm[zone1] = v1
    dgm[zone1] = d1
    g[mid] = gm

    # a posteriori bridge bounds (the 3-delta margins absorb blending overshoot)
    slack = 1e-9
    gmax = float(np.max(G(gm))) if gm.size else 0.0
    if gmax > 3.0 * delta + slack:
        raise GlueError(
            f"bridge violates G(g) <= 3 delta: max G(g) = {gmax:g} > {3 * delta:g}")
    if dgm.size and (float(dgm.min()) < -2.0 * delta - slack
                     or float(dgm.max()) > delta + slack):
        raise GlueError(
            f"bridge violates -2 delta <= a g' <= delta: range "
            f"[{float(dgm.min()):g}, {float(dgm.max()):g}] vs [{-2 * delta:g}, {delta:g}]")

    res = residual_series(env, grid, g, G, beta)
    band = (float(res.min()), float(res.max()))
    return GluedProfile(order=order, delta=delta, beta=beta, z1=z1, z2=z2,
                        grid=grid, f_vals=g, residual_band=band)


# ============================================================
# Sub/supersolution residual probes
# ============================================================

def residual_series(env: EnvRealization, grid: np.ndarray, f_vals: np.ndarray,
                    G, beta: float, c: float = 0.0) -> np.ndarray:
    """Residual a (f' + c psi'') + G(f + c psi') + beta V at interior nodes.

    ``c`` decorates the profile with c psi, psi'(x) = (2/pi) arctan(x);
    c = 0 gives a f' + G(f) + beta V.  f' is the three-point formula on
    the actual node spacing, so a short tail step of the RK4 lattice is
    differenced correctly.
    """
    x = grid[1:-1]
    a, v = sample_many(env, x)
    df = np.gradient(f_vals, grid)[1:-1]
    psi1 = (2.0 / math.pi) * np.arctan(x)
    psi2 = (2.0 / math.pi) / (1.0 + x * x)
    return (a * (df + c * psi2) + np.asarray(G(f_vals[1:-1] + c * psi1))
            + beta * v)


def residual_probe(env: EnvRealization, G, beta: float, profile,
                   delta: float, kind: str,
                   tol: float | None = None) -> SignReport:
    """Report the sign of the smooth residual of a drifted profile.

    For a corrector profile F at level lam, the candidate is
    ``t (lam -/+ (kappa+1) delta) + F(x) -/+ delta psi(x)`` with
    psi'(x) = (2/pi) arctan(x) -- sub drifts down, super drifts up, and
    kappa is a Lipschitz constant of G on the padded slope bracket.
    For a glued flat-piece profile the candidate is undecorated:
    ``t (beta - 3 delta) + F(x)`` (sub) or ``t (beta + 4 delta) + F(x)``
    (super).  Either residual is ``residual_series`` at the candidate's
    decoration c (0, or -/+ delta) less the drift; sub requires
    min >= -tol, super requires max <= tol, and ``passed`` says whether
    it holds; a failed check is reported, not raised.  The default tol
    is ten body steps.
    """
    if kind not in ("sub", "super"):
        raise ValueError(f"kind must be 'sub' or 'super', got {kind!r}")
    delta = float(delta)
    if delta <= 0.0:
        raise ValueError(f"delta must be positive, got {delta}")
    beta = float(beta)
    if not isinstance(profile, (GluedProfile, CorrectorProfile)):
        raise ValueError(
            f"profile must be a corrector or glued profile, got "
            f"{type(profile).__name__}")
    grid = profile.grid
    f = profile.f_vals
    if tol is None:
        tol = 10.0 * (profile.dx if isinstance(profile, CorrectorProfile)
                      else float(grid[1] - grid[0]))

    if isinstance(profile, GluedProfile):
        kappa, c = None, 0.0
        drift = beta - 3.0 * delta if kind == "sub" else beta + 4.0 * delta
    else:
        p_lo, p_hi = bracket(G, profile.branch, profile.lam, profile.beta)
        kappa = float(G.lipschitz_on((p_lo - 1.0, p_hi + 1.0)))
        c = -delta if kind == "sub" else delta
        drift = profile.lam + (kappa + 1.0) * c
    r = residual_series(env, grid, f, G, beta, c) - drift

    r_min, r_max = float(r.min()), float(r.max())
    passed = r_min >= -tol if kind == "sub" else r_max <= tol
    return SignReport(kind=kind, drift=float(drift), min_residual=r_min,
                      max_residual=r_max, tol=float(tol), passed=passed,
                      kappa=kappa)


def save_probe(reports, path: str) -> None:
    """Write `kind,min_residual,max_residual,pass`, one row per report."""
    write_csv(path, ("kind", "min_residual", "max_residual", "pass"),
              ((rep.kind, rep.min_residual, rep.max_residual, rep.passed)
               for rep in reports))
