"""Quasiconvex Hamiltonians and their contraction moduli.

A Hamiltonian G here is coercive, continuous, zero at zero, strictly
decreasing on the negative half-line (branch 1) and strictly increasing
on the positive one (branch 2).  The corrector machinery needs five
things from it, all provided with closed forms for the built-in
families and guarded numerics for tabulated data:

* branch inverses, to place slope brackets;
* the elementwise derivative ``G.deriv``, for the tangent-linear
  shooting run behind ``dtheta/dlam`` (tabulated data: the slope of the
  interpolant);
* Lipschitz constants on intervals, for CFL bounds and probe slack;
* the infimum of |G'| on an interval on one side of the minimum
  (``abs_derivative_inf``), the rate of the linear monotonicity modulus
  of either branch on its bracket, which gives the corrector's first
  burn-in guess (the certificate itself is the measured two-run
  enclosure; the rate is 0 where the branch derivative vanishes, as at
  lam = beta);
* growth margins against power-type upper/lower envelopes
  (``validate_growth``).
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import CertificateError, ConfigError

__all__ = [
    "PowerG",
    "AsymPowerG",
    "LogQuasiconvexG",
    "TabulatedG",
    "make_G",
    "bracket",
    "ContractionModulus",
    "monotonicity_modulus",
    "GrowthCertificate",
    "validate_growth",
]

# ============================================================
# Families
# ============================================================

class AsymPowerG:
    """G(p) = |p|^gamma1 for p < 0 and p^gamma2 for p >= 0.

    Equal exponents take one power of |p| (``PowerG``), and both equal
    to 2 the product ``p * p``, which ``x ** 2.0`` can miss by an ulp.
    """

    def __init__(self, gamma1: float = 2.0, gamma2: float = 2.0):
        gamma1, gamma2 = float(gamma1), float(gamma2)
        # written so that a NaN fails too
        if not (1.0 < gamma1 < math.inf and 1.0 < gamma2 < math.inf):
            raise ValueError("asym-power needs both exponents finite and > 1, "
                             f"got ({gamma1}, {gamma2})")
        self.gamma1 = gamma1
        self.gamma2 = gamma2

    def __repr__(self):
        return f"AsymPowerG(gamma1={self.gamma1:g}, gamma2={self.gamma2:g})"

    def __call__(self, p):
        p = np.asarray(p, dtype=np.float64)
        g1, g2 = self.gamma1, self.gamma2
        if g1 == g2 == 2.0:
            return p * p
        ap = np.abs(p)
        if g1 == g2:
            return ap ** g1
        return np.where(p < 0, ap ** g1, ap ** g2)

    @property
    def scalar(self) -> Callable[[float], float]:
        g1, g2 = self.gamma1, self.gamma2
        if g1 == g2 == 2.0:
            return lambda p: p * p
        if g1 == g2:
            return lambda p: abs(p) ** g1
        return lambda p: (-p) ** g1 if p < 0 else p ** g2

    def deriv(self, p):
        p = np.asarray(p, dtype=np.float64)
        g1, g2 = self.gamma1, self.gamma2
        if g1 == g2 == 2.0:
            return 2.0 * p
        ap = np.abs(p)
        if g1 == g2:
            return g1 * np.sign(p) * ap ** (g1 - 1.0)
        return np.where(p < 0, -g1 * ap ** (g1 - 1.0), g2 * ap ** (g2 - 1.0))

    def branch_inverse(self, branch: int, y: float) -> float:
        y = _checked_level(y)
        if branch == 2:
            return y ** (1.0 / self.gamma2)
        return -(y ** (1.0 / self.gamma1))

    def lipschitz_on(self, interval) -> float:
        lo, hi = interval
        out = 0.0
        if lo < 0:
            out = self.gamma1 * _power(abs(lo), self.gamma1 - 1.0)
        if hi > 0:
            out = max(out, self.gamma2 * _power(hi, self.gamma2 - 1.0))
        return out

    def abs_derivative_inf(self, p_lo: float, p_hi: float) -> float:
        if p_lo < 0:
            return self.gamma1 * abs(p_hi) ** (self.gamma1 - 1.0)
        return self.gamma2 * p_lo ** (self.gamma2 - 1.0)


class PowerG(AsymPowerG):
    """G(p) = |p|^gamma with gamma > 1: ``AsymPowerG(gamma, gamma)``."""

    def __init__(self, gamma: float = 2.0):
        self.gamma = float(gamma)
        # written so that a NaN fails too
        if not 1.0 < self.gamma < math.inf:
            raise ValueError("power family needs gamma > 1 and finite, "
                             f"got {self.gamma}")
        super().__init__(self.gamma, self.gamma)

    def __repr__(self):
        return f"PowerG(gamma={self.gamma:g})"


class LogQuasiconvexG:
    """G(p) = log(1 + p^2): strictly quasiconvex but nowhere convex at scale."""

    def __repr__(self):
        return "LogQuasiconvexG()"

    def __call__(self, p):
        p = np.asarray(p, dtype=np.float64)
        return np.log1p(p * p)

    @property
    def scalar(self) -> Callable[[float], float]:
        return lambda p: math.log1p(p * p)

    def deriv(self, p):
        p = np.asarray(p, dtype=np.float64)
        return 2.0 * p / (1.0 + p * p)

    def branch_inverse(self, branch: int, y: float) -> float:
        y = _checked_level(y)
        try:
            r = math.sqrt(math.expm1(y))
        except OverflowError:
            raise ConfigError(
                f"log-quasiconvex level {y:g} has no finite slope: "
                f"exp(level) overflows") from None
        return r if branch == 2 else -r

    def _absderiv(self, p: float) -> float:
        return 2.0 * abs(p) / (1.0 + p * p)

    def lipschitz_on(self, interval) -> float:
        lo, hi = interval
        cands = [lo, hi]
        if lo <= -1.0 <= hi:
            cands.append(-1.0)
        if lo <= 1.0 <= hi:
            cands.append(1.0)
        return max(self._absderiv(c) for c in cands)

    def abs_derivative_inf(self, p_lo: float, p_hi: float) -> float:
        # |G'| on either branch is unimodal with peak at |p| = 1
        return min(self._absderiv(p_lo), self._absderiv(p_hi))


class TabulatedG:
    """Quasiconvex Hamiltonian given by a sampled (p, G(p)) table.

    The table must be strictly quasiconvex with its minimum value 0
    attained next to p = 0; that shape is validated at load.  Evaluation
    interpolates linearly and extrapolates with the edge slopes, so the
    object stays coercive.  The segment slopes are computed once; each
    branch inverse is exact, the linear interpolant of that branch's
    (G, p) nodes, continued with the edge slope beyond the table.
    """

    def __init__(self, ps: np.ndarray, gs: np.ndarray):
        ps = np.asarray(ps, dtype=np.float64)
        gs = np.asarray(gs, dtype=np.float64)
        if ps.ndim != 1 or ps.size < 3 or gs.shape != ps.shape:
            raise ValueError("tabulated family needs two equal columns with >= 3 rows")
        if not (np.all(np.isfinite(ps)) and np.all(np.isfinite(gs))):
            raise ValueError("tabulated table holds a non-finite entry")
        if np.any(np.diff(ps) <= 0):
            raise ValueError("tabulated p column must be strictly increasing")
        imin = int(np.argmin(gs))
        if imin == 0 or imin == ps.size - 1:
            raise ValueError("tabulated data must bracket the minimum of G")
        if np.any(np.diff(gs[:imin + 1]) >= 0) or np.any(np.diff(gs[imin:]) <= 0):
            raise ValueError("tabulated branches must be strictly monotone")
        gmin = float(gs[imin])
        if not (0.0 <= gmin <= 1e-9):
            raise ValueError(f"tabulated minimum must be 0 (within 1e-9), got {gmin:g}")
        span = ps[imin + 1] - ps[imin - 1]
        if abs(ps[imin]) > span:
            raise ValueError("tabulated minimum must sit next to p = 0")
        self.ps = ps
        self.gs = gs
        self.imin = imin
        self.slopes = np.diff(gs) / np.diff(ps)
        # segment ends, with the edge segments running on to infinity
        self._seg_lo = np.concatenate(([-np.inf], ps[1:-1]))
        self._seg_hi = np.concatenate((ps[1:-1], [np.inf]))

    @classmethod
    def from_file(cls, path: str) -> "TabulatedG":
        data = np.loadtxt(path, comments="#", delimiter=None)
        if data.ndim != 2 or data.shape[1] != 2:
            raise ValueError(f"{path}: expected two columns (p, G)")
        return cls(data[:, 0], data[:, 1])

    def __repr__(self):
        return f"TabulatedG(n={self.ps.size})"

    def __call__(self, p):
        p = np.asarray(p, dtype=np.float64)
        out = np.interp(p, self.ps, self.gs)
        sl = self.slopes
        out = np.where(p < self.ps[0], self.gs[0] + sl[0] * (p - self.ps[0]), out)
        out = np.where(p > self.ps[-1], self.gs[-1] + sl[-1] * (p - self.ps[-1]), out)
        return out

    @property
    def scalar(self) -> Callable[[float], float]:
        """``float(self(p))`` without numpy, bit for bit: the edge lines
        outside the table, else ``np.interp``'s segment line."""
        ps, gs, sl = self.ps.tolist(), self.gs.tolist(), self.slopes.tolist()

        def g(p):
            if p < ps[0]:
                return gs[0] + sl[0] * (p - ps[0])
            if p < ps[-1]:
                j = bisect_right(ps, p) - 1
                return sl[j] * (p - ps[j]) + gs[j]
            # from the last node on (gs[-1] itself there), or NaN
            return gs[-1] + sl[-1] * (p - ps[-1])
        return g

    def deriv(self, p):
        """Slope of the interpolant: the segment's to the right of a node,
        the edge slopes outside the table."""
        i = np.searchsorted(self.ps, np.asarray(p, dtype=np.float64),
                            side="right") - 1
        return self.slopes[np.clip(i, 0, self.slopes.size - 1)]

    def branch_inverse(self, branch: int, y: float) -> float:
        y = _checked_level(y)
        # the branch's nodes in increasing G, from the minimum outward
        i = self.imin
        if branch == 2:
            gs, ps, edge = self.gs[i:], self.ps[i:], self.slopes[-1]
        else:
            gs, ps, edge = self.gs[i::-1], self.ps[i::-1], self.slopes[0]
        if y > gs[-1]:
            return float(ps[-1] + (y - gs[-1]) / edge)
        return float(np.interp(y, gs, ps))

    def _abs_slopes_on(self, lo: float, hi: float) -> np.ndarray:
        """|slope| of every segment meeting the open interval (lo, hi)."""
        return np.abs(self.slopes[(self._seg_hi > lo) & (self._seg_lo < hi)])

    def lipschitz_on(self, interval) -> float:
        return 1.01 * float(self._abs_slopes_on(*interval).max(initial=0.0))

    def abs_derivative_inf(self, p_lo: float, p_hi: float) -> float:
        return float(self._abs_slopes_on(p_lo, p_hi).min())


def _power(base: float, exp: float) -> float:
    """base ** exp for base >= 0; inf where it overflows."""
    try:
        return base ** exp
    except OverflowError:
        return math.inf


def _checked_level(y: float) -> float:
    y = float(y)
    if y < -1e-12:
        raise ValueError(f"branch inverse requested below the minimum of G: {y}")
    return max(y, 0.0)


def make_G(family: str, **params):
    """Factory used by the CLI; parameters are the constructors' keywords,
    so an unknown one is a TypeError."""
    if family == "tabulated" and "path" in params:
        return TabulatedG.from_file(**params)
    families = {"power": PowerG, "asym-power": AsymPowerG,
                "log-quasiconvex": LogQuasiconvexG, "tabulated": TabulatedG}
    if family not in families:
        raise ValueError(f"unknown Hamiltonian family {family!r}")
    return families[family](**params)


# ============================================================
# Free-function API
# ============================================================

def bracket(G, branch: int, lam: float, beta: float) -> tuple[float, float]:
    """Invariant slope interval of the one-sided corrector at level lam.

    Branch 2 slopes live in [G2^-1(lam - beta), G2^-1(lam)], branch 1
    slopes in [G1^-1(lam), G1^-1(lam - beta)].  Requires lam >= beta so
    the lower level is above the minimum of G.
    """
    if lam < beta - 1e-12:
        raise ValueError(f"corrector level lam={lam} must be >= beta={beta}")
    if branch == 2:
        return (G.branch_inverse(2, lam - beta), G.branch_inverse(2, lam))
    if branch == 1:
        return (G.branch_inverse(1, lam), G.branch_inverse(1, lam - beta))
    raise ValueError(f"branch must be 1 or 2, got {branch}")


# ============================================================
# Contraction modulus
# ============================================================

@dataclass(frozen=True)
class ContractionModulus:
    """Linear monotonicity modulus of one branch on its bracket [p_lo, p_hi].

    Guarantees |G(p + q) - G(p)| >= mu |q| whenever p and p + q both lie
    in the bracket, mu being the infimum of |G'| there.  Deviations h
    between two bracketed correctors then obey a h' + mu h <= 0 along
    the branch's shooting direction, so h decays like K exp(-mu s) over
    an s-length s, K the bracket width; ``phi`` is the inverse of that
    decay and ``phi_inv`` the decay itself.  mu = 0 where the derivative
    vanishes on the bracket (lam = beta for the smooth families), and
    then ``phi`` is infinite for every p < K.
    """

    bracket: tuple[float, float]
    K: float
    mu: float

    def phi(self, p: float) -> float:
        if p >= self.K:
            return 0.0
        if p <= 0.0 or self.mu == 0.0:
            return math.inf
        return math.log(self.K / p) / self.mu

    def phi_inv(self, z: float) -> float:
        if z <= 0.0:
            return self.K
        return self.K * math.exp(-self.mu * z)


def monotonicity_modulus(G, lam: float, beta: float, branch: int = 2) -> ContractionModulus:
    """Contraction modulus of ``branch`` on its bracket at level lam.

    At lam = beta the bracket ends at the minimum, where the derivative
    of every smooth branch vanishes, so mu = 0 there.
    """
    if lam < beta:
        raise ValueError(f"lam must be >= beta, got lam={lam}, beta={beta}")
    p_lo, p_hi = bracket(G, branch, lam, beta)
    if p_hi <= p_lo:
        raise CertificateError("empty bracket")
    return ContractionModulus(bracket=(p_lo, p_hi), K=p_hi - p_lo,
                              mu=float(G.abs_derivative_inf(p_lo, p_hi)))


# ============================================================
# Growth envelopes
# ============================================================

# growth envelopes are checked at _GROWTH_N points on [-_GROWTH_P, _GROWTH_P]
_GROWTH_P = 10.0
_GROWTH_N = 2001


@dataclass(frozen=True)
class GrowthCertificate:
    gamma: float
    c1: float
    c2: float

    def __post_init__(self):
        if not (self.gamma > 1 and self.c1 > 0 and self.c2 > 0):
            raise ValueError(
                "growth certificate needs gamma > 1 and positive constants")


def validate_growth(G, cert: GrowthCertificate) -> tuple[float, float, float]:
    """Margins ``(lower, upper, lipschitz)`` of power-type envelopes on [-P, P].

    lower:      c1 |p|^gamma - 1/c1 <= G(p)
    upper:      G(p) <= c2 (|p|^gamma + 1)
    lipschitz:  |G(p) - G(q)| <= c2 (|p| + |q| + 1)^(gamma-1) |p - q|

    Each margin is the worst slack observed (negative means violated).
    """
    gamma, c1, c2 = cert.gamma, cert.c1, cert.c2
    ps = np.linspace(-_GROWTH_P, _GROWTH_P, _GROWTH_N)
    gv = G(ps)
    ap = np.abs(ps)
    lower = gv - (c1 * ap ** gamma - 1.0 / c1)
    upper = c2 * (ap ** gamma + 1.0) - gv
    # pair check on a thinned lattice to keep the quadratic sweep cheap
    sub = ps[::_GROWTH_N // 256]
    gs = G(sub)
    pi, pj = np.meshgrid(sub, sub, indexing="ij")
    gi, gj = np.meshgrid(gs, gs, indexing="ij")
    rhs = c2 * (np.abs(pi) + np.abs(pj) + 1.0) ** (gamma - 1.0) * np.abs(pi - pj)
    lip = rhs - np.abs(gi - gj)
    return float(lower.min()), float(upper.min()), float(lip.min())
