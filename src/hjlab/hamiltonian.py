"""Quasiconvex Hamiltonians and their certified moduli.

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
* a monotonicity modulus of branch 2 on a bracket, which drives the
  contraction certificate (exponential when the modulus is linear; when
  it degenerates at the left endpoint, an in-house globally adaptive
  7/15-point Gauss-Kronrod rule integrates the transform);
* a growth report against power-type upper/lower envelopes.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import CertificateError

__all__ = [
    "PowerG",
    "AsymPowerG",
    "LogQuasiconvexG",
    "TabulatedG",
    "make_G",
    "bracket",
    "ContractionModulus",
    "branch2_modulus",
    "monotonicity_modulus",
    "GrowthCertificate",
    "GrowthReport",
    "validate_growth",
]

_INV_TOL = 1e-12

# Gauss-Kronrod 7/15 rule on [-1, 1]: the positive Kronrod nodes x_0..x_6
# (x_1, x_3, x_5 are Gauss nodes) and the centre 0; _WGK holds the K15
# weights of x_0..x_6 and 0, _WG the G7 weights of x_1, x_3, x_5 and 0
_XGK = (0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
        0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
        0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
        0.207784955007898467600689403773245)
_WGK = (0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
        0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
        0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
        0.204432940075298892414161999234649, 0.209482141084727828012999174891714)
_WG = (0.129484966168869693270611432679082, 0.279705391489276667901467771423780,
       0.381830050505118944950369775488975, 0.417959183673469387755102040816327)


# ============================================================
# Families
# ============================================================

class PowerG:
    """G(p) = |p|^gamma with gamma > 1."""

    family = "power"

    def __init__(self, gamma: float = 2.0):
        gamma = float(gamma)
        if gamma <= 1.0:
            raise ValueError(f"power family needs gamma > 1, got {gamma}")
        self.gamma = gamma

    def __repr__(self):
        return f"PowerG(gamma={self.gamma:g})"

    def __call__(self, p):
        if self.gamma == 2.0:
            p = np.asarray(p, dtype=np.float64)
            return p * p
        return np.abs(p) ** self.gamma

    @property
    def scalar(self) -> Callable[[float], float]:
        g = self.gamma
        if g == 2.0:
            return lambda p: p * p
        return lambda p: abs(p) ** g

    def deriv(self, p):
        p = np.asarray(p, dtype=np.float64)
        if self.gamma == 2.0:
            return 2.0 * p
        return self.gamma * np.sign(p) * np.abs(p) ** (self.gamma - 1.0)

    def branch_inverse(self, branch: int, y: float) -> float:
        y = _checked_level(y)
        r = y ** (1.0 / self.gamma)
        return r if branch == 2 else -r

    def lipschitz_on(self, interval) -> float:
        lo, hi = interval
        return self.gamma * max(abs(lo), abs(hi)) ** (self.gamma - 1.0)

    def branch2_derivative_inf(self, p_lo: float, p_hi: float) -> float:
        return self.gamma * p_lo ** (self.gamma - 1.0)

    def branch2_fallback_modulus(self, K: float) -> tuple[Callable, tuple]:
        g = self.gamma
        # (p+q)^g - p^g >= q^g on p >= 0; capped by q for certificate
        # admissibility, which puts a kink at q = 1
        return (lambda q: min(q, q ** g)), (1.0,)

    def reflect(self) -> "PowerG":
        return self


class AsymPowerG:
    """G(p) = |p|^gamma1 for p < 0 and p^gamma2 for p >= 0."""

    family = "asym-power"

    def __init__(self, gamma1: float = 2.0, gamma2: float = 2.0):
        gamma1, gamma2 = float(gamma1), float(gamma2)
        if gamma1 <= 1.0 or gamma2 <= 1.0:
            raise ValueError(f"asym-power needs both exponents > 1, got ({gamma1}, {gamma2})")
        self.gamma1 = gamma1
        self.gamma2 = gamma2

    def __repr__(self):
        return f"AsymPowerG(gamma1={self.gamma1:g}, gamma2={self.gamma2:g})"

    def __call__(self, p):
        p = np.asarray(p, dtype=np.float64)
        ap = np.abs(p)
        return np.where(p < 0, ap ** self.gamma1, ap ** self.gamma2)

    @property
    def scalar(self) -> Callable[[float], float]:
        g1, g2 = self.gamma1, self.gamma2
        return lambda p: (-p) ** g1 if p < 0 else p ** g2

    def deriv(self, p):
        p = np.asarray(p, dtype=np.float64)
        ap = np.abs(p)
        return np.where(p < 0, -self.gamma1 * ap ** (self.gamma1 - 1.0),
                        self.gamma2 * ap ** (self.gamma2 - 1.0))

    def branch_inverse(self, branch: int, y: float) -> float:
        y = _checked_level(y)
        if branch == 2:
            return y ** (1.0 / self.gamma2)
        return -(y ** (1.0 / self.gamma1))

    def lipschitz_on(self, interval) -> float:
        lo, hi = interval
        out = 0.0
        if lo < 0:
            out = self.gamma1 * abs(lo) ** (self.gamma1 - 1.0)
        if hi > 0:
            out = max(out, self.gamma2 * hi ** (self.gamma2 - 1.0))
        return out

    def branch2_derivative_inf(self, p_lo: float, p_hi: float) -> float:
        return self.gamma2 * p_lo ** (self.gamma2 - 1.0)

    def branch2_fallback_modulus(self, K: float) -> tuple[Callable, tuple]:
        g = self.gamma2
        return (lambda q: min(q, q ** g)), (1.0,)

    def reflect(self) -> "AsymPowerG":
        return AsymPowerG(self.gamma2, self.gamma1)


class LogQuasiconvexG:
    """G(p) = log(1 + p^2): strictly quasiconvex but nowhere convex at scale."""

    family = "log-quasiconvex"

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
        r = math.sqrt(math.expm1(y))
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

    def branch2_derivative_inf(self, p_lo: float, p_hi: float) -> float:
        # derivative on the positive branch is unimodal with peak at p = 1
        return min(self._absderiv(p_lo), self._absderiv(p_hi))

    def branch2_fallback_modulus(self, K: float) -> tuple[Callable, tuple]:
        # exact infimum of G(p+q) - G(p) over p in [0, K-q] sits at an endpoint
        def m(q):
            left = math.log1p(q * q)
            right = math.log((1.0 + K * K) / (1.0 + (K - q) ** 2)) if q <= K else left
            return min(q, left, right)
        # the two endpoint values cross where q (K - q) = 2, which has
        # roots in (0, K) once K^2 > 8; their product is 2
        if K * K <= 8.0:
            return m, ()
        q_hi = 0.5 * (K + math.sqrt(K * K - 8.0))
        return m, (2.0 / q_hi, q_hi)

    def reflect(self) -> "LogQuasiconvexG":
        return self


class TabulatedG:
    """Quasiconvex Hamiltonian given by a sampled (p, G(p)) table.

    The table must be strictly quasiconvex with its minimum value 0
    attained next to p = 0; that shape is validated at load.  Evaluation
    interpolates linearly and extrapolates with the edge slopes, so the
    object stays coercive.  Branch inverses run a guarded bisection on
    the interpolant.
    """

    family = "tabulated"

    def __init__(self, ps: np.ndarray, gs: np.ndarray):
        ps = np.asarray(ps, dtype=np.float64)
        gs = np.asarray(gs, dtype=np.float64)
        if ps.ndim != 1 or ps.size < 3 or gs.shape != ps.shape:
            raise ValueError("tabulated family needs two equal columns with >= 3 rows")
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
        lo_slope = (self.gs[1] - self.gs[0]) / (self.ps[1] - self.ps[0])
        hi_slope = (self.gs[-1] - self.gs[-2]) / (self.ps[-1] - self.ps[-2])
        out = np.where(p < self.ps[0], self.gs[0] + lo_slope * (p - self.ps[0]), out)
        out = np.where(p > self.ps[-1], self.gs[-1] + hi_slope * (p - self.ps[-1]), out)
        return out

    @property
    def scalar(self) -> Callable[[float], float]:
        return lambda p: float(self.__call__(p))

    def deriv(self, p):
        """Slope of the interpolant: the segment's to the right of a node,
        the edge slopes outside the table."""
        sl = self._slopes()
        i = np.searchsorted(self.ps, np.asarray(p, dtype=np.float64),
                            side="right") - 1
        return sl[np.clip(i, 0, sl.size - 1)]

    def branch_inverse(self, branch: int, y: float) -> float:
        y = _checked_level(y)
        ev = self.scalar
        if branch == 2:
            lo, hi = float(self.ps[self.imin]), float(self.ps[-1])
            if y >= float(self.gs[-1]):
                hi_slope = (self.gs[-1] - self.gs[-2]) / (self.ps[-1] - self.ps[-2])
                return float(self.ps[-1] + (y - self.gs[-1]) / hi_slope)
            sign = 1.0
        else:
            lo, hi = float(self.ps[0]), float(self.ps[self.imin])
            if y >= float(self.gs[0]):
                lo_slope = (self.gs[1] - self.gs[0]) / (self.ps[1] - self.ps[0])
                return float(self.ps[0] + (y - self.gs[0]) / lo_slope)
            sign = -1.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if hi - lo <= _INV_TOL:
                break
            if (ev(mid) - y) * sign >= 0:
                hi = mid
            else:
                lo = mid
        return 0.5 * (lo + hi)

    def _slopes(self):
        return np.diff(self.gs) / np.diff(self.ps)

    def lipschitz_on(self, interval) -> float:
        lo, hi = interval
        sl = self._slopes()
        mids_lo = self.ps[:-1]
        mids_hi = self.ps[1:]
        overlap = (mids_hi > lo) & (mids_lo < hi)
        cands = [0.0]
        if overlap.any():
            cands.append(float(np.abs(sl[overlap]).max()))
        if lo < self.ps[0]:
            cands.append(abs(float(sl[0])))
        if hi > self.ps[-1]:
            cands.append(abs(float(sl[-1])))
        return 1.01 * max(cands)

    def branch2_derivative_inf(self, p_lo: float, p_hi: float) -> float:
        sl = self._slopes()
        seg_lo = self.ps[:-1]
        seg_hi = self.ps[1:]
        overlap = (seg_hi > p_lo) & (seg_lo < p_hi) & (np.arange(sl.size) >= self.imin)
        if not overlap.any():
            if p_lo >= self.ps[-1]:
                return float(sl[-1])
            raise CertificateError("bracket does not meet the tabulated branch")
        return float(sl[overlap].min())

    def branch2_fallback_modulus(self, K: float) -> tuple[Callable, tuple]:
        grid = np.linspace(0.0, K, 257)

        def m(q):
            ps = grid[grid <= K - q + 1e-15]
            if ps.size == 0:
                ps = np.array([0.0])
            delta = self(ps + q) - self(ps)
            val = float(delta.min())
            if val <= 0:
                raise CertificateError(
                    "tabulated branch is not strictly monotone enough for a fallback modulus")
            return min(q, val)

        return m, ()  # kinks wherever the minimizing grid point changes

    def reflect(self) -> "TabulatedG":
        return TabulatedG(-self.ps[::-1], self.gs[::-1])


def _checked_level(y: float) -> float:
    y = float(y)
    if y < -1e-12:
        raise ValueError(f"branch inverse requested below the minimum of G: {y}")
    return max(y, 0.0)


def make_G(family: str, **params):
    """Factory used by the CLI; parameters mirror the constructors."""
    if family == "power":
        return PowerG(params.get("gamma", 2.0))
    if family == "asym-power":
        return AsymPowerG(params.get("gamma1", 2.0), params.get("gamma2", 2.0))
    if family == "log-quasiconvex":
        return LogQuasiconvexG()
    if family == "tabulated":
        if "path" in params:
            return TabulatedG.from_file(params["path"])
        return TabulatedG(params["ps"], params["gs"])
    raise ValueError(f"unknown Hamiltonian family {family!r}")


# ============================================================
# Free-function API
# ============================================================

def bracket(G, branch: int, lam: float, beta: float) -> tuple[float, float]:
    """Invariant slope interval of the one-sided corrector at level lam.

    Branch 2 slopes live in [G2^-1(lam - beta), G2^-1(lam)]; branch 1 is
    the mirror image.  Requires lam >= beta so the lower level is above
    the minimum of G.
    """
    if lam < beta - 1e-12:
        raise ValueError(f"corrector level lam={lam} must be >= beta={beta}")
    if branch == 2:
        return (G.branch_inverse(2, lam - beta), G.branch_inverse(2, lam))
    if branch == 1:
        return (G.branch_inverse(1, lam), G.branch_inverse(1, lam - beta))
    raise ValueError(f"branch must be 1 or 2, got {branch}")


# ============================================================
# Contraction modulus and its certificate transform
# ============================================================

def _gk15(f, a: float, b: float) -> tuple[float, float]:
    """K15 estimate of the integral of f over [a, b] and |K15 - G7|."""
    c, h = 0.5 * (a + b), 0.5 * (b - a)
    fc = f(c)
    k, g = _WGK[7] * fc, _WG[3] * fc
    for j in range(7):
        x = h * _XGK[j]
        pair = f(c - x) + f(c + x)
        k += _WGK[j] * pair
        if j & 1:
            g += _WG[j >> 1] * pair
    return k * h, abs((k - g) * h)


def _adaptive_gk(f, edges, epsabs: float, epsrel: float, limit: int) -> float:
    """Globally adaptive 7/15 Gauss-Kronrod quadrature of f.

    Starts from the panels between consecutive ``edges`` and bisects the
    panel with the largest |K15 - G7| until the summed estimate meets
    max(epsabs, epsrel |I|).  Raises CertificateError when that needs
    more than ``limit`` panels.
    """
    heap = []
    for a, b in zip(edges, edges[1:]):
        val, err = _gk15(f, a, b)
        heapq.heappush(heap, (-err, a, b, val))
    while True:
        total = math.fsum(p[3] for p in heap)
        err = math.fsum(-p[0] for p in heap)
        if err <= max(epsabs, epsrel * abs(total)):
            return total
        if len(heap) >= limit:
            raise CertificateError(
                f"adaptive quadrature left an error estimate of {err:.3g} "
                f"on {total:.17g} after {len(heap)} panels")
        _, a, b, _ = heapq.heappop(heap)
        mid = 0.5 * (a + b)
        for lo, hi in ((a, mid), (mid, b)):
            val, e = _gk15(f, lo, hi)
            heapq.heappush(heap, (-e, lo, hi, val))


@dataclass(frozen=True)
class ContractionModulus:
    """Monotonicity modulus m of branch 2 on a bracket [p_lo, p_hi].

    Guarantees G(p + q) - G(p) >= m(q) whenever p and p + q both lie in
    the bracket.  The certificate transform

        phi(p) = integral_p^K dq / m(q),   K = bracket width,

    converts an s-length of burn-in into a sup-norm contraction bound
    via its inverse: deviations h with a h' + m(h) <= 0 obey
    h(x) <= phi_inv(s(x) - s(start)).  A linear modulus has phi in
    closed form; otherwise phi integrates e^u / m(e^u) over
    [log p, log K] with a globally adaptive 7/15-point Gauss-Kronrod
    rule (absolute 1e-13, relative 1e-12, at most 500 panels, else
    CertificateError), split at the ``kinks`` of m that its family's
    fallback reports.
    """

    kind: str                      # 'linear' or 'superlinear'
    bracket: tuple[float, float]
    K: float
    mu: float | None
    m: Callable[[float], float]
    flagged: bool = False
    kinks: tuple[float, ...] = ()

    def phi(self, p: float) -> float:
        if p >= self.K:
            return 0.0
        if p <= 0.0:
            return math.inf
        if self.kind == "linear":
            return math.log(self.K / p) / self.mu
        m = self.m
        f = lambda u: math.exp(u) / m(math.exp(u))
        inner = [math.log(q) for q in self.kinks if p < q < self.K]
        edges = (math.log(p), *inner, math.log(self.K))
        return _adaptive_gk(f, edges, 1e-13, 1e-12, 500)

    def phi_inv(self, z: float) -> float:
        if z <= 0.0:
            return self.K
        if self.kind == "linear":
            return self.K * math.exp(-self.mu * z)
        lo = self.K
        # expand downward until phi(lo) exceeds z, then bisect in log scale
        for _ in range(40):
            lo *= 1e-2
            if self.phi(lo) > z:
                break
            if lo < 1e-280:
                return 0.0
        a, b = math.log(lo), math.log(self.K)
        for _ in range(120):
            mid = 0.5 * (a + b)
            if mid == a or mid == b:
                break  # a and b are adjacent doubles
            if self.phi(math.exp(mid)) > z:
                a = mid
            else:
                b = mid
        return math.exp(0.5 * (a + b))


def branch2_modulus(G, y_lo: float, y_hi: float) -> ContractionModulus:
    """Modulus of branch 2 on the bracket [G2^-1(y_lo), G2^-1(y_hi)]."""
    if not (0.0 <= y_lo < y_hi):
        raise ValueError(f"need 0 <= y_lo < y_hi, got ({y_lo}, {y_hi})")
    p_lo = G.branch_inverse(2, y_lo)
    p_hi = G.branch_inverse(2, y_hi)
    K = p_hi - p_lo
    if K <= 0:
        raise CertificateError("empty bracket")
    if p_lo > 0.0:
        mu = float(G.branch2_derivative_inf(p_lo, p_hi))
        if mu > 0.0:
            return ContractionModulus(kind="linear", bracket=(p_lo, p_hi), K=K,
                                      mu=mu, m=lambda q, _mu=mu: _mu * q)
        raise CertificateError(
            "branch 2 derivative vanishes on the bracket and no fallback applies")
    m, kinks = G.branch2_fallback_modulus(K)
    if m(K * 0.5) <= 0.0:
        raise CertificateError("fallback modulus is not positive on the bracket")
    return ContractionModulus(kind="superlinear", bracket=(p_lo, p_hi), K=K,
                              mu=None, m=m, flagged=True, kinks=kinks)


def monotonicity_modulus(G, lam: float, beta: float, branch: int = 2) -> ContractionModulus:
    """Contraction modulus for the corrector bracket at level lam.

    At lam = beta the bracket starts at 0 where the derivative of every
    smooth branch vanishes; the returned modulus is then the flagged
    superlinear family fallback and phi is computed by the adaptive
    7/15-point Gauss-Kronrod rule of ``ContractionModulus``.
    """
    if lam < beta:
        raise ValueError(f"lam must be >= beta, got lam={lam}, beta={beta}")
    Geff = G if branch == 2 else G.reflect()
    return branch2_modulus(Geff, lam - beta, lam)


# ============================================================
# Growth report
# ============================================================

@dataclass(frozen=True)
class GrowthCertificate:
    gamma: float
    c1: float
    c2: float


@dataclass(frozen=True)
class GrowthReport:
    """Report-only check of power-type growth envelopes on [-P, P].

    lower:      c1 |p|^gamma - 1/c1 <= G(p)
    upper:      G(p) <= c2 (|p|^gamma + 1)
    lipschitz:  |G(p) - G(q)| <= c2 (|p| + |q| + 1)^(gamma-1) |p - q|

    Margins are the worst slack observed (negative means violated).
    """

    certificate: GrowthCertificate
    P: float
    n: int
    lower_margin: float
    upper_margin: float
    lipschitz_margin: float

    @property
    def lower_ok(self) -> bool:
        return self.lower_margin >= -1e-12

    @property
    def upper_ok(self) -> bool:
        return self.upper_margin >= -1e-12

    @property
    def lipschitz_ok(self) -> bool:
        return self.lipschitz_margin >= -1e-12

    @property
    def passed(self) -> bool:
        return self.lower_ok and self.upper_ok and self.lipschitz_ok


def validate_growth(G, cert: GrowthCertificate, P: float = 10.0,
                    n: int = 2001) -> GrowthReport:
    gamma, c1, c2 = cert.gamma, cert.c1, cert.c2
    if gamma <= 1 or c1 <= 0 or c2 <= 0:
        raise ValueError("growth certificate needs gamma > 1 and positive constants")
    ps = np.linspace(-P, P, n)
    gv = G(ps)
    ap = np.abs(ps)
    lower = gv - (c1 * ap ** gamma - 1.0 / c1)
    upper = c2 * (ap ** gamma + 1.0) - gv
    # pair check on a thinned lattice to keep the quadratic sweep cheap
    sub = ps[:: max(1, n // 256)]
    gs = G(sub)
    pi, pj = np.meshgrid(sub, sub, indexing="ij")
    gi, gj = np.meshgrid(gs, gs, indexing="ij")
    rhs = c2 * (np.abs(pi) + np.abs(pj) + 1.0) ** (gamma - 1.0) * np.abs(pi - pj)
    lip = rhs - np.abs(gi - gj)
    return GrowthReport(certificate=cert, P=P, n=n,
                        lower_margin=float(lower.min()),
                        upper_margin=float(upper.min()),
                        lipschitz_margin=float(lip.min()))
