import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hjlab.errors import CertificateError
from hjlab.hamiltonian import (
    AsymPowerG,
    ContractionModulus,
    GrowthCertificate,
    LogQuasiconvexG,
    PowerG,
    TabulatedG,
    bracket,
    branch2_modulus,
    make_G,
    monotonicity_modulus,
    validate_growth,
)
from hjlab.hamiltonian import _adaptive_gk, _gk15

SQRT2 = math.sqrt(2.0)


# ------------------------------------------------------------
# branch inverses
# ------------------------------------------------------------

def test_power_branch_inverse_exact():
    G = PowerG(2.0)
    assert G.branch_inverse(1, 4.0) == -2.0
    assert G.branch_inverse(2, 4.0) == 2.0
    assert G.branch_inverse(2, 0.0) == 0.0


def test_asym_power_branch_inverse():
    G = AsymPowerG(3.0, 2.0)
    # (-p)^3 = 8  =>  p = -2
    assert G.branch_inverse(1, 8.0) == pytest.approx(-2.0, abs=1e-14)
    assert G.branch_inverse(2, 9.0) == pytest.approx(3.0, abs=1e-14)


def test_log_branch_inverse():
    G = LogQuasiconvexG()
    # frozen: sqrt(e - 1)
    assert G.branch_inverse(2, 1.0) == pytest.approx(1.3108324944320862, abs=1e-14)
    assert G.branch_inverse(1, 1.0) == pytest.approx(-1.3108324944320862, abs=1e-14)


def test_branch_inverse_rejects_negative_level():
    with pytest.raises(ValueError):
        PowerG(2.0).branch_inverse(2, -0.5)


@given(gamma=st.floats(1.1, 4.0), y=st.floats(0.0, 100.0))
@settings(max_examples=60, deadline=None)
def test_power_inverse_round_trip(gamma, y):
    G = PowerG(gamma)
    p = G.branch_inverse(2, y)
    assert float(G(p)) == pytest.approx(y, abs=1e-9, rel=1e-9)
    q = G.branch_inverse(1, y)
    assert q <= 0.0
    assert float(G(q)) == pytest.approx(y, abs=1e-9, rel=1e-9)


# ------------------------------------------------------------
# brackets
# ------------------------------------------------------------

def test_bracket_power_lam2():
    G = PowerG(2.0)
    lo, hi = bracket(G, 2, lam=2.0, beta=1.0)
    assert lo == pytest.approx(1.0, abs=1e-15)
    assert hi == pytest.approx(SQRT2, abs=1e-15)
    lo1, hi1 = bracket(G, 1, lam=2.0, beta=1.0)
    assert (lo1, hi1) == pytest.approx((-SQRT2, -1.0), abs=1e-15)


def test_bracket_requires_level_above_beta():
    with pytest.raises(ValueError):
        bracket(PowerG(2.0), 2, lam=0.5, beta=1.0)


# ------------------------------------------------------------
# Lipschitz constants
# ------------------------------------------------------------

def test_lipschitz_closed_forms():
    assert PowerG(2.0).lipschitz_on((-3.0, 2.0)) == 6.0
    assert AsymPowerG(3.0, 2.0).lipschitz_on((-2.0, 3.0)) == 12.0
    # |G'| of log(1+p^2) peaks at 1: frozen values
    assert LogQuasiconvexG().lipschitz_on((0.0, 10.0)) == 1.0
    assert LogQuasiconvexG().lipschitz_on((-10.0, -0.5)) == 1.0
    assert LogQuasiconvexG().lipschitz_on((2.0, 10.0)) == pytest.approx(0.8, abs=1e-15)


def test_lipschitz_is_a_bound_on_samples():
    for G in (PowerG(1.7), AsymPowerG(2.5, 1.4), LogQuasiconvexG()):
        lo, hi = -2.3, 3.1
        L = G.lipschitz_on((lo, hi))
        ps = np.linspace(lo, hi, 4001)
        gv = G(ps)
        slopes = np.abs(np.diff(gv) / np.diff(ps))
        assert slopes.max() <= L + 1e-9


# ------------------------------------------------------------
# contraction modulus
# ------------------------------------------------------------

def test_modulus_linear_power():
    G = PowerG(2.0)
    M = monotonicity_modulus(G, lam=2.0, beta=1.0)
    assert M.kind == "linear"
    assert not M.flagged
    assert M.mu == pytest.approx(2.0, abs=1e-15)
    assert M.K == pytest.approx(SQRT2 - 1.0, abs=1e-15)
    # frozen: burn-in for tol=1e-6 is ln(K/tol)/mu
    zstar = M.phi(1e-6)
    assert zstar == pytest.approx(6.467068485472366, abs=1e-12)
    assert M.phi_inv(zstar) == pytest.approx(1e-6, rel=1e-12)


def test_modulus_linear_power_lam5():
    M = monotonicity_modulus(PowerG(2.0), lam=5.0, beta=1.0)
    assert M.mu == pytest.approx(4.0, abs=1e-15)
    assert M.K == pytest.approx(math.sqrt(5.0) - 2.0, abs=1e-15)


def test_modulus_linear_log():
    M = monotonicity_modulus(LogQuasiconvexG(), lam=2.0, beta=1.0)
    assert M.kind == "linear"
    # frozen: min endpoint derivative of 2p/(1+p^2) on the bracket
    assert M.mu == pytest.approx(0.6841626834251587, abs=1e-14)


def test_modulus_degenerate_level_power():
    # lam = beta puts the bracket against p = 0: the linear modulus dies
    # and the flagged family fallback m(q) = min(q, q^2) takes over.
    M = monotonicity_modulus(PowerG(2.0), lam=1.0, beta=1.0)
    assert M.kind == "superlinear"
    assert M.flagged
    assert M.K == pytest.approx(1.0, abs=1e-15)
    # frozen closed form: phi(p) = 1/p - 1 on (0, 1]
    assert M.phi(0.5) == pytest.approx(1.0, rel=1e-10)
    assert M.phi(0.01) == pytest.approx(99.0, rel=1e-10)
    assert M.phi(1e-6) == pytest.approx(999999.0, rel=1e-8)
    # frozen inverse: phi_inv(z) = 1/(1+z)
    assert M.phi_inv(1.0) == pytest.approx(0.5, rel=1e-8)
    assert M.phi_inv(99.0) == pytest.approx(0.01, rel=1e-8)


def test_modulus_degenerate_level_wider_bracket():
    # beta = 4 makes K = 2: the quadrature crosses the kink of
    # min(q, q^2) at q = 1.  frozen: phi(0.01) = 99 + ln 2.
    M = monotonicity_modulus(PowerG(2.0), lam=4.0, beta=4.0)
    assert M.K == pytest.approx(2.0, abs=1e-14)
    assert M.phi(0.01) == pytest.approx(99.69314718055995, rel=1e-8)


def test_modulus_degenerate_level_log():
    M = monotonicity_modulus(LogQuasiconvexG(), lam=1.0, beta=1.0)
    assert M.flagged
    z = M.phi(1e-3)
    assert math.isfinite(z) and z > 0
    assert M.phi_inv(z) == pytest.approx(1e-3, rel=1e-6)


@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_modulus_certifies_branch_growth(data):
    G = data.draw(st.sampled_from([PowerG(2.0), PowerG(1.5), AsymPowerG(3.0, 2.0),
                                   LogQuasiconvexG()]))
    lam = data.draw(st.floats(1.0, 4.0))
    beta = data.draw(st.floats(0.3, 1.0))
    M = monotonicity_modulus(G, lam=lam, beta=beta)
    p_lo, p_hi = M.bracket
    p = data.draw(st.floats(0.0, 1.0)) * (p_hi - p_lo) + p_lo
    q = data.draw(st.floats(0.0, 1.0)) * (p_hi - p)
    lhs = float(G(p + q)) - float(G(p))
    assert lhs >= M.m(q) - 1e-12


def test_modulus_certificate_at_degenerate_level_random_pairs():
    rng = np.random.default_rng(7)
    for G in (PowerG(2.0), PowerG(3.0), LogQuasiconvexG()):
        M = monotonicity_modulus(G, lam=1.0, beta=1.0)
        p_lo, p_hi = M.bracket
        for _ in range(300):
            p = rng.uniform(p_lo, p_hi)
            q = rng.uniform(0.0, p_hi - p)
            assert float(G(p + q)) - float(G(p)) >= M.m(q) - 1e-12


def test_branch2_modulus_rejects_bad_levels():
    with pytest.raises(ValueError):
        branch2_modulus(PowerG(2.0), 2.0, 1.0)


# ------------------------------------------------------------
# adaptive Gauss-Kronrod rule behind phi
# ------------------------------------------------------------

@pytest.mark.parametrize("d", range(24))
def test_gk15_exact_degrees(d):
    # K15 integrates x^d exactly on [-1, 1] up to degree 22 (23 by
    # symmetry), G7 up to degree 13, so |K15 - G7| vanishes there
    val, err = _gk15(lambda x: x ** d, -1.0, 1.0)
    exact = 0.0 if d % 2 else 2.0 / (d + 1)
    assert abs(val - exact) <= 1e-15
    if d <= 13:
        assert err <= 1e-15
    elif d % 2 == 0:
        assert err > 1e-6  # G7 is no longer exact


def _power_phi_closed(gamma, K, p):
    # integral_p^K dq / min(q, q^gamma): q^-gamma below 1, 1/q above
    if p >= 1.0:
        return math.log(K / p)
    if K <= 1.0:
        return (p ** (1.0 - gamma) - K ** (1.0 - gamma)) / (gamma - 1.0)
    return (p ** (1.0 - gamma) - 1.0) / (gamma - 1.0) + math.log(K)


@pytest.mark.parametrize("gamma", [1.5, 2.0, 3.0])
@pytest.mark.parametrize("beta", [0.25, 1.0, 4.0, 25.0])
def test_phi_matches_power_closed_forms(gamma, beta):
    # beta > 1 puts the kink of min(q, q^gamma) at q = 1 inside (p, K);
    # at gamma = 1.5, beta = 25, p = 0.48987 an unsplit panel holds it
    # between its outer node and its end, where |K15 - G7| cannot see it
    for G in (PowerG(gamma), AsymPowerG(2.5, gamma)):
        M = monotonicity_modulus(G, lam=beta, beta=beta)
        assert M.kind == "superlinear"
        ps = [*np.geomspace(1e-6, 0.999 * M.K, 40), 0.48987]
        for p in (float(p) for p in ps if p < M.K):
            exact = _power_phi_closed(gamma, M.K, p)
            assert M.phi(p) == pytest.approx(exact, rel=1e-12)


@pytest.mark.parametrize("beta", [1.0, 4.0, 9.0])
def test_phi_log_family_matches_scipy_quad(beta):
    from scipy.integrate import quad  # test-only oracle

    M = monotonicity_modulus(LogQuasiconvexG(), lam=beta, beta=beta)
    K = M.K
    # min(log1p(q^2), log((1+K^2)/(1+(K-q)^2))) switches branch where
    # q^2 - K q + 2 = 0, which has real roots once K^2 > 8
    kinks = []
    if K * K > 8.0:
        r = math.sqrt(K * K - 8.0)
        kinks = [0.5 * (K - r), 0.5 * (K + r)]
    assert bool(kinks) == (beta > 2.0)
    assert list(M.kinks) == pytest.approx(kinks, rel=1e-15)

    def f(u):
        return math.exp(u) / M.m(math.exp(u))

    for p in np.geomspace(1e-6, 0.999 * K, 25):
        a, b = math.log(p), math.log(K)
        pts = [math.log(q) for q in kinks if p < q < K] or None
        ref, _ = quad(f, a, b, points=pts, limit=500, epsabs=1e-14,
                      epsrel=1e-13)
        assert M.phi(float(p)) == pytest.approx(ref, rel=1e-12, abs=0.0)


def test_adaptive_gk_raises_past_panel_limit():
    # a kink at a non-dyadic point needs many bisections to reach 1e-13
    f = lambda u: abs(u - 1.0 / 3.0)
    with pytest.raises(CertificateError):
        _adaptive_gk(f, (-1.0, 1.0), 1e-13, 1e-12, 4)
    assert _adaptive_gk(f, (-1.0, 1.0), 1e-13, 1e-12, 500) == \
        pytest.approx(10.0 / 9.0, rel=1e-12)


def test_phi_inv_stops_at_adjacent_doubles(monkeypatch):
    # the log-scale bisection ends once its bracket holds two adjacent
    # doubles, not after a fixed 120 halvings
    M = monotonicity_modulus(PowerG(2.0), lam=1.0, beta=1.0)
    calls = []
    phi = ContractionModulus.phi

    def counting(self, p):
        calls.append(p)
        return phi(self, p)

    monkeypatch.setattr(ContractionModulus, "phi", counting)
    for z in (0.5, 30.0, 300.0):
        calls.clear()
        assert M.phi_inv(z) == pytest.approx(1.0 / (1.0 + z), rel=1e-12)
        assert len(calls) <= 70


# ------------------------------------------------------------
# reflection
# ------------------------------------------------------------

def test_reflect_swaps_asym_exponents():
    G = AsymPowerG(3.0, 2.0)
    R = G.reflect()
    ps = np.linspace(-2.0, 2.0, 41)
    assert np.allclose(R(ps), G(-ps), atol=0, rtol=0)


def test_branch1_modulus_via_reflection():
    # branch 1 of asym-power (3, 2) is cubic: its modulus must use
    # exponent 3, not 2.
    M = monotonicity_modulus(AsymPowerG(3.0, 2.0), lam=2.0, beta=1.0, branch=1)
    assert M.kind == "linear"
    assert M.mu == pytest.approx(3.0 * 1.0 ** 2, abs=1e-12)  # 3 p^2 at p = 1


def test_deriv_matches_finite_differences():
    # central differences at points off every kink and table node;
    # h = 1e-6 leaves only rounding, far below the 1e-6 relative bound
    ps = np.array([-3.1, -1.37, -0.41, 0.23, 0.77, 2.9, 4.3])
    tab = TabulatedG(np.array([-4.0, -2.5, -1.0, 0.0, 1.5, 3.0]),
                     np.array([7.0, 4.0, 1.0, 0.0, 2.0, 5.0]))
    h = 1e-6
    for G in (PowerG(2.0), PowerG(1.7), AsymPowerG(2.5, 1.4),
              LogQuasiconvexG(), tab):
        fd = (G(ps + h) - G(ps - h)) / (2.0 * h)
        assert np.allclose(G.deriv(ps), fd, rtol=1e-6, atol=1e-9), G
        # the reflected family differentiates the reflected function
        assert np.allclose(G.reflect().deriv(ps), -G.deriv(-ps),
                           rtol=1e-12), G
    # tabulated: the slope of the interpolant, edge slopes outside
    assert tab.deriv(np.array([-5.0, -2.0, 0.5, 4.0])).tolist() == \
        [-2.0, -2.0, 4.0 / 3.0, 2.0]


# ------------------------------------------------------------
# tabulated family
# ------------------------------------------------------------

def _quadratic_table(n=601, P=3.0):
    ps = np.linspace(-P, P, n)
    return TabulatedG(ps, ps * ps)


def test_tabulated_matches_sampled_parabola():
    T = _quadratic_table()
    ps = np.linspace(-2.5, 2.5, 101)
    assert np.max(np.abs(T(ps) - ps * ps)) < 3e-5  # interp error ~ dx^2/4


def test_tabulated_extrapolates_linearly():
    T = _quadratic_table()
    # edge slope at p = 3 on a 0.01 grid: (9 - 2.99^2) / 0.01 = 5.99
    assert float(T(np.array([4.0]))[0]) == pytest.approx(9.0 + 5.99 * 1.0, abs=1e-10)


def test_tabulated_branch_inverse_round_trip():
    T = _quadratic_table()
    for y in (0.3, 1.0, 2.0, 7.5):
        p2 = T.branch_inverse(2, y)
        assert float(T(p2)) == pytest.approx(y, abs=1e-9)
        p1 = T.branch_inverse(1, y)
        assert p1 < 0 < p2
        assert float(T(p1)) == pytest.approx(y, abs=1e-9)
    # beyond the table the inverse uses the extrapolation slope
    p = T.branch_inverse(2, 15.0)
    assert float(T(p)) == pytest.approx(15.0, abs=1e-9)


def test_tabulated_modulus_is_conservative():
    T = _quadratic_table()
    M = monotonicity_modulus(T, lam=2.0, beta=1.0)
    assert M.kind == "linear"
    # true inf of derivative is 2.0; segment slopes give 2 +- dx
    assert M.mu == pytest.approx(2.0, abs=0.02)
    p_lo, p_hi = M.bracket
    rng = np.random.default_rng(3)
    for _ in range(200):
        p = rng.uniform(p_lo, p_hi)
        q = rng.uniform(0.0, p_hi - p)
        assert float(T(p + q)) - float(T(p)) >= M.m(q) - 1e-10


def test_tabulated_lipschitz_has_safety_factor():
    T = _quadratic_table()
    L = T.lipschitz_on((0.0, 2.0))
    assert L >= 2.0 * 2.0          # at least the true constant
    assert L == pytest.approx(1.01 * (1.99 + 2.0), abs=1e-9)  # 1.01 * worst slope


def test_tabulated_rejects_non_quasiconvex():
    ps = np.linspace(-1, 1, 21)
    gs = np.cos(3 * ps)  # multiple local minima
    with pytest.raises(ValueError):
        TabulatedG(ps, gs)
    with pytest.raises(ValueError):
        TabulatedG(ps, ps * ps + 0.5)  # minimum not 0


def test_tabulated_file_round_trip(tmp_path):
    ps = np.linspace(-2, 2, 201)
    path = tmp_path / "table.txt"
    np.savetxt(path, np.column_stack([ps, ps * ps]),
               header="p  G(p)")
    T = TabulatedG.from_file(str(path))
    assert T.ps.size == 201
    assert float(T(np.array([1.5]))[0]) == pytest.approx(2.25, abs=1e-4)


# ------------------------------------------------------------
# factory and growth report
# ------------------------------------------------------------

def test_make_G_dispatch():
    assert isinstance(make_G("power", gamma=3.0), PowerG)
    assert isinstance(make_G("asym-power", gamma1=2.0, gamma2=3.0), AsymPowerG)
    assert isinstance(make_G("log-quasiconvex"), LogQuasiconvexG)
    with pytest.raises(ValueError):
        make_G("cubic-spline")


def test_growth_power_passes_unit_certificate():
    rep = validate_growth(PowerG(2.0), GrowthCertificate(gamma=2.0, c1=1.0, c2=1.0))
    assert rep.passed
    assert rep.lower_margin == pytest.approx(1.0, abs=1e-12)
    assert rep.upper_margin == pytest.approx(1.0, abs=1e-12)
    assert rep.lipschitz_margin >= -1e-12


def test_growth_log_fails_power_lower_bound():
    rep = validate_growth(LogQuasiconvexG(), GrowthCertificate(gamma=2.0, c1=1.0, c2=1.0))
    assert not rep.lower_ok
    # frozen: log(101) - 99 at the edge of [-10, 10]
    assert rep.lower_margin == pytest.approx(-94.38487948315874, abs=1e-9)
    assert not rep.passed


def test_growth_rejects_bad_certificate():
    with pytest.raises(ValueError):
        validate_growth(PowerG(2.0), GrowthCertificate(gamma=1.0, c1=1.0, c2=1.0))
