import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hjlab.hamiltonian import (
    AsymPowerG,
    GrowthCertificate,
    LogQuasiconvexG,
    PowerG,
    TabulatedG,
    bracket,
    make_G,
    monotonicity_modulus,
    validate_growth,
)
from hjlab.errors import ConfigError
from oracles import Reflected

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


@pytest.mark.parametrize("gamma", [1.0, 0.5, math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("make", [PowerG, lambda g: AsymPowerG(g, 2.0),
                                  lambda g: AsymPowerG(2.0, g)],
                         ids=["power", "asym-left", "asym-right"])
def test_power_families_reject_bad_exponents(make, gamma):
    # a NaN exponent used to build: PowerG(nan)(2.0) was nan and its
    # lipschitz_on((0.5, 1)) 0.0
    with pytest.raises(ValueError, match="> 1"):
        make(gamma)


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


def test_overflowing_powers_and_levels():
    # a Lipschitz power past the float range is inf, so the monotone-step
    # check refuses the step; a log-quasiconvex level whose slope is past
    # the float range has no bracket (both raised OverflowError)
    assert AsymPowerG(2.0, 1e5).lipschitz_on((0.9, 1.1)) == math.inf
    assert AsymPowerG(1e5, 2.0).lipschitz_on((-1.1, 0.0)) == math.inf
    assert PowerG(1e5).lipschitz_on((0.9, 1.1)) == math.inf
    with pytest.raises(ConfigError, match="no finite slope"):
        bracket(LogQuasiconvexG(), 2, 1e20, 1.0)


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
    assert M.mu > 0
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
    assert M.mu > 0
    # frozen: min endpoint derivative of 2p/(1+p^2) on the bracket
    assert M.mu == pytest.approx(0.6841626834251587, abs=1e-14)


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
    assert lhs >= M.mu * q - 1e-12


def test_modulus_certificate_at_degenerate_level_random_pairs():
    # lam = beta puts the bracket against p = 0, where the derivative of
    # each smooth family vanishes: no linear rate, so phi is infinite
    # below K and the burn-in cannot come from it
    rng = np.random.default_rng(7)
    for G in (PowerG(2.0), PowerG(3.0), LogQuasiconvexG()):
        M = monotonicity_modulus(G, lam=1.0, beta=1.0)
        p_lo, p_hi = M.bracket
        assert M.mu == 0.0 and p_lo == 0.0
        assert M.phi(0.5 * M.K) == math.inf and M.phi(M.K) == 0.0
        assert M.phi_inv(5.0) == M.K
        for _ in range(300):
            p = rng.uniform(p_lo, p_hi)
            q = rng.uniform(0.0, p_hi - p)
            assert float(G(p + q)) - float(G(p)) >= M.mu * q - 1e-12


def test_modulus_degenerate_level_power():
    # lam = beta puts the bracket against p = 0, where G' = 2p vanishes:
    # no linear rate, so phi is infinite below K and phi_inv stays at K
    M = monotonicity_modulus(PowerG(2.0), lam=1.0, beta=1.0)
    assert M.bracket == (0.0, 1.0)
    assert M.K == 1.0 and M.mu == 0.0
    for p in (0.5, 0.01, 1e-6):
        assert M.phi(p) == math.inf
    assert M.phi(1.0) == 0.0 and M.phi(2.0) == 0.0
    for z in (0.0, 1.0, 99.0, 999999.0):
        assert M.phi_inv(z) == 1.0
    # just above the degenerate level the rate 2 sqrt(lam - beta) returns
    M = monotonicity_modulus(PowerG(2.0), lam=1.0 + 1e-4, beta=1.0)
    assert M.mu == pytest.approx(0.02, rel=1e-12)
    assert M.phi(1e-6) == pytest.approx(math.log(M.K / 1e-6) / 0.02, rel=1e-12)


def test_modulus_degenerate_level_wider_bracket():
    # beta = 4 makes K = 2 on the symmetric family and K = 4^(1/3) on
    # branch 1 of AsymPowerG(3, 2): a wider bracket gives no rate either
    M = monotonicity_modulus(PowerG(2.0), lam=4.0, beta=4.0)
    assert M.K == pytest.approx(2.0, abs=1e-14)
    assert M.mu == 0.0
    assert M.phi(0.01) == math.inf and M.phi_inv(50.0) == M.K
    M1 = monotonicity_modulus(AsymPowerG(3.0, 2.0), lam=4.0, beta=4.0, branch=1)
    assert M1.bracket[1] == 0.0
    assert M1.K == pytest.approx(4.0 ** (1.0 / 3.0), rel=1e-15)
    assert M1.mu == 0.0 and M1.phi(0.01) == math.inf


def test_modulus_degenerate_level_log():
    # the log family's derivative 2p / (1 + p^2) vanishes at p = 0 too
    M = monotonicity_modulus(LogQuasiconvexG(), lam=1.0, beta=1.0)
    assert M.bracket[0] == 0.0
    assert M.K == pytest.approx(math.sqrt(math.e - 1.0), rel=1e-15)
    assert M.mu == 0.0
    assert M.phi(1e-3) == math.inf
    assert M.phi_inv(10.0) == M.K


# a table with its minimum at p = 0, extrapolated beyond |p| = 3 or 4
_TAB = TabulatedG(np.array([-4.0, -2.5, -1.0, 0.0, 1.5, 3.0]),
                  np.array([7.0, 4.0, 1.0, 0.0, 2.0, 5.0]))


@given(data=st.data())
@settings(max_examples=120, deadline=None)
def test_abs_derivative_inf_bounds_sampled_slopes(data):
    # on a random interval on either side of the minimum, the bound is at
    # most |G'| anywhere inside it; for the smooth families it is the
    # smaller end value, since |G'| is monotone or (log) unimodal there
    G = data.draw(st.sampled_from([PowerG(2.0), PowerG(1.5), AsymPowerG(3.0, 1.5),
                                   LogQuasiconvexG(), _TAB]))
    near = data.draw(st.floats(0.0, 5.0))
    far = near + data.draw(st.floats(1e-3, 5.0))
    p_lo, p_hi = data.draw(st.sampled_from([(near, far), (-far, -near)]))
    inf = G.abs_derivative_inf(p_lo, p_hi)
    assert inf >= 0.0
    sampled = np.abs(G.deriv(np.linspace(p_lo, p_hi, 2001)[1:-1]))
    assert inf <= sampled.min()
    if G is not _TAB:
        ends = np.abs(G.deriv(np.array([p_lo, p_hi])))
        assert inf == pytest.approx(ends.min(), rel=1e-12, abs=1e-300)


def test_branch2_modulus_rejects_bad_levels():
    for branch in (1, 2):
        with pytest.raises(ValueError):
            monotonicity_modulus(PowerG(2.0), lam=1.0, beta=2.0, branch=branch)


@pytest.mark.parametrize("gamma", [1.5, 2.0, 3.0])
@pytest.mark.parametrize("beta", [0.25, 1.0, 4.0, 25.0])
def test_phi_matches_power_closed_forms(gamma, beta):
    # at lam = 2 beta the bracket is [beta^(1/gamma), (2 beta)^(1/gamma)]
    # and G' = gamma p^(gamma-1) is least at its lower end, so
    # phi(p) = log(K / p) / mu with mu = gamma beta^((gamma-1)/gamma)
    lam = 2.0 * beta
    p_lo = beta ** (1.0 / gamma)
    K = lam ** (1.0 / gamma) - p_lo
    mu = gamma * p_lo ** (gamma - 1.0)
    for G in (PowerG(gamma), AsymPowerG(2.5, gamma)):
        M = monotonicity_modulus(G, lam=lam, beta=beta)
        assert M.K == pytest.approx(K, rel=1e-14)
        assert M.mu == pytest.approx(mu, rel=1e-14)
        for p in (float(p) for p in np.geomspace(1e-6, 0.999 * K, 40)):
            exact = math.log(K / p) / mu
            assert M.phi(p) == pytest.approx(exact, rel=1e-12)
            assert M.phi_inv(exact) == pytest.approx(p, rel=1e-12)


@pytest.mark.parametrize("beta", [1.0, 4.0, 9.0])
def test_phi_log_family_matches_scipy_quad(beta):
    from scipy.integrate import quad  # test-only oracles
    from scipy.optimize import brentq

    G = LogQuasiconvexG()
    M = monotonicity_modulus(G, lam=beta + 0.25, beta=beta)
    p_lo, p_hi = M.bracket
    K = M.K
    # the bracket straddles the peak of G' = 2p / (1 + p^2) at p = 1,
    # so mu is the smaller of the two end slopes
    assert p_lo < 1.0 < p_hi
    assert M.mu == pytest.approx(float(G.deriv(np.linspace(p_lo, p_hi, 20001)).min()),
                                 rel=1e-12)

    def rise(p, q):
        # G(p + q) - G(p) without cancellation at small q
        return math.log1p(q * (2.0 * p + q) / (1.0 + p * p))

    def m_best(q):
        # G' is unimodal, so G(p + q) - G(p) over p in [p_lo, p_hi - q]
        # is least at an end: the sharpest modulus of the bracket
        return min(rise(p_lo, q), rise(p_hi - q, q))

    # the two ends trade places once, close to q = K: a kink for quad
    kink = brentq(lambda q: rise(p_lo, q) - rise(p_hi - q, q), 0.5 * K, K)
    for p in np.geomspace(1e-6, 0.999 * K, 25):
        a, b = math.log(p), math.log(K)
        lin, _ = quad(lambda u: math.exp(u) / (M.mu * math.exp(u)), a, b,
                      limit=500, epsabs=1e-14, epsrel=1e-13)
        assert M.phi(float(p)) == pytest.approx(lin, rel=1e-12, abs=0.0)
        # the linear rate is conservative: the sharpest modulus decays
        # the bracket width to p in no more s-length than phi(p)
        pts = [math.log(kink)] if p < kink else None
        best, _ = quad(lambda u: math.exp(u) / m_best(math.exp(u)), a, b,
                       points=pts, limit=500, epsabs=1e-14, epsrel=1e-12)
        assert best <= M.phi(float(p)) * (1.0 + 1e-9)


# ------------------------------------------------------------
# reflection
# ------------------------------------------------------------

def test_reflect_swaps_asym_exponents():
    # the generic mirror of AsymPowerG(3, 2) is the closed form
    # AsymPowerG(2, 3), method by method
    R, C = Reflected(AsymPowerG(3.0, 2.0)), AsymPowerG(2.0, 3.0)
    ps = np.linspace(-2.0, 2.0, 41)
    assert R(ps).tolist() == C(ps).tolist()
    assert [R.scalar(float(p)) for p in ps] == [C.scalar(float(p)) for p in ps]
    assert R.deriv(ps).tolist() == C.deriv(ps).tolist()
    for y in (0.0, 0.3, 1.0, 8.0):
        for b in (1, 2):
            assert R.branch_inverse(b, y) == C.branch_inverse(b, y)
    for lo, hi in ((-2.0, 1.5), (-1.0, -0.25), (0.5, 3.0)):
        assert R.lipschitz_on((lo, hi)) == C.lipschitz_on((lo, hi))
        if lo * hi > 0:
            assert R.abs_derivative_inf(lo, hi) == C.abs_derivative_inf(lo, hi)


def _outcome(f, x):
    """f(x), or OverflowError where Python's float power raises it."""
    try:
        return f(x)
    except OverflowError:
        return OverflowError


@pytest.mark.parametrize("gamma", [1.5, 2.0, 3.0])
def test_equal_exponents_take_the_two_sided_values(gamma):
    # AsymPowerG(gamma, gamma)'s fast paths give the general forms' values,
    # bit for bit up to a zero's sign, at zeros of both signs, subnormals,
    # 1e150 (whose cube overflows), negative values and two points where a
    # libm's pow(x, 2.0) can miss x * x
    ps = [0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, 0.3, -0.7, 1.0, -2.5,
          1e150, -1e150, 2.817595433862767, -0.8843031552730771]
    G, p = AsymPowerG(gamma, gamma), np.array(ps)
    ap = np.abs(p)
    with np.errstate(over="ignore"):
        assert G(p).tolist() == np.where(p < 0, ap ** gamma,
                                         ap ** gamma).tolist()
        assert G.deriv(p).tolist() == np.where(
            p < 0, -gamma * ap ** (gamma - 1.0),
            gamma * ap ** (gamma - 1.0)).tolist()
    # the (2, 2) scalar is the product, which x ** 2.0 can miss by an ulp
    two_sided = ((lambda x: x * x) if gamma == 2.0 else
                 (lambda x: (-x) ** gamma if x < 0 else x ** gamma))
    assert [_outcome(G.scalar, x) for x in ps] == \
        [_outcome(two_sided, x) for x in ps]


def test_branch1_modulus_via_reflection():
    # branch 1 of asym-power (3, 2) is cubic: its modulus must use
    # exponent 3, not 2.
    M = monotonicity_modulus(AsymPowerG(3.0, 2.0), lam=2.0, beta=1.0, branch=1)
    assert M.mu > 0
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


def test_tabulated_scalar_bit_equal_to_call():
    # the scalar path the RK4 loop uses returns the array path's bits:
    # random points inside and outside the table, every node and the
    # floats next to it, and the two infinities
    rng = np.random.default_rng(3)
    for T in (_quadratic_table(), _TAB):
        ps = np.concatenate((rng.uniform(-6.0, 6.0, 20000), T.ps,
                             np.nextafter(T.ps, np.inf),
                             np.nextafter(T.ps, -np.inf), [np.inf, -np.inf]))
        g = T.scalar
        got = np.array([g(float(p)) for p in ps])
        assert got.tobytes() == T(ps).tobytes()


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


def test_tabulated_branch_inverse_exact_at_nodes():
    # each branch inverse returns the node whose G value it is given,
    # the minimum on either branch
    for T in (_quadratic_table(), _TAB):
        for i, p in enumerate(T.ps):
            branches = (1, 2) if i == T.imin else (2 if i > T.imin else 1,)
            for b in branches:
                assert T.branch_inverse(b, float(T(p))) == p


def test_tabulated_modulus_is_conservative():
    T = _quadratic_table()
    M = monotonicity_modulus(T, lam=2.0, beta=1.0)
    assert M.mu > 0
    # true inf of derivative is 2.0; segment slopes give 2 +- dx
    assert M.mu == pytest.approx(2.0, abs=0.02)
    p_lo, p_hi = M.bracket
    rng = np.random.default_rng(3)
    for _ in range(200):
        p = rng.uniform(p_lo, p_hi)
        q = rng.uniform(0.0, p_hi - p)
        assert float(T(p + q)) - float(T(p)) >= M.mu * q - 1e-10


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
    # a non-finite entry: a nan p passed the increasing check (and at the
    # minimum crashed later on an empty reduction), and an inf last p
    # built a G whose edge slope is 0
    table = ([-4.0, -2.5, -1.0, 0.0, 1.5, 3.0], [7.0, 4.0, 1.0, 0.0, 2.0, 5.0])
    for col, row, bad in [(0, 3, math.nan), (0, 0, math.nan), (0, 5, math.inf),
                          (1, 4, math.nan)]:
        cols = [np.array(c) for c in table]
        cols[col][row] = bad
        with pytest.raises(ValueError, match="non-finite"):
            TabulatedG(*cols)


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
