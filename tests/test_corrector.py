import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hjlab.corrector import (
    _DEGENERATE_BURN_IN,
    _N_BATCHES,
    _T975,
    _check_monotone_steps,
    _rk4_forward,
    _rk4_run,
    _rk4_tangent,
    _stages,
    burn_in_length,
    choose_dx,
    corrector_profile,
    estimate_theta,
    residual_series,
    save_profile,
)
from hjlab.environment import HillWitness, _build, generate_env, reflect
from hjlab.errors import (BracketExitError, CertificateError, GlueError,
                          WindowError)
from hjlab.hamiltonian import (AsymPowerG, PowerG, TabulatedG, bracket,
                               monotonicity_modulus)
from hjlab.probe import build_glued_profile, find_low_slope_points
from oracles import Reflected, cell_average, shoot

G = PowerG(2.0)
SQRT2 = math.sqrt(2.0)


@pytest.fixture(scope="module")
def env_periodic():
    return generate_env("periodic", 1, (-30.0, 30.0), 0.01)


@pytest.fixture(scope="module")
def env_const_v1():
    return generate_env("constant", 0, (0.0, 30.0), 0.1, {"v0": 1.0})


@pytest.fixture(scope="module")
def profile_periodic(env_periodic):
    return corrector_profile(env_periodic, G, 1.0, 2.0, 2, (0.0, 10.0), 1e-6, 0.01)


# ------------------------------------------------------------
# shooting
# ------------------------------------------------------------

def test_shoot_fixed_point_full_potential(env_const_v1):
    # G(1) + 1*1 = 2: a constant stationary solution, preserved exactly
    p = shoot(env_const_v1, G, 1.0, 2.0, 2, 0.0, 1.0, 0.01)
    assert float(np.max(np.abs(p.f_vals - 1.0))) == 0.0
    assert p.branch == 2 and p.burn_in == 0.0


def test_shoot_fixed_point_zero_potential():
    env = generate_env("constant", 0, (0.0, 10.0), 0.1, {"v0": 0.0})
    p = shoot(env, G, 1.0, 2.0, 2, 0.0, SQRT2, 0.01)
    assert float(np.max(np.abs(p.f_vals - SQRT2))) == 0.0


def test_shoot_validates_inputs(env_const_v1):
    with pytest.raises(ValueError):
        shoot(env_const_v1, G, 1.0, 0.5, 2, 0.0, 0.3, 0.01)   # lam < beta
    with pytest.raises(ValueError):
        shoot(env_const_v1, G, 1.0, 2.0, 2, 0.0, 0.5, 0.01)   # c off bracket
    with pytest.raises(ValueError):
        shoot(env_const_v1, G, 1.0, 2.0, 3, 0.0, 1.2, 0.01)   # bad branch


def test_shoot_bracket_exit_on_coarse_step(env_const_v1):
    # dx = 3 overshoots the decay toward the bracket floor at lam = beta
    with pytest.raises(BracketExitError):
        shoot(env_const_v1, G, 1.0, 1.0, 2, 0.0, 1.0, 3.0)


def test_shoot_stays_in_bracket():
    env = generate_env("iid-interp", 7, (0.0, 200.0), 0.5)
    p = shoot(env, G, 1.0, 2.0, 2, 0.0, 1.2, 0.01)
    assert p.f_vals.min() >= 1.0 - 1e-9
    assert p.f_vals.max() <= SQRT2 + 1e-9


def test_shoot_matches_dense_step_oracle(env_periodic):
    # frozen setup: c = 1.2, L = -20, compared on [0, 10]
    coarse = shoot(env_periodic, G, 1.0, 2.0, 2, -20.0, 1.2, 0.01)
    dense = shoot(env_periodic, G, 1.0, 2.0, 2, -20.0, 1.2, 0.0001)
    m = (coarse.grid >= 0.0) & (coarse.grid <= 10.0)
    md = (dense.grid >= 0.0) & (dense.grid <= 10.0)
    dev = np.max(np.abs(coarse.f_vals[m] - dense.f_vals[md][::100]))
    assert float(dev) <= 1e-8


def test_contraction_ordering(env_periodic):
    lo = shoot(env_periodic, G, 1.0, 2.0, 2, -20.0, 1.01, 0.01)
    hi = shoot(env_periodic, G, 1.0, 2.0, 2, -20.0, 1.41, 0.01)
    diff = hi.f_vals - lo.f_vals
    assert diff.min() >= -1e-12          # order preserved
    # the gap is dominated by the certificate envelope in s = x (a == 1)
    M = monotonicity_modulus(G, 2.0, 1.0)
    env_bound = np.array([M.phi_inv(x - (-20.0)) for x in hi.grid])
    assert np.all(diff <= env_bound + 1e-9)


# ------------------------------------------------------------
# burn-in and certification
# ------------------------------------------------------------

def test_burn_in_closed_form():
    z = burn_in_length(G, 1.0, 2.0, 1e-6)
    assert z == pytest.approx(6.467068485472366, abs=1e-12)
    assert burn_in_length(G, 1.0, 2.0, 1.0) == 0.0
    # lam = beta: no linear rate, so the first burn-in is the constant
    assert burn_in_length(G, 1.0, 1.0, 1e-6) == _DEGENERATE_BURN_IN == 16.0
    with pytest.raises(ValueError):
        burn_in_length(G, 1.0, 2.0, 0.0)


def test_corrector_profile_certified(profile_periodic):
    p = profile_periodic
    assert p.cert_bound <= 1e-6
    assert p.burn_in >= 6.467
    assert p.grid[0] == pytest.approx(0.0, abs=1e-9)
    assert p.grid[-1] == pytest.approx(10.0, abs=1e-9)
    assert p.f_vals.min() >= 1.0 - 1e-9 and p.f_vals.max() <= SQRT2 + 1e-9


def test_corrector_profile_periodicity(profile_periodic):
    # uniqueness + a 1-periodic medium force a 1-periodic slope
    p = profile_periodic
    n1 = round(1.0 / p.dx)
    dev = np.max(np.abs(p.f_vals[n1:] - p.f_vals[:-n1]))
    assert float(dev) <= 2e-6


def test_corrector_profile_residual_small(profile_periodic):
    env = generate_env("periodic", 1, (-30.0, 30.0), 0.01)
    r = residual_series(env, profile_periodic.grid, profile_periodic.f_vals, G, 1.0)
    assert float(np.max(np.abs(r - 2.0))) < 1e-3


@pytest.mark.parametrize("branch, region", [(1, (-10.004, 0.0)),
                                            (2, (0.0, 10.004))])
def test_residual_with_tail_step(env_periodic, branch, region):
    # the short tail step (first on branch 1, last on branch 2) is
    # differenced on its own spacing, so the band is that of a region of
    # whole steps, and dx is the body step
    p = corrector_profile(env_periodic, G, 1.0, 2.0, branch, region, 1e-6,
                          0.01)
    assert float(np.diff(p.grid).min()) == pytest.approx(0.004, abs=1e-9)
    assert p.dx == pytest.approx(0.01, abs=1e-12)
    r = residual_series(env_periodic, p.grid, p.f_vals, G, 1.0)
    assert float(np.max(np.abs(r - 2.0))) < 1e-3


def test_residual_is_second_order():
    # env sampled much finer than the integration step, so the medium is
    # smooth at integration scale and the centered residual is O(dx^2)
    env = generate_env("periodic", 1, (-30.0, 30.0), 0.0005)
    errs = []
    for dx in (0.02, 0.01):
        p = corrector_profile(env, G, 1.0, 2.0, 2, (0.0, 10.0), 1e-6, dx)
        r = residual_series(env, p.grid, p.f_vals, G, 1.0)
        errs.append(float(np.max(np.abs(r - 2.0))))
    ratio = errs[0] / errs[1]
    assert 3.5 <= ratio <= 4.5


def test_corrector_profile_window_too_small():
    env = generate_env("periodic", 1, (-2.0, 12.0), 0.01)
    with pytest.raises(WindowError):
        corrector_profile(env, G, 1.0, 2.0, 2, (0.0, 10.0), 1e-6, 0.01)


def test_corrector_profile_branch1(env_periodic):
    p = corrector_profile(env_periodic, G, 1.0, 2.0, 1, (-10.0, 0.0), 1e-6, 0.01)
    assert p.f_vals.min() >= -SQRT2 - 1e-9
    assert p.f_vals.max() <= -1.0 + 1e-9
    assert p.grid[0] == pytest.approx(-10.0, abs=1e-9)
    env = generate_env("periodic", 1, (-30.0, 30.0), 0.01)
    r = residual_series(env, p.grid, p.f_vals, G, 1.0)
    assert float(np.max(np.abs(r - 2.0))) < 1e-3


@pytest.fixture(scope="module")
def env_iid3():
    return generate_env("iid-interp", 3, (-130.0, 130.0), 0.01)


def _full_two_start_reference(env, lam, branch, region, burn, dx):
    """Grid, values and gap of two full runs through separate samplings,
    started at the bracket ends, the one nearer 0 first."""
    p_lo, p_hi = bracket(G, branch, lam, 1.0)
    if branch == 2:
        L = region[0] - burn
        runs = [_rk4_forward(env, G, lam, 1.0, L, c, region[1], dx, p_lo, p_hi)
                for c in (p_lo, p_hi)]
        keep = runs[0][0] >= region[0] - 1e-9
        (xs, fs), (_, alt) = [(x[keep], f[keep]) for x, f in runs]
    else:
        runs = [_rk4_forward(env, G, lam, 1.0, region[1] + burn, c, region[0],
                             dx, p_lo, p_hi) for c in (p_hi, p_lo)]
        keep = runs[0][0] <= region[1] + 1e-9
        (xs, fs), (_, alt) = [(x[keep][::-1], f[keep][::-1]) for x, f in runs]
    steps = runs[0][0].size - 1
    return xs, fs, float(np.max(np.abs(fs - alt))), steps


@pytest.mark.parametrize("branch, lam, tol, region", [
    (2, 1.0, 1e-2, (0.0, 20.0)),
    (1, 1.0, 1e-2, (-20.0, 0.0)),
    (2, 2.0, 1e-6, (0.0, 10.005)),     # tail step of 0.005
    (1, 2.0, 1e-6, (-10.005, 0.0)),
])
def test_early_stop_equals_two_full_runs(env_iid3, branch, lam, tol, region):
    # the check run stops once it equals the reported run (inside the
    # region: 29 units from the start at lam = beta, where the burn-in
    # is 16, and 8.5 units into it at lam = 2); the profile
    # and the gap must still be those of two full, separately sampled
    # runs, and the gap is the certificate
    p = corrector_profile(env_iid3, G, 1.0, lam, branch, region, tol, 0.01)
    xs, fs, gap, steps = _full_two_start_reference(env_iid3, lam, branch,
                                                   region, p.burn_in, 0.01)
    assert p.grid.tobytes() == xs.tobytes()
    assert p.f_vals.tobytes() == fs.tobytes()
    assert p.cert_bound == gap
    assert steps < p.rk4_steps < 2 * steps


def test_two_start_certificate_fires_without_burn_in(env_iid3, monkeypatch):
    # with no first burn-in the two starts meet the region a bracket
    # width apart, so the burn-in doubles from one step until the
    # measured enclosure is within tol
    monkeypatch.setattr("hjlab.corrector.burn_in_length",
                        lambda *args, **kwargs: 0.0)
    for branch, region in ((2, (0.0, 10.0)), (1, (-10.0, 0.0))):
        p = corrector_profile(env_iid3, G, 1.0, 2.0, branch, region, 1e-6,
                              0.01)
        assert p.cert_bound <= 1e-6
        assert p.burn_in > 0.0


@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_enclosure_contains_every_bracketed_start(data):
    # each RK4 step is increasing in f, so the run from any start in the
    # bracket lies between the runs from its two ends, node by node (up
    # to rounding, which can swap runs that start an ulp apart)
    kind = data.draw(st.sampled_from(("iid-interp", "gauss-squash",
                                      "periodic")))
    seed = data.draw(st.integers(0, 50))
    lam = data.draw(st.sampled_from((1.0, 1.5, 3.0)))
    branch = data.draw(st.sampled_from((1, 2)))
    t = data.draw(st.floats(0.0, 1.0))
    env = generate_env(kind, seed, (-10.0, 10.0), 0.01)
    p_lo, p_hi = bracket(G, branch, lam, 1.0)
    L = -10.0 if branch == 2 else 10.0
    lo, f, hi = (shoot(env, G, 1.0, lam, branch, L, c, 0.01).f_vals
                 for c in (p_lo, p_lo + t * (p_hi - p_lo), p_hi))
    assert np.all(lo <= f + 1e-13) and np.all(f <= hi + 1e-13)


def test_degenerate_level_certifies_at_tight_tol():
    # lam = beta has no linear contraction rate (the a-priori burn-in at
    # tol 1e-6 was 999,999 units); across this medium's hills the two
    # starts close to 1e-6 well inside a 200-unit window
    env = generate_env("iid-interp", 56254, (-200.0, 200.0), 0.01)
    for branch, region in ((2, (0.0, 20.0)), (1, (-20.0, 0.0))):
        p = corrector_profile(env, G, 1.0, 1.0, branch, region, 1e-6, 0.01)
        assert p.cert_bound <= 1e-6


def test_degenerate_level_without_contraction_leaves_window():
    # V = 1 everywhere: at lam = beta the run from 0 stays at 0 and the
    # one from 1 decays like 1 / (1 + x), so the width reaches 1e-3 only
    # after about 1000 units and the doubling burn-in leaves the window
    env = generate_env("constant", 0, (-200.0, 200.0), 0.1, {"v0": 1.0})
    with pytest.raises(WindowError, match="still differed"):
        corrector_profile(env, G, 1.0, 1.0, 2, (0.0, 20.0), 1e-3, 0.01)


def test_non_monotone_step_is_refused(env_iid3):
    # |dx| max(1/a) Lip(G) = 0.5 * 1 * 12 on the padded bracket at lam = 25
    with pytest.raises(CertificateError, match="not monotone"):
        corrector_profile(env_iid3, G, 1.0, 25.0, 2, (0.0, 10.0), 1e-6, 0.5)


def test_low_a_stretch_outside_the_span_is_not_refused(env_iid3):
    # the check takes max(1/a) over the attempt's own stage points:
    # a = 0.01 on [100, 110] makes |dx| max(1/a) Lip(G) = 6.8 there,
    # which refuses a run through the stretch but not one that never
    # reaches it (the window-wide bound refused both)
    a = np.where((env_iid3.xs >= 100.0) & (env_iid3.xs <= 110.0), 0.01,
                 env_iid3.a_vals)
    env = _build(3, "iid-interp", env_iid3.window, env_iid3.dx_env, a,
                 env_iid3.v_vals.copy(), {}, ())
    p = corrector_profile(env, G, 1.0, 2.0, 2, (0.0, 10.0), 1e-6, 0.01)
    q = corrector_profile(env_iid3, G, 1.0, 2.0, 2, (0.0, 10.0), 1e-6, 0.01)
    assert p.f_vals.tobytes() == q.f_vals.tobytes()
    with pytest.raises(CertificateError, match="not monotone"):
        corrector_profile(env, G, 1.0, 2.0, 2, (105.0, 115.0), 1e-6, 0.01)
    # the step chooser bounds max(1/a) over the window, erring small
    assert choose_dx(env, G, 1.0, [(2, 2.0)]) == 0.01


def test_first_burn_in_is_clipped_to_the_window():
    # just above lam = beta the linear rate tends to 0: phi(1e-6) asks
    # 6,907 and 69,077 units, far past the 960 the window holds.  Clipped
    # to the window, the enclosure closes as it does at lam = beta
    env = generate_env("iid-interp", 56254, (-960.0, 960.0), 0.01)
    for lam, asked in ((1.0 + 1e-6, 6907.0), (1.0 + 1e-8, 69077.0)):
        assert burn_in_length(G, 1.0, lam, 1e-6) == pytest.approx(asked,
                                                                  abs=1.0)
        p = corrector_profile(env, G, 1.0, lam, 2, (0.0, 20.0), 1e-6, 0.01)
        assert p.burn_in == pytest.approx(960.0, abs=1e-9)
        assert p.cert_bound <= 1e-6


@pytest.mark.parametrize("lam", [2.0, 3.0])      # n_burn 647 (odd), 448 (even)
@pytest.mark.parametrize("branch, region", [
    (2, (0.0, 10.0)),
    (2, (0.0, 10.005)),                          # tail step of 0.005
    (1, (-10.005, 0.0)),
])
def test_doubled_run_is_a_run_at_twice_the_step(env_iid3, lam, branch,
                                                region):
    # the doubled run reuses every other stage coefficient of the
    # reported run's lattice, from the node of the burn-in's parity; its
    # region average must be that of a separately sampled run at 0.02
    # from the same node, and the reported run must not change
    p = corrector_profile(env_iid3, G, 1.0, lam, branch, region, 1e-6, 0.01,
                          doubled=True)
    q = corrector_profile(env_iid3, G, 1.0, lam, branch, region, 1e-6, 0.01)
    assert p.f_vals.tobytes() == q.f_vals.tobytes()
    assert p.cert_bound == q.cert_bound and q.disc_bound is None
    first = round(p.burn_in / 0.01) % 2
    p_lo, p_hi = bracket(G, branch, lam, 1.0)
    sgn, c = (1.0, p_lo) if branch == 2 else (-1.0, p_hi)
    L = region[0] - p.burn_in if branch == 2 else region[1] + p.burn_in
    x_end = region[1] if branch == 2 else region[0]
    if first:
        c = _rk4_forward(env_iid3, G, lam, 1.0, L, c, L + sgn * 0.01, 0.01,
                         p_lo, p_hi)[1][-1]
    xs, fs = _rk4_forward(env_iid3, G, lam, 1.0, L + sgn * first * 0.01, c,
                          x_end, 0.02, p_lo, p_hi)
    keep = (xs >= region[0] - 1e-9) & (xs <= region[1] + 1e-9)
    X = region[1] - region[0]
    mean2 = sgn * float(np.trapezoid(fs[keep], xs[keep])) / X
    mean = float(np.trapezoid(p.f_vals, p.grid)) / X
    assert p.disc_bound == pytest.approx(abs(mean - mean2), rel=1e-6,
                                         abs=1e-13)
    assert 0.0 < p.disc_bound < 1e-5
    # its steps are counted: half the reported run's, up to one step
    assert p.rk4_steps - q.rk4_steps == pytest.approx(
        (p.grid.size - 1 + round(p.burn_in / 0.01)) / 2, abs=1)


def test_choose_dx_takes_the_largest_monotone_step():
    # a = 1 on iid-interp: at lam = 6.78, |dx| max(1/a) Lip(G) = 0.22 at
    # dx = 0.04.  gauss-squash (seed 1) reaches a = 0.204, where 0.04
    # gives 1.17 > 1 and 0.02 gives 0.55
    iid = generate_env("iid-interp", 1, (-30.0, 30.0), 0.01)
    gs = generate_env("gauss-squash", 1, (-30.0, 30.0), 0.01)
    assert choose_dx(iid, G, 1.0, [(1, 6.78), (2, 6.78)]) == 0.04
    assert choose_dx(gs, G, 1.0, [(1, 6.78), (2, 6.78)]) == 0.02
    p_lo, p_hi = bracket(G, 2, 6.78, 1.0)
    with pytest.raises(CertificateError, match="not monotone"):
        _check_monotone_steps(1.0 / float(gs.a_vals.min()), G, 1.0, p_lo,
                              p_hi, 0.04)
    # coupled-singular dips to a ~ 1e-4: nothing passes, and the smallest
    # step is returned for the shooting check to refuse
    cs = generate_env("coupled-singular", 1, (-200.0, 200.0), 0.01)
    assert choose_dx(cs, G, 1.0, [(2, 2.0)]) == 0.01


@pytest.fixture(scope="module")
def env_periodic_long():
    return generate_env("periodic", 1, (-100.0, 20.0), 0.01)


@pytest.mark.parametrize("lam", [1.0, 1.5, 2.0, 4.0])
def test_default_step_average_within_its_bar(env_periodic_long, lam):
    # at dx = 0.04 the steps straddle the kinks of the piecewise-linear
    # medium (dx_env = 0.01), and the average moves off the one-cell
    # average by 5e-7 to 1.6e-6; the step-doubling bar covers it
    dx = choose_dx(env_periodic_long, G, 1.0, [(2, lam)])
    assert dx == 0.04
    est = estimate_theta(env_periodic_long, G, 1.0, lam, 2, 10.0, dx=dx)
    oracle = cell_average(generate_env("periodic", 1, (-30.0, 1.0), 0.01),
                          G, 1.0, lam)
    assert abs(est.mean - oracle) <= est.disc_bound + 1e-6
    assert est.disc_bound < 1e-5


@pytest.mark.parametrize("gammas", [(1.5, 3.0), (3.0, 1.5)])
def test_branch_burn_in_for_asymmetric_G(env_iid3, gammas):
    # each branch takes its burn-in from its own modulus; with the branch-2
    # modulus, branch 1 of AsymPowerG(1.5, 3) stopped at 4.16 of the 8.86
    # it needs and the two starts still differed by 3.4e-4
    Ga = AsymPowerG(*gammas)
    for branch, region in ((1, (-10.0, 0.0)), (2, (0.0, 10.0))):
        M = monotonicity_modulus(Ga, 2.0, 1.0, branch=branch)
        z = burn_in_length(Ga, 1.0, 2.0, 1e-6, branch=branch)
        assert z == M.phi(1e-6)
        p = corrector_profile(env_iid3, Ga, 1.0, 2.0, branch, region, 1e-6, 0.01)
        assert p.cert_bound <= 1e-6
        assert p.burn_in >= z


@pytest.mark.parametrize("Gf", [
    AsymPowerG(1.5, 3.0),
    TabulatedG(np.array([-3.0, -2.0, -1.0, -0.5, 0.0, 0.5, 1.5, 3.0]),
               np.array([6.0, 3.5, 1.2, 0.3, 0.0, 0.2, 1.8, 7.0])),
])
def test_branch1_leftward_run_matches_reflected_branch2(env_iid3, Gf):
    # branch 1 shoots leftward on the medium and G as given; the oracle is
    # branch 2 of the reflected problem (x -> -x, G -> G(-p)), mapped
    # back.  The region ends in a tail step of 0.004.
    p1 = corrector_profile(env_iid3, Gf, 1.0, 2.0, 1, (-10.004, 0.0), 1e-6,
                           0.01, tangent=True)
    p2 = corrector_profile(reflect(env_iid3), Reflected(Gf), 1.0, 2.0, 2,
                           (0.0, 10.004), 1e-6, 0.01, tangent=True)
    assert float(np.diff(p1.grid).min()) == pytest.approx(0.004, abs=1e-9)
    assert p1.grid.size == p2.grid.size
    assert np.max(np.abs(p1.grid + p2.grid[::-1])) <= 1e-12
    assert np.max(np.abs(p1.f_vals + p2.f_vals[::-1])) <= 1e-12
    assert np.max(np.abs(p1.g_vals + p2.g_vals[::-1])) <= 1e-12
    assert abs(p1.cert_bound - p2.cert_bound) <= 1e-12
    assert p1.burn_in == p2.burn_in and p1.rk4_steps > 0


# ------------------------------------------------------------
# theta estimation
# ------------------------------------------------------------

def test_theta_constant_env_exact():
    env = generate_env("constant", 0, (-10.0, 120.0), 0.5, {"v0": 0.0})
    th = estimate_theta(env, G, 1.0, 2.0, 2, 100.0, tol=1e-6, dx=0.01)
    assert th.mean == pytest.approx(SQRT2, abs=1e-9)
    assert th.ci_halfwidth <= 1e-9
    assert th.cert_bound <= 1e-6


def test_theta_periodic_equals_period_average(env_periodic):
    th = estimate_theta(env_periodic, G, 1.0, 2.0, 2, 10.0, tol=1e-6, dx=0.01)
    # dense one-period oracle from an independent run
    dense = shoot(env_periodic, G, 1.0, 2.0, 2, -20.0, 1.2, 0.0005)
    m = (dense.grid >= 0.0) & (dense.grid <= 1.0 + 1e-12)
    oracle = np.trapezoid(dense.f_vals[m], dense.grid[m]) / 1.0
    assert th.mean == pytest.approx(float(oracle), abs=1e-6)


def test_theta_iid_strictly_inside_bracket():
    env = generate_env("iid-interp", 23, (-10.0, 2100.0), 0.5)
    th = estimate_theta(env, G, 1.0, 2.0, 2, 2000.0, tol=1e-6, dx=0.01)
    assert 1.0 + th.ci_halfwidth < th.mean < SQRT2 - th.ci_halfwidth
    assert th.window_length == 2000.0


def test_theta_branch1_is_reflected_branch2():
    env = generate_env("iid-interp", 23, (-2100.0, 10.0), 0.5)
    th1 = estimate_theta(env, G, 1.0, 2.0, 1, 500.0, tol=1e-6, dx=0.01)
    th2 = estimate_theta(reflect(env), G, 1.0, 2.0, 2, 500.0, tol=1e-6, dx=0.01)
    assert th1.mean == pytest.approx(-th2.mean, abs=1e-12)
    assert -SQRT2 < th1.mean < -1.0


def test_theta_reports_profile_work(env_iid3):
    # an estimate's profile carries its step-doubling run
    th = estimate_theta(env_iid3, G, 1.0, 1.0, 2, 20.0, tol=1e-2)
    p = corrector_profile(env_iid3, G, 1.0, 1.0, 2, (0.0, 20.0), 1e-2, 0.01,
                          doubled=True)
    assert th.rk4_steps == p.rk4_steps > 0
    assert th.cert_bound == p.cert_bound <= 1e-2
    assert th.disc_bound == p.disc_bound


def test_theta_ci_uses_student_t_quantile(env_periodic):
    # the CI is t_0.975(9) sd / sqrt(10) over ten contiguous batch means
    # bit for bit, recomputed here from the profile (the quantile is
    # checked against oracles in test_student_t_quantile_matches_oracles)
    prof = corrector_profile(env_periodic, G, 1.0, 2.0, 2, (0.0, 10.0),
                             1e-6, 0.01)
    f = prof.f_vals
    th = estimate_theta(env_periodic, G, 1.0, 2.0, 2, 10.0)
    edges = np.linspace(0, f.size - 1, 11).astype(int)
    bm = np.array([f[edges[k]:edges[k + 1] + 1].mean() for k in range(10)])
    assert _N_BATCHES == 10
    assert th.ci_halfwidth == _T975 * float(bm.std(ddof=1)) / math.sqrt(10)


def test_student_t_quantile_matches_oracles():
    # scipy itself is up to 3 ulp off the exact root
    from scipy.special import stdtrit  # test-only oracle

    assert _T975 == pytest.approx(float(stdtrit(9, 0.975)), rel=1e-14, abs=0.0)


def test_student_t_quantile_matches_mpmath_root():
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        half = mpmath.mpf(1) / 2
        # P(|T| > t) = I_{9 / (9 + t^2)}(9 / 2, 1 / 2) = 0.05
        root = float(mpmath.findroot(
            lambda t: mpmath.betainc(9 * half, half, 0, 9 / (9 + t * t),
                                     regularized=True) - mpmath.mpf("0.05"),
            mpmath.mpf(_T975)))
    assert root == 2.2621571627982053  # correctly rounded
    # the constant the batch-means CI has always used: one ulp above it
    assert _T975 == math.nextafter(root, math.inf)


def test_theta_at_degenerate_level():
    # lam = beta on V = 0: the run from 0 is tanh(x - L) and the one
    # from 1 stays at 1, so the enclosure closes within the first
    # burn-in of 16 units
    env = generate_env("constant", 0, (-120.0, 120.0), 0.5, {"v0": 0.0})
    th = estimate_theta(env, G, 1.0, 1.0, 2, 100.0, tol=1e-2, dx=0.01)
    assert th.cert_bound <= 1e-2
    assert th.mean == pytest.approx(1.0, abs=2e-2)


# ------------------------------------------------------------
# flat-piece gluing
# ------------------------------------------------------------

HILL = HillWitness(L1=5.0, L2=25.0, scaled_length=20.0, v_min_on_interval=1.0)


def test_glued_profile_trivial_constant(env_const_v1):
    gl = build_glued_profile(env_const_v1, G, 1.0, 0.25, HILL, order="21",
                             region=(0.0, 30.0), dx=0.01)
    assert gl.order == "21"
    assert HILL.L1 <= gl.z2 < gl.z1 <= HILL.L2
    lo, hi = gl.residual_band
    assert lo >= 1.0 - 3 * 0.25 - 1e-6
    assert hi <= 1.0 + 4 * 0.25 + 1e-6
    # residual stays near beta on a constant full-strength potential
    assert abs(lo - 1.0) < 0.05 and abs(hi - 1.0) < 0.05


def test_glued_profile_order_12(env_const_v1):
    gl = build_glued_profile(env_const_v1, G, 1.0, 0.25, HILL, order="12",
                             region=(0.0, 30.0), dx=0.01)
    assert gl.z1 < gl.z2
    lo, hi = gl.residual_band
    assert lo >= 1.0 - 3 * 0.25 - 1e-6 and hi <= 1.0 + 4 * 0.25 + 1e-6


def test_glued_profile_is_c1(env_const_v1):
    gl = build_glued_profile(env_const_v1, G, 1.0, 0.25, HILL, order="21",
                             region=(0.0, 30.0), dx=0.01)
    df = np.diff(gl.f_vals) / np.diff(gl.grid)
    # derivative jumps across any node of a C^1 profile are O(dx)
    assert float(np.max(np.abs(np.diff(df)))) * 0.01 < 1e-3


def test_glued_profile_keeps_one_sided_pieces(env_const_v1):
    gl = build_glued_profile(env_const_v1, G, 1.0, 0.25, HILL, order="21",
                             region=(0.0, 30.0), dx=0.01)
    left = gl.grid <= gl.z2
    right = gl.grid >= gl.z1
    assert np.all(gl.f_vals[left] >= 0.0)   # branch 2 slopes
    assert np.all(gl.f_vals[right] <= 0.0)  # branch 1 slopes
    # junction values have G at most 2 delta
    i2 = int(np.argmin(np.abs(gl.grid - gl.z2)))
    i1 = int(np.argmin(np.abs(gl.grid - gl.z1)))
    assert float(G(gl.f_vals[i2])) <= 0.5 + 1e-12
    assert float(G(gl.f_vals[i1])) <= 0.5 + 1e-12


def test_find_low_slope_points_trivial():
    p_lo, p_hi = 0.0, 1.0
    xs2, fs2 = np.linspace(0.0, 30.0, 301), np.zeros(301)
    from hjlab.corrector import CorrectorProfile
    prof2 = CorrectorProfile(branch=2, lam=1.0, beta=1.0, grid=xs2,
                             f_vals=fs2, burn_in=0.0, cert_bound=1.0)
    prof1 = CorrectorProfile(branch=1, lam=1.0, beta=1.0, grid=xs2.copy(),
                             f_vals=np.zeros(301), burn_in=0.0, cert_bound=1.0)
    z1, z2 = find_low_slope_points((prof1, prof2), G, 0.25, HILL)
    assert HILL.L1 <= z2 < z1 <= HILL.L2
    assert float(G(np.array([0.0]))[0]) <= 0.5


def test_glue_rejects_short_hill(env_periodic):
    # a sin^2 hill has s-length ~ 0.2 at level 0.75, far below the
    # required (G2^-1(beta) - G1^-1(beta)) / delta = 8
    short = HillWitness(L1=0.4, L2=0.6, scaled_length=0.2, v_min_on_interval=0.8)
    with pytest.raises(GlueError):
        build_glued_profile(env_periodic, G, 1.0, 0.25, short, order="21",
                            region=(-2.0, 3.0), dx=0.01)


def test_glue_rejects_weak_hill(env_const_v1):
    weak = HillWitness(L1=5.0, L2=25.0, scaled_length=20.0, v_min_on_interval=0.5)
    with pytest.raises(GlueError):
        build_glued_profile(env_const_v1, G, 1.0, 0.25, weak,
                            region=(0.0, 30.0), dx=0.01)


def test_glue_validates_order(env_const_v1):
    with pytest.raises(ValueError):
        build_glued_profile(env_const_v1, G, 1.0, 0.25, HILL, order="22",
                            region=(0.0, 30.0), dx=0.01)


# ------------------------------------------------------------
# tangent-linear shooting
# ------------------------------------------------------------

@pytest.fixture(scope="module")
def env_iid():
    return generate_env("iid-interp", 56254, (-160.0, 160.0), 0.01)


def test_tangent_is_the_derivative_of_the_discrete_run(env_periodic):
    # fixed start, two tangent chunks and a 0.003 tail step
    def run(lam):
        st = _stages(env_periodic, lam, 1.0, -20.0, 25.003, 0.01)
        return st, np.asarray(_rk4_run(st, G, 1.2, 0.0, 5.0))

    st, fs = run(2.0)
    assert st.tail > 0.0 and st.n_steps > 4096
    g = _rk4_tangent(st, G, fs)
    fd = (run(2.0 + 1e-4)[1] - run(2.0 - 1e-4)[1]) / 2e-4
    assert g[0] == 0.0
    assert float(np.max(np.abs(g - fd))) <= 1e-6 * float(np.max(np.abs(g)))


def test_tangent_matches_banded_solve(env_periodic):
    # the chunked scan against one LAPACK forward substitution of the
    # whole unit lower-bidiagonal system g_{i+1} - alpha_i g_i = r_i,
    # whose coefficients are rebuilt here over the whole run at once
    from scipy.linalg.lapack import dtbtrs  # test-only oracle

    st = _stages(env_periodic, 2.0, 1.0, -20.0, 25.003, 0.01)
    fs = np.asarray(_rk4_run(st, G, 1.2, 0.0, 5.0))
    assert st.tail > 0.0 and st.n_steps > 4096
    n = st.n_steps
    A, B = st.A_arr, st.B_arr
    a0, am, a1 = A[0:2 * n:2], A[1:2 * n:2], A[2:2 * n + 1:2]
    h = np.where(np.arange(n) < st.n_full, st.dx, st.tail)
    f = fs[:-1]
    k1 = B[0:2 * n:2] - a0 * G(f)
    y2 = f + 0.5 * h * k1
    k2 = B[1:2 * n:2] - am * G(y2)
    y3 = f + 0.5 * h * k2
    k3 = B[1:2 * n:2] - am * G(y3)
    y4 = f + h * k3
    d = (a0 * G.deriv(f), am * G.deriv(y2), am * G.deriv(y3),
         a1 * G.deriv(y4))

    def step(g0, c):
        q1 = c[0] - d[0] * g0
        q2 = c[1] - d[1] * (g0 + 0.5 * h * q1)
        q3 = c[1] - d[2] * (g0 + 0.5 * h * q2)
        q4 = c[2] - d[3] * (g0 + h * q3)
        return g0 + h / 6.0 * (q1 + 2.0 * (q2 + q3) + q4)

    alpha = step(1.0, (0.0, 0.0, 0.0))
    r = step(0.0, (a0, am, a1))
    ab = np.ones((2, n))
    ab[1, :-1] = -alpha[1:]
    ab[1, -1] = 0.0
    sol, info = dtbtrs(ab, r[:, None], uplo="L", diag="U")
    assert info == 0
    g = _rk4_tangent(st, G, fs)
    assert g[0] == 0.0
    assert float(np.max(np.abs(g[1:] - sol[:, 0]))) <= \
        1e-13 * float(np.max(np.abs(g)))


@pytest.mark.parametrize("branch", [2, 1])
def test_tangent_mean_matches_central_differences(env_iid, branch):
    for lam in (1.5, 2.0, 3.0):
        est = estimate_theta(env_iid, G, 1.0, lam, branch, 100.0, tangent=True)
        plain = estimate_theta(env_iid, G, 1.0, lam, branch, 100.0)
        # the slope path is untouched by the tangent pass
        assert (est.mean, est.ci_halfwidth, est.rk4_steps) == \
            (plain.mean, plain.ci_halfwidth, plain.rk4_steps)
        assert plain.dtheta_dlam is None and plain.dtheta_ci is None
        up = estimate_theta(env_iid, G, 1.0, lam + 1e-4, branch, 100.0)
        dn = estimate_theta(env_iid, G, 1.0, lam - 1e-4, branch, 100.0)
        fd = (up.mean - dn.mean) / 2e-4
        assert abs(est.dtheta_dlam - fd) <= 1e-6 * abs(fd)
        # theta_1 falls and theta_2 rises with the level
        assert (1.0 if branch == 2 else -1.0) * est.dtheta_dlam > 0.0
        assert 0.0 < est.dtheta_ci < abs(est.dtheta_dlam)


def test_tangent_constant_medium_closed_form():
    # the corrector is the constant G_b^-1(lam - beta v0), so
    # theta'(lam) = 1 / G'(theta) whatever a0 is
    env = generate_env("constant", 0, (-40.0, 40.0), 0.1,
                       {"a0": 0.5, "v0": 0.3})
    for Gf in (G, AsymPowerG(1.5, 3.0)):
        for branch in (2, 1):
            est = estimate_theta(env, Gf, 1.0, 2.0, branch, 20.0,
                                 tangent=True)
            theta = Gf.branch_inverse(branch, 2.0 - 0.3)
            assert est.mean == pytest.approx(theta, rel=1e-12)
            assert est.dtheta_dlam == pytest.approx(
                1.0 / float(Gf.deriv(theta)), rel=1e-9)


# ------------------------------------------------------------
# serialization
# ------------------------------------------------------------

def _read_profile(path):
    """(header fields, x column, f column) of a ``save_profile`` file."""
    lines = path.read_text().splitlines()
    meta = dict(line[2:].split(" ", 1) for line in lines if line.startswith("# "))
    head = lines.index("x,f")
    data = np.loadtxt(lines[head + 1:], delimiter=",", ndmin=2)
    return meta, data[:, 0], data[:, 1]


def test_profile_round_trip(tmp_path, profile_periodic):
    p = tmp_path / "prof.csv"
    save_profile(profile_periodic, str(p))
    meta, grid, f_vals = _read_profile(p)
    assert int(meta["branch"]) == profile_periodic.branch
    assert float(meta["lambda"]) == profile_periodic.lam
    assert float(meta["cert_bound"]) == profile_periodic.cert_bound
    assert np.array_equal(grid, profile_periodic.grid)
    assert np.array_equal(f_vals, profile_periodic.f_vals)


def test_profile_round_trip_with_tail_step(tmp_path, env_periodic):
    # the tail step sits at the far end of the integration: last on
    # branch 2, first on branch 1
    p = tmp_path / "prof.csv"
    for branch, region in ((2, (0.0, 10.004)), (1, (-10.004, 0.0))):
        prof = corrector_profile(env_periodic, G, 1.0, 2.0, branch, region,
                                 1e-6, 0.01)
        steps = np.diff(prof.grid)
        assert float(steps.min()) == pytest.approx(0.004, abs=1e-9)
        save_profile(prof, str(p))
        assert np.array_equal(_read_profile(p)[1], prof.grid)
