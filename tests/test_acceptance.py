"""Acceptance matrix: one test per certified property, stated tolerances.

Each test is independent and prints one pass/fail line under pytest -v.
The homogenization environments are pinned to seeds whose realizations
carry the needed potential hills (found by scanning the lattice draws;
the scans and measured sweep values live outside the package).
"""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from hjlab.corrector import burn_in_length, corrector_profile, estimate_theta
from hjlab.effective import effective_reference, kappa_tilde
from hjlab.environment import (
    check_singular_hill,
    find_hill,
    generate_env,
    s_at,
)
from hjlab.hamiltonian import (
    LogQuasiconvexG,
    PowerG,
    bracket,
    monotonicity_modulus,
)
from hjlab.pde import (
    SchemeConfig,
    evolve,
    homogenize_sweep,
    stable_dt,
)
from hjlab.probe import build_glued_profile, residual_probe
from oracles import (inverse_modulus, profile_antiderivative, scheme_update,
                     shoot)

G2 = PowerG(2.0)
GLOG = LogQuasiconvexG()
BETA = 1.0


@pytest.fixture(scope="module")
def env_iid_hill():
    # seed 56254 carries a (0.9, 5)-hill on [25.8, 32.3]; the window also
    # covers the corrector averaging ranges for the reference inversion
    return generate_env("iid-interp", 56254, (-960.0, 960.0), 0.01)


@pytest.fixture(scope="module")
def theta2_beta(env_iid_hill):
    # right flat-piece endpoint estimate (no linear contraction rate at
    # lam = beta; coarse enclosure tolerance)
    return estimate_theta(env_iid_hill, G2, BETA, BETA, 2, 300.0, tol=1e-2)


def _sweep(env, theta, ref, epsilons=(1 / 8, 1 / 16, 1 / 32, 1 / 64)):
    dx = 0.05
    dt = stable_dt(G2, BETA, theta, dx)
    scheme = SchemeConfig(dx=dx, dt=dt, M=4.0, T=1.0, theta=theta)
    return homogenize_sweep(env, G2, BETA, list(epsilons), scheme,
                            reference=ref)


# ------------------------------------------------------------
# 1. bracket invariance
# ------------------------------------------------------------

def test_criterion_01_bracket_invariance():
    # every corrector sample stays in [G2^-1(lam-beta), G2^-1(lam)] to 1e-9
    # across kinds x Hamiltonians x levels x seeds
    region = (-5.0, 5.0)
    for kind in ("periodic", "iid-interp", "gauss-squash"):
        for G in (G2, GLOG):
            for lam in (BETA, BETA + 0.5, BETA + 2.0):
                burn = burn_in_length(G, BETA, lam, 1e-2)
                window = (region[0] - burn - 2.0, region[1] + 2.0)
                for seed in range(5):
                    env = generate_env(kind, seed, window, 0.01)
                    prof = corrector_profile(env, G, BETA, lam, 2, region,
                                             1e-2, 0.01)
                    p_lo, p_hi = bracket(G, 2, lam, BETA)
                    assert prof.f_vals.min() >= p_lo - 1e-9, (kind, repr(G), lam, seed)
                    assert prof.f_vals.max() <= p_hi + 1e-9, (kind, repr(G), lam, seed)


# ------------------------------------------------------------
# 2. contraction certificate
# ------------------------------------------------------------

def test_criterion_02_contraction_certificate():
    tol = 1e-8
    for kind, seed in (("periodic", 1), ("iid-interp", 7)):
        env = generate_env(kind, seed, (-5.0, 40.0), 0.01)
        for lam in (BETA + 0.5, BETA + 2.0):
            M = monotonicity_modulus(G2, lam, BETA)
            assert M.mu > 0
            p_lo, p_hi = M.bracket
            lo = shoot(env, G2, BETA, lam, 2, -5.0, p_lo, 0.01)
            hi = shoot(env, G2, BETA, lam, 2, -5.0, p_hi, 0.01)
            diff = np.abs(hi.f_vals - lo.f_vals)
            s = s_at(env, lo.grid)
            cert = M.K * np.exp(-M.mu * (s - s[0]))
            # 1e-9 absorbs the integrator's own discretization error
            assert np.all(diff <= 2.0 * cert + 1e-9), (kind, lam)

    # closed-form burn-in equals the quadrature of 1/m for linear moduli
    for lam in (BETA + 0.5, BETA + 2.0):
        M = monotonicity_modulus(G2, lam, BETA)
        z_closed = math.log(M.K / tol) / M.mu
        z_quad, _ = quad(lambda q: 1.0 / (M.mu * q), tol, M.K,
                         limit=500, epsabs=1e-13, epsrel=1e-12)
        assert abs(z_closed - z_quad) <= 1e-10
        assert abs(M.phi(tol) - z_closed) <= 1e-12


# ------------------------------------------------------------
# 3. strict bracket of the ergodic slope average
# ------------------------------------------------------------

def test_criterion_03_strict_theta_bracket():
    env = generate_env("iid-interp", 3, (-30.0, 2030.0), 0.01)
    est = estimate_theta(env, G2, BETA, 2.0, 2, 2000.0)
    assert est.mean - est.ci_halfwidth > 1.0
    assert est.mean + est.ci_halfwidth < math.sqrt(2.0)


# ------------------------------------------------------------
# 4. theta2 rate bounds on a lambda grid
# ------------------------------------------------------------

def test_criterion_04_theta2_rate_bounds():
    eps = 0.25
    lams = [1.5, 1.75, 2.0, 2.25, 2.5]
    env = generate_env("iid-interp", 7, (-30.0, 2600.0), 0.01)
    ests = {}
    for lam in lams:
        target = eps / (10.0 * kappa_tilde(G2, lam, BETA, branch=2))
        X = 300.0
        est = estimate_theta(env, G2, BETA, lam, 2, X)
        while est.ci_halfwidth > target and X < 2400.0:
            X *= 2.0
            est = estimate_theta(env, G2, BETA, lam, 2, X)
        assert est.ci_halfwidth <= target, (lam, X, est.ci_halfwidth, target)
        ests[lam] = est
    for a, b in zip(lams, lams[1:]):
        dth = ests[b].mean - ests[a].mean
        slack = ests[a].ci_halfwidth + ests[b].ci_halfwidth
        lower = eps / kappa_tilde(G2, a, BETA, branch=2)
        upper = inverse_modulus(G2, a, BETA, eps, branch=2)
        assert dth >= lower - slack, (a, b, dth, lower, slack)
        assert dth <= upper + slack, (a, b, dth, upper, slack)


# ------------------------------------------------------------
# 5. periodic oracle equivalence
# ------------------------------------------------------------

def test_criterion_05_periodic_oracle_equivalence():
    env = generate_env("periodic", 5, (-145.0, 145.0), 0.01,
                       params={"phase": 0.25})
    est = estimate_theta(env, G2, BETA, 2.0, 2, 100.0, tol=1e-8)
    dense = corrector_profile(env, G2, BETA, 2.0, 2, (0.0, 1.0), 1e-8, 1e-4)
    one_period = float(np.trapezoid(dense.f_vals, dense.grid))
    assert abs(est.mean - one_period) <= 1e-6


# ------------------------------------------------------------
# 6. exact-solution residual of the scheme
# ------------------------------------------------------------

def test_criterion_06_exact_solution_residual():
    env = generate_env("periodic", 1, (-30.0, 30.0), 0.01)
    lam = 2.0
    prof = corrector_profile(env, G2, BETA, lam, 2, (-12.0, 12.0), 1e-6,
                             0.0025)
    F = profile_antiderivative(prof)
    errs = []
    for dx in (0.05, 0.025):
        dt = stable_dt(G2, BETA, math.sqrt(lam), dx)
        # one ghost slope serves both ends: M = 12 is a whole number of
        # periods of the 1-periodic medium, so F'(-12) = F'(12) to within
        # the enclosure (1.2887276157 against 1.2887276390)
        scheme = SchemeConfig(dx=dx, dt=dt, M=12.0, T=1.0,
                              theta=float(prof.f_vals[-1]))
        res = evolve(env, G2, BETA, F, scheme)
        interior = np.abs(res.xs) <= 6.0
        errs.append(np.max(np.abs(res.u[interior]
                                  - (F(res.xs[interior]) + lam))))
    dt0 = stable_dt(G2, BETA, math.sqrt(lam), 0.05)
    assert errs[0] <= 0.05 * (0.05 + dt0)
    assert errs[0] / errs[1] >= 1.8


# ------------------------------------------------------------
# 7. homogenization outside the flat piece
# ------------------------------------------------------------

def test_criterion_07_homogenization_monotone_branch(env_iid_hill,
                                                     theta2_beta):
    theta = theta2_beta.mean + 1.0
    ref, half = effective_reference(env_iid_hill, G2, BETA, theta, 2e-2,
                                    X=300.0)
    res = _sweep(env_iid_hill, theta, ref)
    errs = np.abs(res.values - ref)
    assert errs[-1] <= 0.05 + res.domain_sensitivity[-1] + half, \
        (errs[-1], res.domain_sensitivity[-1], half)
    assert errs[-1] <= errs[-2] + 1e-12, list(errs)
    assert not res.grad_excursion


# ------------------------------------------------------------
# 8. flat piece at slopes inside (theta1, theta2)
# ------------------------------------------------------------

def test_criterion_08_flat_piece(env_iid_hill, theta2_beta):
    # witness first: the (0.9, 5)-hill must exist inside the widest domain
    # the sweep touches (+-2 M / eps_min = +-512)
    env_used = generate_env("iid-interp", 56254, (-512.0, 512.0), 0.01)
    witness = find_hill(env_used, 0.9, 5.0)
    assert witness is not None
    assert witness.scaled_length >= 5.0
    assert witness.v_min_on_interval >= 0.9

    failures = []
    for theta in (0.0, theta2_beta.mean / 2.0):
        res = _sweep(env_iid_hill, theta, BETA)
        err = abs(res.values[-1] - BETA)
        tol = 0.05 + res.domain_sensitivity[-1]
        if err > tol:
            failures.append((theta, float(res.values[-1]), float(err),
                             float(tol)))
    assert not failures, (
        "flat-piece limit not reached at eps = 1/64 "
        "(theta, value, error, tolerance): " + repr(failures))


# ------------------------------------------------------------
# 9. glued-profile residual band
# ------------------------------------------------------------

def test_criterion_09_glued_residual_band():
    delta = BETA / 4.0
    dx = 0.01
    tol = 10.0 * dx
    env = generate_env("iid-interp", 283258, (-600.0, 600.0), 0.01)
    hill = find_hill(env, 1.0 - delta / BETA, 13.0)
    assert hill is not None
    region = (hill.L1 - 2.0, hill.L2 + 2.0)
    g21 = build_glued_profile(env, G2, BETA, delta, hill, region,
                              order="21")
    lo, hi = g21.residual_band
    assert lo >= BETA - 3.0 * delta - tol
    assert hi <= BETA + 4.0 * delta + tol
    assert residual_probe(env, G2, BETA, g21, delta, "sub").passed
    g12 = build_glued_profile(env, G2, BETA, delta, hill, region,
                              order="12")
    assert residual_probe(env, G2, BETA, g12, delta, "super").passed


# ------------------------------------------------------------
# 10. scheme monotonicity and comparison
# ------------------------------------------------------------

def test_criterion_10_scheme_monotonicity():
    dx = 0.5
    vals = np.linspace(-1.0, 1.0, 21)
    kappa = G2.lipschitz_on((-5.0, 5.0))
    dt = 0.9 / (2.0 / dx ** 2 + kappa / dx)
    ul, uc, ur = np.meshgrid(vals, vals, vals, indexing="ij")
    s = scheme_update(G2, BETA, ul, uc, ur, 1.0, 0.3, dx, dt)
    for axis in (0, 1, 2):
        assert np.all(np.diff(s, axis=axis) >= -1e-12)

    env = generate_env("periodic", 1, (-30.0, 30.0), 0.01)
    dx = 0.1
    # dt is monotone on the data's slopes, 1 +- 0.6
    dt = 0.9 * dx / G2.lipschitz_on((0.4, 1.6))
    scheme = SchemeConfig(dx=dx, dt=dt, M=10.0, T=1000 * dt, theta=1.0)
    xs = -10.0 + dx * np.arange(201)
    rng = np.random.default_rng(42)
    for _ in range(100):
        w1, w2 = rng.uniform(0.5, 2.0, 2)
        ph1, ph2 = rng.uniform(0.0, 2 * np.pi, 2)
        u0 = xs + 0.3 * np.sin(w1 * xs + ph1)
        v0 = xs + 0.3 * np.sin(w2 * xs + ph2) + 0.7
        ru = evolve(env, G2, BETA, u0, scheme)
        rv = evolve(env, G2, BETA, v0, scheme)
        assert np.all(ru.u <= rv.u + 1e-12)


# ------------------------------------------------------------
# 11. hill-condition controls
# ------------------------------------------------------------

def test_criterion_11_hill_controls():
    # iid-interp: every pair in the matrix gets a witness within 3 doublings
    matrix = [(0.5, 1.0), (0.5, 3.0), (0.7, 1.0), (0.9, 1.0)]
    for seed in (1, 2, 3):
        for h, C in matrix:
            half, witness = 30.0, None
            for _ in range(4):
                env = generate_env("iid-interp", seed, (-half, half), 0.01)
                witness = find_hill(env, h, C)
                if witness is not None:
                    break
                half *= 2.0
            assert witness is not None, (seed, h, C)
            assert witness.scaled_length >= C
            assert witness.v_min_on_interval >= h

    # periodic: sin^2 hills at level 0.9 are shorter than 1 for every phase
    for seed in range(10):
        env = generate_env("periodic", seed, (-30.0, 30.0), 0.01)
        assert find_hill(env, 0.9, 1.0) is None, seed

    # coupled-singular: a touches 0 where V touches 1
    for seed in (1, 2, 5):
        env = generate_env("coupled-singular", seed, (-60.0, 60.0), 0.01)
        for c in (0.2, 0.1, 0.05):
            x0 = check_singular_hill(env, c)
            assert x0 is not None, (seed, c)
            assert -60.0 <= x0 <= 60.0
