"""Effective-Hamiltonian tests: branch inversion, assembly, CSV output.

Periodic-medium reference values come from ``cell_average`` and
``cell_level`` in tests/oracles.py (a dense-step RK4 run over one cell,
plus bisection for the level), computed once per module; constant media
are checked against closed forms, where the corrector is a constant and
everything is exact.
"""

import csv
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hjlab.effective
from hjlab.effective import (
    build_effective_H,
    effective_reference,
    invert_theta,
    kappa_tilde,
    save_effective,
)
from hjlab.corrector import ThetaEstimate, estimate_theta
from hjlab.environment import generate_env
from hjlab.errors import (CertificateError, ConfigError, FlatPieceError,
                          WindowError)
from hjlab.hamiltonian import PowerG, bracket
from oracles import (
    branch_of,
    branch_table,
    cell_average,
    cell_level,
    hbar,
    hbar_interval,
    inverse_modulus,
)

BETA = 1.0

# slope estimates that the former bisection spent on each slope of the
# iid fixture below (tol 2e-2, X = 300): 22 in all
BISECTION_EVALS = {-2.2: 6, -1.7: 5, 1.7: 5, 2.2: 6}


@pytest.fixture(scope="module")
def G():
    return PowerG(2.0)


@pytest.fixture(scope="module")
def env_const0():
    return generate_env("constant", 3, (-80.0, 80.0), 0.01,
                        params={"a0": 1.0, "v0": 0.0})


@pytest.fixture(scope="module")
def env_const1():
    return generate_env("constant", 3, (-80.0, 80.0), 0.01,
                        params={"a0": 1.0, "v0": 1.0})


@pytest.fixture(scope="module")
def env_periodic():
    return generate_env("periodic", 5, (-145.0, 145.0), 0.01,
                        params={"phase": 0.25})


@pytest.fixture(scope="module")
def periodic_oracle(G):
    """One-cell oracle values on the periodic medium (phase 1/4): the
    level whose slope average is 1.5, and the slope average at
    lam = beta (the flat endpoint theta2(beta))."""
    env = generate_env("periodic", 5, (-20.0, 1.0), 0.01,
                       params={"phase": 0.25})
    lam15 = cell_level(env, G, BETA, 1.5, 2.25, 3.25)
    return lam15, cell_average(env, G, BETA, BETA)


@pytest.fixture(scope="module")
def env_iid():
    return generate_env("iid-interp", 7, (-420.0, 420.0), 0.01)


@pytest.fixture(scope="module")
def eff_iid(env_iid, G):
    # X = 300 puts the batch-means ci near 1e-2, so the certifiable
    # theta tolerance is 2e-2; tighter would need a much longer window
    return build_effective_H(env_iid, G, BETA, [-2.2, -1.7, 1.7, 2.2],
                             tol=2e-2, X=300.0, dx=0.01)


# ------------------------------------------------------------
# constant media: closed forms, everything exact
# ------------------------------------------------------------

def test_invert_constant_v0_zero_closed_form(env_const0, G):
    inv = invert_theta(env_const0, G, BETA, 2.0, 2, 1e-6)
    assert inv.lam == 4.0
    assert inv.lam_lo == 4.0 and inv.lam_hi == 4.0
    assert inv.ci == 0.0 and inv.n_evals == 0


def test_invert_constant_v0_one_closed_form(env_const1, G):
    assert invert_theta(env_const1, G, BETA, 2.0, 2, 1e-6).lam == 5.0
    assert invert_theta(env_const1, G, BETA, 0.5, 2, 1e-6).lam == 1.25
    assert invert_theta(env_const1, G, BETA, -1.5, 1, 1e-6).lam == 3.25


def test_invert_constant_tangent_closed_form(env_const1, G):
    # theta'(lam) = 1 / G'(theta) on both branches
    assert invert_theta(env_const1, G, BETA, 2.0, 2, 1e-6).dtheta_dlam == 0.25
    assert invert_theta(env_const1, G, BETA, -1.5, 1, 1e-6).dtheta_dlam == \
        pytest.approx(-1.0 / 3.0, rel=1e-15)


def test_invert_constant_wrong_side_raises(env_const0, G):
    with pytest.raises(FlatPieceError):
        invert_theta(env_const0, G, BETA, -0.5, 2, 1e-6)
    with pytest.raises(FlatPieceError):
        invert_theta(env_const0, G, BETA, 0.5, 1, 1e-6)


def test_build_effective_constant_v0_zero(env_const0, G):
    eff = build_effective_H(env_const0, G, BETA,
                            [-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0], tol=1e-6)
    assert eff.flat_value == 0.0
    assert eff.endpoints[0].mean == 0.0 and eff.endpoints[1].mean == 0.0
    assert eff.flat_thetas.tolist() == [0.0]
    # Hbar(theta) = G(theta), exactly, at every table node
    for th, lam, lo, hi in np.vstack((branch_table(eff, 1),
                                      branch_table(eff, 2))):
        assert lam == th * th and lo == lam and hi == lam
    assert hbar(eff, 0.0) == 0.0
    assert hbar(eff, 0.5) == 0.25
    assert hbar(eff, -2.0) == 4.0


def test_build_effective_constant_v0_one(env_const1, G):
    eff = build_effective_H(env_const1, G, BETA, [-1.5, -0.5, 0.0, 0.5, 1.5],
                            tol=1e-6)
    assert eff.flat_value == BETA
    assert hbar(eff, 0.0) == BETA
    assert hbar(eff, 1.5) == 2.25 + BETA
    assert hbar(eff, -0.5) == 0.25 + BETA


# ------------------------------------------------------------
# periodic medium vs the dense one-period oracle
# ------------------------------------------------------------

def test_cell_oracle_matches_former_frozen_values(periodic_oracle):
    # the values these tests once froze, from an earlier run of the same
    # one-cell computation
    lam15, theta2 = periodic_oracle
    assert abs(lam15 - 2.752578371962943) <= 1e-5
    assert abs(theta2 - 0.7049721205934798) <= 1e-5


def test_invert_periodic_matches_dense_oracle(env_periodic, G,
                                              periodic_oracle):
    lam15 = periodic_oracle[0]
    inv = invert_theta(env_periodic, G, BETA, 1.5, 2, 1e-4, X=40.0)
    assert abs(inv.lam - lam15) <= 1e-3
    assert inv.lam_lo - 1e-3 <= lam15 <= inv.lam_hi + 1e-3
    assert abs(inv.theta_at_lam - 1.5) <= 1e-4
    assert inv.ci <= 1e-6  # whole-period averages are deterministic


def test_invert_periodic_flat_piece_raises(env_periodic, G):
    with pytest.raises(FlatPieceError):
        invert_theta(env_periodic, G, BETA, 0.3, 2, 1e-3, X=40.0)
    with pytest.raises(FlatPieceError):
        invert_theta(env_periodic, G, BETA, -0.3, 1, 1e-3, X=40.0)


def test_invert_periodic_endpoint_reuse(env_periodic, G, periodic_oracle):
    lam15, theta2 = periodic_oracle
    ep = estimate_theta(env_periodic, G, BETA, BETA, 2, X=40.0, tol=1e-2)
    assert abs(ep.mean - theta2) <= 2e-2
    assert ep.cert_bound <= 1e-2
    # a slope sitting exactly at the endpoint estimate maps to beta itself
    inv = invert_theta(env_periodic, G, BETA, ep.mean, 2, 1e-3, X=40.0,
                       endpoint=ep)
    assert inv.lam == BETA and inv.lam_lo == BETA and inv.lam_hi == BETA
    assert inv.n_evals == 0
    # and the endpoint is reusable for a genuine branch inversion
    inv2 = invert_theta(env_periodic, G, BETA, 1.5, 2, 1e-4, X=40.0,
                        endpoint=ep)
    assert abs(inv2.lam - lam15) <= 1e-3


def test_invert_reports_estimate_work(env_periodic, G, monkeypatch):
    # the inversion's counters are the sums over the estimates it made;
    # the reused endpoint counts toward none of them
    ep = estimate_theta(env_periodic, G, BETA, BETA, 2, X=40.0, tol=1e-2)
    seen = []

    def spy(*args, **kwargs):
        seen.append(estimate_theta(*args, **kwargs))
        return seen[-1]

    monkeypatch.setattr(hjlab.effective, "estimate_theta", spy)
    inv = invert_theta(env_periodic, G, BETA, 1.5, 2, 1e-4, X=40.0,
                       endpoint=ep)
    assert inv.n_evals == len(seen) > 0
    assert inv.rk4_steps == sum(e.rk4_steps for e in seen) > 0
    at_ep = invert_theta(env_periodic, G, BETA, ep.mean, 2, 1e-3, X=40.0,
                         endpoint=ep)
    assert (at_ep.n_evals, at_ep.rk4_steps) == (0, 0)


def test_invert_rejects_mismatched_endpoint(env_periodic, G):
    ep = estimate_theta(env_periodic, G, BETA, BETA, 2, X=40.0, tol=1e-2)
    with pytest.raises(ValueError):
        invert_theta(env_periodic, G, BETA, -1.5, 1, 1e-3, X=40.0,
                     endpoint=ep)


# ------------------------------------------------------------
# the safeguarded Newton loop, on scripted slope estimates
# ------------------------------------------------------------

def _scripted(monkeypatch, mean_of, slope_of, ci=0.0, bar_of=None,
              steps=None):
    """Replace the slope estimates by a given map; return the lams asked.

    ``bar_of(dx)`` is the step-doubling bar of an estimate at step dx
    (0 by default), and ``steps``, when given, collects those steps.
    """
    lams = []

    def fake(env, G, beta, lam, branch, X, *, tol=1e-6, dx=0.01,
             tangent=False):
        lams.append(lam)
        if steps is not None:
            steps.append(dx)
        return ThetaEstimate(branch=branch, lam=lam, beta=beta,
                             mean=mean_of(lam), ci_halfwidth=ci,
                             window_length=X, cert_bound=0.0,
                             dtheta_dlam=slope_of(lam),
                             dtheta_ci=0.0,
                             disc_bound=bar_of(dx) if bar_of else 0.0,
                             dx=dx)

    monkeypatch.setattr(hjlab.effective, "estimate_theta", fake)
    return lams


ENDPOINT_2 = ThetaEstimate(branch=2, lam=BETA, beta=BETA, mean=0.5,
                           ci_halfwidth=0.0, window_length=40.0,
                           cert_bound=0.0)


def test_newton_converges_from_the_endpoint_offset(env_periodic, G,
                                                   monkeypatch):
    # theta(lam) = sqrt(lam - 0.3): theta = 1.5 at lam = 2.55, inside the
    # a-priori bracket [G(1.5), G(1.5) + beta] = [2.25, 3.25]; the first
    # level carries the endpoint's offset over: G(1.5) + 1 - G(0.5) = 3
    lams = _scripted(monkeypatch, lambda lam: math.sqrt(lam - 0.3),
                     lambda lam: 0.5 / math.sqrt(lam - 0.3))
    inv = invert_theta(env_periodic, G, BETA, 1.5, 2, 1e-9,
                       endpoint=ENDPOINT_2)
    assert lams[0] == 3.0
    assert inv.n_evals == len(lams) <= 5   # bisection would need ~30
    assert abs(inv.lam - 2.55) <= 1e-8
    assert 2.25 <= inv.lam_lo <= inv.lam <= inv.lam_hi <= 3.25
    assert inv.dtheta_dlam == pytest.approx(1.0 / 3.0, rel=1e-8)


def test_newton_falls_back_to_bisection(env_periodic, G, monkeypatch):
    # a derivative of the wrong sign is never followed: every step
    # bisects the bracket, which still converges
    lams = _scripted(monkeypatch, lambda lam: math.sqrt(lam - 0.3),
                     lambda lam: -1.0)
    inv = invert_theta(env_periodic, G, BETA, 1.5, 2, 1e-3,
                       endpoint=ENDPOINT_2)
    assert lams[:3] == [3.0, 2.625, 2.4375]
    assert abs(inv.theta_at_lam - 1.5) <= 1e-3
    assert all(2.25 <= lam <= 3.25 for lam in lams)


def test_newton_moves_a_short_upper_end(env_periodic, G, monkeypatch):
    # theta(lam) = sqrt(lam - 3/2) falls short at the first level 3 and
    # Newton leaves the bracket upward: the a-priori upper end 3.25 is
    # measured next, falls short too, and the bracket moves up by beta;
    # the level 3.75 is found there
    lams = _scripted(monkeypatch, lambda lam: math.sqrt(lam - 1.5),
                     lambda lam: 0.5 / math.sqrt(lam - 1.5))
    inv = invert_theta(env_periodic, G, BETA, 1.5, 2, 1e-6,
                       endpoint=ENDPOINT_2)
    assert lams[:3] == [3.0, 3.25, 4.25]
    assert abs(inv.lam - 3.75) <= 1e-5
    assert 3.25 <= inv.lam_lo <= inv.lam <= inv.lam_hi == 4.25


@settings(max_examples=200, deadline=None)
@given(gamma=st.floats(1.2, 3.0), beta=st.floats(0.25, 2.0),
       branch=st.sampled_from([1, 2]), u=st.floats(0.0, 1.0),
       beyond=st.floats(1e-6, 4.0))
def test_first_level_lies_in_the_a_priori_bracket(env_periodic, gamma, beta,
                                                  branch, u, beyond):
    # any endpoint mean inside the lam = beta slope bracket, any slope
    # beyond it: the first level is in [max(beta, G(theta)), G(theta) + beta]
    G = PowerG(gamma)
    p_lo, p_hi = bracket(G, branch, beta, beta)
    mean = p_lo + u * (p_hi - p_lo)
    theta = mean + beyond if branch == 2 else mean - beyond
    endpoint = ThetaEstimate(branch=branch, lam=beta, beta=beta, mean=mean,
                             ci_halfwidth=0.0, window_length=40.0,
                             cert_bound=0.0)
    with pytest.MonkeyPatch.context() as mp:
        lams = _scripted(mp, lambda lam: theta, lambda lam: 1.0)
        invert_theta(env_periodic, G, beta, theta, branch, 1e-3,
                     endpoint=endpoint)
    g_theta = float(G(theta))
    assert lams == [lams[0]]
    assert max(beta, g_theta) <= lams[0] <= g_theta + beta


@pytest.mark.parametrize("ci, accepted", [(8e-3, True), (1e-3, False)])
def test_newton_collapse_rule(env_periodic, G, monkeypatch, ci, accepted):
    # the estimate jumps by 0.03 across theta at lam = 2.6: the bracket
    # collapses there, and the mismatch 0.015 is accepted only when
    # tol + ci covers it
    _scripted(monkeypatch, lambda lam: 1.5 + (0.015 if lam >= 2.6 else -0.015),
              lambda lam: 1.0, ci=ci)
    if accepted:
        inv = invert_theta(env_periodic, G, BETA, 1.5, 2, 1e-2,
                           endpoint=ENDPOINT_2)
        assert abs(inv.lam - 2.6) <= 1e-9
    else:
        with pytest.raises(CertificateError, match="exhausted"):
            invert_theta(env_periodic, G, BETA, 1.5, 2, 1e-2,
                         endpoint=ENDPOINT_2)


def _newton_run(monkeypatch, env, G, bar_of):
    """The Newton run of ``test_newton_converges_from_the_endpoint_offset``
    with a scripted bar: (inversion, lams asked, steps asked)."""
    steps = []
    lams = _scripted(monkeypatch, lambda lam: math.sqrt(lam - 0.3),
                     lambda lam: 0.5 / math.sqrt(lam - 0.3), bar_of=bar_of,
                     steps=steps)
    inv = invert_theta(env, G, BETA, 1.5, 2, 1e-9, dx=0.01,
                       endpoint=ENDPOINT_2)
    return inv, lams, steps


def test_row_step_settles_where_the_bar_first_passes(env_periodic, G,
                                                     monkeypatch):
    # the bar fails the gate 0.05 tol at 4 dx and passes at 2 dx: the
    # first level is asked at both, every later level at 2 dx only
    gate = 0.05 * 1e-9
    inv, lams, steps = _newton_run(monkeypatch, env_periodic, G,
                                   lambda dx: 2 * gate if dx > 0.03 else 0.0)
    assert steps == [0.04, 0.02] + [0.02] * (len(steps) - 2)
    assert len(steps) >= 3
    assert lams[0] == lams[1] == 3.0
    assert inv.dx == 0.02
    assert inv.n_evals == len(lams)
    assert abs(inv.lam - 2.55) <= 1e-8


def test_row_step_that_never_passes_ends_at_the_command_step(env_periodic, G,
                                                             monkeypatch):
    # a bar above the gate at every step: the first level is asked at
    # 4 dx, 2 dx and dx, and from there the run is the one-step run,
    # level for level, with the two rejected estimates counted
    inv, lams, steps = _newton_run(monkeypatch, env_periodic, G,
                                   lambda dx: 1.0)
    assert steps == [0.04, 0.02] + [0.01] * (len(steps) - 2)
    monkeypatch.setattr(hjlab.effective, "ROW_STEP_FACTORS", (1,))
    inv1, lams1, steps1 = _newton_run(monkeypatch, env_periodic, G,
                                      lambda dx: 1.0)
    assert set(steps1) == {0.01}
    assert lams[2:] == lams1 and lams[:2] == [lams1[0]] * 2
    assert inv == dataclasses.replace(inv1, n_evals=inv1.n_evals + 2)
    assert inv.dx == 0.01


def test_row_estimate_with_a_wide_ci_is_redone_at_half_the_step(G,
                                                                 monkeypatch):
    # at 4 dx = 0.08 the ten batches of a 10-unit window straddle the
    # periods of the medium and the ci exceeds tol; at 0.04 every batch
    # is one whole period and the ci vanishes
    env = generate_env("periodic", 1, (-100.0, 20.0), 0.01)
    seen = []

    def spy(*args, **kwargs):
        seen.append((kwargs["dx"], estimate_theta(*args, **kwargs)))
        return seen[-1][1]

    monkeypatch.setattr(hjlab.effective, "estimate_theta", spy)
    inv = invert_theta(env, G, BETA, 1.5, 2, 1e-4, X=10.0, dx=0.02)
    # the endpoint on its own ladder, at 4 dx: its ci is not gated, and
    # its bar passes; then the first level twice
    assert [dx for dx, _ in seen[:3]] == [0.08, 0.08, 0.04]
    assert seen[0][1].lam == BETA and seen[1][1].lam == seen[2][1].lam
    assert seen[1][1].ci_halfwidth > 1e-4
    assert inv.dx == 0.04
    # the one-cell oracle level, to the bound of
    # test_invert_periodic_matches_dense_oracle
    assert abs(inv.lam - 2.752578371962943) <= 1e-3
    rows = [e for _, e in seen[1:]]
    assert inv.n_evals == len(rows)
    assert inv.rk4_steps == sum(e.rk4_steps for e in rows)
    assert inv.rk4_steps > sum(e.rk4_steps for e in rows[1:])


def test_coarse_row_estimate_is_covered_by_its_bar(env_periodic, G):
    # against the dense one-cell average, which shares no code with the
    # shooting: an estimate accepted at a step coarser than dx misses it
    # by no more than its own step-doubling bar
    cell = generate_env("periodic", 5, (-20.0, 1.0), 0.01,
                        params={"phase": 0.25})
    for theta in (1.0, 1.5, 2.0, 2.5):
        inv = invert_theta(env_periodic, G, BETA, theta, 2, 1e-2, X=40.0,
                           dx=0.04)
        assert inv.dx > 0.04
        miss = abs(inv.theta_at_lam - cell_average(cell, G, BETA, inv.lam))
        assert miss <= inv.disc_bound + 1e-6


def _endpoint_run(monkeypatch, env, G, bar_of, ci=0.0):
    """The lam = beta endpoint of branch 2 on the ladder of dx = 0.01, tol
    1e-3 (gate 5e-5), on scripted estimates: (endpoint, steps asked)."""
    steps = []
    _scripted(monkeypatch, lambda lam: 0.5, lambda lam: 1.0, ci=ci,
              bar_of=bar_of, steps=steps)
    ep, _ = hjlab.effective._endpoint(env, G, BETA, 2, 1e-3, X=40.0,
                                      dx=0.01)
    return ep, steps


def _raise_above(step):
    def bar_of(dx):
        if dx > step:
            raise WindowError("the doubled run left the bracket")
        return 0.0
    return bar_of


@pytest.mark.parametrize("bar_of, settled", [
    (lambda dx: 0.0, [0.04]),                        # passes at 4 dx
    (lambda dx: 1e-4 if dx > 0.03 else 0.0, [0.04, 0.02]),   # bar fails
    (lambda dx: 1e-4, [0.04, 0.02, 0.01]),          # fails but at dx
    (_raise_above(0.03), [0.04, 0.02]),              # the attempt raises
    (_raise_above(0.015), [0.04, 0.02, 0.01]),
])
def test_endpoint_settles_on_the_step_ladder(env_periodic, G, monkeypatch,
                                             bar_of, settled):
    ep, steps = _endpoint_run(monkeypatch, env_periodic, G, bar_of)
    assert steps == settled
    assert ep.dx == settled[-1] and ep.lam == BETA


def test_endpoint_with_a_wide_ci_still_coarsens(env_periodic, G,
                                                monkeypatch):
    # an endpoint's ci does not shrink with the step, so only its bar
    # is gated: a ci ten times tol stands at 4 dx
    ep, steps = _endpoint_run(monkeypatch, env_periodic, G,
                              lambda dx: 0.0, ci=1e-2)
    assert steps == [0.04] and ep.ci_halfwidth == 1e-2


def test_inversion_at_the_endpoint_reports_its_step(env_periodic, G,
                                                    monkeypatch):
    # an inversion that computes its own endpoint and lands on it
    # returns that estimate, with the step it settled on
    steps = []
    _scripted(monkeypatch, lambda lam: 0.5, lambda lam: 1.0,
              bar_of=lambda dx: 1e-4 if dx > 0.03 else 0.0, steps=steps)
    inv = invert_theta(env_periodic, G, BETA, 0.5, 2, 1e-3, dx=0.01)
    assert (inv.lam, inv.n_evals, inv.dx) == (BETA, 0, 0.02)
    assert steps == [0.04, 0.02]


def test_effective_counts_every_endpoint_attempt(env_periodic, G,
                                                 monkeypatch):
    # at tol 1e-3 the endpoints' bars fail the gate at 4 dx = 0.16 and
    # pass at 0.08: the rejected attempts count toward rk4_steps
    seen = []

    def spy(*args, **kwargs):
        seen.append(estimate_theta(*args, **kwargs))
        return seen[-1]

    monkeypatch.setattr(hjlab.effective, "estimate_theta", spy)
    eff = build_effective_H(env_periodic, G, BETA, [-1.8, 1.8], tol=1e-3,
                            X=40.0, dx=0.04)
    eps = [e for e in seen if e.lam == BETA]
    assert [(e.branch, e.dx) for e in eps] == [(2, 0.16), (2, 0.08),
                                               (1, 0.16), (1, 0.08)]
    assert eps[0].disc_bound > 0.05 * 1e-3
    assert [ep.dx for ep in eff.endpoints] == [0.08, 0.08]
    assert [ep.mean for ep in eff.endpoints] == [eps[3].mean, eps[1].mean]
    assert eff.rk4_steps == sum(e.rk4_steps for e in seen)


def test_coarse_endpoint_is_covered_by_its_bar(env_periodic, env_iid, G,
                                               eff_iid, periodic_oracle):
    # against the dense one-cell average, which shares no code with the
    # shooting, and against the same estimate at dx = 0.01: an endpoint
    # settled on a step coarser than the command step misses either by
    # no more than its own step-doubling bar
    _, theta2 = periodic_oracle
    eff = build_effective_H(env_periodic, G, BETA, [-1.8, 1.8], tol=1e-3,
                            X=40.0, dx=0.04)
    for ep in eff.endpoints:
        assert ep.dx > 0.04
        # the medium is even about x = 0, so theta1(beta) = -theta2(beta)
        assert abs(abs(ep.mean) - theta2) <= ep.disc_bound + 1e-6
    for branch, ep in enumerate(eff_iid.endpoints, 1):
        assert ep.dx > 0.01
        fine = estimate_theta(env_iid, G, BETA, BETA, branch, X=300.0,
                              tol=1e-2, dx=0.01)
        assert abs(ep.mean - fine.mean) <= ep.disc_bound


def test_invert_ci_too_large_raises(env_iid, G):
    with pytest.raises(CertificateError):
        invert_theta(env_iid, G, BETA, 2.0, 2, 1e-9, X=20.0)


# ------------------------------------------------------------
# iid medium: strict bracket, monotone tables, interpolation
# ------------------------------------------------------------

def test_iid_flat_endpoints_strictly_inside(eff_iid):
    ep1, ep2 = eff_iid.endpoints
    assert 0.0 < ep2.mean < 1.0
    assert -1.0 < ep1.mean < 0.0
    assert ep2.ci_halfwidth < 0.05 and ep1.ci_halfwidth < 0.05
    assert eff_iid.flat_value == BETA


def test_iid_branch_tables_monotone_and_coercive(eff_iid):
    t2 = branch_table(eff_iid, 2)
    t1 = branch_table(eff_iid, 1)
    assert np.all(np.diff(t2[:, 0]) > 0) and np.all(np.diff(t2[:, 1]) > 0)
    assert np.all(np.diff(t1[:, 0]) > 0) and np.all(np.diff(t1[:, 1]) < 0)
    assert np.all(t2[:, 1] >= BETA) and np.all(t1[:, 1] >= BETA)
    assert t2[-1, 1] > BETA and t1[0, 1] > BETA
    # bisection brackets sandwich the reported level
    assert np.all(t2[:, 2] <= t2[:, 1]) and np.all(t2[:, 1] <= t2[:, 3])
    # strict bracket of the level: theta^2 < lam < theta^2 + beta,
    # with slack 2 theta (tol + ci) for the statistical slope error
    for th, lam, _, _ in t2:
        slack = 2.0 * th * (2e-2 + 2e-2)
        assert th * th - slack < lam < th * th + BETA + slack


def test_iid_value_interpolation(eff_iid):
    assert hbar(eff_iid, 0.0) == BETA
    assert branch_of(eff_iid, 0.0) == "flat"
    assert branch_of(eff_iid, 1.7) == "right"
    assert branch_of(eff_iid, -1.7) == "left"
    t2 = branch_table(eff_iid, 2)
    assert hbar(eff_iid, 1.7) == pytest.approx(t2[0, 1], abs=1e-12)
    v_mid = hbar(eff_iid, 1.95)
    assert t2[0, 1] < v_mid < t2[1, 1]
    lo, hi = hbar_interval(eff_iid, 1.95)
    assert lo <= v_mid <= hi
    with pytest.raises(ValueError):
        hbar(eff_iid, 3.0)
    with pytest.raises(ValueError):
        hbar(eff_iid, -3.0)


def test_iid_lipschitz_inverse_quotient(eff_iid, G):
    # difference quotients along branch 2 are bounded by the branch
    # Lipschitz constant over the spanned slope interval (up to the
    # statistical slack in the two thetas)
    t2 = branch_table(eff_iid, 2)
    # each table theta is matched to within tol + ci <= 2 tol
    slack = 4.0 * 2e-2
    for k in range(len(t2) - 1):
        th_a, lam_a = t2[k, 0], t2[k, 1]
        th_b, lam_b = t2[k + 1, 0], t2[k + 1, 1]
        iv = (G.branch_inverse(2, max(lam_a - BETA, 0.0)),
              G.branch_inverse(2, lam_b + 1.0))
        kap = G.lipschitz_on(iv)
        quotient = (lam_b - lam_a) / (th_b - th_a)
        assert quotient <= kap * (1.0 + slack / (th_b - th_a))


def test_iid_branch_continuity_at_flat_endpoint(env_iid, G, eff_iid):
    # levels just above beta contract weakly, so their slope averages
    # carry the widest ci; 4e-2 is what X = 300 certifies there
    theta = eff_iid.endpoints[1].mean + 0.05
    inv = invert_theta(env_iid, G, BETA, theta, 2, 4e-2, X=300.0)
    kap = kappa_tilde(G, BETA, BETA, branch=2)
    assert BETA <= inv.lam <= BETA + kap * (0.05 + 0.08) + 0.05


def test_newton_needs_fewer_estimates_than_bisection(env_iid, G, eff_iid):
    assert eff_iid.n_evals < sum(BISECTION_EVALS.values())
    for theta, n_bisect in BISECTION_EVALS.items():
        branch = 2 if theta > 0 else 1
        inv = invert_theta(env_iid, G, BETA, theta, branch, 2e-2, X=300.0)
        assert inv.n_evals < n_bisect
        assert abs(inv.theta_at_lam - theta) <= 2e-2
        assert inv.lam_lo <= inv.lam <= inv.lam_hi
        assert inv.lam_hi - inv.lam_lo <= BETA
        assert (1.0 if branch == 2 else -1.0) * inv.dtheta_dlam > 0.0


def test_one_estimate_per_off_flat_slope(eff_iid):
    # the endpoint's offset is accepted as the level on every slope
    invs = eff_iid.inversions
    assert [i.theta for i in invs] == [-2.2, -1.7, 1.7, 2.2]
    assert [i.n_evals for i in invs] == [1, 1, 1, 1]
    assert eff_iid.n_evals == 4
    for inv in invs:
        assert abs(inv.theta_at_lam - inv.theta) <= 2e-2
        assert (1.0 if inv.branch == 2 else -1.0) * inv.dtheta_dlam > 0.0


def test_grid_must_cover_both_branches(env_periodic, G, monkeypatch):
    # slopes of both signs, but none beyond the left flat endpoint
    with pytest.raises(ConfigError, match="beyond both flat endpoints"):
        build_effective_H(env_periodic, G, BETA, [-0.1, 1.7], tol=1e-3,
                          X=40.0)
    # every grid below is refused before any slope estimate: the flat
    # piece straddles 0, so a grid needs slopes of both signs
    def no_estimate(*args, **kwargs):
        pytest.fail("a slope was estimated before the grid was checked")

    monkeypatch.setattr(hjlab.effective, "estimate_theta", no_estimate)
    for grid in ([0.1, 1.7], [1.0, 1.5, 2.0], [-2.0, -1.0], [-1.7, 0.0]):
        with pytest.raises(ConfigError, match="negative and a positive"):
            build_effective_H(env_periodic, G, BETA, grid, tol=1e-3, X=40.0)
    with pytest.raises(ConfigError):
        build_effective_H(env_periodic, G, BETA, [], tol=1e-3, X=40.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(ConfigError, match="finite"):
            build_effective_H(env_periodic, G, BETA, [-1.7, bad, 1.7],
                              tol=1e-3, X=40.0)


# ------------------------------------------------------------
# reference values for the pde cross-check
# ------------------------------------------------------------

def test_effective_reference_flat_and_branch(env_iid, env_const1, G):
    ref, half = effective_reference(env_iid, G, BETA, 0.2, 2e-2, X=300.0)
    assert ref == BETA and half == 0.0
    ref_c, half_c = effective_reference(env_const1, G, BETA, 2.0, 1e-6)
    assert ref_c == 5.0 and half_c == 0.0
    ref_b, half_b = effective_reference(env_iid, G, BETA, 2.0, 2e-2, X=300.0)
    # strict level bracket: theta^2 < Hbar(theta) < theta^2 + beta
    assert 4.0 < ref_b < 5.0
    assert 0.0 < half_b < 0.3
    # the homogenize sweep also takes the step-doubling bar of the slope
    # estimate the level rests on; a flat or constant-medium level is exact
    _, _, disc = hjlab.effective._reference(env_iid, G, BETA, 2.0, 2e-2,
                                            X=300.0)
    assert 0.0 < disc < 1e-5
    assert hjlab.effective._reference(env_iid, G, BETA, 0.2, 2e-2,
                                      X=300.0) == (BETA, 0.0, 0.0)
    assert hjlab.effective._reference(env_const1, G, BETA, 2.0,
                                      1e-6) == (5.0, 0.0, 0.0)


def test_reference_bar_covers_the_coarse_endpoint(env_periodic, G,
                                                  monkeypatch):
    # the reference is a level: its bar carries the endpoint's bar over
    # through G'(theta_2(beta)), and the row's through dtheta/dlam.  With
    # the endpoint settled above the command step, the level moves by no
    # more than that bar when every estimate is held at the command step
    ep, _ = hjlab.effective._endpoint(env_periodic, G, BETA, 2, 1e-3,
                                      X=40.0, dx=0.04)
    assert ep.dx > 0.04
    ref, _, bar = hjlab.effective._reference(env_periodic, G, BETA, 1.5,
                                             1e-3, X=40.0, dx=0.04)
    monkeypatch.setattr(hjlab.effective, "ROW_STEP_FACTORS", (1,))
    held, _, _ = hjlab.effective._reference(env_periodic, G, BETA, 1.5,
                                            1e-3, X=40.0, dx=0.04)
    assert 0.0 < abs(ref - held) <= bar


def test_every_slope_estimate_carries_its_bar(eff_iid):
    # step doubling at dx = 0.01 moves each average by about 1e-6, two
    # orders below the batch-means CI
    for inv in eff_iid.inversions:
        assert 0.0 < inv.disc_bound <= inv.ci / 100
    for ep in eff_iid.endpoints:
        assert 0.0 < ep.disc_bound <= ep.ci_halfwidth / 100


def test_effective_reference_estimates_one_endpoint(env_periodic, G,
                                                   monkeypatch):
    calls = []

    def spy(env, G, beta, lam, branch, *args, **kwargs):
        calls.append((lam, branch))
        return estimate_theta(env, G, beta, lam, branch, *args, **kwargs)

    monkeypatch.setattr(hjlab.effective, "estimate_theta", spy)
    assert effective_reference(env_periodic, G, BETA, 0.3, 1e-3,
                               X=40.0) == (BETA, 0.0)
    assert calls == [(BETA, 2)]
    calls.clear()
    effective_reference(env_periodic, G, BETA, -1.5, 1e-3, X=40.0)
    assert calls[0] == (BETA, 1) and len(calls) >= 2
    assert all(b == 1 and lam > BETA for lam, b in calls[1:])


def test_effective_reference_spends_one_estimate(env_iid, G, monkeypatch):
    calls = []

    def spy(env, G, beta, lam, branch, *args, **kwargs):
        calls.append((lam, branch))
        return estimate_theta(env, G, beta, lam, branch, *args, **kwargs)

    monkeypatch.setattr(hjlab.effective, "estimate_theta", spy)
    effective_reference(env_iid, G, BETA, 2.0, 2e-2, X=300.0)
    # the endpoint, then the one level it predicts
    assert len(calls) == 2
    assert calls[0] == (BETA, 2)
    assert calls[1][1] == 2 and calls[1][0] > BETA


def test_effective_reference_wrong_side_endpoint_raises(env_periodic, G,
                                                        monkeypatch):
    def mirrored(*args, **kwargs):
        est = estimate_theta(*args, **kwargs)
        return dataclasses.replace(est, mean=-est.mean)

    monkeypatch.setattr(hjlab.effective, "estimate_theta", mirrored)
    with pytest.raises(CertificateError):
        effective_reference(env_periodic, G, BETA, 1.5, 1e-3, X=40.0)


# ------------------------------------------------------------
# rate-bound constants (closed forms for G = p^2)
# ------------------------------------------------------------

def test_kappa_tilde_closed_form(G):
    # Lip of p^2 on [G2^{-1}(1), G2^{-1}(3)] = [1, sqrt(3)] is 2 sqrt(3)
    assert kappa_tilde(G, 2.0, BETA, branch=2) == pytest.approx(
        2.0 * math.sqrt(3.0), abs=1e-12)
    assert kappa_tilde(G, 2.0, BETA, branch=1) == pytest.approx(
        2.0 * math.sqrt(3.0), abs=1e-12)


def test_inverse_modulus_closed_form(G):
    # sup of sqrt(y + eps) - sqrt(y) over [1, 2.75] sits at y = 1
    want = math.sqrt(1.25) - 1.0
    assert inverse_modulus(G, 2.0, BETA, 0.25, branch=2) == pytest.approx(
        want, abs=1e-12)
    with pytest.raises(ValueError):
        inverse_modulus(G, 2.0, BETA, 0.0)
    with pytest.raises(ValueError):
        inverse_modulus(G, 2.0, BETA, 1.5)


# ------------------------------------------------------------
# CSV output
# ------------------------------------------------------------

def test_save_effective_csv(tmp_path, env_const1, G):
    eff = build_effective_H(env_const1, G, BETA, [-1.5, -0.5, 0.0, 0.5, 1.5],
                            tol=1e-6)
    path = tmp_path / "effective.csv"
    save_effective(eff, str(path))
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = list(reader)
    assert header == ["theta", "H", "H_lo", "H_hi", "branch"]
    thetas = [float(r[0]) for r in rows]
    assert thetas == sorted(thetas)
    assert [r[4] for r in rows] == ["left", "left", "flat", "right", "right"]
    for r in rows:
        th, H, lo, hi = map(float, r[:4])
        assert lo <= H <= hi
        if r[4] == "flat":
            assert H == BETA
        else:
            assert H == th * th + BETA  # exact closed form round-trips
