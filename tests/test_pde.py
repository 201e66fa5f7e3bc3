"""Scheme tests: flux, monotonicity, exact solutions, sweeps, probes.

The monotonicity check is exhaustive over a slope lattice; exact-solution
oracles are closed forms on constant media and corrector-based solutions
u = t lam + F elsewhere.  Probe oracles are recomputed in-test from the
analytic psi derivatives and hand Lipschitz constants.
"""

import importlib.machinery
import json
import math
import multiprocessing
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg.lapack
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg.lapack import dgttrf, dgttrs

import hjlab
from hjlab.corrector import corrector_profile, estimate_theta
from hjlab.environment import HillWitness, generate_env, sample_many
from hjlab.errors import ConfigError, SignError, StabilityError, WindowError
from hjlab.hamiltonian import AsymPowerG, LogQuasiconvexG, PowerG, TabulatedG
from hjlab.pde import (
    SchemeConfig,
    _lapack_pt,
    _trim_rate,
    _trim_weights,
    cfl_gradient_range,
    diffusion_solver,
    evolve,
    godunov_flux,
    homogenize_sweep,
    save_sweep,
    stable_dt,
)
from hjlab.probe import (GluedProfile, build_glued_profile, residual_probe,
                         save_probe)
from oracles import (profile_antiderivative, scheme_update, walk_tail,
                     window_walk)

G = PowerG(2.0)
BETA = 1.0


@pytest.fixture(scope="module")
def env_periodic():
    return generate_env("periodic", 1, (-30.0, 30.0), 0.01)


@pytest.fixture(scope="module")
def env_const_half():
    return generate_env("constant", 0, (-30.0, 30.0), 0.1,
                        params={"a0": 1.0, "v0": 0.5})


@pytest.fixture(scope="module")
def env_const_v1():
    return generate_env("constant", 0, (0.0, 30.0), 0.1, params={"v0": 1.0})


# ------------------------------------------------------------
# flux
# ------------------------------------------------------------

def test_godunov_consistency_values():
    assert godunov_flux(G, -2.0, -2.0) == 4.0
    assert godunov_flux(G, 0.0, 0.0) == 0.0
    assert godunov_flux(G, 3.0, 3.0) == 9.0
    for p in np.linspace(-4.0, 4.0, 81):
        assert abs(godunov_flux(G, p, p) - G(p)) <= 1e-12


def test_godunov_upwinding():
    # diverging slopes (rarefaction): both sides look inward, flux 0
    assert godunov_flux(G, 1.0, -1.0) == 0.0
    # converging slopes (shock): the larger one-sided value wins
    assert godunov_flux(G, -1.0, 2.0) == 4.0
    assert godunov_flux(G, -3.0, 2.0) == 9.0
    assert godunov_flux(G, np.array([-1.0, 1.0]),
                        np.array([2.0, -1.0])).tolist() == [4.0, 0.0]


# minimum at p = 0.4, not 0: G(p) < G(0) for p in (0, 0.4)
TAB_OFF_ZERO = TabulatedG(np.array([-3.0, -1.5, -0.5, 0.4, 1.5, 3.0]),
                          np.array([4.0, 2.0, 0.6, 0.0, 1.2, 4.0]))
FLUX_FAMILIES = (PowerG(2.0), PowerG(1.5), AsymPowerG(1.5, 3.0),
                 LogQuasiconvexG(), TAB_OFF_ZERO)


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_one_sided_flux_is_the_two_sided_flux(data):
    # on slopes of one sign, zeros of both signs included, the flux evolve
    # runs (one G evaluation, from p_range) is the two-sided flux bit for
    # bit, on arrays and on scalars
    G_ = data.draw(st.sampled_from(FLUX_FAMILIES), label="G")
    sign = data.draw(st.sampled_from((1.0, -1.0)), label="sign")
    slope = st.one_of(st.sampled_from((0.0, -0.0)),
                      st.floats(0.0, 0.5), st.floats(0.0, 10.0)).map(
                          lambda p: sign * p)
    if data.draw(st.booleans(), label="scalar"):
        p_minus, p_plus = data.draw(slope), data.draw(slope)
    else:
        size = data.draw(st.integers(1, 12), label="size")
        p_minus, p_plus = (np.array(data.draw(st.lists(
            slope, min_size=size, max_size=size))) for _ in range(2))
    both = np.append(p_minus, p_plus)
    p_range = (float(both.min()), float(both.max()))
    g0 = data.draw(st.sampled_from((None, G_(0.0))), label="g0")
    one = godunov_flux(G_, p_minus, p_plus, p_range=p_range, g0=g0)
    two = godunov_flux(G_, p_minus, p_plus)
    assert np.asarray(one).tobytes() == np.asarray(two).tobytes()
    assert type(one) is type(two)


def test_one_sided_flux_keeps_the_g0_floor():
    # slopes in (0, 0.4), where the tabulated G lies below G(0): the
    # two-sided flux is G(0) there, which a one-sided G(p+) would miss
    p = np.array([0.05, 0.2, 0.35])
    two = godunov_flux(TAB_OFF_ZERO, p, p)
    assert np.all(TAB_OFF_ZERO(p) < two) and np.all(two == TAB_OFF_ZERO(0.0))
    out = np.empty(3)
    one = godunov_flux(TAB_OFF_ZERO, p, p, out=out, p_range=(0.05, 0.35))
    assert one is out and one.tobytes() == two.tobytes()


def test_scheme_monotone_exhaustive_lattice():
    # 21^3 stencil lattice on [-1, 1]^3 at dx = 0.5: the update must be
    # nondecreasing in each argument under the CFL bound
    dx = 0.5
    vals = np.linspace(-1.0, 1.0, 21)
    kappa = G.lipschitz_on((-5.0, 5.0))  # slopes reach (2 - (-2)) / 0.5
    dt = 0.9 / (2.0 / dx ** 2 + kappa / dx)
    ul, uc, ur = np.meshgrid(vals, vals, vals, indexing="ij")
    s = scheme_update(G, BETA, ul, uc, ur, 1.0, 0.3, dx, dt)
    assert np.all(np.diff(s, axis=0) >= -1e-12)  # in u_{j-1}
    assert np.all(np.diff(s, axis=1) >= -1e-12)  # in u_j
    assert np.all(np.diff(s, axis=2) >= -1e-12)  # in u_{j+1}


def test_explicit_stage_monotone_exhaustive_lattice():
    # the explicit stage of evolve is scheme_update without diffusion; it
    # must be nondecreasing in each argument under the hyperbolic CFL alone
    dx = 0.5
    vals = np.linspace(-1.0, 1.0, 21)
    kappa = G.lipschitz_on((-5.0, 5.0))  # slopes reach (2 - (-2)) / 0.5
    dt = 0.9 * dx / kappa
    ul, uc, ur = np.meshgrid(vals, vals, vals, indexing="ij")
    s = scheme_update(G, BETA, ul, uc, ur, 0.0, 0.3, dx, dt)
    assert np.all(np.diff(s, axis=0) >= -1e-12)  # in u_{j-1}
    assert np.all(np.diff(s, axis=1) >= -1e-12)  # in u_j
    assert np.all(np.diff(s, axis=2) >= -1e-12)  # in u_{j+1}


def test_diffusion_inverse_nonnegative(env_periodic):
    # (I - h diag(a) D2)^-1 from the solver evolve uses: entrywise
    # nonnegative, and the inverse of the matrix the linear ghosts define
    dx, n = 0.1, 12
    xs = 0.37 + dx * np.arange(n)
    a, _ = sample_many(env_periodic, xs)
    for h in (1e-3, 0.05, 10.0):
        inv = diffusion_solver(a, h, dx)(np.eye(n))
        assert inv.min() >= -1e-14  # exact zeros come out as roundoff
        # dense operator u -> u - h a D2 u, ghosts at theta = 0
        A = np.empty((n, n))
        for j, e in enumerate(np.eye(n)):
            ue = np.concatenate(([e[0]], e, [e[-1]]))
            A[:, j] = e - h * a * (ue[2:] - 2 * e + ue[:-2]) / dx ** 2
        assert np.max(np.abs(inv @ A - np.eye(n))) <= 1e-10


def test_diffusion_solver_matches_general_tridiagonal_lu():
    # oracle: a general LU solve (dgttrf/dgttrs) of the unscaled matrix
    # I - h diag(a) D2, assembled here from the linear ghosts
    dx, n = 0.05, 401
    xs = dx * np.arange(n)
    a = 0.55 + 0.4 * np.sin(3.1 * xs) * np.cos(0.7 * xs ** 2)
    w = np.cos(xs) + 0.3 * xs
    for h in (1e-3, 0.05, 10.0):
        r = h * a / dx ** 2
        diag, lower, upper = 1.0 + 2.0 * r, -r[1:], -r[:-1]
        diag[0], diag[-1] = 1.0 + r[0], 1.0 + r[-1]
        *lu, info = dgttrf(lower, diag, upper)
        assert info == 0
        ref, info = dgttrs(*lu, w)
        assert info == 0
        got = diffusion_solver(a, h, dx)(w.copy())
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("kind", ["constant", "gauss-squash"])
def test_diffusion_solver_is_the_scaled_solve(kind):
    # oracle: w scaled by 1/a, then LAPACK's dpttrs on the factors of the
    # row-scaled matrix.  At a = 1 the solver skips the scaling, which
    # multiplies by 1.0: the same bits either way
    env = generate_env(kind, 3, (-30.0, 30.0), 0.01)
    dx, h = 0.05, 0.02
    xs = dx * np.arange(-300, 301)
    a, _ = sample_many(env, xs)
    assert np.all(a == 1.0) == (kind == "constant")
    w = np.cos(xs) + 0.3 * xs
    dpttrf, dpttrs = _lapack_pt()
    scale, c = 1.0 / a, h / dx ** 2
    diag = scale + 2.0 * c
    diag[[0, -1]] = scale[[0, -1]] + c
    d, e, info = dpttrf(diag, np.full(xs.size - 1, -c))
    want, info_s = dpttrs(d, e, w * scale)
    assert info == info_s == 0
    assert diffusion_solver(a, h, dx)(w.copy()).tobytes() == want.tobytes()


def test_diffusion_solver_ghost_rows_split_the_blocks():
    # four blocks between ghost rows, in one solve: each block's rows are
    # its own solver's bits, and each ghost row is an identity row
    rng = np.random.default_rng(5)
    sizes, h, dx = (7, 40, 2, 23), 0.3, 0.05
    blocks = [(rng.uniform(0.2, 1.0, n), rng.normal(size=n)) for n in sizes]
    a, w, ghosts = [], [], []
    for b, (a_b, w_b) in enumerate(blocks):
        if b:
            ghosts += [len(w), len(w) + 1]
            a += [1.0, 1.0]
            w += [4.0, -3.0]
        a += list(a_b)
        w += list(w_b)
    got = diffusion_solver(np.array(a), h, dx, ghosts)(np.array(w))
    assert got[ghosts].tolist() == [4.0, -3.0] * (len(sizes) - 1)
    want = [diffusion_solver(a_b, h, dx)(w_b.copy()) for a_b, w_b in blocks]
    assert np.delete(got, ghosts).tobytes() == np.concatenate(want).tobytes()


def test_lapack_pt_is_scipy_lapack():
    # the routines are scipy.linalg.lapack's own wrapper objects
    dpttrf, dpttrs = _lapack_pt()
    assert dpttrf is scipy.linalg.lapack.dpttrf
    assert dpttrs is scipy.linalg.lapack.dpttrs


def test_lapack_pt_fresh_process_shares_the_extension():
    # loaded first, the extension is the one a later import of
    # scipy.linalg.lapack re-exports, and scipy.linalg still works
    src = str(Path(hjlab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    code = (
        "import json, sys; import numpy as np; "
        "from hjlab.pde import _lapack_pt; "
        "f, s = _lapack_pt(); "
        "before = 'scipy.linalg' in sys.modules; "
        "import scipy.linalg, scipy.linalg.lapack as L; "
        "ab = np.array([[0., -1., -1.], [4., 4., 4.], [-1., -1., 0.]]); "
        "x = scipy.linalg.solve_banded((1, 1), ab, np.array([3., 2., 3.])); "
        "print(json.dumps([before, f is L.dpttrf, s is L.dpttrs, "
        "x.tolist()]))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert json.loads(out.strip().splitlines()[-1]) == [
        False, True, True, [1.0, 1.0, 1.0]]


def _no_spec(self, fullname, target=None):
    return None


def _fail_load(self, spec_or_module):
    raise ImportError("simulated load failure")


@pytest.mark.parametrize("where", [
    ("FileFinder", "find_spec", _no_spec),
    ("ExtensionFileLoader", "create_module", _fail_load),
    ("ExtensionFileLoader", "exec_module", _fail_load),
], ids=["no-spec", "create-fails", "exec-fails"])
def test_lapack_pt_falls_back_to_scipy_linalg(monkeypatch, where):
    # an extension that is not found or does not load leaves no entry in
    # sys.modules, and the public routines solve to the same bits
    dx, n = 0.05, 201
    a = 0.55 + 0.4 * np.sin(3.1 * dx * np.arange(n))
    w = np.cos(dx * np.arange(n))
    want = diffusion_solver(a, 0.05, dx)(w.copy())
    cls, attr, fake = where
    monkeypatch.delitem(sys.modules, "scipy.linalg._flapack")
    monkeypatch.setattr(getattr(importlib.machinery, cls), attr, fake)
    dpttrf, dpttrs = _lapack_pt()
    assert "scipy.linalg._flapack" not in sys.modules
    assert dpttrf is scipy.linalg.lapack.dpttrf
    assert dpttrs is scipy.linalg.lapack.dpttrs
    got = diffusion_solver(a, 0.05, dx)(w.copy())
    assert got.tobytes() == want.tobytes()
    assert "scipy.linalg._flapack" not in sys.modules


def test_evolve_one_step_jacobian_sign(env_periodic):
    # one full step (explicit flux, implicit diffusion) is order
    # preserving: raising any input node lowers no output node, end nodes
    # included.  u0 = -x has upwind slopes at both ends, where a ghost
    # that copied the end slope into the flux once lowered an end value.
    # The three cases take the flux's three paths: every slope >= 0, both
    # signs (-x against theta = 1 ghosts) and every slope <= 0.
    # dt is monotone on the data's slopes, [-1.6, 1.6] and the bump's 0.01
    dx = 0.1
    dt = 0.9 * dx / G.lipschitz_on((-1.0, 1.61))
    xs = -2.0 + dx * np.arange(41)
    for theta, u0 in ((1.0, xs + 0.3 * np.sin(2.0 * xs)), (1.0, -xs),
                      (-1.0, -xs + 0.3 * np.sin(2.0 * xs))):
        scheme = SchemeConfig(dx=dx, dt=dt, M=2.0, T=dt, theta=theta)
        base = evolve(env_periodic, G, BETA, u0, scheme)
        if theta < 0.0:
            assert base.grad_range_seen[1] < 0.0
        assert base.steps == 1
        for j in range(xs.size):
            bumped = u0.copy()
            bumped[j] += 1e-3
            res = evolve(env_periodic, G, BETA, bumped, scheme)
            assert np.all(res.u >= base.u - 1e-13), j
            assert res.u[j] > base.u[j]


def test_evolve_matches_explicit_march(env_periodic):
    # oracle: the fully explicit scheme at its diffusive CFL, marched
    # with scheme_update; both are first order, so they differ by
    # O(dx + dt) -- measured 6.4e-3 here, asserted below 1e-2.  Both
    # step on the data's slope range, theta +- 0.6
    dx, theta, T = 0.05, 1.0, 1.0
    xs = -5.0 + dx * np.arange(201)
    a, v = sample_many(env_periodic, xs)
    kappa = G.lipschitz_on((theta - 0.6, theta + 0.6))
    n_exp = math.ceil(T * (2.0 * a.max() / dx ** 2 + kappa / dx) / 0.9)
    u = u0 = theta * xs + 0.3 * np.sin(2.0 * xs)
    for _ in range(n_exp):
        ue = np.concatenate(([u[0] - theta * dx], u, [u[-1] + theta * dx]))
        u = scheme_update(G, BETA, ue[:-2], u, ue[2:], a, v, dx, T / n_exp)
    dt = 0.9 * dx / kappa
    res = evolve(env_periodic, G, BETA, u0,
                 SchemeConfig(dx=dx, dt=dt, M=5.0, T=T, theta=theta))
    assert res.steps < n_exp / 4
    assert np.max(np.abs(res.u - u)) <= 1e-2


def test_stable_dt_independent_of_diffusion():
    # the hyperbolic bound reads G and the slope range, not a(x): one
    # step serves every diffusion, each run at CFL 0.9
    dt = stable_dt(G, BETA, 1.0, 0.05)
    kappa = G.lipschitz_on(cfl_gradient_range(G, BETA, 1.0))
    assert dt == pytest.approx(0.9 * 0.05 / kappa, rel=1e-14)
    scheme = SchemeConfig(dx=0.05, dt=dt, M=2.0, T=20 * dt, theta=1.0)
    for a0 in (0.05, 0.5, 1.0):
        env = generate_env("constant", 0, (-5.0, 5.0), 0.1,
                           params={"a0": a0, "v0": 0.5})
        res = evolve(env, G, BETA, lambda x: x, scheme)
        assert res.cfl == pytest.approx(0.9, rel=1e-14)
        assert res.steps == 20 and not res.grad_excursion


def test_stable_dt_needs_a_slope_range_where_g_moves():
    # beta = 0 and theta = 0 hold every level at 0: the range is {0},
    # where G' = 0, so there is no CFL step to take
    assert cfl_gradient_range(G, 0.0, 0.0) == (0.0, 0.0)
    with pytest.raises(ConfigError, match="set dt"):
        stable_dt(G, 0.0, 0.0, 0.05)


@pytest.mark.parametrize("G_", [AsymPowerG(2.0, 1e5), PowerG(1e5)],
                         ids=["asym-power", "power"])
def test_stable_dt_needs_a_finite_lipschitz_constant(G_):
    # G(1.7) = 1.7^1e5 overflows, so the slope range is (inf, inf), where
    # G has no finite Lipschitz constant: the step was 0.0.  The overflow
    # is the intended value, and no warning comes before the error
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cfl_gradient_range(G_, BETA, 1.7) == (math.inf, math.inf)
        with pytest.raises(ConfigError, match="no finite Lipschitz"):
            stable_dt(G_, BETA, 1.7, 0.05)


def test_comparison_preserved_on_ordered_pairs(env_periodic):
    # dt is monotone on the data's slopes, 1 +- 0.6
    dx = 0.1
    dt = 0.9 * dx / G.lipschitz_on((0.4, 1.6))
    rng = np.random.default_rng(7)
    xs = -10.0 + dx * np.arange(int(round(20.0 / dx)) + 1)
    for _ in range(5):
        w1, w2 = rng.uniform(0.5, 2.0, 2)
        ph1, ph2 = rng.uniform(0.0, 2 * np.pi, 2)
        u0 = xs + 0.3 * np.sin(w1 * xs + ph1)
        v0 = xs + 0.3 * np.sin(w2 * xs + ph2) + 0.7
        assert np.all(u0 <= v0)
        scheme = SchemeConfig(dx=dx, dt=dt, M=10.0, T=300 * dt, theta=1.0)
        ru = evolve(env_periodic, G, BETA, u0, scheme)
        rv = evolve(env_periodic, G, BETA, v0, scheme)
        assert np.all(ru.u <= rv.u + 1e-12)


# ------------------------------------------------------------
# evolve: exact solutions and guards
# ------------------------------------------------------------

def test_evolve_constant_env_linear_data_exact():
    env = generate_env("constant", 0, (-12.0, 12.0), 0.1,
                       params={"a0": 0.8, "v0": 0.5})
    theta = 0.7
    dx = 0.05
    dt = stable_dt(G, BETA, theta, dx)
    scheme = SchemeConfig(dx=dx, dt=dt, M=5.0, T=0.5, theta=theta)
    res = evolve(env, G, BETA, lambda x: theta * x, scheme)
    exact = theta * res.xs + 0.5 * (G(theta) + BETA * 0.5)
    assert np.max(np.abs(res.u - exact)) <= 1e-10
    assert res.t == pytest.approx(0.5, abs=1e-12)
    assert not res.grad_excursion


def test_evolve_corrector_data_first_order(env_periodic):
    # u = t lam + F solves the equation exactly; the scheme must track
    # it to C (dx + dt) and improve by >= 1.8 under joint halving
    # interior |x| <= 6 is buffered from the ghosts at |x| = 12 by more
    # than the hyperbolic range Lip(G) T plus the diffusive tail
    # the profile grid (0.0025) is much finer than either scheme grid so
    # its own discretization error does not floor the convergence ratio
    # one ghost slope serves both ends: M = 12 is a whole number of
    # periods of the 1-periodic medium, so F'(-12) = F'(12) to within
    # the enclosure (1.2887276157 against 1.2887276390)
    lam = 2.0
    prof = corrector_profile(env_periodic, G, BETA, lam, 2, (-12.0, 12.0),
                             1e-6, 0.0025)
    F = profile_antiderivative(prof)
    errs = []
    for dx in (0.05, 0.025):
        dt = stable_dt(G, BETA, math.sqrt(lam), dx)
        scheme = SchemeConfig(dx=dx, dt=dt, M=12.0, T=1.0,
                              theta=float(prof.f_vals[-1]))
        res = evolve(env_periodic, G, BETA, F, scheme)
        interior = np.abs(res.xs) <= 6.0
        err = np.max(np.abs(res.u[interior]
                            - (F(res.xs[interior]) + lam * 1.0)))
        errs.append(err)
        # the ghosts follow the solution, so the error converges on the
        # whole domain too, end nodes included
        assert np.max(np.abs(res.u - (F(res.xs) + lam))) <= 0.5 * (dx + dt)
    assert errs[0] <= 0.05 * (0.05 + stable_dt(G, BETA, math.sqrt(lam),
                                               0.05)) * 1.0
    assert errs[0] / errs[1] >= 1.8


def test_evolve_cfl_violation_raises(env_periodic):
    dx = 0.1
    dt = 2.0 * stable_dt(G, BETA, 1.0, dx)
    scheme = SchemeConfig(dx=dx, dt=dt, M=5.0, T=1.0, theta=1.0)
    with pytest.raises(StabilityError):
        evolve(env_periodic, G, BETA, lambda x: x, scheme)


def test_evolve_rejects_bad_inputs(env_periodic):
    dt = stable_dt(G, BETA, 1.0, 0.1)
    with pytest.raises(ConfigError):
        SchemeConfig(dx=0.1, dt=dt, M=5.03, T=1.0, theta=1.0)
    with pytest.raises(ConfigError):
        SchemeConfig(dx=0.1, dt=-dt, M=5.0, T=1.0, theta=1.0)
    # bool is an int subclass; True must not pass as 1.0
    with pytest.raises(ConfigError):
        SchemeConfig(dx=True, dt=dt, M=5.0, T=1.0, theta=1.0)
    with pytest.raises(ConfigError):
        SchemeConfig(dx=0.1, dt=dt, M=5.0, T=True, theta=1.0)
    scheme = SchemeConfig(dx=0.1, dt=dt, M=5.0, T=1.0, theta=1.0)
    with pytest.raises(ConfigError):
        evolve(env_periodic, G, BETA, np.zeros(7), scheme)
    bad = np.zeros(101)
    bad[3] = np.nan
    with pytest.raises(StabilityError):
        evolve(env_periodic, G, BETA, bad, scheme)


def test_evolve_origin_lays_a_slice_of_the_centred_grid(env_periodic):
    # 70 steps wide with x = 0 at node 30: nodes 20..90 of the centred
    # 100-step grid, bit for bit; an origin off the grid (a side of
    # fewer than 0 nodes), no window or a one-node window is refused
    dt = stable_dt(G, BETA, 1.0, 0.1)
    centred = evolve(env_periodic, G, BETA, lambda x: x, SchemeConfig(
        dx=0.1, dt=dt, M=5.0, T=dt, theta=1.0))
    window = SchemeConfig(dx=0.1, dt=dt, M=3.5, T=dt, theta=1.0)
    off = evolve(env_periodic, G, BETA, lambda x: x, window,
                 windows=[(30, 40)])
    assert off.xs.tobytes() == centred.xs[20:91].tobytes()
    for windows in ([(-1, 71)], [(71, -1)], [], [(0, 0)],
                    [(3, 4), (-1, 5)]):
        with pytest.raises(ConfigError):
            evolve(env_periodic, G, BETA, lambda x: x, window,
                   windows=windows)


def _nan_on_grid_call(k):
    """G, which puts a NaN at node 5 of its k-th call on a grid array,
    and the list of those calls."""
    grid_calls = []

    def G_nan(p):
        out = G(p)
        if np.ndim(out) == 0:
            return out
        grid_calls.append(1)
        return np.where(np.arange(out.size) == 5, np.nan, out) \
            if len(grid_calls) == k else out

    G_nan.lipschitz_on = G.lipschitz_on
    G_nan.branch_inverse = G.branch_inverse
    return G_nan, grid_calls


@pytest.mark.parametrize("steps", [10, 3])
def test_evolve_raises_on_midrun_nonfinite(env_periodic, steps):
    # G runs on two grid arrays per step where the slopes change sign (-x
    # against the theta = 1 ghosts); a NaN in the third step's flux is
    # caught by the fourth step's slope range (steps = 10) or, when the
    # third step is the last, by the final check (steps = 3)
    G_nan, grid_calls = _nan_on_grid_call(6)
    dt = stable_dt(G, BETA, 1.0, 0.1)
    scheme = SchemeConfig(dx=0.1, dt=dt, M=5.0, T=steps * dt, theta=1.0)
    with pytest.raises(StabilityError, match="non-finite"):
        evolve(env_periodic, G_nan, BETA, lambda x: -x, scheme)
    assert len(grid_calls) == 6


@pytest.mark.parametrize("steps", [10, 3])
def test_evolve_raises_on_midrun_nonfinite_one_signed(env_periodic, steps):
    # on slopes of one sign (u0 = x) G runs on one grid array per step: a
    # NaN in the third step's single call is caught at step 4 or by the
    # final check
    G_nan, grid_calls = _nan_on_grid_call(3)
    dt = stable_dt(G, BETA, 1.0, 0.1)
    scheme = SchemeConfig(dx=0.1, dt=dt, M=5.0, T=steps * dt, theta=1.0)
    with pytest.raises(StabilityError, match="non-finite"):
        evolve(env_periodic, G_nan, BETA, lambda x: x, scheme)
    assert len(grid_calls) == 3


def test_non_monotone_step_raises(env_periodic):
    # 5|x| has slopes +-5, where Lip(G) = 10: at the step of the a-priori
    # range [-1, 1] the first step is not monotone, and evolve says so
    dx = 0.1
    dt = stable_dt(G, BETA, 0.0, dx)
    scheme = SchemeConfig(dx=dx, dt=dt, M=5.0, T=5 * dt, theta=0.0)
    with pytest.raises(StabilityError, match="step 1 .* not monotone"):
        evolve(env_periodic, G, BETA, lambda x: 5.0 * np.abs(x), scheme)


def test_gradient_monitor_flags_excursion(env_periodic):
    # at a dt monotone on the data's slopes the run completes, and its
    # slopes leaving the a-priori range are flagged
    dx = 0.1
    dt = 0.9 * dx / G.lipschitz_on((-5.0, 5.0))
    scheme = SchemeConfig(dx=dx, dt=dt, M=5.0, T=5 * dt, theta=0.0)
    res = evolve(env_periodic, G, BETA, lambda x: 5.0 * np.abs(x), scheme)
    assert res.grad_excursion
    p_lo, p_hi = cfl_gradient_range(G, BETA, 0.0)
    assert res.grad_range_seen[0] < p_lo or res.grad_range_seen[1] > p_hi
    assert res.cfl < res.cfl_seen <= 1.0
    smooth = evolve(env_periodic, G, BETA, lambda x: 0.0 * x, scheme)
    assert not smooth.grad_excursion


def test_profile_antiderivative(env_periodic):
    prof = corrector_profile(env_periodic, G, BETA, 2.0, 2, (-6.0, 6.0),
                             1e-6, 0.01)
    F = profile_antiderivative(prof)
    # grid nodes carry ~1e-16 accumulation noise, so the pin at 0 is
    # exact only to machine precision
    assert abs(F(0.0)) <= 1e-12
    # centered difference of F recovers the slope
    h = 0.01
    for x in (-3.0, 0.5, 4.0):
        fd = (F(x + h) - F(x - h)) / (2 * h)
        f_here = np.interp(x, prof.grid, prof.f_vals)
        assert abs(fd - f_here) <= 1e-4


def test_profile_antiderivative_is_cumulative_trapezoid():
    # bit for bit against scipy's cumulative_trapezoid, non-uniform grid
    from types import SimpleNamespace

    from scipy.integrate import cumulative_trapezoid

    rng = np.random.default_rng(7)
    grid = np.cumsum(rng.uniform(0.001, 0.1, 600)) - 12.0
    f_vals = np.sin(grid) + rng.normal(0.0, 0.2, grid.size)
    ref = cumulative_trapezoid(f_vals, grid, initial=0.0)
    ref = ref - np.interp(0.0, grid, ref)
    F = profile_antiderivative(SimpleNamespace(grid=grid, f_vals=f_vals))
    assert np.array_equal(F(grid), ref)


# ------------------------------------------------------------
# homogenization sweep
# ------------------------------------------------------------

def test_homogenize_constant_env_exact():
    env = generate_env("constant", 0, (-40.0, 40.0), 0.1,
                       params={"a0": 1.0, "v0": 0.0})
    dx = 0.05
    dt = stable_dt(G, BETA, 1.0, dx)
    scheme = SchemeConfig(dx=dx, dt=dt, M=2.0, T=1.0, theta=1.0)
    res = homogenize_sweep(env, G, BETA, [0.5, 0.25], scheme,
                           reference=1.0)
    # linear data is an exact fixed shape: eps u(1/eps, 0) = G(theta)
    assert np.max(np.abs(res.values - 1.0)) <= 1e-10
    assert np.max(res.domain_sensitivity) <= 1e-10
    assert res.reference == 1.0
    assert res.epsilons.tolist() == [0.5, 0.25]


def test_homogenize_window_too_small():
    env = generate_env("constant", 0, (-5.0, 5.0), 0.1, params={"v0": 0.0})
    scheme = SchemeConfig(dx=0.05, dt=1e-3, M=2.0, T=1.0, theta=1.0)
    with pytest.raises(WindowError):
        homogenize_sweep(env, G, BETA, [0.25], scheme, reference=1.0)


def test_homogenize_validates_epsilons():
    env = generate_env("constant", 0, (-40.0, 40.0), 0.1, params={"v0": 0.0})
    scheme = SchemeConfig(dx=0.05, dt=1e-3, M=2.0, T=1.0, theta=1.0)
    with pytest.raises(ConfigError):
        homogenize_sweep(env, G, BETA, [], scheme, reference=1.0)
    with pytest.raises(ConfigError):
        homogenize_sweep(env, G, BETA, [2.0, 0.5], scheme, reference=1.0)


def test_homogenize_iid_flat_slope_runs():
    env = generate_env("iid-interp", 11, (-960.0, 960.0), 0.01)
    dx = 0.05
    dt = stable_dt(G, BETA, 0.0, dx)
    scheme = SchemeConfig(dx=dx, dt=dt, M=1.0, T=1.0, theta=0.0)
    # theta = 0 sits in the flat piece, so the reference is beta, exact
    ref, _, disc = hjlab.effective._reference(env, G, BETA, 0.0, 2e-2,
                                              X=300.0)
    assert ref == BETA and disc == 0.0
    res = homogenize_sweep(env, G, BETA, [0.25, 0.125], scheme, ref)
    assert res.reference == BETA
    assert np.all(res.values > 0.0) and np.all(res.values < 2.0 * BETA)
    assert np.all(res.domain_sensitivity >= 0.0)


def _fresh_runs(env, theta, epsilons, scheme):
    """The sweep from one fresh evolve per (domain, T), the steps those
    runs take, the union of their gradient ranges, and the steps and node
    steps of one march per distinct domain on its whole width: to its
    last T once, plus one tail step per stop that has a tail."""
    values, sens, excursion, fresh, stops = [], [], False, 0, {}
    seen = (math.inf, -math.inf)
    for eps in epsilons:
        n_half = math.ceil(scheme.M / (eps * scheme.dx) - 1e-9)
        pair = []
        for n in (n_half, 2 * n_half):
            run = SchemeConfig(dx=scheme.dx, dt=scheme.dt, M=n * scheme.dx,
                               T=1.0 / eps, theta=theta)
            res = evolve(env, G, BETA, lambda x: theta * x, run)
            pair.append(eps * float(res.u[n]))
            excursion = excursion or res.grad_excursion
            seen = (min(seen[0], res.grad_range_seen[0]),
                    max(seen[1], res.grad_range_seen[1]))
            fresh += res.steps
            stops.setdefault(n, []).append(1.0 / eps)
        values.append(pair[0])
        sens.append(abs(pair[1] - pair[0]))
    marched = marched_nodes = 0
    for n, ts in stops.items():
        whole = [math.floor(t / scheme.dt + 1e-9) for t in ts]
        steps = max(whole) + sum(t - w * scheme.dt > 1e-12 * t
                                 for t, w in zip(ts, whole))
        marched += steps
        marched_nodes += (2 * n + 1) * steps
    return (np.array(values), np.array(sens), excursion, seen, fresh,
            marched, marched_nodes)


@pytest.mark.parametrize("epsilons", [(0.5, 0.25, 0.125), (0.5, 0.3)])
@pytest.mark.parametrize("dt", [None, 1.0 / 128.0])
@pytest.mark.parametrize("workers", [1, 2])
def test_homogenize_marches_each_domain_once(epsilons, dt, workers):
    env = generate_env("iid-interp", 11, (-40.0, 40.0), 0.01)
    dx = 0.05
    # None: the CFL step, a tail at every stop; 1/128 divides T = 2, 4, 8
    dt = dt or stable_dt(G, BETA, 1.0, dx)
    scheme = SchemeConfig(dx=dx, dt=dt, M=1.0, T=1.0, theta=1.0)
    values, sens, excursion, seen, fresh, marched, nodes = _fresh_runs(
        env, 1.0, epsilons, scheme)
    res = homogenize_sweep(env, G, BETA, epsilons, scheme,
                           reference=1.0, workers=workers)
    # bit for bit where no window shrinks (trim_bound 0)
    assert np.all(np.abs(res.values - values) <= res.trim_bound)
    assert np.all(np.abs(res.domain_sensitivity - sens)
                  <= 2.0 * res.trim_bound)
    assert res.grad_excursion == excursion
    assert res.grad_range_seen == seen  # the marches see the same slopes
    assert res.steps == marched
    # the margin at the CFL step (over 2,600 nodes) keeps every whole
    # domain; at dt = 1/128 it is about 260 nodes, so the widest march
    # (320 nodes to T = 8) shrinks its window over its last steps
    if dt == 1.0 / 128.0 and epsilons[-1] == 0.125:
        assert 0.0 < res.trim_bound <= 1e-16 and res.node_steps < nodes
    else:
        assert res.node_steps == nodes and res.trim_bound == 0.0
    # the halving ladder shares two domains, the other ladder none
    assert (marched < fresh) == (epsilons[-1] == 0.125)


# dx = 0.1 and a small dt keep d and c small, so the margins are tens of
# nodes: (dt, M, epsilons) whose marches shrink their window midway, and
# whose marches start on a window narrower than their domain.  Every
# window's grid is a slice of the whole domain's, so it samples the
# medium where the domain does, on (dx_env 0.01) or off (0.03) the
# medium's lattice
TRIM_CASES = {"shrinks": (0.002, 1.0, (0.5, 0.25, 0.125)),
              "starts-trimmed": (0.01, 16.0, (0.5, 0.25))}


@pytest.fixture(scope="module", params=[
    ("iid-interp", 0.01), ("gauss-squash", 0.01), ("gauss-squash", 0.03)],
    ids=["iid-interp", "gauss-squash", "gauss-squash-off-lattice"])
def env_trim(request):
    return generate_env(request.param[0], 4, (-140.0, 140.0), request.param[1])


@pytest.fixture(scope="module")
def theta_half(env_trim):
    """theta2 / 2 on ``env_trim``: inside the flat piece, off its centre."""
    return estimate_theta(env_trim, G, BETA, BETA, 2, 100.0,
                          tol=1e-2).mean / 2.0


# every slope on the shorter case; "shrinks" marches many more steps, and
# on its domains of at most 160 nodes a one-signed range keeps the upwind
# count on both sides, as -1.5 shows
@pytest.mark.parametrize("theta, case", [
    pytest.param(theta, case, id=f"{theta}-{case}")
    for theta, case in [(1.0, "shrinks"), (-1.5, "shrinks"),
                        *((theta, "starts-trimmed")
                          for theta in (1.0, -1.5, 1.7, 0.0, "theta2/2"))]])
def test_trimmed_sweep_matches_fresh_runs(env_trim, theta_half, case, theta):
    theta = theta_half if theta == "theta2/2" else theta
    dt, M, epsilons = TRIM_CASES[case]
    scheme = SchemeConfig(dx=0.1, dt=dt, M=M, T=1.0, theta=theta)
    values, sens, excursion, _, _, marched, nodes = _fresh_runs(
        env_trim, theta, epsilons, scheme)
    res = homogenize_sweep(env_trim, G, BETA, epsilons, scheme,
                           reference=1.0)
    assert 0.0 < res.trim_bound <= 1e-16
    assert np.all(np.abs(res.values - values) <= res.trim_bound)
    assert np.all(np.abs(res.domain_sensitivity - sens)
                  <= 2.0 * res.trim_bound)
    assert res.steps == marched
    assert res.grad_excursion is excursion is False
    assert res.node_steps < nodes
    # on "shrinks" some march closes its upwind side in faster than a
    # node a step, and still reads the fresh runs within trim_bound
    assert (max(s for _, s, _, _ in res.trim_plan) > 1.0) == (
        case == "shrinks")
    # a downwind margin exactly where the slopes have one sign (1.7 and
    # -1.5; theta = 1 has p_lo = 0, and 0 and theta2/2 are on the flat
    # piece)
    p_lo, p_hi = cfl_gradient_range(G, BETA, theta)
    assert (res.trim_margins[1] is not None) == (p_lo > 0.0 or p_hi < 0.0)


def _symmetric_sweep(monkeypatch, *args, **kwargs):
    """``homogenize_sweep`` with every march on the symmetric plan: the
    upwind margin on both sides, as when the slopes can change sign."""
    trim_margin = hjlab.pde._trim_margin

    def symmetric(*a, **kw):
        (m_up, _), (term_up, _) = trim_margin(*a, **kw)
        return (m_up, None), (term_up, term_up)

    with monkeypatch.context() as patch:
        patch.setattr("hjlab.pde._trim_margin", symmetric)
        return homogenize_sweep(*args, **kwargs)


# where the range reaches 0 (theta = 1) the patch changes nothing: m_dn is
# None already
@pytest.mark.parametrize("case, theta", [("starts-trimmed", 1.7),
                                         ("shrinks", -1.5)])
def test_downwind_window_against_the_symmetric_plan(env_trim, case, theta,
                                                    monkeypatch):
    dt, M, epsilons = TRIM_CASES[case]
    scheme = SchemeConfig(dx=0.1, dt=dt, M=M, T=1.0, theta=theta)
    res = homogenize_sweep(env_trim, G, BETA, epsilons, scheme,
                           reference=1.0)
    sym = _symmetric_sweep(monkeypatch, env_trim, G, BETA, epsilons,
                           scheme, reference=1.0)
    assert res.trim_margins[0] == sym.trim_margins[0]
    if theta == 1.7:
        # slopes of one sign on domains of 320 nodes and more: a downwind
        # margin of about 200 nodes, on fewer nodes than the symmetric plan
        assert res.trim_margins[1] < 320
        assert res.node_steps < sym.node_steps
        assert np.all(np.abs(res.values - sym.values)
                      <= res.trim_bound + sym.trim_bound)
    else:
        # a downwind margin wider than every window (domains of at most
        # 160 nodes): the symmetric plan's windows, step for step
        assert res.trim_margins[1] > 160
        assert res.node_steps == sym.node_steps
        assert res.values.tobytes() == sym.values.tobytes()


@pytest.mark.parametrize("setup", ["shrinks", "off-range"])
def test_trimmed_sweep_same_at_two_workers(env_trim, setup, monkeypatch):
    # "off-range" is the setup of test_trim_bound_covers_a_march_that_
    # leaves_the_range: the slopes leave a narrow a-priori range, and the
    # bound taken again over the slopes of every group's evolve calls is
    # the same at both worker counts
    if setup == "shrinks":
        dt, M, epsilons = TRIM_CASES["shrinks"]
        theta = -1.5
    else:
        if multiprocessing.get_start_method() != "fork":
            pytest.skip("the patches reach the pool's workers only by fork")
        monkeypatch.setattr("hjlab.pde.cfl_gradient_range",
                            lambda G, beta, theta: (0.98, 1.02))
        monkeypatch.setattr("hjlab.pde._TRIM_TOL", 1e-8)
        dt, M, epsilons, theta = 0.01, 16.0, (0.5, 0.25), 1.0
    scheme = SchemeConfig(dx=0.1, dt=dt, M=M, T=1.0, theta=theta)
    one, two = (homogenize_sweep(env_trim, G, BETA, epsilons, scheme,
                                 reference=1.0, workers=w) for w in (1, 2))
    assert one.grad_excursion == (setup == "off-range")
    assert one.trim_bound > (1e-8 if setup == "off-range" else 0.0)
    assert one.values.tobytes() == two.values.tobytes()
    assert (one.domain_sensitivity.tobytes()
            == two.domain_sensitivity.tobytes())
    assert (one.steps, one.node_steps, one.trim_bound, one.grad_range_seen,
            one.grad_excursion) == (two.steps, two.node_steps,
                                    two.trim_bound, two.grad_range_seen,
                                    two.grad_excursion)


def _rate_one_windows(n, k_last, margins, up_right):
    """The windows of a march whose upwind edge closes in one node a step:
    a new window each time that side needs less than 0.85 of its nodes."""
    m_up, m_dn = margins

    def window(k):
        up = min(n, k_last - k + m_up)
        dn = up if m_dn is None else min(up, m_dn)
        return (k, dn, up) if up_right else (k, up, dn)

    windows = [window(0)]
    while True:
        up = windows[-1][2 if up_right else 1]
        k = k_last + m_up + 1 - math.ceil(0.85 * up)
        if k >= k_last:
            return windows
        windows.append(window(k))


@pytest.mark.parametrize("theta", [1.7, -1.2, 0.0])
def test_lane_plans_no_more_than_at_rate_one(theta):
    # the benchmark's ladder, M and dx at the CFL step: at s = 1 the
    # windows are those of an edge closing in one node a step, and each
    # lane's plan, the cheapest over the rates, costs no more; the widest
    # closes in faster than that, for under 0.8 of its cost at s = 1
    pde = hjlab.pde
    env = generate_env("iid-interp", 4, (-300.0, 300.0), 0.01)
    dx = 0.05
    dt = stable_dt(G, BETA, theta, dx)
    scheme = SchemeConfig(dx=dx, dt=dt, M=4.0, T=1.0, theta=theta)
    p_range = cfl_gradient_range(G, BETA, theta)
    lanes = [pde._Lane(env, G, theta, p_range, dx, dt, n, stops)
             for n, stops in _sweep_domains((1 / 8, 1 / 16, 1 / 32), scheme)]
    at_one = []
    for ln in lanes:
        scales = pde._trim_scales(env, G, theta, p_range, dx, dt, ln.n)
        costs = {}
        for s in pde._TRIM_RATES:
            margins, terms = pde._trim_margin(scales, ln.k_last, ln.n, s=s)
            windows = pde._trim_windows(ln.n, ln.k_last, margins, s,
                                        ln.up_right)
            costs[s] = pde._plan_cost(windows, ln.k_last)
            if s == 1.0:
                assert windows == _rate_one_windows(ln.n, ln.k_last, margins,
                                                    ln.up_right)
            if s == ln.s:
                assert (margins, terms, windows) == (ln.margins, ln.terms,
                                                     ln.windows)
        assert ln.cost == costs[ln.s] == min(costs.values()) <= costs[1.0]
        at_one.append(costs[1.0])
    assert lanes[-1].s > 1.0 and lanes[-1].cost < 0.8 * at_one[-1]


@pytest.mark.parametrize("G_, theta", [(G, 1.7), (G, -1.7),
                                       (AsymPowerG(1.5, 3.0), 1.4)],
                         ids=["power-1.7", "power--1.7", "asym-1.4"])
def test_one_sided_sweep_is_the_two_sided_sweep(monkeypatch, G_, theta):
    # off the flat piece every step has slopes of one sign and evaluates G
    # once; the same sweep with every step two-sided is the same bit for bit.
    # The domains march in lockstep, so the flux runs once per evolve step
    env = generate_env("iid-interp", 4, (-140.0, 140.0), 0.01)
    scheme = SchemeConfig(dx=0.1, dt=stable_dt(G_, BETA, theta, 0.1),
                          M=16.0, T=1.0, theta=theta)
    two_sided, one_signed = hjlab.pde.godunov_flux, []
    evolve_, kernel_steps = hjlab.pde.evolve, []

    def flux(G, p_minus, p_plus, out=None, *, p_range, g0):
        one_signed.append(p_range[0] >= 0.0 or p_range[1] <= 0.0)
        return two_sided(G, p_minus, p_plus, out=out)

    def counted(*args, **kwargs):
        r = evolve_(*args, **kwargs)
        kernel_steps.append(r.steps)
        return r

    res = homogenize_sweep(env, G_, BETA, (0.5, 0.25), scheme,
                           reference=1.0)
    with monkeypatch.context() as patch:
        patch.setattr("hjlab.pde.godunov_flux", flux)
        patch.setattr("hjlab.pde.evolve", counted)
        ref = homogenize_sweep(env, G_, BETA, (0.5, 0.25), scheme,
                               reference=1.0)
    assert len(one_signed) == sum(kernel_steps) and all(one_signed)
    assert sum(kernel_steps) < res.steps
    assert res.values.tobytes() == ref.values.tobytes()
    assert (res.domain_sensitivity.tobytes()
            == ref.domain_sensitivity.tobytes())
    assert (res.grad_range_seen, res.cfl_seen, res.trim_bound,
            res.node_steps) == (ref.grad_range_seen, ref.cfl_seen,
                                ref.trim_bound, ref.node_steps)


def test_trim_bound_covers_a_march_that_leaves_the_range(monkeypatch):
    # an a-priori range of theta +- 0.02, well inside the slopes the runs
    # see (about [0.73, 1.24]), and margins for 1e-8 rather than 1e-16:
    # the marches trim, leave the range, and their stops differ from the
    # fresh runs.  Each margin puts its a-priori bound below 1e-8; the
    # bound reported is taken again over the slopes seen, and covers the
    # difference
    narrow = (0.98, 1.02)
    monkeypatch.setattr("hjlab.pde.cfl_gradient_range",
                        lambda G, beta, theta: narrow)
    monkeypatch.setattr("hjlab.pde._TRIM_TOL", 1e-8)
    env = generate_env("iid-interp", 4, (-140.0, 140.0), 0.01)
    epsilons = (0.5, 0.25)
    scheme = SchemeConfig(dx=0.1, dt=0.01, M=16.0, T=1.0, theta=1.0)
    values, sens, excursion, seen, _, marched, nodes = _fresh_runs(
        env, 1.0, epsilons, scheme)
    res = homogenize_sweep(env, G, BETA, epsilons, scheme,
                           reference=1.0)
    assert res.grad_excursion and excursion
    assert seen[0] < narrow[0] and seen[1] > narrow[1]
    assert res.steps == marched and res.node_steps < nodes
    assert res.trim_bound > 1e-8
    assert 0.0 < np.max(np.abs(res.values - values)) <= res.trim_bound
    assert np.all(np.abs(res.domain_sensitivity - sens)
                  <= 2.0 * res.trim_bound)


def test_trim_bound_covers_a_downwind_march_whose_slopes_reach_zero(
        monkeypatch):
    # theta = 0 with an a-priori range of positive slopes, far from the
    # slopes of both signs the runs see (about [-0.46, 0.35]): each march
    # plans a constant downwind margin against a drift the slopes seen do
    # not have.  Over them d_min is 0, so the downwind term falls back to
    # its lam = 0 value, large but finite, and covers the difference
    narrow = (0.9, 1.0)
    monkeypatch.setattr("hjlab.pde.cfl_gradient_range",
                        lambda G, beta, theta: narrow)
    monkeypatch.setattr("hjlab.pde._TRIM_TOL", 1e-8)
    env = generate_env("iid-interp", 4, (-140.0, 140.0), 0.01)
    epsilons = (0.5, 0.25)
    scheme = SchemeConfig(dx=0.1, dt=0.01, M=16.0, T=1.0, theta=0.0)
    values, sens, excursion, seen, _, marched, nodes = _fresh_runs(
        env, 0.0, epsilons, scheme)
    res = homogenize_sweep(env, G, BETA, epsilons, scheme,
                           reference=1.0)
    assert res.grad_excursion and excursion
    lo, hi = res.grad_range_seen
    assert lo < 0.0 < hi
    assert res.trim_margins[1] is not None
    assert res.steps == marched and res.node_steps < nodes
    assert 1.0 < res.trim_bound < math.inf
    assert 0.0 < np.max(np.abs(res.values - values)) <= res.trim_bound
    assert np.all(np.abs(res.domain_sensitivity - sens)
                  <= 2.0 * res.trim_bound)


# ------------------------------------------------------------
# lockstep marches
# ------------------------------------------------------------

@pytest.fixture(scope="module")
def env_iid40():
    return generate_env("iid-interp", 4, (-40.0, 40.0), 0.01)


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_stacked_evolve_is_each_window_alone(env_iid40, data):
    # 1-4 windows of random widths either side of x = 0, from linear data
    # with noise, stepped in one run: each window's nodes, slopes and
    # steps are those of a run on that window alone, bit for bit
    G_ = data.draw(st.sampled_from((G, AsymPowerG(1.5, 3.0))), label="G")
    theta = data.draw(st.sampled_from((1.7, -1.2, 0.0)), label="theta")
    dx = 0.1
    dt = stable_dt(G_, BETA, theta, dx) / 2.0
    side = st.integers(0, 60)
    windows = data.draw(st.lists(st.tuples(side, side).filter(
        lambda w: sum(w) >= 1), min_size=1, max_size=4), label="windows")
    steps = data.draw(st.integers(1, 30), label="steps")
    tail = data.draw(st.sampled_from((0.0, 0.37)), label="tail")
    scheme = SchemeConfig(dx=dx, dt=dt, M=1.0, T=(steps + tail) * dt,
                          theta=theta)
    rng = np.random.default_rng(data.draw(st.integers(0, 99), label="seed"))
    u0 = [theta * dx * np.arange(-left, right + 1)
          + rng.uniform(-0.2 * dx, 0.2 * dx, left + right + 1)
          for left, right in windows]
    stacked = evolve(env_iid40, G_, BETA, np.concatenate(u0), scheme,
                     windows=windows)
    alone = [evolve(env_iid40, G_, BETA, u, scheme, windows=[w])
             for u, w in zip(u0, windows)]
    assert stacked.steps == alone[0].steps == steps + (tail > 0.0)
    assert stacked.u.tobytes() == np.concatenate([r.u for r in alone]).tobytes()
    assert (stacked.xs.tobytes()
            == np.concatenate([r.xs for r in alone]).tobytes())
    assert stacked.grad_range_seen == (
        min(r.grad_range_seen[0] for r in alone),
        max(r.grad_range_seen[1] for r in alone))
    assert stacked.grad_excursion == any(r.grad_excursion for r in alone)
    assert stacked.cfl_seen == max(r.cfl_seen for r in alone)
    # a centred window is the grid that M lays
    left, right = windows[0]
    if left == right:
        laid = evolve(env_iid40, G_, BETA, u0[0], SchemeConfig(
            dx=dx, dt=dt, M=left * dx, T=scheme.T, theta=theta))
        assert laid.u.tobytes() == alone[0].u.tobytes()


def test_stacked_evolve_joint_slopes_never_reach_G(env_iid40):
    # a fast-growing G, and two windows whose facing edges are 600 nodes
    # apart: the difference across the two ghost slots between them is a
    # slope of -301, where G is 301**150, past the largest double.  It is
    # overwritten by a real slope before the flux, so G never overflows
    # and no inf meets the zero coupling of the solve (0 * inf, a NaN in
    # the next window)
    G150 = PowerG(150.0)
    dx, theta = 0.1, 0.5
    dt = stable_dt(G150, BETA, theta, dx)
    scheme = SchemeConfig(dx=dx, dt=dt, M=1.0, T=20.5 * dt, theta=theta)
    windows = [(10, 300), (300, 10)]
    u0 = [theta * dx * np.arange(-left, right + 1) for left, right in windows]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        stacked = evolve(env_iid40, G150, BETA, np.concatenate(u0), scheme,
                         windows=windows)
    alone = [evolve(env_iid40, G150, BETA, u, scheme, windows=[w])
             for u, w in zip(u0, windows)]
    assert np.all(np.isfinite(stacked.u))
    assert stacked.u.tobytes() == np.concatenate([r.u for r in alone]).tobytes()


def _sweep_domains(epsilons, scheme):
    """(half-width in nodes, its stops) of each domain a sweep marches."""
    stops = {}
    for eps in sorted(epsilons, reverse=True):
        n = math.ceil(scheme.M / (eps * scheme.dx) - 1e-9)
        for width in (n, 2 * n):
            stops.setdefault(width, []).append(1.0 / eps)
    return list(stops.items())


def _lockstep_and_apart(env, G_, theta, epsilons, scheme):
    """``_march`` on all of a sweep's domains at once and on each alone.
    Asserts that each lane's state is the same bit for bit (the values
    read at every stop, the plan, the last window and its u), and that
    the together tallies are the apart ones summed, hulled and maxed;
    returns the together lanes and tallies."""
    domains = _sweep_domains(epsilons, scheme)
    args = (G_, BETA, theta, scheme)
    lanes, tally = hjlab.pde._march(env, (*args, domains))
    apart = [hjlab.pde._march(env, (*args, [d])) for d in domains]

    def state(ln):
        return repr((ln.n, ln.at_zero, ln.s, ln.margins, ln.terms,
                     ln.windows, ln.cost, ln.left, ln.right,
                     ln.u.tobytes()))

    assert [state(ln) for ln in lanes] == [state(ln) for (ln,), _ in apart]
    steps, node_steps, lo, hi, cfl_seen = zip(*(t for _, t in apart))
    assert repr(tally) == repr((sum(steps), sum(node_steps), min(lo),
                                max(hi), max(cfl_seen)))
    return lanes, tally


# (kind, G, theta): both branches and the flat piece, a medium with a
# varying a, an asymmetric G and a tabulated one
LOCKSTEP_CASES = {
    "theta-1.7": ("iid-interp", G, 1.7),
    "theta--1.2": ("iid-interp", G, -1.2),
    "theta-0": ("iid-interp", G, 0.0),
    "gauss-squash": ("gauss-squash", G, 1.7),
    "asym": ("iid-interp", AsymPowerG(1.5, 3.0), 1.4),
    "tabulated": ("iid-interp", TabulatedG(
        np.array([-4.0, -2.5, -1.0, 0.0, 1.5, 3.0]),
        np.array([7.0, 4.0, 1.0, 0.0, 2.0, 5.0])), 1.6),
}


@pytest.mark.parametrize("case", list(LOCKSTEP_CASES))
def test_lockstep_march_is_each_domain_alone(case):
    # all domains in one group against one domain per group: the values
    # read at every stop and each plan bit for bit, and the tallies
    # merged.  dt = 0.0021 leaves a tail step at every stop, and the
    # windows shrink midway
    kind, G_, theta = LOCKSTEP_CASES[case]
    env = generate_env(kind, 4, (-140.0, 140.0), 0.01)
    scheme = SchemeConfig(dx=0.1, dt=0.0021, M=1.0, T=1.0, theta=theta)
    lanes, _ = _lockstep_and_apart(env, G_, theta, (0.5, 0.25, 0.125),
                                   scheme)
    assert any(min(ln.left, ln.right) < ln.n for ln in lanes)


@pytest.mark.parametrize("theta, narrow", [(1.0, (0.98, 1.02)),
                                           (0.0, (0.9, 1.0))])
def test_lockstep_march_is_each_domain_alone_off_the_range(monkeypatch, theta,
                                                           narrow):
    # the setups of the two test_trim_bound_covers_* tests: the slopes
    # leave the a-priori range, and the merged tallies still show it
    monkeypatch.setattr("hjlab.pde.cfl_gradient_range",
                        lambda G, beta, theta: narrow)
    monkeypatch.setattr("hjlab.pde._TRIM_TOL", 1e-8)
    env = generate_env("iid-interp", 4, (-140.0, 140.0), 0.01)
    scheme = SchemeConfig(dx=0.1, dt=0.01, M=16.0, T=1.0, theta=theta)
    _, (_, _, lo, hi, _) = _lockstep_and_apart(env, G, theta, (0.5, 0.25),
                                               scheme)
    assert lo < narrow[0] or hi > narrow[1]


def test_evolve_calls_sum_to_the_sweep_node_steps(monkeypatch):
    # what a tracer of hjlab.pde.evolve counts, steps times nodes over
    # the calls, is the sweep's node_steps, in fewer evolve steps than
    # the domains march
    env = generate_env("iid-interp", 4, (-140.0, 140.0), 0.01)
    scheme = SchemeConfig(dx=0.1, dt=0.0021, M=1.0, T=1.0, theta=1.7)
    evolve_, calls = hjlab.pde.evolve, []

    def traced(*args, **kwargs):
        r = evolve_(*args, **kwargs)
        calls.append((r.steps, r.xs.size))
        return r

    monkeypatch.setattr("hjlab.pde.evolve", traced)
    res = homogenize_sweep(env, G, BETA, (0.5, 0.25, 0.125), scheme,
                           reference=1.0)
    assert sum(s * n for s, n in calls) == res.node_steps
    assert sum(s for s, _ in calls) < res.steps


@pytest.mark.parametrize("kind", ["iid-interp", "gauss-squash", "periodic"])
def test_linear_data_stays_in_the_a_priori_range(kind):
    # a slope on branch 2, one on branch 1, and two inside the flat piece
    # (0 and theta2/2, where G(theta) < beta): each sweep at stable_dt
    # completes, and its slopes stay in the range that chose dt
    env = generate_env(kind, 4, (-200.0, 200.0), 0.01)
    theta2 = estimate_theta(env, G, BETA, BETA, 2, 100.0, tol=1e-2).mean
    for theta in (1.7, -1.7, 0.0, theta2 / 2.0):
        scheme = SchemeConfig(dx=0.05, dt=stable_dt(G, BETA, theta, 0.05),
                              M=1.0, T=1.0, theta=theta)
        res = homogenize_sweep(env, G, BETA, [1 / 8, 1 / 16, 1 / 32],
                               scheme, reference=1.0)
        p_lo, p_hi = cfl_gradient_range(G, BETA, theta)
        lo, hi = res.grad_range_seen
        assert p_lo <= lo <= hi <= p_hi, (theta, res.grad_range_seen)
        assert not res.grad_excursion
        # stable_dt steps at the a-priori bound, which no step exceeded
        assert res.cfl == pytest.approx(0.9, abs=1e-12)
        assert 0.0 < res.cfl_seen <= res.cfl


def test_sweep_at_half_the_stable_step_agrees():
    # the scheme is first order in time, so halving dt moves
    # eps u(1/eps, 0) by O(dt): at most 2.9e-4 here (at theta = 1.7,
    # eps = 1/4), asserted below 1e-3, a fifth of the 0.005 to which the
    # benchmark holds its sweep values
    env = generate_env("iid-interp", 11, (-40.0, 40.0), 0.01)
    for theta in (1.7, -1.7, 0.0, 0.4):
        dt = stable_dt(G, BETA, theta, 0.05)
        full, half = (homogenize_sweep(
            env, G, BETA, [0.25, 0.125],
            SchemeConfig(dx=0.05, dt=h, M=1.0, T=1.0, theta=theta),
            reference=1.0) for h in (dt, dt / 2.0))
        assert np.max(np.abs(full.values - half.values)) <= 1e-3, theta


@pytest.mark.parametrize("d, c, tight", [(0.5, 1.0, True), (0.11, 0.2, True),
                                         (0.9, 2.8, False)])
def test_trim_rate_against_exact_walk_tail(d, c, tight):
    lam = _trim_rate(1.0 - d, c)
    ms = np.array([10, 20, 30])
    tails = walk_tail(d, c, 200, ms)
    # the Chernoff bound a trimmed march rests on holds for the walk ...
    assert np.all(tails <= 200 * np.exp(-lam * ms))
    # ... and lam* is the walk's own decay rate (Cramer), once the walk
    # has the steps to reach m: the margin gives nothing away
    if tight:
        rates = -np.diff(np.log(tails)) / np.diff(ms)
        assert np.allclose(rates, lam, rtol=1e-3)


# (0.627, 4.56) is the benchmark's downwind side: d_min = dt inf|G'| / dx
# at theta = 1.7, dx = 0.05 and c = dt / dx**2
@pytest.mark.parametrize("d_min, c, tight", [
    (0.5, 1.0, True), (0.9, 2.8, True), (0.11, 0.2, False),
    (0.627, 4.56, False)])
def test_downwind_trim_rate_against_exact_walk_tail(d_min, c, tight):
    lam = _trim_rate(d_min, c)
    ms = np.array([10, 20, 30])
    tails = walk_tail(d_min, c, 200, ms, closing=False)
    # a fixed downwind edge m nodes out, against the explicit drift: the
    # Chernoff bound k_last exp(-lam m) holds for the walk ...
    assert np.all(tails <= 200 * np.exp(-lam * ms))
    # ... and lam is its Cramer rate, where m is far enough out
    if tight:
        rates = -np.diff(np.log(tails)) / np.diff(ms)
        assert np.allclose(rates, lam, rtol=1e-3)


# the benchmark's rates (d, d_min, c) at theta 1.7, and two more; the far
# end of the window right at x = 0, where the Neumann row reflects the
# walk back at once, and 30 nodes out
@pytest.mark.parametrize("d, d_min, c", [(0.9, 0.627, 4.56),
                                         (0.6, 0.5, 1.0),
                                         (0.95, 0.9, 0.2)])
@pytest.mark.parametrize("w", [0, 30])
def test_trim_weights_cover_the_exact_window_walk(d, d_min, c, w):
    steps, m = 150, 10
    (lam_up, f_up), (lam_dn, f_dn) = _trim_weights(c, d, d_min, steps, 1.0)(w)
    # the row of x = 0 carried back through the window's own explicit and
    # Neumann-ended implicit stages, reflection at the far end included:
    # a downwind edge fixed m nodes out, the upwind end w nodes out ...
    fixed, _ = window_walk(d_min, c, m, w, steps)
    assert fixed <= steps * f_dn * math.exp(-lam_dn * m)
    # ... an upwind edge closing in to m + 1 nodes, the explicit stage
    # moving d toward it, the downwind end w out ...
    _, up = window_walk(d, c, w, m + 1, steps, grow=(0, 1))
    assert up <= steps * f_up * math.exp(-lam_up * m)
    # ... and a downwind edge closing in at the upwind rate
    closing, _ = window_walk(d_min, c, m + 1, w, steps, grow=(1, 0))
    assert closing <= steps * f_up * math.exp(-lam_up * m)


@given(s=st.floats(1.0, 2.0), d=st.floats(0.05, 0.95),
       share=st.floats(0.0, 1.0), c=st.floats(0.2, 5.0),
       w=st.integers(0, 30))
@settings(max_examples=25, deadline=None)
def test_trim_weights_at_a_closing_rate_cover_the_exact_window_walk(
        s, d, share, c, w):
    # an upwind edge, and a downwind one, that close in s nodes a step
    # going back, m + 1 nodes out at the last step: the weights at rate s
    # bound the row of x = 0 carried back exactly, the far end's
    # reflection included; d_min <= d, as dt inf|G'| / dx is
    steps, m = 60, 6
    d_min = share * d
    (lam_up, f_up), _ = _trim_weights(c, d, d_min, steps, s)(w)
    bound = steps * f_up * math.exp(-lam_up * m)
    _, up = window_walk(d, c, w, m + 1, steps, grow=(0, s))
    assert up <= bound
    closing, _ = window_walk(d_min, c, m + 1, w, steps, grow=(s, 0))
    assert closing <= bound
    # a faster closing rate gives a faster decay
    assert lam_up >= _trim_rate(1.0 - d, c)


# ------------------------------------------------------------
# residual probes
# ------------------------------------------------------------

# Lipschitz constant of p^2 on [G2^{-1}(lam-beta)-1, G2^{-1}(lam)+1]
# = [0, sqrt(2)+1] at lam = 2, beta = 1:
KAPPA_2 = 2.0 * (math.sqrt(2.0) + 1.0)


def _psi_p(x):
    return (2.0 / math.pi) * np.arctan(x)


def _psi_pp(x):
    return (2.0 / math.pi) / (1.0 + x * x)


def test_probe_constant_corrector_sub(env_const_half):
    lam, delta = 2.0, 0.1
    prof = corrector_profile(env_const_half, G, BETA, lam, 2, (-15.0, 15.0),
                             1e-6, 0.01)
    rep = residual_probe(env_const_half, G, BETA, prof, delta, "sub")
    assert rep.passed and rep.kind == "sub"
    assert rep.kappa == pytest.approx(KAPPA_2, abs=1e-12)
    assert rep.drift == pytest.approx(lam - (KAPPA_2 + 1.0) * delta,
                                      abs=1e-12)
    # closed form with the exact constant slope sqrt(1.5):
    # r = -delta psi'' + G(f - delta psi') + 0.5 - lam + (kappa+1) delta
    xi = prof.grid[1:-1]
    f = math.sqrt(1.5)
    r = (-delta * _psi_pp(xi) + (f - delta * _psi_p(xi)) ** 2 + 0.5
         - lam + (KAPPA_2 + 1.0) * delta)
    assert rep.min_residual == pytest.approx(float(r.min()), abs=1e-4)
    assert rep.max_residual == pytest.approx(float(r.max()), abs=1e-4)
    assert rep.min_residual > 0.2  # strictly positive margin


def test_probe_constant_corrector_super(env_const_half):
    lam, delta = 2.0, 0.1
    prof = corrector_profile(env_const_half, G, BETA, lam, 2, (-15.0, 15.0),
                             1e-6, 0.01)
    rep = residual_probe(env_const_half, G, BETA, prof, delta, "super")
    assert rep.passed
    assert rep.drift == pytest.approx(lam + (KAPPA_2 + 1.0) * delta,
                                      abs=1e-12)
    xi = prof.grid[1:-1]
    f = math.sqrt(1.5)
    r = (delta * _psi_pp(xi) + (f + delta * _psi_p(xi)) ** 2 + 0.5
         - lam - (KAPPA_2 + 1.0) * delta)
    assert rep.max_residual == pytest.approx(float(r.max()), abs=1e-4)
    assert rep.max_residual < -0.2  # strictly negative margin


@pytest.mark.parametrize("branch, whole, tail", [
    (1, (-10.0, 0.0), (-10.004, 0.0)),
    (2, (0.0, 10.0), (0.0, 10.004)),
])
def test_probe_tail_step_profile(env_periodic, branch, whole, tail):
    # a short tail step neither skews F'' nor shrinks the default tol
    profs = [corrector_profile(env_periodic, G, BETA, 2.0, branch, region,
                               1e-6, 0.01) for region in (whole, tail)]
    for kind in ("sub", "super"):
        want, got = (residual_probe(env_periodic, G, BETA, prof, 0.1, kind)
                     for prof in profs)
        assert got.tol == pytest.approx(0.1, abs=1e-12)
        assert got.min_residual == pytest.approx(want.min_residual, abs=1e-6)
        assert got.max_residual == pytest.approx(want.max_residual, abs=1e-6)


HILL = HillWitness(L1=5.0, L2=25.0, scaled_length=20.0, v_min_on_interval=1.0)


def test_probe_glued_profiles(env_const_v1):
    delta = 0.25
    g21 = build_glued_profile(env_const_v1, G, BETA, delta, HILL, order="21",
                              region=(0.0, 30.0), dx=0.01)
    g12 = build_glued_profile(env_const_v1, G, BETA, delta, HILL, order="12",
                              region=(0.0, 30.0), dx=0.01)
    sub = residual_probe(env_const_v1, G, BETA, g21, delta, "sub")
    assert sub.passed
    assert sub.drift == BETA - 3.0 * delta
    assert sub.kappa is None
    sup = residual_probe(env_const_v1, G, BETA, g12, delta, "super")
    assert sup.passed
    assert sup.drift == BETA + 4.0 * delta
    # the band is two-sided, so the cross checks hold as well
    assert residual_probe(env_const_v1, G, BETA, g21, delta, "super").passed
    assert residual_probe(env_const_v1, G, BETA, g12, delta, "sub").passed


def test_probe_sign_violation_raises(env_const_v1):
    grid = np.arange(5.0, 7.0 + 1e-12, 0.01)
    bad = GluedProfile(order="21", delta=0.25, beta=BETA, z1=6.5, z2=5.5,
                       grid=grid, f_vals=-5.0 * (grid - 6.0),
                       residual_band=(0.0, 0.0))
    with pytest.raises(SignError):
        residual_probe(env_const_v1, G, BETA, bad, 0.25, "super")
    rep = residual_probe(env_const_v1, G, BETA, bad, 0.25, "super",
                         strict=False)
    assert not rep.passed and rep.max_residual > rep.tol


def test_probe_validates_inputs(env_const_v1):
    prof = corrector_profile(env_const_v1, G, BETA, 2.0, 2, (10.0, 15.0),
                             1e-6, 0.01)
    with pytest.raises(ValueError):
        residual_probe(env_const_v1, G, BETA, prof, 0.1, "both")
    with pytest.raises(ValueError):
        residual_probe(env_const_v1, G, BETA, prof, -0.1, "sub")
    with pytest.raises(ValueError):
        residual_probe(env_const_v1, G, BETA, np.zeros(3), 0.1, "sub")


# ------------------------------------------------------------
# persistence
# ------------------------------------------------------------

def test_save_sweep_and_probe_csv(tmp_path, env_const_v1):
    env = generate_env("constant", 0, (-40.0, 40.0), 0.1,
                       params={"v0": 0.0})
    dx = 0.05
    dt = stable_dt(G, BETA, 1.0, dx)
    scheme = SchemeConfig(dx=dx, dt=dt, M=2.0, T=1.0, theta=1.0)
    res = homogenize_sweep(env, G, BETA, [0.5], scheme, reference=1.0)
    sweep_path = tmp_path / "sweep.csv"
    save_sweep(res, str(sweep_path))
    lines = sweep_path.read_text().strip().split("\n")
    assert lines[0] == "theta,epsilon,value,reference,domain_sensitivity"
    cols = lines[1].split(",")
    assert float(cols[0]) == 1.0 and float(cols[1]) == 0.5
    assert float(cols[2]) == res.values[0]

    prof = corrector_profile(env_const_v1, G, BETA, 2.0, 2, (10.0, 15.0),
                             1e-6, 0.01)
    rep = residual_probe(env_const_v1, G, BETA, prof, 0.1, "sub")
    probe_path = tmp_path / "probe.csv"
    save_probe([rep], str(probe_path))
    lines = probe_path.read_text().strip().split("\n")
    assert lines[0] == "kind,min_residual,max_residual,pass"
    cols = lines[1].split(",")
    assert cols[0] == "sub" and cols[3] == "True"
    assert float(cols[1]) == rep.min_residual
