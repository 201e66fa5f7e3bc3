import json
import math
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import cumulative_trapezoid

from hjlab import environment
from hjlab.environment import (
    KINDS,
    EnvRealization,
    _lattice_uniform,
    check_singular_hill,
    find_hill,
    generate_env,
    reflect,
    s_at,
    sample_many,
    save_env,
    write_csv,
)
from hjlab.errors import ConfigError, WindowError
from oracles import (coupled_singular_per_node, gauss_field_per_mark,
                     iid_interp_per_node)


# ------------------------------------------------------------
# deterministic lattice randomness
# ------------------------------------------------------------

def test_lattice_uniform_regression_anchor():
    # frozen once; any change here silently breaks every stored seed
    u = _lattice_uniform(42, np.array([0, 1, -1, 1000000]), 0)
    assert u.tolist() == [0.7720564905202446, 0.03375472633327581,
                          0.3869742762400409, 0.46183985201317934]
    u1 = _lattice_uniform(42, np.array([0]), 1)
    assert float(u1[0]) == 0.39236396611156377


def test_lattice_uniform_statistics():
    u = _lattice_uniform(123, np.arange(-50000, 50000), 0)
    assert abs(u.mean() - 0.5) < 0.005
    assert abs(u.var() - 1.0 / 12.0) < 0.002
    # streams decorrelated
    v = _lattice_uniform(123, np.arange(-50000, 50000), 6)
    c = np.corrcoef(u, v)[0, 1]
    assert abs(c) < 0.02


# windows on either side of 0, across it, and off the integers
HASH_WINDOWS = [(-25.0, 25.0), (-40.0, -20.0), (15.0, 35.0), (-17.33, 32.71)]


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("phase", [None, 0.37])
def test_each_lattice_mark_hashed_once(seed, phase):
    # the generators hash each lattice mark once and index it: the media
    # of the per-node hashes, bit for bit
    from hjlab.environment import (_STREAM_GS_PHASE_V, _STREAM_GS_V,
                                   _gauss_field, _gen_coupled_singular,
                                   _gen_iid_interp)

    dx = 0.01
    for lo, hi in HASH_WINDOWS:
        xs = np.arange(math.floor(lo / dx), math.ceil(hi / dx) + 1) * dx
        _, v = _gen_iid_interp(seed, (lo, hi), dx, phase=phase)(xs)
        assert v.tobytes() == iid_interp_per_node(seed, xs, phase).tobytes()
        got = _gen_coupled_singular(seed, (lo, hi), dx, phase=phase)(xs)
        want = coupled_singular_per_node(seed, xs, phase=phase)
        assert [g.tobytes() for g in got] == [w.tobytes() for w in want]
        args = (seed, _STREAM_GS_V, _STREAM_GS_PHASE_V, 2.0, phase, xs)
        assert _gauss_field(*args).tobytes() == \
            gauss_field_per_mark(*args).tobytes()


# a 101-node window 10^10 unit marks long: each block hashes only the
# marks its nodes read, where hashing its whole span of marks took 74.5 GiB;
# the command peaks near 0.1 MB
FAR_WINDOW_PEAK = 1 << 20


@pytest.mark.parametrize("kind", ["iid-interp", "coupled-singular"])
def test_far_sparse_window_reads_only_its_marks(tmp_path, kind):
    from hjlab.cli import main

    window, dx = (1e15, 1.00001e15), 1e8
    cfg = tmp_path / "far.ini"
    cfg.write_text(f"[env]\nkind = {kind}\nseed = 5\n"
                   f"window = {window[0]!r} {window[1]!r}\ndx_env = {dx!r}\n"
                   "\n[model]\nbeta = 1.0\n")
    argv = ["gen-env", "--config", str(cfg), "--out", str(tmp_path)]
    assert main(argv) == 0  # first-call costs
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= FAR_WINDOW_PEAK
    e = generate_env(kind, 5, window, dx)
    assert e.n == 101
    if kind == "iid-interp":
        assert e.v_vals.tobytes() == iid_interp_per_node(5, e.xs).tobytes()
    else:
        want = coupled_singular_per_node(5, e.xs)
        assert [e.a_vals.tobytes(), e.v_vals.tobytes()] == \
            [w.tobytes() for w in want]


def test_same_seed_same_values_across_windows():
    e1 = generate_env("iid-interp", 9, (0.0, 50.0), 0.25)
    e2 = generate_env("iid-interp", 9, (-30.0, 50.0), 0.25)
    k = e1.lattice_origin - e2.lattice_origin
    assert np.array_equal(e2.v_vals[k:], e1.v_vals)
    assert np.array_equal(e2.a_vals[k:], e1.a_vals)


@pytest.mark.parametrize("kind", KINDS)
def test_shift_overlap_is_bit_exact(kind):
    dx = 0.25
    e = generate_env(kind, 3, (0.0, 40.0), dx)
    f = generate_env(kind, 3, (7.0, 47.0), dx)
    k = f.lattice_origin - e.lattice_origin
    assert k == 28
    assert np.array_equal(e.v_vals[k:], f.v_vals[: e.n - k])
    assert np.array_equal(e.a_vals[k:], f.a_vals[: e.n - k])


def test_periodic_shift_by_period_is_identity():
    e = generate_env("periodic", 1, (0.0, 10.0), 0.01, {"period": 1.0})
    f = generate_env("periodic", 1, (1.0, 11.0), 0.01, {"period": 1.0})
    assert np.array_equal(e.v_vals[: f.n - 100], f.v_vals[: f.n - 100])


# ------------------------------------------------------------
# window snapping and validation
# ------------------------------------------------------------

def test_window_snaps_to_global_lattice():
    e = generate_env("constant", 0, (0.05, 2.95), 0.1)
    assert e.window == (0.0, 3.0)
    assert e.lattice_origin == 0
    assert e.n == 31
    assert e.xs[0] == 0.0 and e.xs[-1] == 3.0


def test_generate_env_config_errors():
    with pytest.raises(ConfigError):
        generate_env("perlin", 0, (0.0, 1.0), 0.1)
    with pytest.raises(ConfigError):
        generate_env("constant", 0, (1.0, 1.0), 0.1)
    with pytest.raises(ConfigError):
        generate_env("constant", 0, (0.0, 1.0), -0.1)
    with pytest.raises(ConfigError):
        generate_env("constant", 0, (0.0, 1.0), 0.1, {"a0": 0.0})
    with pytest.raises(ConfigError):
        generate_env("constant", 0, (0.0, 1.0), 0.1, {"v0": 1.5})


def test_gauss_squash_rejects_short_window(monkeypatch):
    with pytest.raises(WindowError):
        generate_env("gauss-squash", 0, (0.0, 3.0), 0.1, {"corr_len": 2.0})
    # each block of 257 nodes spans 2.56 < 2 corr_len; the window decides
    monkeypatch.setattr(environment, "_BLOCK", 257)
    e = generate_env("gauss-squash", 0, (0.0, 4.0), 0.01, {"corr_len": 2.0})
    assert e.n == 401
    with pytest.raises(WindowError):
        generate_env("gauss-squash", 0, (0.0, 3.99), 0.01, {"corr_len": 2.0})


@pytest.mark.parametrize("kind", KINDS)
def test_dx_env_longer_than_the_window_is_config_error(kind):
    # coupled-singular used to die with an IndexError on its two nodes
    with pytest.raises(ConfigError, match="longer than the window"):
        generate_env(kind, 0, (-40.0, 40.0), 1e20)
    # a step as long as the window still gives a grid
    assert generate_env(kind, 0, (-40.0, 40.0), 80.0).n >= 2


def test_window_beyond_the_size_caps_is_config_error(monkeypatch):
    # rejected before any array is allocated: 2e14 nodes would need
    # 4.8 PB, and numpy failed on it with a traceback
    with pytest.raises(ConfigError, match="at most 100000000"):
        generate_env("iid-interp", 0, (-1e12, 1e12), 0.01)
    # a step so short that the count overflows to inf was an OverflowError
    with pytest.raises(ConfigError, match="holds inf nodes"):
        generate_env("iid-interp", 0, (-40.0, 40.0), 5e-324)
    # 4,097 nodes whose indices overflowed int64 with an OverflowError
    with pytest.raises(ConfigError, match="2\\^53 steps"):
        generate_env("constant", 0, (1e19, 1e19 + 4096.0), 1.0)
    monkeypatch.setattr(environment, "_MAX_NODES", 801)
    assert generate_env("iid-interp", 0, (-40.0, 40.0), 0.1).n == 801
    with pytest.raises(ConfigError):
        generate_env("iid-interp", 0, (-40.0, 40.1), 0.1)


# ------------------------------------------------------------
# block-by-block construction
# ------------------------------------------------------------

# 1,003 nodes (three blocks of 257 and one of 232) and 515 nodes (a last
# block of one node, so the s-table's last block holds one cell)
BLOCK_WINDOWS = [((-17.33, 32.71), 0.05), ((0.0, 25.7), 0.05)]


def _medium(kind, seed, window, dx):
    e = generate_env(kind, seed, window, dx)
    return [e.a_vals.tobytes(), e.v_vals.tobytes(), e.s_table.tobytes(),
            e.window]


@pytest.mark.parametrize("kind", KINDS)
def test_blocks_build_the_one_block_medium(kind, monkeypatch, tmp_path):
    for window, dx in BLOCK_WINDOWS:
        for seed in (0, 7):
            monkeypatch.setattr(environment, "_BLOCK", 10 ** 9)
            whole = _medium(kind, seed, window, dx)
            save_env(generate_env(kind, seed, window, dx), tmp_path / "1.csv")
            monkeypatch.setattr(environment, "_BLOCK", 257)
            assert _medium(kind, seed, window, dx) == whole
            save_env(generate_env(kind, seed, window, dx), tmp_path / "b.csv")
            assert (tmp_path / "b.csv").read_bytes() == \
                (tmp_path / "1.csv").read_bytes()


# numpy reports its buffers to tracemalloc; blocks of temporaries the
# build may hold at once beside the three kept arrays (5.75 seen on every
# kind; building whole-window temporaries took 10.0 x 8n in all)
BUILD_BLOCKS = 8


def test_generate_env_peak_is_the_kept_arrays_plus_a_few_blocks():
    generate_env("iid-interp", 1, (-10.0, 10.0), 0.01)  # first-call costs
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        e = generate_env("iid-interp", 56254, (-960.0, 960.0), 0.01)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert e.n == 192001
    assert peak <= 3 * 8 * e.n + BUILD_BLOCKS * 8 * environment._BLOCK


def test_ranges_all_kinds():
    for kind in KINDS:
        e = generate_env(kind, 17, (0.0, 60.0), 0.05)
        assert 0.0 < e.a_vals.min() and e.a_vals.max() <= 1.0
        assert 0.0 <= e.v_vals.min() and e.v_vals.max() <= 1.0


def test_constant_is_flagged_degenerate():
    e = generate_env("constant", 0, (0.0, 1.0), 0.1, {"v0": 0.3})
    assert "degenerate-potential" in e.flags
    assert float(e.v_vals.min()) == float(e.v_vals.max()) == 0.3


# ------------------------------------------------------------
# sampling and the scaled coordinate
# ------------------------------------------------------------

def test_sample_exact_at_nodes():
    e = generate_env("iid-interp", 5, (0.0, 20.0), 0.5)
    for j in (0, 7, e.n - 1):
        a, v = sample_many(e, e.xs[j:j + 1])
        assert a[0] == e.a_vals[j]
        assert v[0] == e.v_vals[j]


def test_sample_linear_between_nodes():
    e = generate_env("iid-interp", 5, (0.0, 20.0), 0.5)
    x = 3.2  # inside cell [3.0, 3.5], weight 0.4
    _, v = sample_many(e, np.array([x]))
    j = 6
    expected = 0.6 * e.v_vals[j] + 0.4 * e.v_vals[j + 1]
    assert v[0] == pytest.approx(expected, abs=1e-12)


def test_sample_outside_window_raises():
    e = generate_env("constant", 0, (0.0, 1.0), 0.1)
    with pytest.raises(WindowError):
        sample_many(e, np.array([1.5]))
    with pytest.raises(WindowError):
        sample_many(e, np.array([0.5, -0.2]))


def test_s_table_matches_independent_trapezoid():
    e = generate_env("gauss-squash", 7, (0.0, 80.0), 0.1)
    ref = cumulative_trapezoid(1.0 / e.a_vals, e.xs, initial=0.0)
    assert np.allclose(e.s_table, ref, rtol=1e-12, atol=1e-10)


def test_s_constant_medium_closed_form():
    e = generate_env("constant", 0, (0.0, 10.0), 0.1, {"a0": 0.5})
    s2, s7 = s_at(e, np.array([2.0, 7.0]))
    assert s7 - s2 == pytest.approx(10.0, abs=1e-10)
    assert float(s_at(e, np.array([10.0]))[0]) == pytest.approx(20.0, abs=1e-10)


def test_s_at_nodes_equals_table():
    e = generate_env("coupled-singular", 11, (0.0, 30.0), 0.05)
    vals = s_at(e, e.xs)
    assert np.array_equal(vals, e.s_table)


def test_s_between_additive():
    e = generate_env("gauss-squash", 2, (0.0, 50.0), 0.1)
    rng = np.random.default_rng(0)
    for _ in range(50):
        s1, s2, s3 = s_at(e, np.sort(rng.uniform(0.0, 50.0, 3)))
        lhs = s3 - s1
        rhs = (s2 - s1) + (s3 - s2)
        assert lhs == pytest.approx(rhs, abs=1e-10)


def test_s_dominates_x():
    for kind in KINDS:
        e = generate_env(kind, 13, (0.0, 40.0), 0.2)
        s5, s25 = s_at(e, np.array([5.0, 25.0]))
        assert s25 - s5 >= 20.0 - 1e-9


# ------------------------------------------------------------
# hills
# ------------------------------------------------------------

def test_periodic_hill_matches_continuum_geometry():
    # V = sin^2(pi x): the superlevel {V >= 0.9} is a run of length
    # 1 - 2 asin(sqrt(0.9))/pi ~ 0.204833 per period (frozen closed form)
    e = generate_env("periodic", 0, (0.0, 3.0), 0.001, {"phase": 0.0})
    w = find_hill(e, 0.9, 0.15)
    assert w is not None
    run = 1.0 - 2.0 * math.asin(math.sqrt(0.9)) / math.pi
    assert w.scaled_length == pytest.approx(run, abs=2e-3)
    assert w.L1 == pytest.approx(math.asin(math.sqrt(0.9)) / math.pi, abs=2e-3)
    assert w.L2 == pytest.approx(1.0 - math.asin(math.sqrt(0.9)) / math.pi, abs=2e-3)
    assert w.v_min_on_interval >= 0.9
    # no single run reaches s-length 1 (a == 1 here, so s-length = length)
    assert find_hill(e, 0.9, 1.0) is None


def test_find_hill_validates_arguments():
    e = generate_env("constant", 0, (0.0, 1.0), 0.1, {"v0": 1.0})
    with pytest.raises(ValueError):
        find_hill(e, 1.5, 1.0)
    with pytest.raises(ValueError):
        find_hill(e, 0.5, 0.0)


def test_find_hill_full_window_when_potential_is_one():
    e = generate_env("constant", 0, (0.0, 12.0), 0.1, {"v0": 1.0, "a0": 0.5})
    w = find_hill(e, 0.99, 20.0)
    assert w is not None
    assert (w.L1, w.L2) == (0.0, 12.0)
    assert w.scaled_length == pytest.approx(24.0, abs=1e-9)
    assert w.v_min_on_interval == 1.0


def test_singular_hill_frozen_window():
    # coupled-singular couples the dips of a to the peaks of V with
    # a + V = 1; frozen: first (a <= c, V >= 1-c) site for c = 0.05
    e = generate_env("coupled-singular", 11, (0.0, 200.0), 0.01, {"phase": 0.25})
    assert float(np.abs(e.a_vals + e.v_vals - 1.0).max()) == 0.0
    assert float(e.a_vals.min()) == 5.638938005425587e-07
    assert check_singular_hill(e, 0.05) == 2.21
    assert check_singular_hill(e, 1e-7) is None
    with pytest.raises(ValueError):
        check_singular_hill(e, 0.0)


def test_singular_hill_absent_for_smooth_kind():
    e = generate_env("gauss-squash", 5, (0.0, 100.0), 0.1)
    # squashed fields keep a away from 0: no singular pair at c = 0.1
    assert check_singular_hill(e, 0.1) is None


# ------------------------------------------------------------
# transformations
# ------------------------------------------------------------

def test_reflect_reverses_arrays():
    e = generate_env("iid-interp", 21, (0.0, 10.0), 0.5)
    r = reflect(e)
    assert r.window == (-10.0, 0.0)
    assert np.array_equal(r.v_vals, e.v_vals[::-1])
    assert np.array_equal(r.a_vals, e.a_vals[::-1])
    assert "reflected" in r.flags
    rr = reflect(r)
    assert np.array_equal(rr.v_vals, e.v_vals)


def test_reflect_preserves_s_total():
    e = generate_env("gauss-squash", 4, (0.0, 50.0), 0.1)
    r = reflect(e)
    assert r.s_table[-1] == pytest.approx(e.s_table[-1], rel=1e-12)


# ------------------------------------------------------------
# serialization
# ------------------------------------------------------------

def test_save_load_round_trip_bit_exact(tmp_path):
    e = generate_env("gauss-squash", 8, (0.0, 30.0), 0.1, {"gain": 3.0})
    p = tmp_path / "env.csv"
    save_env(e, str(p))
    lines = p.read_text().splitlines()
    meta = dict(line[2:].split(" ", 1) for line in lines if line.startswith("# "))
    assert meta["kind"] == e.kind and int(meta["seed"]) == e.seed
    assert float(meta["dx_env"]) == e.dx_env
    assert json.loads(meta["params"]) == {"gain": 3.0}
    head = lines.index("x,a,V,s")
    xs, a, v, s = np.loadtxt(lines[head + 1:], delimiter=",").T
    assert np.array_equal(xs, e.xs)
    assert np.array_equal(a, e.a_vals)
    assert np.array_equal(v, e.v_vals)
    assert np.array_equal(s, e.s_table)
    # the columns and header determine the file byte for byte
    f = EnvRealization(seed=int(meta["seed"]), kind=meta["kind"],
                       window=(float(xs[0]), float(xs[-1])),
                       dx_env=float(meta["dx_env"]), a_vals=a.copy(),
                       v_vals=v.copy(), s_table=s.copy(),
                       params=json.loads(meta["params"]))
    p2 = tmp_path / "env2.csv"
    save_env(f, str(p2))
    assert p.read_bytes() == p2.read_bytes()


def test_write_csv_exact_bytes(tmp_path):
    p = tmp_path / "t.csv"
    write_csv(str(p), ("a", "b", "c"),
              [(np.float64(0.1), 0.1 + 0.2, True), (None, 7, "left")],
              meta=[("dx", np.float64(0.01)), ("seed", 3)])
    # numpy floats are written as plain doubles, not np.float64(...);
    # 0.1 + 0.2 needs all 17 significant digits to round-trip
    assert p.read_bytes() == (b"# dx 0.01\n# seed 3\na,b,c\n"
                              b"0.1,0.30000000000000004,True\n,7,left\n")


def test_realization_rejects_bad_values():
    xs = np.linspace(0.0, 1.0, 11)
    ones = np.ones(11)
    s = np.linspace(0.0, 1.0, 11)
    with pytest.raises(ValueError):
        EnvRealization(seed=0, kind="constant", window=(0.0, 1.0), dx_env=0.1,
                       a_vals=ones * 1.5, v_vals=ones * 0.5, s_table=s.copy())
    with pytest.raises(ValueError):
        EnvRealization(seed=0, kind="constant", window=(0.0, 1.0), dx_env=0.1,
                       a_vals=ones.copy(), v_vals=ones * 2.0, s_table=s.copy())
    with pytest.raises(ValueError):
        # s-increments smaller than dx contradict a <= 1
        EnvRealization(seed=0, kind="constant", window=(0.0, 1.0), dx_env=0.1,
                       a_vals=ones.copy(), v_vals=ones * 0.5, s_table=s * 0.5)
    # a NaN potential fails every comparison, the range check's too (the
    # generator's cast of the NaN lattice index warns on the way)
    with pytest.raises(ValueError), np.errstate(invalid="ignore"):
        generate_env("iid-interp", 1, (-5.0, 5.0), 0.5,
                     {"phase": float("nan")})


def test_arrays_are_read_only():
    e = generate_env("constant", 0, (0.0, 1.0), 0.1)
    with pytest.raises(ValueError):
        e.v_vals[0] = 0.7
