"""Fixed reference kernel that measures how fast the machine runs right now.

The host's speed drifts by up to about 40% over seconds to hours (other
tenants share the physical cores; the VM reports almost no steal time),
and the drift moves wall and CPU times alike.  ``run`` times a fixed
amount of work of the two hot-loop shapes of hjlab: a scalar Python RK4
loop like the corrector's, and an explicit upwind update on a few
thousand nodes like ``pde.evolve``.  It imports nothing from hjlab, so
no change to the program moves it.

``run.py`` runs it between the timed measurements of a run, and reports
each median time scaled by ``REF_S`` over the kernel's mean time in the
same run: seconds at the speed at which the kernel takes ``REF_S``.
"""

import time

import numpy as np

# Duration of one ``run()`` on the machine the benchmark was made on (2
# vCPUs of an Intel Xeon, Python 3.11.7, numpy 2.4.6), in its usual
# state.  It only sets the unit of the scaled times.
REF_S = 0.20

_N_COEF = 20_000        # RK4 steps per pass over the coefficient lists
_N_PASSES = 9           # passes of the scalar RK4 loop
_N_NODES = 6_000        # nodes of the vectorised update
_N_SWEEPS = 1_800       # vectorised time steps

_rng = np.random.default_rng(12345)
_A = (1.0 + 0.5 * _rng.random(2 * _N_COEF + 1)).tolist()
_B = (0.5 * _rng.random(2 * _N_COEF + 1)).tolist()
_U0 = np.cumsum(_rng.random(_N_NODES) - 0.5) * 1e-2
_V = _rng.random(_N_NODES)


def _rk4() -> float:
    A, B = _A, _B
    h, h2, h6 = 0.01, 0.005, 0.01 / 6.0
    f = 0.3
    for i in range(_N_PASSES * _N_COEF):
        j = 2 * (i % _N_COEF)
        k1 = B[j] - A[j] * (f * f)
        g = f + h2 * k1
        k2 = B[j + 1] - A[j + 1] * (g * g)
        g = f + h2 * k2
        k3 = B[j + 1] - A[j + 1] * (g * g)
        g = f + h * k3
        k4 = B[j + 2] - A[j + 2] * (g * g)
        f = f + h6 * (k1 + 2.0 * (k2 + k3) + k4)
        if not (-10.0 <= f <= 10.0):
            raise ArithmeticError("reference RK4 loop left its bracket")
    return f


def _sweeps() -> float:
    u = _U0.copy()
    ue = np.empty(u.size + 2)
    dx, dt = 0.05, 5e-4
    for _ in range(_N_SWEEPS):
        ue[1:-1] = u
        ue[0], ue[-1] = u[0], u[-1]
        d = np.diff(ue) / dx
        left, right = d[:-1], d[1:]
        flux = np.maximum(np.maximum(left, 0.0) ** 2,
                          np.minimum(right, 0.0) ** 2)
        u = u + dt * ((right - left) / dx + flux + _V)
    return float(u.sum())


def run() -> float:
    """Time one pass of the reference kernel; returns seconds."""
    t0 = time.perf_counter()
    _rk4()
    _sweeps()
    return time.perf_counter() - t0


if __name__ == "__main__":
    for _ in range(10):
        print(f"{run():.4f}")
