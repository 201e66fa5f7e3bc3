"""In-process spans around hjlab's public functions, from outside the package.

``Tracer.install`` wraps each function in ``TARGETS`` in every hjlab module
(and module-level dict, such as the CLI dispatch table) that holds it,
plus ``ContractionModulus.phi``/``phi_inv``.  Spans are kept in memory as
``{name, start, end, parent}``; work counters are read off the wrapped
functions' return values.  ``uninstall`` restores the
originals, so untraced runs in the same process see the plain package.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter, defaultdict

TARGETS = {
    "environment": ("generate_env", "sample_many", "s_at", "reflect"),
    "hamiltonian": ("monotonicity_modulus", "bracket"),
    "corrector": ("corrector_profile", "estimate_theta"),
    "effective": ("invert_theta", "build_effective_H", "effective_reference",
                  "save_effective"),
    "pde": ("evolve", "homogenize_sweep", "stable_dt", "save_sweep"),
    "cli": ("main", "load_config", "cmd_theta_curve", "cmd_effective",
            "cmd_homogenize", "_sidecar"),
}
MODULUS_METHODS = ("phi", "phi_inv")
PHI = tuple(f"hamiltonian.{m}" for m in MODULUS_METHODS)
SWEEP_EPS = (8, 16, 32)

PER_LAYER = (
    "environment.generate_env_s", "environment.sample_many_s",
    "environment.sample_points", "environment.reflect_calls",
    "environment.reflect_s",
    "hamiltonian.modulus_calls", "hamiltonian.phi_s",
    "corrector.estimate_calls", "corrector.rk4_steps",
    "corrector.ns_per_rk4_step", "corrector.profile_self_s",
    "corrector.useful_step_frac",
    "effective.invert_calls", "effective.n_evals",
    "effective.endpoint_estimates", "effective.invert_self_s",
    "pde.evolve_calls", "pde.evolve_steps", "pde.node_steps",
    "pde.ns_per_node_step", "pde.evolve_s",
    *(f"pde.sweep_s.eps{k}" for k in SWEEP_EPS),
    "pde.cfl_max", "pde.grad_excursions",
    "cli.load_config_s", "cli.write_s",
    "trace.span_coverage", "trace.corrector_env_share", "trace.evolve_share",
)
# counters that must repeat exactly between runs of one workload and seed
EXACT_COUNTERS = ("corrector.rk4_steps", "effective.n_evals",
                  "pde.evolve_steps", "pde.node_steps")


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.counts: Counter = Counter()
        self.cfl_max = 0.0
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    # -- span recording -------------------------------------------------

    def _wrap(self, name: str, fn):
        count = getattr(self, "_count_" + name.split(".")[1], None)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"name": name, "start": time.perf_counter(), "end": None,
                    "parent": self._stack[-1] if self._stack else None}
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if count is not None:
                count(span, result)
            return result

        return traced

    def install(self) -> None:
        modules = [m for k, m in list(sys.modules.items())
                   if k == "hjlab" or k.startswith("hjlab.")]
        for short, names in TARGETS.items():
            mod = importlib.import_module(f"hjlab.{short}")
            for fname in names:
                orig = getattr(mod, fname)
                wrapped = self._wrap(f"{short}.{fname}", orig)
                for m in modules:
                    for attr, val in list(vars(m).items()):
                        if val is orig:
                            self._patches.append((m, attr, orig))
                            setattr(m, attr, wrapped)
                        elif isinstance(val, dict):
                            for key, item in list(val.items()):
                                if item is orig:
                                    self._patches.append((val, key, orig))
                                    val[key] = wrapped
        cls = importlib.import_module("hjlab.hamiltonian").ContractionModulus
        for meth in MODULUS_METHODS:
            orig = vars(cls)[meth]
            self._patches.append((cls, meth, orig))
            setattr(cls, meth, self._wrap(f"hamiltonian.{meth}", orig))

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._patches):
            if isinstance(owner, dict):
                owner[key] = orig
            else:
                setattr(owner, key, orig)
        self._patches.clear()

    # -- counters from return values ------------------------------------

    def _count_sample_many(self, span, result):
        self.counts["environment.sample_points"] += int(result[0].size)

    def _count_corrector_profile(self, span, prof):
        # two shooting runs, each burn-in plus region steps
        burn = int(round(prof.burn_in / prof.dx))
        region = prof.grid.size - 1
        self.counts["corrector.rk4_steps"] += 2 * (burn + region)
        self.counts["corrector.useful_steps"] += region

    def _count_estimate_theta(self, span, est):
        if est.lam == est.beta:
            self.counts["effective.endpoint_estimates"] += 1

    def _count_invert_theta(self, span, inv):
        self.counts["effective.n_evals"] += int(inv.n_evals)

    def _count_evolve(self, span, res):
        self.counts["pde.evolve_steps"] += int(res.steps)
        self.counts["pde.node_steps"] += int(res.steps) * int(res.xs.size)
        self.counts["pde.grad_excursions"] += int(bool(res.grad_excursion))
        self.cfl_max = max(self.cfl_max, float(res.cfl))

    def _count_homogenize_sweep(self, span, res):
        # the CLI sweeps one epsilon per call
        if res.epsilons.size == 1:
            span["eps_inv"] = int(round(1.0 / float(res.epsilons[0])))

    # -- reduction --------------------------------------------------------

    def summary(self) -> dict:
        """The ``PER_LAYER`` metrics of the spans and counters recorded."""
        total = defaultdict(float)
        self_time = defaultdict(float)
        calls = Counter()
        child = defaultdict(float)
        for sp in self.spans:
            dur = sp["end"] - sp["start"]
            if sp["parent"] is not None:
                child[sp["parent"]] += dur
        for i, sp in enumerate(self.spans):
            dur = sp["end"] - sp["start"]
            calls[sp["name"]] += 1
            self_time[sp["name"]] += dur - child[i]
            # phi calls made inside phi_inv count once, as the outer span
            family = PHI if sp["name"] in PHI else (sp["name"],)
            if not self._inside(sp, family):
                total[sp["name"]] += dur
        c = self.counts
        rk4 = c["corrector.rk4_steps"]
        nodes = c["pde.node_steps"]
        m = {
            "environment.generate_env_s": total["environment.generate_env"],
            "environment.sample_many_s": total["environment.sample_many"],
            "environment.sample_points": c["environment.sample_points"],
            "environment.reflect_calls": calls["environment.reflect"],
            "environment.reflect_s": total["environment.reflect"],
            "hamiltonian.modulus_calls":
                calls["hamiltonian.monotonicity_modulus"],
            "hamiltonian.phi_s": total["hamiltonian.phi"]
                + total["hamiltonian.phi_inv"],
            "corrector.estimate_calls": calls["corrector.estimate_theta"],
            "corrector.rk4_steps": rk4,
            "corrector.ns_per_rk4_step":
                1e9 * self_time["corrector.corrector_profile"] / rk4
                if rk4 else 0.0,
            "corrector.profile_self_s":
                self_time["corrector.corrector_profile"],
            "corrector.useful_step_frac":
                c["corrector.useful_steps"] / rk4 if rk4 else 0.0,
            "effective.invert_calls": calls["effective.invert_theta"],
            "effective.n_evals": c["effective.n_evals"],
            "effective.endpoint_estimates": c["effective.endpoint_estimates"],
            "effective.invert_self_s": self_time["effective.invert_theta"],
            "pde.evolve_calls": calls["pde.evolve"],
            "pde.evolve_steps": c["pde.evolve_steps"],
            "pde.node_steps": nodes,
            "pde.ns_per_node_step":
                1e9 * self_time["pde.evolve"] / nodes if nodes else 0.0,
            "pde.evolve_s": total["pde.evolve"],
            "pde.cfl_max": self.cfl_max,
            "pde.grad_excursions": c["pde.grad_excursions"],
            "cli.load_config_s": total["cli.load_config"],
            "cli.write_s": total["effective.save_effective"]
                + total["pde.save_sweep"] + total["cli._sidecar"],
        }
        for k in SWEEP_EPS:
            m[f"pde.sweep_s.eps{k}"] = sum(
                sp["end"] - sp["start"] for sp in self.spans
                if sp.get("eps_inv") == k)
        # shares of the in-process time, cli.main
        main = total["cli.main"]
        layer = sum(v for k, v in self_time.items()
                    if k.startswith(("corrector.", "environment.")))
        m["trace.span_coverage"] = 1.0 - self_time["cli.main"] / main
        m["trace.corrector_env_share"] = layer / main
        m["trace.evolve_share"] = total["pde.evolve"] / main
        return m

    def _inside(self, sp, names) -> bool:
        p = sp["parent"]
        while p is not None:
            if self.spans[p]["name"] in names:
                return True
            p = self.spans[p]["parent"]
        return False
