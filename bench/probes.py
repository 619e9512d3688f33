"""Timing probes installed around the public functions of transjump's modules.

Every probe replaces the module attribute that callers look up (for example
``uq.solve_rectangle_quantile``, which ``uq`` imports by name, or
``ar_laplace._ig_draws``, which the AR Gibbs sweep calls) and restores it on
``uninstall``. The light set, always on, times only chains and interval calls
and keeps their results for the output checks. The full set, used by the
traced rounds, adds every layer below; a span's self time excludes the time of
the timed spans it encloses.
"""

from __future__ import annotations

import os
import statistics
import time
from collections import defaultdict

from transjump import ar_laplace, cli, mvnprob, probit, rng, uq

# (name, module whose attribute callers look up, attribute)
LIGHT = [
    ("ar_laplace.run_ar_chain", ar_laplace, "run_ar_chain"),
    ("probit.run_probit_chain", probit, "run_probit_chain"),
    ("uq.simultaneous_cis", uq, "simultaneous_cis"),
]
FULL = LIGHT + [
    ("rng._ig_draws", ar_laplace, "_ig_draws"),
    ("rng.sample_truncated_normal_onesided", probit, "sample_truncated_normal_onesided"),
    ("ar_laplace.rj_step", ar_laplace, "rj_step"),
    ("ar_laplace.gibbs_update", ar_laplace, "gibbs_update"),
    ("ar_laplace.birth_proposal_params", ar_laplace, "birth_proposal_params"),
    ("ar_laplace.log_unnorm_posterior", ar_laplace, "log_unnorm_posterior"),
    ("ar_laplace.toy_quadrature_oracle", ar_laplace, "toy_quadrature_oracle"),
    ("ar_laplace.load_ar_dataset", ar_laplace, "load_ar_dataset"),
    ("probit.rj_step", probit, "rj_step"),
    ("probit.da_update", probit, "da_update"),
    ("probit.mode_and_curvature", probit, "mode_and_curvature"),
    ("probit.log_unnorm_posterior", probit, "log_unnorm_posterior"),
    ("probit.load_spambase", probit, "load_spambase"),
    ("mvnprob.solve_rectangle_quantile", uq, "solve_rectangle_quantile"),
    ("mvnprob.mvn_rectangle_prob", mvnprob, "mvn_rectangle_prob"),
    ("uq.batch_means_cov", uq, "batch_means_cov"),
    ("uq.delta_cov", uq, "delta_cov"),
    ("uq.save_trace", uq, "save_trace"),
    ("uq.load_trace", uq, "load_trace"),
]
for _public, _looked_up in (
    (rng._ig_draws, ar_laplace._ig_draws),
    (rng.sample_truncated_normal_onesided, probit.sample_truncated_normal_onesided),
    (mvnprob.solve_rectangle_quantile, uq.solve_rectangle_quantile),
):
    if _public is not _looked_up:
        raise RuntimeError(f"{_public.__name__} is no longer looked up where it is probed")


class Probes:
    """Records durations, self times and results of the wrapped calls."""

    def __init__(self):
        self.durations = defaultdict(list)
        self.self_times = defaultdict(list)
        self.counts = defaultdict(int)
        self.chains = []  # (entry time, steps, seconds, trace)
        self.reports = []  # SimCIReport objects, in call order
        self.trace_bytes = []
        self.model_sizes = []
        self._stack = []
        self._saved = []
        self._jump_k = None  # model size seen by the last proposal-parameter call

    # ------------------------------------------------------------ mechanics

    def span(self, name, fn, *args, **kwargs):
        """Call ``fn`` and record its duration and self time under ``name``."""
        self._stack.append(0.0)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = time.perf_counter() - t0
            child = self._stack.pop()
            if self._stack:
                self._stack[-1] += dt
            self.durations[name].append(dt)
            self.self_times[name].append(dt - child)

    def install(self, full: bool):
        for name, module, attr in FULL if full else LIGHT:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(name, original))

    def uninstall(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _wrap(self, name, fn):
        special = {
            "ar_laplace.run_ar_chain": self._chain,
            "probit.run_probit_chain": self._chain,
            "uq.simultaneous_cis": self._cis,
            "ar_laplace.rj_step": self._ar_rj,
            "probit.rj_step": self._probit_rj,
            "ar_laplace.birth_proposal_params": self._ar_proposal,
            "probit.mode_and_curvature": self._probit_proposal,
            "mvnprob.mvn_rectangle_prob": self._rect_prob,
            "uq.save_trace": self._save_trace,
        }.get(name)
        if special is None:
            def wrapper(*args, **kwargs):
                return self.span(name, fn, *args, **kwargs)
        else:
            def wrapper(*args, **kwargs):
                return special(name, fn, *args, **kwargs)
        return wrapper

    # ------------------------------------------------------ special probes

    def _chain(self, name, fn, data, n, chain_rng, burn_in=0, **kwargs):
        entry = time.perf_counter()
        trace = self.span(name, fn, data, n, chain_rng, burn_in=burn_in, **kwargs)
        self.chains.append((entry, n + burn_in, self.durations[name][-1], trace))
        self.counts[name + ".steps"] += n + burn_in
        return trace

    def _cis(self, name, fn, *args, **kwargs):
        report = self.span(name, fn, *args, **kwargs)
        self.reports.append(report)
        return report

    def _ar_proposal(self, name, fn, data, state):
        self._jump_k = state.k
        return self.span(name, fn, data, state)

    def _probit_proposal(self, name, fn, data, k_new, z_partial, j):
        self._jump_k = int(k_new.sum())
        return self.span(name, fn, data, k_new, z_partial, j)

    def _ar_rj(self, name, fn, data, state, probs, chain_rng):
        out = self.span(name, fn, data, state, probs, chain_rng)
        # a birth asks for the parameters at the current order, a death at k - 1
        self._classify("ar_laplace", state.k, out.k, out is state,
                       self._jump_k == state.k)
        return out

    def _probit_rj(self, name, fn, data, state, chain_rng):
        out = self.span(name, fn, data, state, chain_rng)
        size = state.size
        # a birth maximizes over the enlarged model, a death over the current one
        self._classify("probit", size, out.size, out is state,
                       self._jump_k == size + 1)
        self.model_sizes.append(out.size)
        return out

    def _classify(self, module, k_in, k_out, same_object, birth_if_rejected):
        """Same object back: rejected jump. Changed model: accepted jump."""
        if same_object:
            kind = "birth" if birth_if_rejected else "death"
            self.counts[f"{module}.{kind}.proposed"] += 1
        elif k_out != k_in:
            kind = "birth" if k_out > k_in else "death"
            self.counts[f"{module}.{kind}.proposed"] += 1
            self.counts[f"{module}.{kind}.accepted"] += 1

    def _rect_prob(self, name, fn, req):
        self.counts["mvnprob.qmc_integrand_evals"] += (
            req.n_points * req.n_shifts * max(req.dim - 1, 0)
        )
        return self.span(name, fn, req)

    def _save_trace(self, name, fn, trace, path):
        out = self.span(name, fn, trace, path)
        self.trace_bytes.append(os.path.getsize(path))
        return out


def p50(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def layer_metrics(p: Probes, rounds: int, overhead_pct: float) -> dict:
    """Per-layer metrics of the traced rounds; counts are per round."""
    out = {}

    def put(name, value, unit):
        out[name] = {"value": float(value), "unit": unit}

    def calls(name):
        put(name + ".calls", len(p.durations[name]) / rounds, "count")

    def per_call(name, suffix, scale, unit, self_time=False):
        values = (p.self_times if self_time else p.durations)[name]
        put(name + suffix, p50(values) * scale, unit)

    for name in ("rng._ig_draws", "rng.sample_truncated_normal_onesided"):
        calls(name)
        per_call(name, ".us_p50", 1e6, "us")
    for mod, kernel, proposal, chain, load in (
        ("ar_laplace", "gibbs_update", "birth_proposal_params", "run_ar_chain",
         "load_ar_dataset"),
        ("probit", "da_update", "mode_and_curvature", "run_probit_chain",
         "load_spambase"),
    ):
        calls(f"{mod}.rj_step")
        per_call(f"{mod}.rj_step", ".self_us_p50", 1e6, "us", self_time=True)
        for fn in (kernel, proposal, "log_unnorm_posterior"):
            calls(f"{mod}.{fn}")
            per_call(f"{mod}.{fn}", ".us_p50", 1e6, "us")
        proposed = accepted = 0
        for kind in ("birth", "death"):
            for what in ("proposed", "accepted"):
                n = p.counts[f"{mod}.{kind}.{what}"]
                put(f"{mod}.{kind}.{what}", n / rounds, "count")
            proposed += p.counts[f"{mod}.{kind}.proposed"]
            accepted += p.counts[f"{mod}.{kind}.accepted"]
        put(f"{mod}.jump.accept_ratio", accepted / proposed if proposed else 0.0, "ratio")
        steps = p.counts[f"{mod}.{chain}.steps"]
        put(f"{mod}.{chain}.self_us_per_step",
            sum(p.self_times[f"{mod}.{chain}"]) / steps * 1e6 if steps else 0.0, "us")
        per_call(f"{mod}.{load}", ".ms", 1e3, "ms")
    per_call("ar_laplace.toy_quadrature_oracle", ".s", 1.0, "s")
    sizes = p.model_sizes
    put("probit.model_size.mean", sum(sizes) / len(sizes) if sizes else 0.0, "count")

    solves = len(p.durations["mvnprob.solve_rectangle_quantile"])
    evals = len(p.durations["mvnprob.mvn_rectangle_prob"])
    calls("mvnprob.solve_rectangle_quantile")
    per_call("mvnprob.solve_rectangle_quantile", ".ms_p50", 1e3, "ms")
    calls("mvnprob.mvn_rectangle_prob")
    per_call("mvnprob.mvn_rectangle_prob", ".ms_p50", 1e3, "ms")
    put("mvnprob.mvn_rectangle_prob.calls_per_solve", evals / solves if solves else 0.0,
        "count")
    put("mvnprob.qmc_integrand_evals", p.counts["mvnprob.qmc_integrand_evals"] / rounds,
        "count")

    calls("uq.simultaneous_cis")
    per_call("uq.simultaneous_cis", ".self_ms_p50", 1e3, "ms", self_time=True)
    per_call("uq.batch_means_cov", ".ms_p50", 1e3, "ms")
    per_call("uq.delta_cov", ".ms_p50", 1e3, "ms")
    per_call("uq.save_trace", ".ms", 1e3, "ms")
    put("uq.save_trace.bytes", p50(p.trace_bytes), "B")
    per_call("uq.load_trace", ".ms", 1e3, "ms")

    per_call("cli.main", ".self_s", 1.0, "s", self_time=True)
    put("bench.tracing_overhead_pct", overhead_pct, "%")
    return out


def call_main(p: Probes, argv: list[str]) -> int:
    """Run ``transjump.cli.main(argv)`` inside a ``cli.main`` span."""
    return p.span("cli.main", cli.main, argv)
