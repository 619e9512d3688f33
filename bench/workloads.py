"""The three workloads: their seeded inputs, one round of commands, and checks.

A round is the command sequence a user would type for the workload, run
through ``transjump.cli.main``. Every round of a workload attempts the same
operations (chains, interval calls, trace writes and reads, output checks), so
the share of failed operations does not depend on how many rounds a run fits.
The checks compare outputs with references computed here with numpy and
scipy, or with properties the method must have; none compares against stored
output of the program.
"""

from __future__ import annotations

import contextlib
import math
import os
import sys
import time
import traceback

import numpy as np
from scipy.special import ndtr, ndtri
from scipy.stats import binom

from transjump import uq
from transjump.rng import RngStream

from probes import Probes, call_main

ALPHA = 0.05
Z_AGREE = 5.0  # batch-means standard errors allowed between estimate and reference
SIDAK_TOL = 0.02  # |xi - Sidak value| at eps=10; the solver stops at |p - (1-alpha)| <= 1e-3
COVERAGE_FLOOR = 0.87  # lowest coverage criterion 7 accepts at R=500, n=10^4
BAND_TAIL = 1e-6  # binomial tail probability that marks coverage as too low


class Round:
    """Operations and checks of one round; ``setups`` are per invocation."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.checks = []  # (name, ok, detail)
        self.setups = []

    def ops(self, planned: int, done: int):
        self.attempted += planned
        self.failed += planned - min(done, planned)

    def check(self, name: str, ok: bool, detail: str = ""):
        self.attempted += 1
        self.failed += 0 if ok else 1
        self.checks.append((name, bool(ok), detail))


def batch_means_var(x: np.ndarray) -> np.ndarray:
    """Per-column asymptotic variance of sqrt(n) * mean, batch size floor(sqrt(n))."""
    n = x.shape[0]
    b = math.isqrt(n)
    a = n // b
    means = x[: a * b].reshape(a, b, -1).mean(axis=1)
    return b * means.var(axis=0, ddof=1)


def load_trace_text(path) -> np.ndarray:
    """Trace rows parsed with numpy alone: skip the config and header lines."""
    return np.loadtxt(path, comments=None, skiprows=2, delimiter="\t", ndmin=2)


def report_points(path) -> np.ndarray:
    points = []
    with open(path, encoding="utf-8") as fh:
        rows = [ln.split("\t") for ln in fh.read().splitlines()]
    start = next(i for i, r in enumerate(rows) if r[0] == "index") + 1
    for r in rows[start:]:
        points.append(float(r[1]))
    return np.array(points)


def sidak(m: int) -> float:
    return float(ndtri((1.0 + (1.0 - ALPHA) ** (1.0 / m)) / 2.0))


def check_reports(rnd: Round, reports, sidak_eps=None):
    """xi inside its bracket and widths 2 xi sqrt(v/n), for every report."""
    bad = []
    for rep in reports:
        m = rep.h_point.shape[0]
        lo, hi = ndtri(1 - ALPHA / 2), ndtri(1 - ALPHA / (2 * m))
        widths = rep.intervals[:, 1] - rep.intervals[:, 0]
        expected = 2.0 * rep.xi * np.sqrt(rep.v_diag / rep.n)
        if not (lo - 1e-12 <= rep.xi <= hi + 1e-12) or np.any(
            np.abs(widths - expected) > 1e-9 * np.maximum(1.0, expected)
        ):
            bad.append(f"m={m} eps={rep.epsilon:g} xi={rep.xi:.5f}")
    rnd.check("xi bracket and half-width", not bad, "; ".join(bad))
    if sidak_eps is not None:
        gaps = [abs(r.xi - sidak(r.h_point.shape[0])) for r in reports
                if r.epsilon == sidak_eps]
        rnd.check("xi at eps=10 is the Sidak value", bool(gaps) and max(gaps) <= SIDAK_TOL,
                  f"max gap {max(gaps, default=float('nan')):.4f} over {len(gaps)} calls")


def _quiet_main(probes: Probes, argv) -> int:
    """The CLI prints progress; send it to stderr so stdout ends with the result."""
    with contextlib.redirect_stdout(sys.stderr):
        return call_main(probes, [str(a) for a in argv])


def invoke(probes: Probes, rnd: Round, argv) -> int:
    """Run one CLI command and record its set-up time (call to first chain step)."""
    before = len(probes.chains)
    t0 = time.perf_counter()
    rc = _quiet_main(probes, argv)
    if len(probes.chains) > before:
        rnd.setups.append(probes.chains[before][0] - t0)
    rnd.check(f"{argv[0]} exit status", rc == 0, f"rc={rc}")
    return rc


class Workload:
    name = ""

    def __init__(self, workdir: str, seed: int, tiny: bool):
        self.workdir = workdir
        self.seed = seed
        self.tiny = tiny

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def run_round(self, probes: Probes, index: int) -> tuple[Round, float]:
        """One round; returns its record and the wall time of its commands."""
        rnd = Round()
        for stale in self.trace_paths():
            if os.path.exists(stale):
                os.remove(stale)
        self.prepare(index)
        chains0, reports0 = len(probes.chains), len(probes.reports)
        t0 = time.perf_counter()
        try:
            self.commands(probes, rnd, index)
        except Exception:  # a crashing command fails the round's operations
            traceback.print_exc()
        wall = time.perf_counter() - t0
        chains = [c[3] for c in probes.chains[chains0:]]
        reports = probes.reports[reports0:]
        rnd.ops(self.planned_chains, len(chains))
        rnd.ops(self.planned_cis, len(reports))
        rnd.ops(*self.io_ops())
        if len(chains) == self.planned_chains and len(reports) == self.planned_cis:
            try:
                self.check(rnd, index, chains, reports)
            except Exception:
                traceback.print_exc()
        # checks that could not run count as failed, so every round attempts as many
        rnd.ops(self.checks_per_round - len(rnd.checks), 0)
        return rnd, wall

    def prepare(self, index: int):
        """Write the round's inputs; not timed."""

    def io_ops(self) -> tuple[int, int]:
        """(planned, done) trace writes and reads of the round just run."""
        written = self.trace_paths()
        return len(written), sum(os.path.exists(p) for p in written)

    def trace_paths(self) -> list[str]:
        """Trace files one round writes."""
        return []


class ToyCoverage(Workload):
    """``transjump coverage`` on the N=5, k_max=1 toy data over four noise levels."""

    name = "toy-coverage"
    EPS = (10.0, 1.0, 0.1, 0.001)

    def __init__(self, workdir, seed, tiny):
        super().__init__(workdir, seed, tiny)
        self.reps, self.n = (2, 400) if tiny else (8, 2000)
        self.planned_chains = self.reps
        self.planned_cis = self.reps * len(self.EPS)
        self.checks_per_round = 8
        self.dataset = self.path("toy.txt")
        # the data of acceptance criteria 6 and 7; the chains take the bench seed
        _quiet_main(Probes(), ["simulate-ar", "--preset", "toy", "--seed", 2024,
                               "--out", self.dataset])

    def commands(self, probes, rnd, index):
        invoke(probes, rnd, [
            "coverage", "--dataset", self.dataset, "--replications", self.reps,
            "--n", self.n, "--epsilon-grid", ",".join(f"{e:g}" for e in self.EPS),
            "--seed", self.seed * 1000 + index, "--workers", 1,
            "--out", self.path(f"coverage-{index}.txt"),
        ])

    def check(self, rnd, index, chains, reports):
        with open(self.path(f"coverage-{index}.txt"), encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        truth = np.array(next(ln for ln in lines if ln.startswith("# truth")).split()[2:6],
                         dtype=float)
        table = np.array([ln.split("\t") for ln in lines
                          if ln and ln[0].isdigit()], dtype=float)
        rnd.check("coverage table has one row per epsilon",
                  table.shape == (len(self.EPS), 6)
                  and np.allclose(table[:, 0], self.EPS), str(table.shape))

        # pooled ergodic averages of eta = (1{k=1}, a 1{k=1}, a^2 1{k=1})
        p1, a_mean, a_sd = truth[1], truth[2], truth[3]
        eta_truth = np.array([p1, p1 * a_mean, p1 * (a_sd**2 + a_mean**2)])
        pooled = np.mean([t.f_values.mean(axis=0) for t in chains], axis=0)
        var = np.sum([batch_means_var(t.f_values) / t.n for t in chains], axis=0)
        se = np.sqrt(var) / len(chains)
        z = np.abs(pooled - eta_truth) / se
        rnd.check("pooled averages match the quadrature truth", bool(np.all(z <= Z_AGREE)),
                  "z " + " ".join(f"{v:.2f}" for v in z))

        widths = table[:, 2:]
        rnd.check("mean widths decrease over eps 10 > 1 > 0.1",
                  bool(np.all(widths[0] > widths[1]) and np.all(widths[1] > widths[2])))

        # coverage recomputed from the intervals, against the file and a binomial band
        covered = np.array([
            np.all((r.intervals[:, 0] <= truth) & (truth <= r.intervals[:, 1]))
            for r in reports
        ]).reshape(self.reps, len(self.EPS))
        counts = covered.sum(axis=0)
        band_lo = int(binom.ppf(BAND_TAIL, self.reps, COVERAGE_FLOOR))
        rnd.check("coverage file matches the intervals",
                  bool(np.allclose(table[:, 1], counts / self.reps, atol=5e-5)))
        rnd.check("coverage inside the binomial band", bool(np.all(counts >= band_lo)),
                  f"covered {counts.tolist()} of {self.reps}, floor {band_lo}")
        check_reports(rnd, reports, sidak_eps=10.0)


class Scenario2Run(Workload):
    """Several ``transjump run --sampler ar-model`` chains on scenario2 data."""

    name = "scenario2-run"

    def __init__(self, workdir, seed, tiny):
        super().__init__(workdir, seed, tiny)
        self.chains, self.n = (2, 300) if tiny else (4, 3000)
        self.planned_chains = self.chains
        self.planned_cis = self.chains
        self.checks_per_round = self.chains + 4
        self.dataset = self.path("scenario2.txt")

    def prepare(self, index):
        _quiet_main(Probes(), ["simulate-ar", "--preset", "scenario2",
                               "--seed", self.seed * 1000 + index, "--out", self.dataset])

    def trace_paths(self):
        return [self.path(f"s2-{j}.trace") for j in range(self.chains)]

    def commands(self, probes, rnd, index):
        for j, trace_path in enumerate(self.trace_paths()):
            invoke(probes, rnd, [
                "run", "--sampler", "ar-model", "--dataset", self.dataset,
                "--n", self.n, "--seed", (self.seed * 1000 + index) * 16 + j,
                "--trace-out", trace_path,
                "--report-out", self.path(f"s2-{j}.report"),
            ])

    def check(self, rnd, index, chains, reports):
        rows = [load_trace_text(p) for p in self.trace_paths()]
        rnd.check("traces hold n rows of k_max + 1 columns",
                  all(r.shape == (self.n, 11) for r in rows))
        one_hot = all(np.all((r == 0) | (r == 1)) and np.all(r.sum(axis=1) == 1)
                      for r in rows)
        rnd.check("every trace row has exactly one model indicator", one_hot)
        gaps = [np.max(np.abs(report_points(self.path(f"s2-{j}.report")) - r.mean(axis=0)))
                for j, r in enumerate(rows)]
        rnd.check("report points are the trace column means", max(gaps) <= 1e-12,
                  f"max gap {max(gaps):.2e}")
        check_reports(rnd, reports)


class SpamProbitRun(Workload):
    """``transjump run --sampler probit`` on a 4601x57 spam-shaped CSV, then re-assessment."""

    name = "spam-probit-run"
    ROWS, COLS, ACTIVE = 4601, 57, 6
    REASSESS_EPS = (10.0, 1.0)

    def __init__(self, workdir, seed, tiny):
        super().__init__(workdir, seed, tiny)
        self.n, self.burn_in = (200, 1500) if tiny else (1000, 2500)
        self.planned_chains = 1
        self.planned_cis = 1 + len(self.REASSESS_EPS)
        self.checks_per_round = 6
        self.dataset = self.path("spam.csv")

    def prepare(self, index):
        self.active = self.write_dataset(self.dataset, self.seed * 1000 + index)

    @classmethod
    def write_dataset(cls, path, seed) -> np.ndarray:
        """Criterion 11's recipe: skewed features, six nonzero probit coefficients.

        Coefficient magnitudes are kept in [0.5, 1] (standardized scale) so the
        active set is identifiable at this sample size for every seed.
        """
        gen = np.random.default_rng([seed, 4601])
        n, r = cls.ROWS, cls.COLS
        x = np.round(np.abs(gen.standard_normal((n, r))) * gen.uniform(0.05, 20.0, r), 4)
        active = np.sort(gen.choice(r, size=cls.ACTIVE, replace=False))
        coef = np.zeros(r)
        coef[active] = gen.choice([-1.0, 1.0], cls.ACTIVE) * gen.uniform(0.5, 1.0, cls.ACTIVE)
        xs = (x - x.mean(axis=0)) / x.std(axis=0)
        y = (gen.random(n) < ndtr(xs @ coef - 0.3)).astype(int)
        with open(path, "w", encoding="utf-8") as fh:
            for i in range(n):
                fh.write(",".join(f"{v:g}" for v in x[i]) + f",{y[i]}\n")
        return active

    def trace_paths(self):
        return [self.path("spam.trace")]

    def io_ops(self):
        writes, written = super().io_ops()
        return writes + 1, written + (self.loaded is not None)

    def commands(self, probes, rnd, index):
        run_seed = self.seed * 1000 + index
        trace_path = self.path("spam.trace")
        self.loaded = None
        # a vague slab (sigma=1000) and p_slab=0.1: a null feature needs a score
        # |z| above about 5 to reach 0.9 inclusion, so the active set is the answer
        invoke(probes, rnd, [
            "run", "--sampler", "probit", "--dataset", self.dataset, "--n", self.n,
            "--burn-in", self.burn_in, "--seed", run_seed, "--epsilon", 0.1,
            "--sigma", 1000, "--p-slab", 0.1,
            "--trace-out", trace_path, "--report-out", self.path("spam.report"),
        ])
        self.loaded = uq.load_trace(trace_path)
        for i, eps in enumerate(self.REASSESS_EPS):
            uq.simultaneous_cis(self.loaded, uq.identity_spec(self.COLS), alpha=ALPHA,
                                epsilon=eps, rng=RngStream(run_seed, 2 + i),
                                v_star=np.eye(self.COLS))

    def check(self, rnd, index, chains, reports):
        rows = load_trace_text(self.path("spam.trace"))
        rnd.check("trace read back equals the numpy parse",
                  np.array_equal(self.loaded.f_values, rows), str(rows.shape))
        gap = np.max(np.abs(report_points(self.path("spam.report")) - rows.mean(axis=0)))
        rnd.check("report points are the trace column means", gap <= 1e-12, f"gap {gap:.2e}")
        found = np.flatnonzero(rows.mean(axis=0) > 0.9)
        rnd.check("inclusion above 0.9 on exactly the active set",
                  np.array_equal(found, self.active),
                  f"found {found.tolist()} active {self.active.tolist()}")
        check_reports(rnd, reports, sidak_eps=10.0)


WORKLOADS = {w.name: w for w in (ToyCoverage, Scenario2Run, SpamProbitRun)}
