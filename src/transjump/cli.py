"""Command-line interface: simulate datasets, run samplers, assess errors.

Subcommands: ``simulate-ar``, ``run``, ``coverage``, ``finite-verify``,
``plotdata``. Every setting lives in a key-value config file and can be
overridden by a ``--key value`` flag; output files carry the hash of the
resolved settings that determine their content (output paths and the worker
count are left out) so runs can be traced back to their settings.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import sys
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from . import ar_laplace, probit, spectral, uq
from .errors import TransjumpError
from .rng import RngStream

__all__ = ["main"]


# where results are written and how many processes compute them; neither
# changes a result, so neither enters the config hash
_UNHASHED = frozenset({"out", "trace_out", "report_out", "workers"})


def _config_hash(settings: dict) -> str:
    blob = "\n".join(f"{k}={settings[k]}" for k in sorted(settings) if k not in _UNHASHED)
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


def _load_config_file(path) -> dict:
    out = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" in line:
                key, _, value = line.partition("=")
            else:
                parts = line.split(None, 1)
                if len(parts) != 2:
                    raise TransjumpError(
                        f"config line {lineno}: expected 'key = value'"
                    )
                key, value = parts
            out[key.strip().replace("-", "_")] = value.strip()
    return out


def _resolve(args: argparse.Namespace, keys: dict) -> dict:
    """defaults < config file < explicit flags."""
    settings = dict(keys)
    if getattr(args, "config", None):
        for k, v in _load_config_file(args.config).items():
            if k not in settings:
                raise TransjumpError(f"unknown config key {k!r}")
            settings[k] = type(keys[k])(v) if keys[k] is not None else v
    for k in keys:
        flag = getattr(args, k, None)
        if flag is not None:
            settings[k] = flag
    return settings


def _add_keys(parser: argparse.ArgumentParser, keys: dict, types: dict):
    parser.add_argument("--config", help="key-value settings file")
    for k in keys:
        parser.add_argument(f"--{k.replace('_', '-')}", dest=k, type=types[k])


# ----------------------------------------------------------------- simulate-ar

_SIM_PRESETS = {
    "toy": dict(n_obs=5, p=1, k_max=1, k_true=1, alpha="0.4", beta="1.0",
                tau=0.3, sigma=1.0, prior="uniform", poisson_mean=2.0),
    "scenario2": dict(n_obs=100, p=50, k_max=10, k_true=4,
                      alpha="0.3,0.05,0.05,0.05", beta="", tau=1.0, sigma=1.0,
                      prior="poisson", poisson_mean=2.0),
}

_SIM_KEYS = dict(preset="toy", seed=0, out="ar_dataset.txt", n_obs=0, p=0,
                 k_max=0, k_true=0, alpha="", beta="", tau=0.0, sigma=1.0,
                 prior="", poisson_mean=0.0)
_SIM_TYPES = dict(preset=str, seed=int, out=str, n_obs=int, p=int, k_max=int,
                  k_true=int, alpha=str, beta=str, tau=float, sigma=float,
                  prior=str, poisson_mean=float)


def cmd_simulate_ar(args) -> int:
    settings = _resolve(args, _SIM_KEYS)
    preset = _SIM_PRESETS.get(settings["preset"])
    if preset is None:
        print(f"unknown preset {settings['preset']!r}", file=sys.stderr)
        return 2
    merged = dict(preset)
    for k in merged:
        if settings.get(k):
            merged[k] = settings[k]
    alpha = np.array([float(v) for v in str(merged["alpha"]).split(",") if v])
    if merged["beta"]:
        beta = np.array([float(v) for v in str(merged["beta"]).split(",") if v])
    else:
        rng_beta = RngStream(int(settings["seed"]), 999)
        beta = rng_beta.gen.standard_normal(int(merged["p"]))
    config = ar_laplace.ARSimConfig(
        n_obs=int(merged["n_obs"]), p=int(merged["p"]), k_max=int(merged["k_max"]),
        k_true=int(merged["k_true"]), alpha_true=alpha, beta_true=beta,
        tau_true=float(merged["tau"]), sigma=float(merged["sigma"]),
        prior=str(merged["prior"]), poisson_mean=float(merged["poisson_mean"]),
    )
    data = ar_laplace.simulate_ar_dataset(config, RngStream(int(settings["seed"])))
    ar_laplace.save_ar_dataset(data, settings["out"], config_hash=_config_hash(settings))
    print(f"wrote {settings['out']} (N={data.n_obs}, p={data.p}, k_max={data.k_max})")
    print("(P1) OK")
    return 0


# ------------------------------------------------------------------------ run

_RUN_KEYS = dict(sampler="ar-toy", dataset="ar_dataset.txt", n=10_000,
                 burn_in=-1, seed=0, epsilon=0.001, alpha=0.05, v=0.6,
                 v_star_scale=1.0, sigma=1.0, p_slab=0.5, standardize=1,
                 trace_out="trace.txt", report_out="report.txt")
_RUN_TYPES = dict(sampler=str, dataset=str, n=int, burn_in=int, seed=int,
                  epsilon=float, alpha=float, v=float, v_star_scale=float,
                  sigma=float, p_slab=float, standardize=int, trace_out=str,
                  report_out=str)


def _run_trace(settings) -> tuple[uq.Trace, uq.DeltaSpec]:
    sampler = settings["sampler"]
    n = int(settings["n"])
    burn_in = int(settings["burn_in"])
    if burn_in < 0:
        burn_in = n // 10
    chain_rng = RngStream(int(settings["seed"]), 0)
    if sampler in ("ar-toy", "ar-model"):
        data = ar_laplace.load_ar_dataset(settings["dataset"])
        functions = "toy" if sampler == "ar-toy" else "model"
        trace = ar_laplace.run_ar_chain(data, n, chain_rng, burn_in=burn_in,
                                        functions=functions)
        spec = uq.ar_h_spec() if sampler == "ar-toy" else uq.identity_spec(data.k_max + 1)
    elif sampler == "probit":
        data = probit.load_spambase(
            settings["dataset"], sigma=float(settings["sigma"]),
            p_slab=float(settings["p_slab"]), standardize=bool(int(settings["standardize"])),
        )
        trace = probit.run_probit_chain(data, n, chain_rng, burn_in=burn_in)
        spec = uq.identity_spec(data.r)
    else:
        raise TransjumpError(f"unknown sampler {sampler!r}")
    return trace, spec


def cmd_run(args) -> int:
    settings = _resolve(args, _RUN_KEYS)
    chash = _config_hash(settings)
    trace, spec = _run_trace(settings)
    trace.meta["config_hash"] = chash
    uq.save_trace(trace, settings["trace_out"])
    m = np.asarray(spec.h(uq.ergodic_average(trace))).shape[0]
    v_star = float(settings["v_star_scale"]) * np.eye(m)
    report = uq.simultaneous_cis(
        trace, spec,
        alpha=float(settings["alpha"]),
        epsilon=float(settings["epsilon"]),
        rng=RngStream(int(settings["seed"]), 1),
        v_star=v_star,
        v=float(settings["v"]),
    )
    uq.save_report(report, settings["report_out"], config_hash=chash)
    print(f"wrote {settings['trace_out']} and {settings['report_out']} "
          f"(m={m}, xi={report.xi:.4f})")
    return 0


# ------------------------------------------------------------------- coverage

_COV_KEYS = dict(dataset="ar_dataset.txt", replications=500, n=10_000,
                 burn_in=-1, seed=0, alpha=0.05, v=0.6,
                 epsilon_grid="10,1,0.1,0.001", workers=1, out="coverage.txt")
_COV_TYPES = dict(dataset=str, replications=int, n=int, burn_in=int, seed=int,
                  alpha=float, v=float, epsilon_grid=str, workers=int, out=str)

# Stream ids of `coverage`: replication r runs its chain on stream 2r and
# draws the noise for epsilon index e on stream 1_000_000 + 64r + e. The ids
# stay distinct while r < 500_000 and e < 64.
_NOISE_STREAM_BASE = 1_000_000
_MAX_EPSILONS = 64
_MAX_REPLICATIONS = _NOISE_STREAM_BASE // 2


def _check_stream_layout(reps: int, n_eps: int) -> None:
    if reps > _MAX_REPLICATIONS:
        raise TransjumpError(
            f"coverage supports at most {_MAX_REPLICATIONS} replications, got "
            f"{reps}: chain stream ids 2*rep would reach the noise stream ids "
            f"from {_NOISE_STREAM_BASE}"
        )
    if n_eps > _MAX_EPSILONS:
        raise TransjumpError(
            f"coverage supports at most {_MAX_EPSILONS} epsilon grid entries, "
            f"got {n_eps}: noise stream ids would repeat across replications"
        )


def _coverage_one(rep: int, *, data, n, burn_in, seed, alpha, v, eps_grid, truth):
    """One replication: run the chain, then intervals for every epsilon."""
    trace = ar_laplace.run_ar_chain(data, n, RngStream(seed, 2 * rep), burn_in=burn_in)
    spec = uq.ar_h_spec()
    out = []
    for e_idx, eps in enumerate(eps_grid):
        noise_rng = RngStream(seed, _NOISE_STREAM_BASE + rep * _MAX_EPSILONS + e_idx)
        report = uq.simultaneous_cis(trace, spec, alpha=alpha, epsilon=eps,
                                     rng=noise_rng, v=v)
        covered = bool(
            np.all((report.intervals[:, 0] <= truth) & (truth <= report.intervals[:, 1]))
        )
        widths = report.intervals[:, 1] - report.intervals[:, 0]
        out.append((covered, widths))
    return rep, out


def cmd_coverage(args) -> int:
    settings = _resolve(args, _COV_KEYS)
    chash = _config_hash(settings)
    eps_grid = [float(v) for v in str(settings["epsilon_grid"]).split(",") if v]
    reps = int(settings["replications"])
    _check_stream_layout(reps, len(eps_grid))
    data = ar_laplace.load_ar_dataset(settings["dataset"])
    try:
        oracle = ar_laplace.toy_quadrature_oracle(data)
    except TransjumpError as exc:
        print(f"coverage requires the toy configuration with a quadrature "
              f"truth: {exc}", file=sys.stderr)
        return 2
    truth = oracle.as_h_vector()
    n = int(settings["n"])
    burn_in = int(settings["burn_in"])
    if burn_in < 0:
        burn_in = n // 10
    # the settings travel with each task, so workers started by spawn or
    # forkserver receive them as well as forked ones
    one = functools.partial(
        _coverage_one, data=data, n=n, burn_in=burn_in, seed=int(settings["seed"]),
        alpha=float(settings["alpha"]), v=float(settings["v"]),
        eps_grid=eps_grid, truth=truth,
    )
    workers = int(settings["workers"])
    results = [None] * reps
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for rep, row in pool.map(one, range(reps)):
                results[rep] = row
    else:
        for rep in range(reps):
            results[rep] = one(rep)[1]
    m = truth.shape[0]
    lines = [
        f"# config {chash}",
        f"# truth {' '.join(f'{t:.6f}' for t in truth)} "
        f"(quadrature tol {oracle.achieved_tol:.2e})",
        "epsilon\tcoverage\t" + "\t".join(f"width_{i}" for i in range(m)),
    ]
    se_notes = []
    for e_idx, eps in enumerate(eps_grid):
        cov = np.mean([results[r][e_idx][0] for r in range(reps)])
        widths = np.mean([results[r][e_idx][1] for r in range(reps)], axis=0)
        lines.append(
            f"{eps:g}\t{cov:.4f}\t" + "\t".join(f"{w:.6f}" for w in widths)
        )
        se = float(np.sqrt(max(cov * (1.0 - cov), 1e-12) / reps))
        se_notes.append(f"# binomial se of coverage at eps={eps:g}: {se:.4f}")
    lines.extend(se_notes)
    text = "\n".join(lines) + "\n"
    with open(settings["out"], "w", encoding="utf-8") as fh:
        fh.write(text)
    print(text, end="")
    return 0


# -------------------------------------------------------------- finite-verify

_FV_KEYS = dict(chain="", random_ensemble=0, seed=0, t_max=5, out="")
_FV_TYPES = dict(chain=str, random_ensemble=int, seed=int, t_max=int, out=str)


def _verify_chain(chain, kernels, t_max):
    rows = []
    ok = True
    norms = [
        spectral.l20_operator_norm(
            np.linalg.matrix_power(chain.transition, t), chain.stationary
        )
        for t in range(1, t_max + 1)
    ]
    m_p = spectral.build_model_jump_matrix(chain)
    lam = spectral.lambda1(m_p, chain.model_masses())
    for t in (1, 2, 3):
        rep = spectral.theorem2_bound_check(chain, kernels, t)
        ok = ok and rep.holds
        rows.append((t, rep.lhs, rep.rhs, rep.holds))
    dec = spectral.decomposition_inequality_check(
        chain.transition, chain.transition, kernels, float(kernels.c.min()),
        chain.stationary, chain.model_of,
    )
    ok = ok and dec.holds
    return ok, norms, lam, rows, dec


def cmd_finite_verify(args) -> int:
    settings = _resolve(args, _FV_KEYS)
    lines = [f"# config {_config_hash(settings)}"]
    all_ok = True
    if int(settings["random_ensemble"]) > 0:
        count = int(settings["random_ensemble"])
        held = 0
        for i in range(count):
            chain, kernels = spectral.random_decomposed_chain(
                RngStream(int(settings["seed"]), i)
            )
            ok, norms, lam, rows, dec = _verify_chain(chain, kernels, int(settings["t_max"]))
            held += ok
            all_ok = all_ok and ok
        lines.append(f"{held}/{count} bounds hold")
    elif settings["chain"]:
        chain = spectral.read_chain_file(settings["chain"])
        # within-model kernels: lazy identity-mixture decomposition is not
        # available from a bare matrix, so verify with the trivially valid
        # choice P_k = conditional independence sampler, c_k = within-stay mass
        kernels = _default_kernels(chain)
        ok, norms, lam, rows, dec = _verify_chain(chain, kernels, int(settings["t_max"]))
        all_ok = ok
        lines.append(f"states {chain.n_states} models {chain.n_models}")
        lines.append(
            "norm_P_t\t" + "\t".join(f"{v:.6f}" for v in norms)
        )
        lines.append(f"lambda1\t{lam:.6f}")
        for t, lhs, rhs, holds in rows:
            lines.append(f"theorem2 t={t}\tlhs {lhs:.6e}\trhs {rhs:.6e}\t"
                         f"{'holds' if holds else 'VIOLATED'}")
        lines.append(f"decomposition\tlhs {dec.lhs:.6e}\trhs {dec.rhs:.6e}\t"
                     f"{'holds' if dec.holds else 'VIOLATED'}")
    else:
        print("finite-verify needs --chain FILE or --random-ensemble R", file=sys.stderr)
        return 2
    text = "\n".join(lines) + "\n"
    if settings["out"]:
        with open(settings["out"], "w", encoding="utf-8") as fh:
            fh.write(text)
    print(text, end="")
    return 0 if all_ok else 1


def _default_kernels(chain) -> spectral.WithinKernelSet:
    """Generic valid decomposition for a bare chain file.

    Takes c_k as the smallest within-model stay mass of model k (scaled down
    for slack) and P_k as the conditional independence sampler; domination
    holds whenever the chain actually mixes within each model.
    """
    kernels = []
    cs = []
    for k in range(chain.n_models):
        idx = chain.states_of_model(k)
        phi = chain.conditional_within(k)
        block = chain.transition[np.ix_(idx, idx)]
        with np.errstate(divide="ignore", invalid="ignore"):
            ratios = block / phi[None, :]
        c_k = float(np.min(ratios))
        c_k = max(min(c_k, 1.0), 0.0)
        kernels.append(np.tile(phi, (idx.size, 1)))
        cs.append(c_k)
    return spectral.WithinKernelSet(kernels=kernels, c=np.array(cs))


# ------------------------------------------------------------------- plotdata

_PD_KEYS = dict(report="report.txt", out="plotdata.txt")
_PD_TYPES = dict(report=str, out=str)


def cmd_plotdata(args) -> int:
    settings = _resolve(args, _PD_KEYS)
    report = uq.load_report(settings["report"])
    with open(settings["out"], "w", encoding="utf-8") as fh:
        fh.write(f"# config {_config_hash(settings)}\n")
        fh.write("index\tpoint\tnoisy_center\tlower\tupper\n")
        for i in range(report.h_point.shape[0]):
            center = report.h_point[i] + report.g_noise[i]
            fh.write(
                f"{i}\t{report.h_point[i]:.10g}\t{center:.10g}\t"
                f"{report.intervals[i, 0]:.10g}\t{report.intervals[i, 1]:.10g}\n"
            )
    print(f"wrote {settings['out']} ({report.h_point.shape[0]} rows)")
    return 0


# ----------------------------------------------------------------------- main

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="transjump",
        description="Trans-dimensional MCMC with error assessment and spectral verification",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    specs = [
        ("simulate-ar", cmd_simulate_ar, _SIM_KEYS, _SIM_TYPES),
        ("run", cmd_run, _RUN_KEYS, _RUN_TYPES),
        ("coverage", cmd_coverage, _COV_KEYS, _COV_TYPES),
        ("finite-verify", cmd_finite_verify, _FV_KEYS, _FV_TYPES),
        ("plotdata", cmd_plotdata, _PD_KEYS, _PD_TYPES),
    ]
    for name, handler, keys, types in specs:
        p = sub.add_parser(name)
        _add_keys(p, keys, types)
        p.set_defaults(handler=handler)
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except TransjumpError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
