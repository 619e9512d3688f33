"""The benchmark's per-layer probes still see every layer the chains run.

Importing ``bench/probes.py`` checks that the probed samplers are looked up
where the probes replace them. A refactor that calls around a probed name
would otherwise still pass ``bench/smoke.py``, printing that layer's metric
as 0.
"""

import sys
from pathlib import Path

from transjump import ar_laplace, probit
from transjump.rng import RngStream

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import probes  # noqa: E402


def test_full_probe_set_sees_every_chain_layer(toy_ar_data, probit_small):
    p = probes.Probes()
    p.install(full=True)
    try:
        ar_laplace.run_ar_chain(toy_ar_data, 500, RngStream(61))
        probit.run_probit_chain(probit_small, 500, RngStream(62))
    finally:
        p.uninstall()
    metrics = probes.layer_metrics(p, rounds=1, overhead_pct=0.0)
    layers = {
        "ar_laplace": ("rng._ig_draws", "gibbs_update", "birth_proposal_params"),
        "probit": ("rng.sample_truncated_normal_onesided", "da_update", "mode_and_curvature"),
    }
    for mod, (sampler, kernel, proposal) in layers.items():
        for name in (sampler, f"{mod}.rj_step", f"{mod}.{kernel}", f"{mod}.{proposal}"):
            assert metrics[name + ".calls"]["value"] > 0, name
        for kind in ("birth", "death"):
            assert metrics[f"{mod}.{kind}.proposed"]["value"] > 0, (mod, kind)
    # the AR jumps use the closed-form marginal ratio; the probit ones a posterior ratio
    assert metrics["ar_laplace.log_unnorm_posterior.calls"]["value"] == 0
    assert metrics["probit.log_unnorm_posterior.calls"]["value"] > 0
    assert metrics["ar_laplace.rj_step.calls"]["value"] == 500
    assert metrics["probit.rj_step.calls"]["value"] == 500
    # uninstall put the original functions back
    assert ar_laplace.rj_step.__module__ == "transjump.ar_laplace"
