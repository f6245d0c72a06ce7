"""Smoke test of the benchmark's traced run: every name the tracer wraps
must still exist, and a small experiment must record spans under them."""

from pathlib import Path

import pytest

from sbmchroma import experiment
from sbmchroma.graphs import SbmGraph

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing
    return tracing


def test_traced_run_records_every_reached_layer(tracing, tmp_path):
    cfg = experiment.ExperimentConfig(
        model={"kind": "sbm", "sizes": [4, 4, 4],
               "P": [[0.2, 0.6, 0.7], [0.6, 0.1, 0.5], [0.7, 0.5, 0.3]]},
        replicates=2, base_seed=7,
        chi_methods=["exact", "dsatur", "extraction"],
        measures=["chi", "alpha_h", "edge_count"])
    init = SbmGraph.__init__
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert SbmGraph.__init__ is not init
        experiment.run_experiment(cfg, str(tmp_path / "report.csv"))
    finally:
        tracer.uninstall()
    assert SbmGraph.__init__ is init
    calls = {name: c for name, (c, _, _) in tracer.layer_times().items()}
    # every layer but two is reached: the corner engine's one-vector entry
    # point, and near_optimal_integer_system (a grid point rounds its one
    # shared w* solve with round_integer_system instead)
    assert {name for name, c in calls.items() if c == 0} == {
        "functionals.w_value", "functionals.near_optimal_integer_system"}
    assert calls["experiment.run_experiment"] == 1
    assert calls["graphs.sample_sbm"] == 2
    assert calls["graphs.SbmGraph"] == 4   # two draws, two induced subgraphs
    assert calls["chromatic.alpha_h"] == 2
    assert tracer.counts["graphs.sample_sbm.edges"] > 0
    assert tracer.root_seconds() > 0.0
