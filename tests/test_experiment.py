import errno
import hashlib
import json
import re

import numpy as np
import pytest

from sbmchroma import chromatic, experiment, functionals
from sbmchroma.chromatic import alpha_h
from sbmchroma.experiment import (ConfigError, ExperimentConfig, emit_plotdata,
                                  run_experiment)
from sbmchroma.functionals import w_star_solve
from sbmchroma.graphs import sample_sbm
from sbmchroma.model import BlockVector, ModelError, ModelInstance, ProbMatrix
from sbmchroma.seeds import derive_seed, mix_seed


# The block models of the two SBM benchmark workloads: five disassortative
# blocks of ten vertices and seven of six.
P_MIXED = [
    [0.20, 0.58, 0.69, 0.76, 0.47],
    [0.58, 0.17, 0.59, 0.65, 0.67],
    [0.69, 0.59, 0.24, 0.70, 0.66],
    [0.76, 0.65, 0.70, 0.06, 0.57],
    [0.47, 0.67, 0.66, 0.57, 0.23],
]
P_WSTAR = [
    [0.28, 0.64, 0.67, 0.74, 0.60, 0.70, 0.72],
    [0.64, 0.10, 0.66, 0.67, 0.72, 0.70, 0.68],
    [0.67, 0.66, 0.26, 0.60, 0.49, 0.78, 0.61],
    [0.74, 0.67, 0.60, 0.09, 0.58, 0.76, 0.55],
    [0.60, 0.72, 0.49, 0.58, 0.29, 0.68, 0.73],
    [0.70, 0.70, 0.78, 0.76, 0.68, 0.21, 0.68],
    [0.72, 0.68, 0.61, 0.55, 0.73, 0.68, 0.20],
]


# One small grid per model kind that no other digest test pins.  The sweeps
# cross the regimes where prediction columns are empty and where they are
# defined.
_KIND_BASE = {"measures": ["chi", "alpha_h", "edge_count"],
        "replicates": 2, "base_seed": 20260810}
KIND_CONFIGS = {
    "sbm-p12": dict(
        _KIND_BASE, model={"kind": "sbm", "sizes": [12, 10],
                     "P": [[0.5, 0.3], [0.3, 0.4]]},
        sweep=[{"param": "p12", "values": [0.1, 0.45, 0.8]}],
        chi_methods=["exact", "dsatur", "extraction"]),
    "blowup-percolate": dict(
        _KIND_BASE, model={"kind": "blowup-percolate", "k": 3, "sizes": [5, 6, 4],
                     "h_edges": [[0, 1], [1, 2]], "p": 0.5},
        sweep=[{"param": "p", "values": [0.05, 0.3, 0.6]}],
        chi_methods=["exact", "dsatur", "extraction"]),
    "union-sbm": dict(
        _KIND_BASE, model={"kind": "union-sbm", "of": [
            {"kind": "sbm", "sizes": [8, 6], "P": [[0.3, 0.1], [0.1, 0.2]]},
            {"kind": "sbm", "sizes": [8, 6], "P": [[0.2, 0.4], [0.4, 0.1]]}]},
        replicates=3, chi_methods=["exact", "dsatur", "extraction"]),
    "chunglu-times": dict(
        _KIND_BASE, model={"kind": "chunglu-times", "p": 0.6,
                     "u": [0.4, 0.6, 0.8, 0.9, 1.0, 0.5, 0.7, 0.3, 0.95,
                           0.85]},
        sweep=[{"param": "p", "values": [0.05, 0.6, 0.9]}],
        chi_methods=["dsatur", "extraction"]),
    "chunglu-plus": dict(
        _KIND_BASE, model={"kind": "chunglu-plus", "p": 0.4,
                     "u": [0.2, 0.3, 0.4, 0.5, 0.35, 0.25, 0.45, 0.1, 0.15]},
        sweep=[{"param": "p", "values": [0.05, 0.5, 0.9]}],
        chi_methods=["dsatur", "extraction"]),
}
# report and summary sha256 of each config above
KIND_DIGESTS = {
    "sbm-p12": [
        "b67491c575e7598f390567ebafd6ffe1d761e56764ac122d31a43fb1563cf253",
        "49e75f8fb66bc4185154586c2092fa8fcdfa060004f3b248912d776de4669906"],
    "blowup-percolate": [
        "fbe39ea6c8e9beefbb6cc91f7866b66985e611bcc48e7ec529cf584849531cda",
        "e1bbaca5fa2c0fbb290c67f313f8728b075e51c4972323f3d1e011992c3dd414"],
    "union-sbm": [
        "e8095e6b133c87313813f7463d4bea79890fb9b70683c7a827533e8768e33886",
        "08e47b4717179cef5bdde2c4eac7d6daa763db9575a3f59b84f40123693718f8"],
    "chunglu-times": [
        "3efc1be27c460627b727276d0a882895f4f6f557ad80276ae6d70532ce4b9277",
        "bbadd4b3de16e0423bf8f8238af12628b97382896cb36779905e6b7ea7fe4ab3"],
    "chunglu-plus": [
        "1eb4881df2d6a68b2aab42925eabf95116431df81a5e92d1b928aa2a4d9d59c1",
        "72923d1013a1d106452bfc0e3e1dd456fd94f4cb6efe23de3030838b8210f0e1"],
}


def base_config(**over):
    cfg = {
        "model": {"kind": "gnp", "n": 14, "p": 0.5},
        "replicates": 2,
        "base_seed": 5,
        "chi_methods": ["dsatur"],
        "measures": ["chi", "edge_count"],
    }
    cfg.update(over)
    return cfg


class TestConfigValidation:
    def test_minimal_config_parses(self):
        cfg = ExperimentConfig.from_dict(base_config())
        assert cfg.replicates == 2

    def test_rejects_unknown_kind(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(base_config(model={"kind": "nope"}))

    def test_rejects_zero_replicates(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(base_config(replicates=0))

    def test_rejects_no_measures(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(base_config(measures=[]))

    def test_rejects_unknown_method(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(base_config(chi_methods=["magic"]))

    def test_rejects_empty_sweep_values(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(
                base_config(sweep=[{"param": "n", "values": []}]))

    @pytest.mark.parametrize("key", ["chi_method", "alpha_h_mod"])
    def test_rejects_unknown_key(self, key):
        # a misspelt key would otherwise run the defaults without a word
        with pytest.raises(ConfigError, match=key):
            ExperimentConfig.from_dict(base_config(**{key: "exact"}))

    @pytest.mark.parametrize("model, param", [
        # a key nothing reads: every grid point would be the same
        ({"kind": "gnp", "n": 14, "p": 0.5}, "N"),
        # a negative index would write another entry, here P[2][0]
        ({"kind": "sbm", "sizes": [4, 4, 4], "P": [[0.3] * 3] * 3}, "P.-1.0"),
        ({"kind": "sbm", "sizes": [4, 4, 4], "P": [[0.3] * 3] * 3}, "P.0.3"),
        ({"kind": "gnp", "n": 14, "p": 0.5}, "p12"),
    ])
    def test_rejects_bad_sweep_param(self, tmp_path, model, param):
        cfg = ExperimentConfig.from_dict(base_config(
            model=model, sweep=[{"param": param, "values": [0.4]}]))
        with pytest.raises(ConfigError, match="sweep"):
            run_experiment(cfg, str(tmp_path / "r.csv"))

    def test_grid_is_cartesian_product(self):
        cfg = ExperimentConfig.from_dict(base_config(
            sweep=[{"param": "n", "values": [10, 20]},
                   {"param": "p", "values": [0.3, 0.5, 0.7]}]))
        points = cfg.grid_points()
        assert len(points) == 6
        assert points[0] == {"n": 10, "p": 0.3}
        assert points[-1] == {"n": 20, "p": 0.7}


class TestRunExperiment:
    def test_empty_model_row(self, tmp_path):
        cfg = ExperimentConfig.from_dict({
            "model": {"kind": "sbm", "sizes": [6], "P": [[0.0]]},
            "replicates": 1, "base_seed": 1,
            "chi_methods": ["dsatur"], "measures": ["chi"],
        })
        out = tmp_path / "r.csv"
        rows = run_experiment(cfg, str(out))
        assert len(rows) == 1
        assert rows[0].values["chi_dsatur"] == 1.0
        # prediction undefined (q* = 0): ratio cells stay empty
        body = out.read_text().splitlines()[2]
        cols = out.read_text().splitlines()[1].split(",")
        rec = dict(zip(cols, body.split(",")))
        assert rec["chi_pred_qstar"] == ""
        assert rec["ratio_chi_dsatur_qstar"] == ""

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = ExperimentConfig.from_dict(base_config(
            sweep=[{"param": "n", "values": [10, 14]}],
            chi_methods=["exact", "dsatur", "extraction"],
            measures=["chi", "alpha_h", "edge_count"],
            alpha_h_mode="exact",
        ))
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_experiment(cfg, str(a))
        run_experiment(cfg, str(b))
        ha = hashlib.sha256(a.read_bytes()).hexdigest()
        hb = hashlib.sha256(b.read_bytes()).hexdigest()
        assert ha == hb
        sa = json.loads((tmp_path / "a.csv.summary.json").read_text())
        sb = json.loads((tmp_path / "b.csv.summary.json").read_text())
        assert sa == sb

    def test_guard_failure_recorded_not_fatal(self, tmp_path):
        cfg = ExperimentConfig.from_dict(base_config(
            model={"kind": "gnp", "n": 30, "p": 0.5},
            chi_methods=["exact"], measures=["chi"], exact_guard=20))
        rows = run_experiment(cfg, str(tmp_path / "r.csv"))
        assert all("exact_skipped" in r.status for r in rows)
        assert all("chi_exact" not in r.values for r in rows)

    def test_budget_failure_recorded_in_row(self, tmp_path):
        cfg = ExperimentConfig.from_dict(base_config(
            model={"kind": "gnp", "n": 40, "p": 0.5},
            chi_methods=["exact"], measures=["chi", "edge_count"],
            exact_budget=3))
        out = tmp_path / "r.csv"
        rows = run_experiment(cfg, str(out))
        assert all(re.fullmatch(r"exact_budget\[\d+\.\.\d+\]", r.status)
                   for r in rows)
        # the bracket must not split the row: every line has the header's
        # fields, and a plot reads the column it names
        lines = out.read_text().splitlines()[1:]
        assert {len(ln.split(",")) for ln in lines} == {len(lines[0].split(","))}
        plot = tmp_path / "p.tsv"
        emit_plotdata(str(out), "replicate", "edge_count", str(plot))
        got = [ln.split("\t") for ln in plot.read_text().splitlines()[1:]]
        assert got == [[str(r.replicate), str(int(r.values["edge_count"]))]
                       for r in rows]

    def test_row_order_is_point_major(self, tmp_path):
        cfg = ExperimentConfig.from_dict(base_config(
            sweep=[{"param": "n", "values": [10, 12]}], replicates=3))
        rows = run_experiment(cfg, str(tmp_path / "r.csv"))
        assert [(r.point, r.replicate) for r in rows] == [
            (0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)]

    def test_union_and_blowup_kinds_run(self, tmp_path):
        cfg = ExperimentConfig.from_dict({
            "model": {"kind": "union-sbm", "of": [
                {"kind": "sbm", "sizes": [8], "P": [[0.3]]},
                {"kind": "sbm", "sizes": [8], "P": [[0.4]]}]},
            "replicates": 2, "base_seed": 3,
            "chi_methods": ["dsatur"], "measures": ["chi", "edge_count"],
        })
        rows = run_experiment(cfg, str(tmp_path / "u.csv"))
        assert len(rows) == 2
        cfg2 = ExperimentConfig.from_dict({
            "model": {"kind": "blowup-percolate", "k": 2, "sizes": [4, 4],
                      "h_edges": [[0, 1]], "p": 0.6},
            "replicates": 2, "base_seed": 3,
            "chi_methods": ["dsatur", "extraction"], "measures": ["chi"],
        })
        rows2 = run_experiment(cfg2, str(tmp_path / "b.csv"))
        assert all("chi_dsatur" in r.values for r in rows2)

    def test_chunglu_kind_runs_with_model_prediction(self, tmp_path):
        cfg = ExperimentConfig.from_dict({
            "model": {"kind": "chunglu-times", "u": [0.9] * 20, "p": 0.4},
            "replicates": 2, "base_seed": 9,
            "chi_methods": ["dsatur"], "measures": ["chi", "edge_count"],
        })
        rows = run_experiment(cfg, str(tmp_path / "c.csv"))
        assert rows[0].predictions["chi_pred_model"] > 0

    def test_chi_guard_recorded_not_fatal(self, tmp_path):
        cfg = ExperimentConfig.from_dict({
            "model": {"kind": "chunglu-times", "u": [0.5] * 31, "p": 0.5},
            "replicates": 2, "base_seed": 9,
            "chi_methods": ["dsatur", "extraction"], "measures": ["chi"],
        })
        rows = run_experiment(cfg, str(tmp_path / "c.csv"))
        assert len(rows) == 2
        for r in rows:
            assert r.status.startswith("extraction_guard[")
            assert "chi_dsatur" in r.values
            assert "chi_extraction" not in r.values

    def test_more_than_30_blocks_records_wstar_guard(self, tmp_path):
        # 31 blocks: the point's w* solve refuses, the grid goes on
        P = [[0.1 if i == j else 0.3 + 0.01 * ((7 * (i + j)) % 11)
              for j in range(31)] for i in range(31)]
        cfg = ExperimentConfig.from_dict(base_config(
            model={"kind": "sbm", "sizes": [2] * 31, "P": P},
            chi_methods=["dsatur", "extraction"],
            measures=["chi", "alpha_h"]))
        rows = run_experiment(cfg, str(tmp_path / "r.csv"))
        assert len(rows) == 2
        guard = "corner enumeration refuses k=31 > 30"
        for r in rows:
            assert r.status == (f"wstar_guard[{guard}];"
                                f"extraction_guard[{guard}]")
            assert set(r.values) == {"chi_dsatur", "alpha_h"}
            assert r.predictions["chi_pred_qstar"] is None
            assert r.predictions["chi_pred_sigma"] is None
            assert r.predictions["alpha_pred_qstar"] > 0

    def test_single_vertex_block_model_runs_without_predictions(self,
                                                                 tmp_path):
        # ||n|| = 1: ln ||n|| = 0, so no prediction column is defined
        cfg = ExperimentConfig.from_dict(base_config(
            model={"kind": "sbm", "sizes": [1], "P": [[0.7]],
                   "sigma_hint": 0.1},
            chi_methods=["dsatur", "extraction"],
            measures=["chi", "alpha_h", "edge_count"]))
        rows = run_experiment(cfg, str(tmp_path / "r.csv"))
        assert len(rows) == 2
        for r in rows:
            assert r.status == "ok"
            assert r.values["chi_dsatur"] == r.values["chi_extraction"] == 1
            assert {c for c, v in r.predictions.items()
                    if v is not None} == {"edges_pred"}

    def test_percolation_past_30_template_vertices_records_wstar_guard(
            self, tmp_path):
        # both the point's w* solve and the percolation formula's w* refuse
        cfg = ExperimentConfig.from_dict(base_config(
            model={"kind": "blowup-percolate", "k": 31, "sizes": [1] * 31,
                   "h_edges": [[i, i + 1] for i in range(30)], "p": 0.6},
            sweep=[{"param": "p", "values": [0.5, 0.6]}],
            chi_methods=["dsatur"], measures=["chi", "alpha_h"]))
        rows = run_experiment(cfg, str(tmp_path / "r.csv"))
        assert len(rows) == 4
        for r in rows:
            assert r.status == ("wstar_guard[corner enumeration refuses "
                                "k=31 > 30]")
            assert set(r.values) == {"chi_dsatur", "alpha_h"}
            assert r.predictions["chi_pred_qstar"] is None
            assert r.predictions["chi_pred_model"] is None

    @pytest.mark.parametrize("sizes,P", [([10] * 5, P_MIXED),
                                         ([6] * 7, P_WSTAR)])
    def test_default_alpha_h_never_below_the_local_search(self, tmp_path,
                                                          sizes, P):
        model = ModelInstance(BlockVector.integral(sizes), ProbMatrix(P))
        for base_seed in (20260810, 1001, 1002, 4242):
            cfg = ExperimentConfig.from_dict(base_config(
                model={"kind": "sbm", "sizes": sizes, "P": P},
                replicates=6, base_seed=base_seed, measures=["alpha_h"]))
            for r in run_experiment(cfg, str(tmp_path / "r.csv")):
                local = alpha_h(model, sample_sbm(model, r.seed), "heuristic",
                                seed=derive_seed(r.seed, 12))
                assert r.values["alpha_h"] >= local.h_value

    def test_exact_alpha_h_mode_keeps_its_node_cap(self, tmp_path,
                                                   monkeypatch):
        # G(62, 0.08) has far more independent sets than 1e7 nodes reach;
        # the default mode falls back to the local search instead.  A lower
        # cap reaches the same guard in a fraction of the shipped one's time
        assert chromatic._ALPHA_ENUM_GUARD == 10 ** 7
        monkeypatch.setattr(chromatic, "_ALPHA_ENUM_GUARD", 10 ** 5)
        base = base_config(model={"kind": "gnp", "n": 62, "p": 0.08},
                           replicates=1, measures=["alpha_h"])
        exact = run_experiment(
            ExperimentConfig.from_dict(dict(base, alpha_h_mode="exact")),
            str(tmp_path / "e.csv"))
        assert exact[0].status == ("alpha_h_guard[independent-set "
                                   "enumeration exceeded 1e7 nodes]")
        assert "alpha_h" not in exact[0].values
        default = run_experiment(ExperimentConfig.from_dict(base),
                                 str(tmp_path / "d.csv"))
        assert default[0].status == "ok"
        assert default[0].values["alpha_h"] > 0

    def test_exact_mode_gnp_report_digest(self, tmp_path):
        # the shape of the gnp-exact benchmark workload; exact alpha_h did
        # not change when the default mode became exact-first
        cfg = ExperimentConfig.from_dict({
            "model": {"kind": "gnp", "n": 30, "p": 0.5},
            "sweep": [{"param": "n", "values": [30, 34, 38]}],
            "replicates": 4, "base_seed": 20260810,
            "chi_methods": ["exact"],
            "measures": ["chi", "alpha_h", "edge_count"],
            "alpha_h_mode": "exact", "exact_budget": 2_000_000_000})
        out = tmp_path / "r.csv"
        run_experiment(cfg, str(out))
        digests = [hashlib.sha256(path.read_bytes()).hexdigest()
                   for path in (out, tmp_path / "r.csv.summary.json")]
        assert digests == [
            "c380d176e4e2eca42a6246b5bd3547afa52c609cfc0fd2d181032cd6d9c74586",
            "0e7f162e4f23ec8ba5ddd19652846c37373aeaab1befce4ed8016c248d546f76"]

    def test_mixed_sbm_extraction_report_digest(self, tmp_path):
        # the shape of the sbm-mixed benchmark workload: all three chi
        # methods, balanced extraction and exact-first alpha_h
        cfg = ExperimentConfig.from_dict({
            "model": {"kind": "sbm", "sizes": [10] * 5, "P": P_MIXED},
            "replicates": 6, "base_seed": 20260810,
            "chi_methods": ["exact", "dsatur", "extraction"],
            "measures": ["chi", "alpha_h", "edge_count"]})
        out = tmp_path / "r.csv"
        run_experiment(cfg, str(out))
        digests = [hashlib.sha256(path.read_bytes()).hexdigest()
                   for path in (out, tmp_path / "r.csv.summary.json")]
        assert digests == [
            "f85281ed000ad8cb334e1b43eb33cb73aab89f172a5e81ffad47fd677b9de73e",
            "9f993919b1678a08c20b81a688b5348ca58a9b3138f7db4a1b1f8c65339b0bc5"]

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("name", sorted(KIND_CONFIGS))
    def test_report_digest_per_model_kind(self, tmp_path, name, workers):
        cfg = ExperimentConfig.from_dict(dict(KIND_CONFIGS[name],
                                              workers=workers))
        out = tmp_path / "r.csv"
        run_experiment(cfg, str(out))
        digests = [hashlib.sha256(path.read_bytes()).hexdigest()
                   for path in (out, tmp_path / "r.csv.summary.json")]
        assert digests == KIND_DIGESTS[name]

    @pytest.mark.parametrize("model", [
        {"kind": "chunglu-times", "u": [0.5, 1.5, 0.2], "p": 0.4},
        {"kind": "chunglu-plus", "u": [0.9, 0.9], "p": 0.6},
    ])
    def test_bad_chunglu_spec_fails_before_any_row(self, tmp_path,
                                                   monkeypatch, model):
        def no_rows(*args):
            raise AssertionError("a row ran before the spec was checked")
        monkeypatch.setattr(experiment, "_measure_row", no_rows)
        cfg = ExperimentConfig.from_dict(base_config(model=model))
        with pytest.raises(ModelError):
            run_experiment(cfg, str(tmp_path / "bad.csv"))

    def test_one_sample_per_row(self, tmp_path, monkeypatch):
        calls = []

        def counting(m, seed):
            calls.append(seed)
            return sample_sbm(m, seed)
        monkeypatch.setattr(experiment, "sample_sbm", counting)
        cfg = ExperimentConfig.from_dict(base_config(
            sweep=[{"param": "n", "values": [10, 12]}], replicates=3))
        rows = run_experiment(cfg, str(tmp_path / "r.csv"))
        assert sorted(calls) == sorted(r.seed for r in rows)

    def test_one_model_per_grid_point(self, tmp_path, monkeypatch):
        calls = []
        gnp = ModelInstance.gnp

        def counting(n, p):
            calls.append(n)
            return gnp(n, p)
        monkeypatch.setattr(ModelInstance, "gnp", counting)
        cfg = ExperimentConfig.from_dict(base_config(
            sweep=[{"param": "n", "values": [10, 12]}], replicates=3,
            chi_methods=["dsatur", "extraction"],
            measures=["chi", "alpha_h"]))
        rows = run_experiment(cfg, str(tmp_path / "r.csv"))
        assert len(rows) == 6
        assert calls == [10, 12]

    @pytest.mark.parametrize("model, sweep", [
        ({"kind": "sbm", "sizes": [5, 5, 5],
          "P": [[0.1, 0.6, 0.7], [0.6, 0.2, 0.5], [0.7, 0.5, 0.15]]},
         {"param": "P.0.1", "values": [0.6, 0.8]}),
        # no prediction solve here: the point's one solve is the extraction's
        ({"kind": "chunglu-times", "u": [0.4, 0.6, 0.8, 0.9, 1.0, 0.5],
          "p": 0.7}, {"param": "p", "values": [0.7, 0.9]}),
    ])
    def test_one_wstar_solve_per_grid_point(self, tmp_path, monkeypatch,
                                            model, sweep):
        calls = []

        def counting(x, q, *args, **kwargs):
            calls.append(x.values.tolist())
            return w_star_solve(x, q, *args, **kwargs)
        monkeypatch.setattr(experiment, "w_star_solve", counting)
        monkeypatch.setattr(functionals, "w_star_solve", counting)
        cfg = ExperimentConfig.from_dict(base_config(
            model=model, sweep=[sweep], replicates=3,
            chi_methods=["dsatur", "extraction"]))
        rows = run_experiment(cfg, str(tmp_path / "r.csv"))
        assert len(rows) == 6
        assert all("chi_extraction" in r.values for r in rows)
        assert len(calls) == 2

    def test_worker_pool_matches_serial(self, tmp_path):
        # every setting below changes its report on its own, so a setting
        # lost on the way to the workers shows as a difference.  The default
        # alpha_h mode tries the exact search first and agrees with "exact"
        # wherever that search finishes, so alpha_h_mode is checked on a
        # model past n = 512: there "exact" refuses at once and the default
        # runs the local search.
        two_block = base_config(
            model={"kind": "sbm", "sizes": [20, 20],
                   "P": [[0.5, 0.55], [0.55, 0.45]]},
            sweep=[{"param": "p12", "values": [0.55, 0.7]}], replicates=3,
            chi_methods=["dsatur", "extraction"],
            measures=["chi", "alpha_h", "edge_count"], alpha_h_mode="exact")
        large = base_config(model={"kind": "gnp", "n": 513, "p": 0.9},
                            measures=["alpha_h"])
        out = tmp_path / "r.csv"

        def report(base, **over) -> str:
            run_experiment(ExperimentConfig.from_dict(dict(base, **over)),
                           str(out))
            return out.read_text()

        for base, changed in (
                (two_block, {"epsilon": 0.35, "extraction_effort": 1}),
                (large, {"alpha_h_mode": "exact"})):
            serial = report(base, **changed)
            assert report(base, **changed, workers=2) == serial
            for name in changed:
                assert report(base, **{k: v for k, v in changed.items()
                                       if k != name}) != serial, name

    def test_failed_write_keeps_previous_report(self, tmp_path, monkeypatch):
        cfg = ExperimentConfig.from_dict(base_config(
            sweep=[{"param": "n", "values": [10, 14]}]))
        out = tmp_path / "r.csv"
        run_experiment(cfg, str(out))
        before = {f.name: f.read_bytes() for f in tmp_path.iterdir()}

        def full_disk_open(path, mode="r", **kw):
            return _FullDisk(open(path, mode, **kw), budget=200)

        monkeypatch.setattr(experiment, "open", full_disk_open, raising=False)
        with pytest.raises(OSError, match="No space"):
            run_experiment(cfg, str(out))
        assert {f.name: f.read_bytes() for f in tmp_path.iterdir()} == before


class _FullDisk:
    """Text file that takes `budget` characters, then fails as a full disk
    would, with the part that fitted already on disk."""

    def __init__(self, fh, budget: int):
        self.fh, self.budget = fh, budget

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, text: str) -> int:
        if len(text) > self.budget:
            self.fh.write(text[:self.budget])
            self.fh.flush()
            raise OSError(errno.ENOSPC, "No space left on device")
        self.budget -= len(text)
        return self.fh.write(text)


class TestSeedMixing:
    def test_injective_over_large_domain(self):
        seen = set()
        for point in range(1000):
            for rep in range(1000):
                seen.add(mix_seed(42, point, rep))
        assert len(seen) == 1_000_000

    def test_distinct_bases_decorrelate(self):
        a = {mix_seed(1, p, r) for p in range(100) for r in range(100)}
        b = {mix_seed(2, p, r) for p in range(100) for r in range(100)}
        assert not (a & b)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            mix_seed(0, 1 << 32, 0)


class TestEmitPlotdata:
    def _report(self, tmp_path):
        cfg = ExperimentConfig.from_dict(base_config(
            sweep=[{"param": "n", "values": [14, 10]}]))
        out = tmp_path / "r.csv"
        run_experiment(cfg, str(out))
        return out

    def test_sorted_by_x(self, tmp_path):
        out = self._report(tmp_path)
        plot = tmp_path / "p.tsv"
        emit_plotdata(str(out), "param_n", "ratio_chi_dsatur_qstar", str(plot))
        lines = plot.read_text().splitlines()
        xs = [float(ln.split("\t")[0]) for ln in lines[1:]]
        assert xs == sorted(xs)

    def test_grouping_column_appended(self, tmp_path):
        out = self._report(tmp_path)
        plot = tmp_path / "p.tsv"
        emit_plotdata(str(out), "param_n", "chi_dsatur", str(plot),
                      group="replicate")
        header = plot.read_text().splitlines()[0].split("\t")
        assert header == ["param_n", "chi_dsatur", "replicate"]

    def test_unknown_column_rejected(self, tmp_path):
        out = self._report(tmp_path)
        with pytest.raises(ModelError):
            emit_plotdata(str(out), "nope", "chi_dsatur", str(tmp_path / "x"))

    def test_empty_report_gives_header_only(self, tmp_path):
        src = tmp_path / "empty.csv"
        src.write_text("# sbmchroma-report v1\na,b,c\n")
        dst = tmp_path / "out.tsv"
        emit_plotdata(str(src), "a", "c", str(dst))
        assert dst.read_text() == "a\tc\n"
