import errno
import hashlib
import json

import numpy as np
import pytest

from sbmchroma import experiment, functionals
from sbmchroma.experiment import (ConfigError, ExperimentConfig, emit_plotdata,
                                  run_experiment)
from sbmchroma.functionals import w_star_solve
from sbmchroma.graphs import sample_sbm
from sbmchroma.model import ModelError
from sbmchroma.seeds import mix_seed


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
            chi_methods=["exact"], measures=["chi"], exact_budget=3))
        rows = run_experiment(cfg, str(tmp_path / "r.csv"))
        assert all("exact_budget" in r.status for r in rows)

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
        # every setting below changes this report on its own, so a setting
        # lost on the way to the workers shows as a difference
        changed = {"epsilon": 0.35, "extraction_effort": 1,
                   "alpha_h_mode": "exact"}
        base = base_config(
            model={"kind": "sbm", "sizes": [20, 20],
                   "P": [[0.5, 0.55], [0.55, 0.45]]},
            sweep=[{"param": "p12", "values": [0.55, 0.7]}], replicates=3,
            chi_methods=["dsatur", "extraction"],
            measures=["chi", "alpha_h", "edge_count"])
        out = tmp_path / "r.csv"

        def report(**over) -> str:
            run_experiment(ExperimentConfig.from_dict(dict(base, **over)),
                           str(out))
            return out.read_text()

        serial = report(**changed)
        assert report(**changed, workers=2) == serial
        for name in changed:
            assert report(**{k: v for k, v in changed.items()
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
