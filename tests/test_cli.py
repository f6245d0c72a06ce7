import json
from pathlib import Path

import pytest

from sbmchroma.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


@pytest.fixture
def model_file(tmp_path):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(
        {"k": 2, "sizes": [5, 4], "P": [[0.5, 0.2], [0.2, 0.6]]}))
    return str(path)


@pytest.fixture
def blowup_file(tmp_path):
    path = tmp_path / "blowup.json"
    path.write_text(json.dumps(
        {"k": 2, "sizes": [2, 3], "h_edges": [[0, 1]]}))
    return str(path)


class TestGen:
    def test_sbm_roundtrip_and_determinism(self, tmp_path, model_file, capsys):
        out1, out2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        code, info = run_cli(capsys, "gen", "--model", "sbm",
                             "--model-file", model_file,
                             "--seed", "7", "--out", out1)
        assert code == 0 and info["n"] == 9
        run_cli(capsys, "gen", "--model", "sbm", "--model-file", model_file,
                "--seed", "7", "--out", out2)
        assert Path(out1).read_text() == Path(out2).read_text()

    def test_blowup_then_percolate_then_union(self, tmp_path, blowup_file,
                                              capsys):
        base = str(tmp_path / "base.json")
        code, info = run_cli(capsys, "gen", "--model", "blowup",
                             "--spec-file", blowup_file, "--out", base)
        assert code == 0 and info["m"] == 10  # K5
        perc = str(tmp_path / "perc.json")
        code, info = run_cli(capsys, "gen", "--model", "percolate",
                             "--graph", base, "--p", "0.5", "--seed", "3",
                             "--out", perc)
        assert code == 0 and 0 <= info["m"] <= 10
        uni = str(tmp_path / "uni.json")
        code, info = run_cli(capsys, "gen", "--model", "union",
                             "--graph", perc, "--graph2", base, "--out", uni)
        assert code == 0 and info["m"] == 10

    def test_chunglu(self, tmp_path, capsys):
        out = str(tmp_path / "cl.json")
        code, info = run_cli(capsys, "gen", "--model", "chunglu-times",
                             "--u", "0.2,0.9,0.5,1.0", "--p", "0.5",
                             "--seed", "1", "--out", out)
        assert code == 0 and info["n"] == 4

    def test_missing_input_errors(self, tmp_path, capsys):
        code = main(["gen", "--model", "sbm", "--out", str(tmp_path / "x")])
        assert code == 2


class TestSolvers:
    def test_solve_w(self, model_file, capsys):
        code, out = run_cli(capsys, "solve-w", "--model", model_file)
        assert code == 0
        assert out["method"] == "corner-enumeration"
        assert out["value"] >= out["bounds"]["wstar_lower"] - 1e-9

    def test_solve_wstar_heuristic_vs_oracle(self, model_file, capsys):
        code, heur = run_cli(capsys, "solve-wstar", "--model", model_file)
        assert code == 0
        code, oracle = run_cli(capsys, "solve-wstar", "--model", model_file,
                               "--oracle")
        assert code == 0 and oracle["method"] == "bruteforce"
        assert heur["value"] <= oracle["value"] + 1e-6

    def test_oracle_guard_is_an_error(self, tmp_path, capsys):
        big = tmp_path / "big.json"
        big.write_text(json.dumps(
            {"k": 6, "sizes": [9] * 6,
             "P": [[0.5 if i == j else 0.1 for j in range(6)]
                   for i in range(6)]}))
        assert main(["solve-wstar", "--model", str(big), "--oracle"]) == 2


class TestChromatic:
    def test_methods_agree_on_k5(self, tmp_path, blowup_file, model_file,
                                 capsys):
        g = str(tmp_path / "k5.json")
        run_cli(capsys, "gen", "--model", "blowup", "--spec-file", blowup_file,
                "--out", g)
        code, exact = run_cli(capsys, "chromatic", "--graph", g,
                              "--method", "exact")
        assert code == 0 and exact["chi_or_bound"] == 5
        assert sum(exact["colour_sizes"]) == 5
        code, ds = run_cli(capsys, "chromatic", "--graph", g,
                           "--method", "dsatur")
        assert ds["chi_or_bound"] == 5
        k5model = tmp_path / "k5model.json"
        k5model.write_text(json.dumps(
            {"k": 2, "sizes": [2, 3], "P": [[0.9, 0.9], [0.9, 0.9]]}))
        code, ext = run_cli(capsys, "chromatic", "--graph", g,
                            "--method", "extraction",
                            "--model", str(k5model))
        assert ext["chi_or_bound"] == 5

    def test_budget_exceeded_reports_bracket(self, tmp_path, model_file,
                                             capsys):
        g = str(tmp_path / "g.json")
        run_cli(capsys, "gen", "--model", "sbm", "--model-file", model_file,
                "--seed", "0", "--out", g)
        code, out = run_cli(capsys, "chromatic", "--graph", g,
                            "--method", "exact", "--budget", "1")
        assert code == 0
        if out.get("status") == "budget-exceeded":
            lo, hi = out["chi_or_bound"]
            assert lo <= hi

    def test_extraction_requires_model(self, tmp_path, model_file, capsys):
        g = str(tmp_path / "g.json")
        run_cli(capsys, "gen", "--model", "sbm", "--model-file", model_file,
                "--seed", "0", "--out", g)
        assert main(["chromatic", "--graph", g, "--method", "extraction"]) == 2


    @pytest.mark.parametrize("edges", [[[0, 1, 2]], [[0, 1], [1, 2, 3]],
                                       [[0, 1.5]]])
    def test_malformed_edge_list_is_an_error(self, tmp_path, capsys, edges):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"n": 4, "blocks": [0] * 4,
                                    "edges": edges,
                                    "provenance": {"k": 1}}))
        code = main(["chromatic", "--graph", str(path), "--method", "dsatur"])
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")


class TestPredict:
    def test_gnp(self, capsys):
        code, out = run_cli(capsys, "predict", "--theorem", "gnp",
                            "--n", "1000", "--p", "0.5")
        assert code == 0
        assert out["chi_predicted"] == pytest.approx(55.767569698878226)

    def test_sbm(self, model_file, capsys):
        code, out = run_cli(capsys, "predict", "--theorem", "sbm",
                            "--model", model_file)
        assert code == 0 and out["chi_predicted"] > 0
        assert out["normalization"] == "qstar_form"

    def test_two_block_regime(self, model_file, capsys):
        code, out = run_cli(capsys, "predict", "--theorem", "two-block",
                            "--model", model_file)
        assert code == 0 and out["regime"] in ("below", "middle", "above")

    def test_percolation(self, blowup_file, capsys):
        code, out = run_cli(capsys, "predict", "--theorem", "percolation",
                            "--spec-file", blowup_file, "--p", "0.5")
        assert code == 0 and out["chi_scale"] == pytest.approx(5.0)

    def test_chunglu(self, capsys):
        code, out = run_cli(capsys, "predict", "--theorem", "chunglu-plus",
                            "--u", ",".join(["0.5"] * 40), "--p", "0.3")
        assert code == 0 and out["chi_predicted"] > 0


class TestExperimentCommand:
    def test_end_to_end(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "model": {"kind": "gnp", "n": 12, "p": 0.5},
            "replicates": 2, "base_seed": 4,
            "chi_methods": ["dsatur"], "measures": ["chi", "edge_count"],
        }))
        out = tmp_path / "rep.csv"
        code, info = run_cli(capsys, "experiment", "--config", str(cfg),
                             "--out", str(out))
        assert code == 0 and info["rows"] == 2
        assert out.exists()
        plot = tmp_path / "plot.tsv"
        code, _ = run_cli(capsys, "plotdata", "--report", str(out),
                          "--x", "replicate", "--y", "chi_dsatur",
                          "--out", str(plot))
        assert code == 0
        assert plot.read_text().splitlines()[0] == "replicate\tchi_dsatur"
