import json
from pathlib import Path

import pytest

from sbmchroma.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


_SBM_PART = {"kind": "sbm", "sizes": [4, 3], "P": [[0.5, 0.2], [0.2, 0.6]]}


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

    def test_plotdata_with_blank_x_cells(self, tmp_path, capsys):
        report = tmp_path / "rep.csv"
        report.write_text("a,b\n1,2\n,3\n2,4\n")
        plot = tmp_path / "plot.tsv"
        code, info = run_cli(capsys, "plotdata", "--report", str(report),
                             "--x", "a", "--y", "b", "--out", str(plot))
        assert code == 0 and info == {"written": str(plot)}
        assert plot.read_text() == "a\tb\n1\t2\n2\t4\n\t3\n"

    def test_plotdata_rejects_a_short_line(self, tmp_path, capsys):
        report = tmp_path / "rep.csv"
        report.write_text("# sbmchroma-report v1\na,b,c\n1,2,3\n4\n5,6,7\n")
        plot = tmp_path / "plot.tsv"
        code = main(["plotdata", "--report", str(report), "--x", "a",
                     "--y", "c", "--out", str(plot)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "line 4" in err
        assert list(tmp_path.iterdir()) == [report]

    def test_invalid_config_is_an_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "model": {"kind": "gnp", "n": 12, "p": 0.5},
            "replicates": 1, "base_seed": 4, "bogus": 1}))
        assert main(["experiment", "--config", str(cfg),
                     "--out", str(tmp_path / "rep.csv")]) == 2
        assert capsys.readouterr().err == (
            "error: unknown config keys ['bogus']\n")

    @pytest.mark.parametrize("model", [
        {"kind": "union-sbm", "of": [_SBM_PART]},
        {"kind": "union-sbm", "of": [_SBM_PART] * 3},
        {"kind": "union-sbm"},
        {"kind": "gnp", "p": 0.5},
        {"kind": "sbm", "sizes": [4, 4]},
        {"kind": "blowup-percolate", "k": 2, "sizes": [3, 3], "p": 0.5},
        {"kind": "chunglu-times", "p": 0.5},
        {"kind": "gnp", "n": 12, "p": "abc"},
        {"kind": "sbm", "sizes": ["a", 3], "P": _SBM_PART["P"]},
    ])
    def test_malformed_model_spec_is_an_error(self, tmp_path, capsys, model):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": model, "replicates": 1,
                                   "base_seed": 4}))
        assert main(["experiment", "--config", str(cfg),
                     "--out", str(tmp_path / "rep.csv")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and model["kind"] in err
        assert list(tmp_path.iterdir()) == [cfg]

    def test_union_of_non_block_parts_is_an_error(self, tmp_path, capsys):
        part = {"kind": "chunglu-times", "u": [0.5] * 6, "p": 0.4}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "model": {"kind": "union-sbm", "of": [part, part]},
            "replicates": 1, "base_seed": 4}))
        assert main(["experiment", "--config", str(cfg),
                     "--out", str(tmp_path / "rep.csv")]) == 2
        assert "'chunglu-times'" in capsys.readouterr().err


class TestMalformedInput:
    """A malformed file or flag is reported as `error:` with exit code 2 by
    the reader that meets it, not as a traceback."""

    @pytest.mark.parametrize("text, argv", [
        (None, ["predict", "--theorem", "chunglu-times", "--u", "0.5,abc",
                "--p", "0.5"]),
        ('{"k": 1, "sizes": [4], "P": [["x"]]}',
         ["solve-w", "--model", "{file}"]),
        ('{"k": 1, "sizes": [4], "P": [[0.5', ["solve-w", "--model", "{file}"]),
        ('{"model": {"kind": "gnp", "n": 8',
         ["experiment", "--config", "{file}", "--out", "{out}"]),
        ('{"sizes": [2, 3], "h_edges": [[0, 1]]}',
         ["gen", "--model", "blowup", "--spec-file", "{file}",
          "--out", "{out}"]),
        ('{"n": 3, "blocks": ["a", "b", "c"], "edges": []}',
         ["chromatic", "--graph", "{file}", "--method", "dsatur"]),
        ('{"n": 2, "blocks": [0, 0], "edges": [], "provenance": 5}',
         ["chromatic", "--graph", "{file}", "--method", "dsatur"]),
        ("5", ["experiment", "--config", "{file}", "--out", "{out}"]),
        (None, ["gen", "--model", "chunglu-plus", "--u", "0.5,0.5,0.7",
                "--p", "nan", "--out", "{out}"]),
        ('{"model": {"kind": "chunglu-plus", "u": [0.5, 0.6, 0.7, 0.8], '
         '"p": NaN}, "replicates": 2, "base_seed": 5, '
         '"chi_methods": ["dsatur"], "measures": ["chi", "edge_count"]}',
         ["experiment", "--config", "{file}", "--out", "{out}"]),
        ('{"k": 3, "sizes": [2, 2, 2], "h_edges": [[0, 5]]}',
         ["gen", "--model", "blowup", "--spec-file", "{file}",
          "--out", "{out}"]),
        ('{"model": {"kind": "blowup-percolate", "k": 3, "sizes": [2, 2, 2], '
         '"h_edges": [[0, 5]], "p": 0.5}, "replicates": 2, "base_seed": 5, '
         '"chi_methods": ["dsatur"], "measures": ["chi"]}',
         ["experiment", "--config", "{file}", "--out", "{out}"]),
        ('{"k": 1, "sizes": [3], "P": [[NaN]]}',
         ["solve-w", "--model", "{file}"]),
    ], ids=["u-not-a-number", "P-string", "truncated-model",
            "truncated-config", "spec-without-k", "string-blocks",
            "provenance-not-an-object", "config-not-an-object",
            "chunglu-plus-nan-p", "chunglu-plus-nan-p-config",
            "blowup-edge-outside-k", "blowup-percolate-edge-outside-k",
            "P-nan"])
    def test_is_an_error(self, tmp_path, capsys, text, argv):
        path = tmp_path / "input.json"
        if text is not None:
            path.write_text(text)
        out = tmp_path / "out.json"
        code = main([a.format(file=path, out=out) for a in argv])
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")
        assert not out.exists()

    def test_nan_probability_is_named(self, tmp_path, capsys):
        path = tmp_path / "model.json"
        path.write_text('{"k": 1, "sizes": [3], "P": [[NaN]]}')
        assert main(["solve-w", "--model", str(path)]) == 2
        assert "finite" in capsys.readouterr().err
