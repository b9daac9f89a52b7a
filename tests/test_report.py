"""Tests for report rendering, CSV/JSON export, and the bench CLI."""

import csv
import json

import pytest

from repro.bench.figures import FigurePanel, run_panel
from repro.bench.report import (
    panel_json,
    panel_rows,
    render_panel,
    render_series,
    write_csv,
)


@pytest.fixture(scope="module")
def tiny_panel():
    return run_panel(
        FigurePanel(5, "a"),
        repetitions=1,
        write_ratios=(0, 100),
        seed=77,
    )


class TestRenderers:
    def test_render_panel_structure(self, tiny_panel):
        out = render_panel(tiny_panel)
        assert "Figure 5(a)" in out
        assert "MODIFIED" in out and "UNMODIFIED" in out
        assert "mean speedup" in out

    def test_render_panel_without_ci(self, tiny_panel):
        out = render_panel(tiny_panel, with_ci=False)
        assert "±" not in out

    def test_render_series(self):
        out = render_series(
            [0, 50, 100],
            {"a": [1.0, 1.1, 1.2], "b": [1.0, 0.9, 0.8]},
            title="demo",
        )
        assert "demo" in out and "write%" in out


class TestExport:
    def test_panel_rows_schema(self, tiny_panel):
        rows = panel_rows(tiny_panel)
        assert len(rows) == 2
        first = rows[0]
        assert first["figure"] == 5 and first["panel"] == "a"
        assert first["unmodified_high_elapsed"] == pytest.approx(1.0)
        for key in (
            "modified_high_elapsed", "modified_overall_elapsed",
            "unmodified_overall_elapsed", "modified_high_elapsed_ci90",
        ):
            assert key in first

    def test_write_csv_roundtrip(self, tiny_panel, tmp_path):
        path = tmp_path / "panel.csv"
        write_csv(tiny_panel, path)
        with open(path) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2
        assert rows[0]["write_pct"] == "0"
        assert float(rows[0]["unmodified_high_elapsed"]) == pytest.approx(1.0)

    def test_panel_json(self, tiny_panel):
        doc = json.loads(panel_json(tiny_panel))
        assert doc["figure"] == 5
        assert doc["metric"] == "high_elapsed"
        assert len(doc["rows"]) == 2
        assert doc["mean_speedup"] > 0


class TestCli:
    def test_panel_argument_validation(self):
        from repro.bench.__main__ import _parse_panel

        panel = _parse_panel("6b")
        assert panel.figure == 6 and panel.panel == "b"
        import argparse

        with pytest.raises(argparse.ArgumentTypeError):
            _parse_panel("9a")
        with pytest.raises(argparse.ArgumentTypeError):
            _parse_panel("5d")

    def test_cli_runs_one_panel(self, tmp_path, capsys, monkeypatch):
        from repro.bench.__main__ import main

        monkeypatch.setenv("REPRO_BENCH_SCALE", "0.3")
        csv_path = tmp_path / "out.csv"
        rc = main(["5a", "--reps", "1", "--csv", str(csv_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Figure 5(a)" in out
        assert csv_path.exists()

    def test_cli_json_mode(self, capsys, monkeypatch):
        from repro.bench.__main__ import main

        monkeypatch.setenv("REPRO_BENCH_SCALE", "0.3")
        rc = main(["5b", "--reps", "1", "--json"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["panel"] == "b"


class TestBenchEnv:
    """REPRO_BENCH_SCALE / REPRO_BENCH_REPS: default or a loud error."""

    def test_unset_or_empty_means_default(self, monkeypatch):
        from repro.bench.figures import bench_reps, bench_scale

        monkeypatch.delenv("REPRO_BENCH_SCALE", raising=False)
        monkeypatch.delenv("REPRO_BENCH_REPS", raising=False)
        assert (bench_scale(), bench_reps()) == (1.0, 2)
        monkeypatch.setenv("REPRO_BENCH_SCALE", "")
        monkeypatch.setenv("REPRO_BENCH_REPS", " ")
        assert (bench_scale(), bench_reps()) == (1.0, 2)

    def test_valid_values(self, monkeypatch):
        from repro.bench.figures import bench_reps, bench_scale

        monkeypatch.setenv("REPRO_BENCH_SCALE", "0.3")
        monkeypatch.setenv("REPRO_BENCH_REPS", "5")
        assert (bench_scale(), bench_reps()) == (0.3, 5)

    @pytest.mark.parametrize("name, value", [
        ("REPRO_BENCH_SCALE", "0"),
        ("REPRO_BENCH_SCALE", "-1"),
        ("REPRO_BENCH_SCALE", "nan"),
        ("REPRO_BENCH_SCALE", "inf"),
        ("REPRO_BENCH_SCALE", "abc"),
        ("REPRO_BENCH_REPS", "0"),
        ("REPRO_BENCH_REPS", "-2"),
        ("REPRO_BENCH_REPS", "abc"),
        ("REPRO_BENCH_REPS", "1.5"),
    ])
    def test_bad_value_names_variable_and_value(
        self, monkeypatch, name, value
    ):
        from repro.bench.figures import bench_reps, bench_scale

        monkeypatch.setenv(name, value)
        read = bench_scale if name == "REPRO_BENCH_SCALE" else bench_reps
        with pytest.raises(ValueError) as excinfo:
            read()
        assert name in str(excinfo.value)
        assert repr(value) in str(excinfo.value)

    @pytest.mark.parametrize("env, argv, needle", [
        ({}, ["5a", "--reps", "0"], "--reps"),
        ({}, ["5a", "--reps", "-1"], "--reps"),
        ({"REPRO_BENCH_SCALE": "0"}, ["5a"], "REPRO_BENCH_SCALE='0'"),
        ({"REPRO_BENCH_SCALE": "nan"}, ["5a"], "REPRO_BENCH_SCALE='nan'"),
        ({"REPRO_BENCH_REPS": "abc"}, ["5a"], "REPRO_BENCH_REPS='abc'"),
    ])
    def test_cli_rejects_before_running(
        self, monkeypatch, capsys, env, argv, needle
    ):
        from repro.bench.__main__ import main

        for name, value in env.items():
            monkeypatch.setenv(name, value)
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert needle in captured.err
