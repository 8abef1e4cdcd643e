"""Command-line interface, report determinism and scenario file round trips."""

import json

from quantbench.catalog import su2_orbit_scenario
from quantbench.cli import main
from quantbench.hamiltonian import (
    equivariance_check,
    internal_momentum_check,
    prequantization_condition_check,
    quantization_condition_check,
)
from quantbench.runner import run_scenario
from quantbench.scenario_io import dump_scenario, load_scenario


class TestListScenarios:
    def test_default_catalog(self, capsys):
        assert main(["list-scenarios"]) == 0
        out = capsys.readouterr().out
        names = [line.split()[0] for line in out.strip().splitlines()]
        assert len(names) >= 8
        for expected in ("su2-orbit-k", "u1-rotation-reduction-k", "gauge-su2-k",
                         "gauge-u1-char-n", "pair-groupoid-flat", "s1-plane-action",
                         "sphere-family", "foliation-flat"):
            assert expected in names

    def test_gauge_filter(self, capsys):
        assert main(["list-scenarios", "--filter", "gauge"]) == 0
        out = capsys.readouterr().out
        names = [line.split()[0] for line in out.strip().splitlines()]
        assert names == ["gauge-su2-k", "gauge-u1-char-n"]

    def test_unknown_filter_empty_exit_zero(self, capsys):
        assert main(["list-scenarios", "--filter", "nonexistent"]) == 0
        assert capsys.readouterr().out.strip() == ""


class TestRun:
    def test_orbit_run_reports_dimension(self, capsys):
        code = main(["run", "su2-orbit-2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "dimension: 3" in out
        assert "FAIL" not in out

    def test_reduction_hypotheses_not_met_exits_zero(self, capsys):
        code = main(["run", "u1-rotation-reduction-3", "--checks",
                     "quantize,reduce"])
        out = capsys.readouterr().out
        assert code == 0
        assert "HYPOTHESES-NOT-MET" in out
        assert "1/2" in out  # the half-integer obstruction appears

    def test_pair_groupoid_notes_empty_quantization(self, capsys):
        code = main(["run", "pair-groupoid-flat"])
        out = capsys.readouterr().out
        assert code == 0
        assert "quantization empty" in out

    def test_unknown_scenario_exits_two(self, capsys):
        assert main(["run", "does-not-exist"]) == 2

    def test_failure_exits_one(self, capsys, tmp_path):
        # a deliberately broken scenario file: flipped vertical momentum
        scenario = su2_orbit_scenario(1)
        data = dump_scenario(scenario)
        for entry in data["momentum"]["pairings"][2]:
            entry["value"] = f"0 - ({entry['value']})"
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(data))
        code = main(["run", str(path), "--checks", "hamiltonian"])
        out = capsys.readouterr().out
        assert code == 1
        assert "FAIL" in out

    def test_schema_error_exits_two(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{\"name\": \"x\"}")
        assert main(["run", str(path)]) == 2
        path.write_text("not json at all")
        assert main(["run", str(path)]) == 2

    def test_level_flag(self, capsys):
        code = main(["run", "su2-orbit-k", "--level", "1", "--checks",
                     "hamiltonian"])
        out = capsys.readouterr().out
        assert code == 0
        assert "su2-orbit-1" in out


class TestReportRendering:
    def test_json_report_and_rerender(self, tmp_path, capsys):
        out_path = tmp_path / "report.json"
        code = main(["run", "pair-groupoid-flat", "--format", "json",
                     "--out", str(out_path)])
        assert code == 0
        data = json.loads(out_path.read_text())
        assert data["scenario"] == "pair-groupoid-flat"
        assert all("anchor" in rec for rec in data["records"])
        assert main(["report", str(out_path)]) == 0
        rendered = capsys.readouterr().out
        assert "pair-groupoid-flat" in rendered

    def test_determinism_modulo_timing(self):
        a = run_scenario("su2-orbit-1", checks={"hamiltonian"}, seed=5)
        b = run_scenario("su2-orbit-1", checks={"hamiltonian"}, seed=5)
        assert a.canonical_json() == b.canonical_json()

    def test_quantize_and_reduce_subcommands(self, capsys):
        assert main(["quantize", "su2-orbit-1"]) == 0
        out = capsys.readouterr().out
        assert "dimension: 2" in out
        assert main(["reduce", "u1-rotation-reduction-2"]) == 0
        out = capsys.readouterr().out
        assert "qr-comparison" in out


class TestScenarioFiles:
    def test_round_trip_preserves_checks(self, tmp_path):
        scenario = su2_orbit_scenario(2)
        data = dump_scenario(scenario)
        text = json.dumps(data, sort_keys=True)
        loaded = load_scenario(json.loads(text))
        assert loaded.name == scenario.name
        assert internal_momentum_check(loaded).ok
        assert equivariance_check(loaded).ok
        assert prequantization_condition_check(loaded).ok
        assert quantization_condition_check(loaded).ok

    def test_dump_is_deterministic(self):
        a = json.dumps(dump_scenario(su2_orbit_scenario(1)), sort_keys=True)
        b = json.dumps(dump_scenario(su2_orbit_scenario(1)), sort_keys=True)
        assert a == b
