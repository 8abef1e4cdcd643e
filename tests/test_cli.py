"""Command-line interface, report determinism and scenario file round trips."""

import json
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quantbench.catalog import SCENARIO_FAMILIES, build_scenario, su2_orbit_scenario
from quantbench.cli import main
from quantbench.errors import QuantbenchError, SchemaError
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

    def test_flipped_action_field_fails_morphism_and_skips_bracket(self, tmp_path, capsys):
        # the vertical rotation field negated, as in control_flipped_field
        data = dump_scenario(su2_orbit_scenario(1))
        for entry in data["action"]["fields"][2]["components"]:
            entry["value"] = f"0 - ({entry['value']})"
        path = tmp_path / "flipped-field.json"
        path.write_text(json.dumps(data))
        assert main(["run", str(path), "--format", "json"]) == 1
        captured = capsys.readouterr()
        records = {r["check"]: r for r in json.loads(captured.out)["records"]}
        assert records["action-morphism"]["status"] == "fail"
        assert records["bracket-structure"]["status"] == "skipped"
        assert records["bracket-structure"]["notes"] == [
            "needs action from action-morphism, which failed"]
        assert "Traceback" not in captured.err

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

    @pytest.mark.parametrize("data", [
        pytest.param([], id="top-level-list"),
        pytest.param({"scenario": "s", "conventions": 5}, id="conventions-number"),
        pytest.param({"records": [{"check": "c", "status": "pass", "details": 5}]},
                     id="details-number"),
        pytest.param({"records": [{"check": "c", "status": 5}]}, id="status-number"),
    ])
    def test_malformed_report_exits_two(self, data, tmp_path, capsys):
        path = tmp_path / "report.json"
        path.write_text(json.dumps(data))
        assert main(["report", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "schema error: report file invalid" in captured.err

    def test_determinism_modulo_timing(self):
        a = run_scenario(build_scenario("su2-orbit-1"), checks={"hamiltonian"}, seed=5)
        b = run_scenario(build_scenario("su2-orbit-1"), checks={"hamiltonian"}, seed=5)
        assert a.canonical_json() == b.canonical_json()

    def test_quantize_and_reduce_subcommands(self, capsys):
        assert main(["quantize", "su2-orbit-1"]) == 0
        out = capsys.readouterr().out
        assert "dimension: 2" in out
        assert main(["reduce", "u1-rotation-reduction-2"]) == 0
        out = capsys.readouterr().out
        assert "qr-comparison" in out


@pytest.mark.parametrize("argv", [
    pytest.param(["run", "{bad}"], id="run-undecodable"),
    pytest.param(["report", "{bad}"], id="report-undecodable"),
    pytest.param(["report", "{dir}"], id="report-directory"),
    pytest.param(["run", "su2-orbit-k", "--level", "0", "--out", "{dir}"],
                 id="run-out-directory"),
])
def test_an_unreadable_file_exits_two(argv, tmp_path, capsys):
    """A file that is not UTF-8 or is a directory is an input error: exit 2
    and a one-line message, never a traceback."""
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff\xfe")
    assert main([arg.format(bad=bad, dir=tmp_path) for arg in argv]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.endswith("\n")
    assert "Traceback" not in err


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

    @pytest.mark.parametrize("family", list(SCENARIO_FAMILIES))
    def test_dumped_catalog_scenario_runs_without_fail(self, family, tmp_path, capsys):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(dump_scenario(build_scenario(family))))
        checks = ["--checks", "hamiltonian"] if family == "gauge-su2-k" else []
        assert main(["run", str(path), "--format", "json", *checks]) == 0
        records = json.loads(capsys.readouterr().out)["records"]
        assert records and "fail" not in {r["status"] for r in records}

    @pytest.mark.parametrize("path,value", [
        (("presymplectic", "samples", 0, "point"), [0.1, 0.2]),
        (("extras",), []),
        (("extras", "level"), "1"),
        (("extras", "degenerate_level"), 0),
        pytest.param(("momentum", "pairings", 0, 0, "value"), "(" * 3000 + "x" + ")" * 3000,
                     id="nested-3000-deep"),
        pytest.param(("momentum", "pairings", 0, 0, "value"), "37^9999999",
                     id="power-9999999"),
        pytest.param(("momentum", "pairings", 0, 0, "value"), "x^99999999",
                     id="power-degree-99999999"),
        pytest.param(("presymplectic", "samples", 0, "point", "x"), "nan", id="sample-nan"),
        pytest.param(("presymplectic", "samples", 1, "point", "u"), "-inf", id="sample-inf"),
        pytest.param(("model", "isotropy"), [7], id="isotropy-out-of-range"),
        pytest.param(("model", "isotropy"), ["a"], id="isotropy-not-an-index"),
        pytest.param(("model", "brackets", 0, "pair"), [0, 9], id="bracket-out-of-range"),
        pytest.param(("model", "brackets", 0, "pair"), [1, 1], id="bracket-diagonal"),
        pytest.param(("model", "brackets", 0, "coefficients"), ["1"],
                     id="bracket-one-coefficient"),
        pytest.param(("presymplectic", "samples", 0, "chart"), "Q", id="sample-unknown-chart"),
        pytest.param(("presymplectic", "samples", 0, "point"), {"x": "0.3"},
                     id="sample-missing-coordinate"),
        pytest.param(("momentum", "pairings", 0, 0, "chart"), "Q",
                     id="pairing-unknown-chart"),
        pytest.param(("extras", "integration"), "bogus", id="integration-unknown"),
        pytest.param(("extras", "integration"), "u1-weights",
                     id="integration-needs-quantization"),
        pytest.param(("extras",), {"integration": "sphere-family"},
                     id="integration-without-level"),
        pytest.param(("model", "anchors"), [], id="anchors-short"),
        pytest.param(("model", "generators"), ["e1", "e1", "e3"], id="generators-duplicate"),
        pytest.param(("extras", "integration"), "s1-plane", id="integration-s1-plane-two-charts"),
        pytest.param(("extras", "integration"), "sphere-family",
                     id="integration-sphere-family-on-su2-orbit"),
        pytest.param(("action", "fields", 0, "class"), "bogus", id="field-class-unknown"),
        pytest.param(("model", "anchors"), [{"class": "bogus", "components": []}] * 3,
                     id="anchor-class-unknown"),
        pytest.param(("presymplectic", "omega", "coefficients", 0, "index"), ["x"],
                     id="form-index-length"),
        pytest.param(("presymplectic", "omega", "degree"), 2.9, id="form-degree-float"),
        pytest.param(("presymplectic", "omega", "degree"), "2", id="form-degree-string"),
    ])
    def test_malformed_file_exits_two(self, path, value, tmp_path, capsys):
        data = _mutated(path, value)
        with pytest.raises(SchemaError) as raised:
            load_scenario(data)
        assert str(raised.value).count("scenario file invalid:") == 1
        file = tmp_path / "bad.json"
        file.write_text(json.dumps(data))
        assert main(["run", str(file)]) == 2
        err = capsys.readouterr().err
        assert "schema error" in err
        assert "Traceback" not in err

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_mutated_file_loads_or_raises_a_usage_error(self, data):
        path = data.draw(st.sampled_from(_paths()))
        value = data.draw(st.one_of(
            st.none(), st.booleans(), st.integers(-3, 3), st.floats(allow_nan=False),
            st.text(max_size=4), st.lists(st.integers(), max_size=2),
            st.dictionaries(st.text(max_size=2), st.integers(), max_size=2)))
        try:
            load_scenario(_mutated(path, value))
        except QuantbenchError:
            pass


@lru_cache(maxsize=None)
def _dumped_orbit():
    return json.dumps(dump_scenario(su2_orbit_scenario(1)))


def _paths():
    """Every block and field of the dumped su2-orbit-1 scenario, as key/index paths."""
    def walk(node, prefix):
        yield prefix
        items = node.items() if isinstance(node, dict) else \
            enumerate(node) if isinstance(node, list) else ()
        for key, child in items:
            yield from walk(child, prefix + (key,))
    return list(walk(json.loads(_dumped_orbit()), ()))[1:]


def _mutated(path, value):
    """The dumped su2-orbit-1 scenario with the value at `path` replaced."""
    data = json.loads(_dumped_orbit())
    node = data
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return data
