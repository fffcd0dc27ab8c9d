import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from haptosim import FunctionSpec, ModelParams, ValidationError, build_grid
from haptosim import config, harness
from haptosim.analysis import Claim, DecayFit, TheoremReport, TimeSeries
from haptosim.cli import main
from haptosim.config import (
    ConfigError,
    emit_outputs,
    output_dir,
    parse_config,
    scenario_to_config,
)
from haptosim.harness import (
    PRESETS,
    SERIES_NAMES,
    InitialSpec,
    RunResult,
    Scenario,
    preset_scenario,
    run,
)
from haptosim.model import PRIMITIVE, WEIGHTED, ScalarField, SimState
from haptosim.stepping import StepperConfig

BASE = {
    "model": {"regime": "custom", "mu": "1.0", "gamma": "1.0",
              "diffusion": "1.0", "taxis": "constant(0.5)",
              "production": "affine(1.0, 1.0)"},
    "grid": {"cells": "16", "extent": "1.0"},
    "stepper": {"t_end": "0.5", "dt_max": "0.05", "record_every": "0.1"},
    "initial": {"u0": "constant(1.0)", "v0": "bump(0.5, 0.15, 0.3, 0.4)",
                "m0": "constant(0.1)"},
}


def config_text(**overrides):
    """BASE document with entries overridden, added, or (value None) removed.

    Keys are section__key; a bare section name with value None drops the
    whole section.
    """
    sections = {name: dict(entries) for name, entries in BASE.items()}
    for dotted, value in overrides.items():
        if "__" not in dotted:
            assert value is None
            sections.pop(dotted, None)
            continue
        section, key = dotted.split("__", 1)
        entries = sections.setdefault(section, {})
        if value is None:
            entries.pop(key, None)
        else:
            entries[key] = value
    parts = []
    for section, entries in sections.items():
        parts.append(f"[{section}]")
        parts.extend(f"{key} = {value}" for key, value in entries.items())
        parts.append("")
    return "\n".join(parts)


# ---------------------------------------------------------------------------
# parsing and defaults


def test_parse_minimal_document():
    s = parse_config(config_text())
    assert s.regime == "custom"
    assert s.params.growth_rate == 1.0
    assert s.params.taxis == FunctionSpec.constant(0.5)
    assert s.grid.cells == (16,)
    assert s.stepper.t_end == 0.5
    assert s.initial_matrix == InitialSpec.bump(0.5, 0.15, 0.3, 0.4)
    assert s.source_text == config_text()


def test_parse_defaults():
    s = parse_config(config_text())
    assert s.name == "custom"          # falls back to the regime
    assert s.formulation == "primitive"
    assert s.grid.origin == (0.0,)
    assert s.stepper.cfl == 0.5
    assert s.seed == 0
    assert s.jitter == 0.0


def test_parse_optional_keys():
    for formulation in (PRIMITIVE, WEIGHTED):
        s = parse_config(config_text(
            model__name="named run", model__formulation=formulation,
            grid__origin="-1.0", stepper__cfl="0.25", stepper__flux="upwind",
            initial__seed="7", initial__jitter="0.01"))
        assert s.name == "named run"
        assert s.formulation == formulation
        assert s.grid.origin == (-1.0,)
        assert s.stepper.cfl == 0.25
        assert s.seed == 7
        assert s.jitter == 0.01


def test_upwind_flux_line_changes_nothing():
    with_line = parse_config(config_text(stepper__flux="upwind"))
    without = parse_config(config_text())
    assert with_line == without


@pytest.mark.parametrize("flux", ["centered", "quick"])
def test_flux_other_than_upwind_is_a_parse_error(flux, tmp_path, capsys):
    # upwind is the only drift flux; the key is kept so documents naming it parse
    text = config_text(stepper__flux=flux)
    lineno = text.splitlines().index(f"flux = {flux}") + 1
    message = f"line {lineno}: flux: upwind is the only drift flux, got '{flux}'"
    with pytest.raises(ConfigError, match=f"^{message}$") as info:
        parse_config(text)
    assert info.value.lineno == lineno
    cfg = write_config(tmp_path, text)
    assert main(["run", "-c", cfg, "-o", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "out").exists()


def test_parse_two_dimensional_grid():
    s = parse_config(config_text(grid__cells="8, 12",
                                 grid__extent="1.0, 2.0",
                                 grid__origin="0.0, -0.5"))
    assert s.grid.cells == (8, 12)
    assert s.grid.extents == (1.0, 2.0)
    assert s.grid.origin == (0.0, -0.5)


@pytest.mark.parametrize("formulation", ["primitive", "weighted"])
def test_parse_and_run_evaluate_the_initial_fields_once(formulation, monkeypatch):
    # the scenario validates itself as parse_config builds it, and run
    # starts from the fields it kept: one evaluation per field in all
    calls = []
    evaluate = InitialSpec.evaluate

    def counted(self, grid):
        calls.append(self.family)
        return evaluate(self, grid)
    monkeypatch.setattr(InitialSpec, "evaluate", counted)
    scenario = parse_config(config_text(model__formulation=formulation,
                                        initial__jitter="0.01"))
    assert len(calls) == 3
    result = run(scenario)
    assert len(calls) == 3
    assert result.initial_state.ecm.values is scenario.initial_fields[1].values


@pytest.mark.parametrize("key, value, message", [
    ("grid__extent", "1.0, 2.0, 3.0", "extent: extents has 3 entries, but cells has 2"),
    ("grid__origin", "0.0", None),
    ("grid__origin", "0.0, 0.5, 1.0", "origin: origin has 3 entries, but cells has 2"),
    ("grid__cells", "1", r"cells: need at least 2 cells per dim, got \(1,\)"),
    ("grid__extent", "-1.0", r"extent: extents must be positive finite, got \(-1.0, -1.0\)"),
    ("grid__origin", "nan", "origin: origin must be finite"),
], ids=["extent", "scalar-origin", "origin", "one-cell", "negative-extent",
        "nan-origin"])
def test_grid_length_errors_name_the_argument(key, value, message, tmp_path, capsys):
    # every [grid] error cites the line and the key of the entry at fault
    text = config_text(**{"grid__cells": "8, 8", "grid__extent": "1.0, 2.0",
                          key: value})
    cfg = write_config(tmp_path, text)
    if message is None:  # a single entry is broadcast to every axis
        assert parse_config(text).grid.origin == (0.0, 0.0)
        return
    lineno = text.splitlines().index(f"{key.split('__')[1]} = {value}") + 1
    with pytest.raises(ValidationError, match=f"^line {lineno}: {message}$"):
        parse_config(text)
    assert main(["run", "-c", cfg, "-o", str(tmp_path / "out")]) == 1
    assert re.fullmatch(f"error: line {lineno}: {message}\n", capsys.readouterr().err)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key, value, message", [
    ("model__regime", "theorem_9", "unknown regime 'theorem_9'; expected one of "
     "theorem_bound3, theorem_bound5, mu_zero_conservation, byrne_baseline, custom"),
    ("model__mu", "-1.0", "growth_rate must be finite and >= 0, got -1.0"),
    ("model__gamma", "0.0", "protease_decay must be positive and finite, got 0.0"),
    ("model__diffusion", "inf", "protease_diffusion must be positive and finite, got inf"),
    ("model__formulation", "mixed",
     "formulation must be 'primitive' or 'weighted', got 'mixed'"),
    ("stepper__t_end", "0.0", "t_end must be positive and finite, got 0.0"),
    ("stepper__dt_max", "nan", "dt_max must be positive and finite, got nan"),
    ("stepper__record_every", "-0.1", "record_every must be positive and finite, got -0.1"),
    ("stepper__cfl", "1.5", "cfl must be in (0, 1], got 1.5"),
    ("initial__seed", "-2", "seed must be an integer >= 0, got -2"),
    ("initial__jitter", "-0.1", "jitter must be finite and >= 0, got -0.1"),
], ids=["regime", "mu", "gamma", "diffusion", "formulation", "t_end", "dt_max",
        "record_every", "cfl", "seed", "jitter"])
def test_scalar_errors_name_the_line_and_key(key, value, message, tmp_path, capsys):
    # the model layer names the field it rejects, and the parser turns that
    # field into the document's key and line
    text = config_text(**{key: value})
    name = key.split("__")[1]
    lineno = text.splitlines().index(f"{name} = {value}") + 1
    located = f"line {lineno}: {name}: {message}"
    with pytest.raises(ValidationError) as info:
        parse_config(text)
    assert str(info.value) == located
    cfg = write_config(tmp_path, text)
    assert main(["run", "-c", cfg, "-o", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == f"error: {located}\n"
    assert not (tmp_path / "out").exists()


def test_byte_order_mark_is_ignored_and_echoed(tmp_path, capsys):
    text = "\ufeff" + config_text()
    assert parse_config(text) == parse_config(config_text())
    cfg = tmp_path / "bom.ini"
    cfg.write_bytes(text.encode("utf-8"))
    assert cfg.read_bytes()[:3] == b"\xef\xbb\xbf"
    assert main(["run", "-c", str(cfg), "-o", str(tmp_path / "out")]) == 0
    assert (tmp_path / "out" / "config_echo.ini").read_bytes() == cfg.read_bytes()
    capsys.readouterr()


def test_crlf_document_is_echoed_byte_for_byte(tmp_path, capsys):
    text = config_text().replace("\n", "\r\n")
    assert parse_config(text) == parse_config(config_text())
    cfg = tmp_path / "crlf.ini"
    cfg.write_bytes(text.encode("utf-8"))
    assert main(["run", "-c", str(cfg), "-o", str(tmp_path / "out")]) == 0
    assert (tmp_path / "out" / "config_echo.ini").read_bytes() == cfg.read_bytes()
    capsys.readouterr()


@pytest.mark.parametrize("edit", [
    lambda text: "# the same run\n" + text.replace("[grid]", "[grid]\n# a comment"),
    lambda text: text + "\n[output]\ndir = elsewhere\n",
], ids=["comment", "output-dir"])
def test_layout_does_not_change_the_scenario(edit):
    # a scenario means what it runs: its document's layout is not part of it
    plain, edited = config_text(), edit(config_text())
    assert plain != edited
    assert parse_config(plain) == parse_config(edited)
    assert hash(parse_config(plain)) == hash(parse_config(edited))
    assert parse_config(edited).source_text == edited


@pytest.mark.parametrize("key", ["output__dir", "model__name"])
def test_empty_value_is_a_parse_error(key):
    text = config_text(**{key: "  # nothing after the comment is stripped"})
    section, name = key.split("__")
    lineno = next(n for n, line in enumerate(text.splitlines(), start=1)
                  if line.startswith(f"{name} ="))
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert str(err.value) == f"line {lineno}: key {name!r} in [{section}] has no value"
    assert err.value.lineno == lineno
    with pytest.raises(ConfigError, match=f"key {name!r} in \\[{section}\\] has no value"):
        parse_config(config_text(**{key: ""}))


def test_cli_empty_output_dir_touches_nothing(tmp_path, capsys, monkeypatch):
    # an empty dir once meant the working directory: the run wrote its
    # artifacts there and deleted a report.txt an earlier run had left
    text = config_text(output__dir="")
    cfg = write_config(tmp_path, text)
    work = tmp_path / "work"
    work.mkdir()
    (work / "report.txt").write_text("kept")
    monkeypatch.chdir(work)
    assert main(["run", "-c", cfg]) == 1
    lineno = text.splitlines().index("dir = ") + 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: line {lineno}: key 'dir' in [output] has no value\n"
    assert sorted(p.name for p in work.iterdir()) == ["report.txt"]
    assert (work / "report.txt").read_text() == "kept"


def test_comments_and_blank_lines_ignored():
    text = ("# leading comment\n\n" +
            config_text().replace("mu = 1.0", "mu = 1.0   # logistic rate"))
    s = parse_config(text)
    assert s.params.growth_rate == 1.0


def test_output_dir_helper():
    assert output_dir(config_text()) is None
    assert output_dir(config_text(output__dir="/tmp/abc")) == "/tmp/abc"


# ---------------------------------------------------------------------------
# value grammar


def test_function_grammar_all_families():
    s = parse_config(config_text(
        model__taxis="saturating(2.0, 3.0)",
        model__production="tabulated(0.0:1.0, 0.5:2.0, 1.0:0.5)"))
    assert s.params.taxis == FunctionSpec.saturating(2.0, 3.0)
    assert s.params.production == FunctionSpec.tabulated(
        [0.0, 0.5, 1.0], [1.0, 2.0, 0.5])


def test_initial_grammar_all_kinds():
    s = parse_config(config_text(
        initial__u0="bump(0.5, 0.1, 0.2)",
        initial__v0="tabulated(0.0:0.1, 1.0:0.9)"))
    assert s.initial_cells == InitialSpec.bump(0.5, 0.1, 0.2)   # offset 0
    assert s.initial_cells.coeffs[3] == 0.0
    assert s.initial_matrix == InitialSpec.tabulated([0.0, 1.0], [0.1, 0.9])


def test_function_grammar_rejects_unknown_family():
    with pytest.raises(ConfigError) as err:
        parse_config(config_text(model__taxis="cubic(1.0)"))
    assert "constant(c), affine(a, b)" in str(err.value)
    assert "cubic" in str(err.value)


def test_function_grammar_rejects_missing_parens():
    with pytest.raises(ConfigError, match="expected name\\(args\\)"):
        parse_config(config_text(model__taxis="0.5"))


def test_tabulated_rejects_bad_pair():
    with pytest.raises(ConfigError, match="expected x:y pair"):
        parse_config(config_text(model__production="tabulated(0.0, 1.0)"))


def test_initial_grammar_rejects_bad_arity():
    with pytest.raises(ConfigError) as err:
        parse_config(config_text(initial__u0="bump(0.5)"))
    assert "bump(center, width, amplitude[, offset])" in str(err.value)


def test_number_errors_cite_the_line():
    text = config_text(model__mu="fast")
    lineno = text.splitlines().index("mu = fast") + 1
    with pytest.raises(ConfigError, match=f"line {lineno}: expected a number"):
        parse_config(text)


def test_cells_must_be_integers():
    with pytest.raises(ConfigError, match="expected an integer"):
        parse_config(config_text(grid__cells="16.5"))


# ---------------------------------------------------------------------------
# structural errors


def test_unknown_section_rejected():
    with pytest.raises(ConfigError) as err:
        parse_config("[solver]\n")
    assert "line 1: unknown section [solver]" in str(err.value)
    assert err.value.lineno == 1


def test_malformed_section_header_rejected():
    with pytest.raises(ConfigError, match="line 1: malformed section header"):
        parse_config("[model\nregime = custom\n")


def test_duplicate_section_rejected():
    text = config_text() + "[grid]\n"
    lineno = len(text.splitlines())
    with pytest.raises(ConfigError,
                       match=f"line {lineno}: duplicate section"):
        parse_config(text)


def test_unknown_key_rejected():
    with pytest.raises(ConfigError) as err:
        parse_config("[model]\nregime = custom\nbogus = 3\n")
    assert "line 3: unknown key 'bogus' in [model]" in str(err.value)


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError) as err:
        parse_config("[model]\nmu = 1.0\nmu = 2.0\n")
    assert "line 3: duplicate key 'mu' in [model]" in str(err.value)


def test_missing_equals_rejected():
    with pytest.raises(ConfigError, match="line 2: expected key = value"):
        parse_config("[model]\nregime custom\n")


def test_key_before_section_rejected():
    with pytest.raises(ConfigError, match="line 1: key before any section"):
        parse_config("mu = 1.0\n")


def test_missing_section_rejected():
    with pytest.raises(ConfigError) as err:
        parse_config(config_text(stepper=None))
    assert str(err.value) == "missing section [stepper]"
    assert err.value.lineno is None


def test_missing_required_key_rejected():
    with pytest.raises(ConfigError,
                       match="missing required key 'gamma' in \\[model\\]"):
        parse_config(config_text(model__gamma=None))


# ---------------------------------------------------------------------------
# semantic errors come from the model layer, not the parser


def test_negative_mu_is_a_validation_error():
    with pytest.raises(ValidationError, match="growth_rate"):
        parse_config(config_text(model__mu="-1.0"))


def test_regime_hypotheses_checked_on_parse():
    text = config_text(model__regime="theorem_bound3",
                       model__production="affine(0.0, 1.0)")
    with pytest.raises(ValidationError,
                       match="g must have a positive floor"):
        parse_config(text)


def test_negative_initial_data_rejected():
    with pytest.raises(ValidationError, match="m0 must be nonnegative"):
        parse_config(config_text(initial__m0="constant(-0.1)"))


# ---------------------------------------------------------------------------
# rendering round trips


@pytest.mark.parametrize("name", PRESETS)
def test_preset_round_trip(name):
    scenario = preset_scenario(name)
    assert parse_config(scenario_to_config(scenario)) == scenario


def test_custom_round_trip_keeps_every_field():
    scenario = Scenario(
        name="probe", regime="custom",
        params=ModelParams(0.7, 1.3, 2.0, FunctionSpec.saturating(1.5, 4.0),
                           FunctionSpec.tabulated([0.0, 1.0], [0.2, 0.9])),
        grid=build_grid((8, 8), (1.0, 2.0), (0.0, -1.0)),
        stepper=StepperConfig(0.3, 0.01, 0.1, cfl=0.4),
        initial_cells=InitialSpec.tabulated([0.0, 1.0], [1.0, 2.0]),
        initial_matrix=InitialSpec.bump(0.5, 0.2, 0.3, 0.1),
        initial_protease=InitialSpec.constant(0.0),
        seed=3, jitter=0.02)
    for case in (scenario, replace(scenario, formulation=WEIGHTED)):
        assert parse_config(scenario_to_config(case)) == case


@settings(max_examples=25, deadline=None)
@given(mu=st.floats(0.0, 1e6), gamma=st.floats(1e-6, 1e6),
       diffusion=st.floats(1e-6, 1e6), chi0=st.floats(0.0, 1e3),
       center=st.floats(0.1, 0.9), width=st.floats(0.01, 0.5),
       amplitude=st.floats(1e-3, 1e3))
def test_round_trip_is_exact_for_arbitrary_floats(mu, gamma, diffusion, chi0,
                                                  center, width, amplitude):
    # repr() rendering must reproduce the exact doubles on re-parse
    scenario = Scenario(
        name="fuzz", regime="custom",
        params=ModelParams(diffusion, gamma, mu, FunctionSpec.constant(chi0),
                           FunctionSpec.affine(1.0, 1.0)),
        grid=build_grid(8, 1.0),
        stepper=StepperConfig(0.5, 0.05, 0.1),
        initial_cells=InitialSpec.bump(center, width, amplitude, 0.5),
        initial_matrix=InitialSpec.constant(0.4),
        initial_protease=InitialSpec.constant(0.1))
    assert parse_config(scenario_to_config(scenario)) == scenario


_NUMBER = st.floats(-1e6, 1e6)
_NONNEG = st.floats(0.0, 1e6)


def _tables(xs):
    """(nodes, table) with strictly increasing nodes drawn from ``xs``."""
    pairs = st.lists(st.tuples(xs, _NONNEG), min_size=2, max_size=6,
                     unique_by=lambda p: p[0])
    return pairs.map(lambda ps: tuple(zip(*sorted(ps))))


# every family of both spec types, over numbers the validators accept
SPEC_STRATEGIES = {
    "function-constant": st.builds(FunctionSpec.constant, _NONNEG),
    "function-affine": st.builds(FunctionSpec.affine, _NONNEG, _NONNEG),
    "function-saturating": st.tuples(_NONNEG, _NUMBER).filter(
        lambda cs: cs[0] + cs[1] >= 0).map(lambda cs: FunctionSpec.saturating(*cs)),
    "function-tabulated": _tables(_NONNEG).map(lambda nt: FunctionSpec.tabulated(*nt)),
    "initial-constant": st.builds(InitialSpec.constant, _NONNEG),
    "initial-bump": st.builds(InitialSpec.bump, _NUMBER, st.floats(1e-3, 1e6),
                              _NONNEG, _NONNEG),
    "initial-tabulated": _tables(_NUMBER).map(lambda nt: InitialSpec.tabulated(*nt)),
}


@pytest.mark.parametrize("kind", sorted(SPEC_STRATEGIES))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_round_trip_is_exact_for_every_family(kind, data):
    spec = data.draw(SPEC_STRATEGIES[kind])
    functions = [spec] * 2 if isinstance(spec, FunctionSpec) else [
        FunctionSpec.constant(0.5), FunctionSpec.affine(1.0, 1.0)]
    initials = [spec] * 3 if isinstance(spec, InitialSpec) else [
        InitialSpec.constant(1.0)] * 3
    scenario = Scenario(
        name="fuzz", regime="custom",
        params=ModelParams(1.0, 1.0, 1.0, *functions),
        grid=build_grid(8, 1.0), stepper=StepperConfig(0.5, 0.05, 0.1),
        initial_cells=initials[0], initial_matrix=initials[1],
        initial_protease=initials[2])
    assert parse_config(scenario_to_config(scenario)) == scenario


# ---------------------------------------------------------------------------
# run artifacts


@pytest.fixture(scope="module")
def tiny_result():
    return run(parse_config(config_text()))


def test_emit_writes_expected_files(tiny_result, tmp_path):
    paths = emit_outputs(tiny_result, None, tmp_path / "out")
    assert all(p.exists() for p in paths)
    names = [p.name for p in paths]
    assert names[0] == "series.csv"
    assert names[-1] == "config_echo.ini"
    assert "report.txt" not in names
    snapshots = sorted((tmp_path / "out" / "snapshots").iterdir())
    assert len(snapshots) == len(tiny_result.recorded_states)


def test_series_csv_reads_back_losslessly(tiny_result, tmp_path):
    emit_outputs(tiny_result, None, tmp_path)
    lines = (tmp_path / "series.csv").read_text().splitlines()
    header = lines[0].split(",")
    assert header == ["t"] + list(SERIES_NAMES)
    assert len(lines) == 1 + len(tiny_result.recorded_states)
    for i, line in enumerate(lines[1:]):
        cells = [float(x) for x in line.split(",")]
        assert cells[0] == tiny_result.series[SERIES_NAMES[0]].t[i]
        for name, value in zip(SERIES_NAMES, cells[1:]):
            assert value == tiny_result.series[name].values[i]


def test_series_csv_with_no_series_is_header_only(tiny_result, tmp_path):
    emit_outputs(replace(tiny_result, series={}), None, tmp_path)
    assert (tmp_path / "series.csv").read_text() == "t\n"


def test_snapshot_names_and_columns(tiny_result, tmp_path):
    emit_outputs(tiny_result, None, tmp_path)
    snap = tmp_path / "snapshots" / "state_0.000000.csv"
    assert snap.exists()
    assert (tmp_path / "snapshots" / "state_0.500000.csv").exists()
    lines = snap.read_text().splitlines()
    assert lines[0] == "i,x,u,v,m"
    assert len(lines) == 1 + 16
    first = lines[1].split(",")
    assert first[0] == "0"
    assert float(first[2]) == 1.0          # u0 = constant(1.0)
    state = tiny_result.recorded_states[0]
    assert float(first[3]) == float(state.ecm.values[0])


def test_snapshots_store_primitive_cells_for_weighted_runs(tmp_path):
    scenario = parse_config(config_text(model__formulation="weighted",
                                        stepper__t_end="0.1"))
    result = run(scenario)
    emit_outputs(result, None, tmp_path)
    lines = (tmp_path / "snapshots" / "state_0.000000.csv").read_text().splitlines()
    u = np.array([float(line.split(",")[2]) for line in lines[1:]])
    assert np.max(np.abs(u - 1.0)) < 1e-12


@pytest.mark.parametrize("formulation", ["primitive", "weighted"])
@pytest.mark.parametrize("cells, extent", [("5, 4", "1.0, 2.0"),
                                           ("4, 3, 2", "1.0, 0.7, 1.3")],
                         ids=["2d", "3d"])
def test_snapshots_read_back_exactly(cells, extent, formulation, tmp_path):
    scenario = parse_config(config_text(
        grid__cells=cells, grid__extent=extent, model__formulation=formulation,
        stepper__t_end="0.1", stepper__record_every="0.05", initial__jitter="0.1"))
    result = run(scenario)
    emit_outputs(result, None, tmp_path)
    grid = scenario.grid
    names = ["i", "j", "k"][:grid.dims] + ["x", "y", "z"][:grid.dims] + ["u", "v", "m"]
    assert len(list((tmp_path / "snapshots").iterdir())) == 3
    for state in result.recorded_states:
        path = tmp_path / "snapshots" / f"state_{state.t:.6f}.csv"
        assert path.read_text().split("\n", 1)[0] == ",".join(names)
        table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        assert state.formulation == formulation
        indices = np.meshgrid(*(np.arange(n) for n in grid.shape), indexing="ij")
        expected = np.column_stack(
            [f.ravel() for f in (*indices, *grid.centers(), state.cells.values,
                                 state.ecm.values, state.protease.values)])
        np.testing.assert_array_equal(table, expected)


def test_snapshot_bytes_2d(tmp_path):
    # integer-valued numbers print bare (indices "0", u "1"); others at .17g
    scenario = parse_config(config_text(
        grid__cells="2, 2", grid__extent="1.0, 2.0", initial__v0="constant(0.1)",
        initial__m0="constant(0.25)", stepper__t_end="0.1"))
    emit_outputs(run(scenario), None, tmp_path)
    lines = (tmp_path / "snapshots" / "state_0.000000.csv").read_text().split("\n")
    assert lines[:2] == ["i,j,x,y,u,v,m", "0,0,0.25,0.5,1,0.10000000000000001,0.25"]


def test_snapshot_name_collision_raises_before_writing(tmp_path):
    scenario = replace(preset_scenario("byrne_baseline"),
                       stepper=StepperConfig(0.1000004, 0.01, 0.05))
    result = run(scenario)
    assert len(result.recorded_states) == 4
    first, second = (repr(s.t) for s in result.recorded_states[2:])
    with pytest.raises(ValidationError, match="state_0.100000.csv") as info:
        emit_outputs(result, None, tmp_path / "out")
    assert f"t={first}" in str(info.value) and f"t={second}" in str(info.value)
    assert not (tmp_path / "out").exists()


def savetxt_bytes(path, header, columns):
    """What ``np.savetxt`` writes for the columns: the writer's byte oracle."""
    np.savetxt(path, np.column_stack(columns), fmt="%.17g", delimiter=",",
               header=",".join(header), comments="")
    return path.read_bytes()


def awkward_values(rng, n, special):
    """Doubles over the whole exponent range, led by the ``special`` ones."""
    values = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
    values[:len(special)] = special[:n]
    return values


SPECIAL = [-0.0, np.nan, np.inf, -np.inf, 5e-324, 1e308, 3.0, -7.0, 2.0**53, 0.1]


@pytest.mark.parametrize("cells, extent", [
    ("127", "1.0"), ("128", "0.7"), ("129", "3.0"), ("130", "1.0"),
    ("5, 4", "1.0, 2.0"), ("5, 4, 3", "1.2, 1.0, 0.8")],
    ids=["1d-127", "1d-128", "1d-129", "1d-130", "2d", "3d"])
def test_snapshot_bytes_match_savetxt(cells, extent, tmp_path):
    dims = len(cells.split(","))
    scenario = parse_config(config_text(grid__cells=cells, grid__extent=extent,
                                        grid__origin=", ".join(["-0.3"] * dims)))
    grid = scenario.grid
    rng = np.random.default_rng(11)

    def field():
        values = awkward_values(rng, int(np.prod(grid.shape)), SPECIAL)
        return ScalarField(grid, values.reshape(grid.shape))

    states = [SimState(t, field(), field(), field()) for t in (0.0, 0.25)]
    emit_outputs(RunResult(scenario, states, {}, 0.0, 0.0), None, tmp_path / "out")
    header = ["i", "j", "k"][:dims] + ["x", "y", "z"][:dims] + ["u", "v", "m"]
    indices = np.meshgrid(*(np.arange(n) for n in grid.shape), indexing="ij")
    for state in states:
        columns = [f.ravel() for f in (*indices, *grid.centers(), state.cells.values,
                                       state.ecm.values, state.protease.values)]
        written = tmp_path / "out" / "snapshots" / f"state_{state.t:.6f}.csv"
        assert written.read_bytes() == savetxt_bytes(tmp_path / "oracle.csv",
                                                     header, columns)


@pytest.mark.parametrize("rows", [0, 1, 300])
def test_series_bytes_match_savetxt(tiny_result, rows, tmp_path):
    rng = np.random.default_rng(rows)
    t = np.cumsum(rng.uniform(0.01, 1.0, rows))
    # a series holds finite samples only
    finite = [-0.0, 5e-324, 1e308, 3.0, -7.0, 2.0**53, 0.1]
    series = {name: TimeSeries(name, t, awkward_values(rng, rows, finite))
              for name in ("alpha", "beta")}
    emit_outputs(replace(tiny_result, series=series), None, tmp_path / "out")
    expected = savetxt_bytes(tmp_path / "oracle.csv", ["t", "alpha", "beta"],
                             [t] + [s.values for s in series.values()])
    assert (tmp_path / "out" / "series.csv").read_bytes() == expected


def test_rerun_deletes_stale_snapshots_and_nothing_else(tmp_path):
    base = preset_scenario("byrne_baseline")
    fine = run(replace(base, stepper=StepperConfig(0.05, 0.01, 0.01)))
    coarse = run(replace(base, stepper=StepperConfig(0.05, 0.01, 0.025)))
    out = tmp_path / "out"
    emit_outputs(fine, None, out)
    assert len(list((out / "snapshots").iterdir())) == 6
    (out / "notes.txt").write_text("kept")
    (out / "snapshots" / "other.csv").write_text("kept")
    emit_outputs(coarse, None, out)
    assert sorted(p.name for p in (out / "snapshots").iterdir()) == [
        "other.csv", "state_0.000000.csv", "state_0.025000.csv", "state_0.050000.csv"]
    assert (out / "notes.txt").read_text() == "kept"
    assert (out / "snapshots" / "other.csv").read_text() == "kept"


def test_run_without_report_deletes_stale_report(tiny_result, tmp_path):
    report = TheoremReport(regime="custom", claims=(
        Claim("mass_cap", "pass", 1.0, 0.5),))
    emit_outputs(tiny_result, report, tmp_path)
    assert (tmp_path / "report.txt").exists()
    paths = emit_outputs(tiny_result, None, tmp_path)
    assert not (tmp_path / "report.txt").exists()
    assert all(p.exists() for p in paths)


def test_snapshot_name_collision_leaves_old_artifacts_untouched(tmp_path):
    scenario = replace(preset_scenario("byrne_baseline"),
                       stepper=StepperConfig(0.1000004, 0.01, 0.05))
    stale = tmp_path / "snapshots" / "state_9.000000.csv"
    stale.parent.mkdir()
    stale.write_text("old")
    (tmp_path / "report.txt").write_text("old")
    with pytest.raises(ValidationError, match="state_0.100000.csv"):
        emit_outputs(run(scenario), None, tmp_path)
    assert sorted(p.name for p in tmp_path.rglob("*")) == [
        "report.txt", "snapshots", "state_9.000000.csv"]
    assert stale.read_text() == "old"
    assert (tmp_path / "report.txt").read_text() == "old"


def writers(monkeypatch, cpus):
    """Let the writer see ``cpus`` usable CPUs; returns the list of its forks."""
    forks, real_fork = [], os.fork

    def fork():
        forks.append(os.getpid())
        return real_fork()

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)),
                        raising=False)
    monkeypatch.setattr(os, "fork", fork)
    return forks


def tree_bytes(root):
    return {p.relative_to(root): p.read_bytes() for p in root.rglob("*") if p.is_file()}


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="writes in one process")
def test_snapshot_bytes_do_not_depend_on_the_number_of_writers(tiny_result, tmp_path,
                                                                monkeypatch):
    report = TheoremReport(regime="custom", claims=(Claim("mass_cap", "pass", 1.0, 0.5),))
    trees, path_lists = [], []
    for cpus, fork_count in ((1, 0), (3, 2)):
        forks = writers(monkeypatch, cpus)
        out = tmp_path / f"cpus{cpus}"
        paths = emit_outputs(tiny_result, report, out)
        assert len(forks) == fork_count
        trees.append(tree_bytes(out))
        path_lists.append([p.relative_to(out) for p in paths])
        assert_no_child_left()
    assert len(tiny_result.recorded_states) == 6
    assert trees[0] == trees[1]
    assert path_lists[0] == path_lists[1]
    assert sorted(path_lists[0]) == sorted(trees[0])


@pytest.mark.skipif(not hasattr(os, "fork"), reason="writes in one process")
def test_snapshot_shares_whose_fork_failed_are_written_by_the_caller(
        tiny_result, tmp_path, monkeypatch):
    emit_outputs(tiny_result, None, tmp_path / "expected")

    def fork():
        raise OSError("fork refused")

    writers(monkeypatch, 3)
    monkeypatch.setattr(os, "fork", fork)
    emit_outputs(tiny_result, None, tmp_path / "out")
    assert tree_bytes(tmp_path / "out") == tree_bytes(tmp_path / "expected")


def test_snapshot_writes_work_without_fork(tiny_result, tmp_path, monkeypatch):
    emit_outputs(tiny_result, None, tmp_path / "expected")
    monkeypatch.delattr(os, "fork", raising=False)
    emit_outputs(tiny_result, None, tmp_path / "out")
    assert tree_bytes(tmp_path / "out") == tree_bytes(tmp_path / "expected")


@pytest.mark.skipif(not hasattr(os, "fork"), reason="writes in one process")
def test_failed_snapshot_writes_raise_one_error_and_leave_no_child(
        tiny_result, tmp_path, monkeypatch):
    # with 3 writers the six records go to shares [0, 3], [1, 4] and [2, 5];
    # the first share is the caller's
    writers(monkeypatch, 3)
    blocked = [tmp_path / "snapshots" / f"state_{t:.6f}.csv" for t in (0.0, 0.1)]
    for path in blocked:
        path.mkdir(parents=True)
    with pytest.raises(OSError) as info:
        emit_outputs(tiny_result, None, tmp_path)
    assert_no_child_left()
    assert all(str(path) in str(info.value) for path in blocked)
    assert str(info.value).count("Is a directory") == 2
    written = {p.name for p in (tmp_path / "snapshots").iterdir() if p.is_file()}
    assert written == {f"state_{t:.6f}.csv" for t in (0.2, 0.3, 0.4, 0.5)}


@pytest.mark.skipif(not hasattr(os, "fork"), reason="writes in one process")
def test_a_writer_that_dies_is_named_with_its_files(tiny_result, tmp_path, monkeypatch):
    caller, write_table = os.getpid(), config._write_table

    def dies_in_child(path, *args):
        if os.getpid() != caller:
            os._exit(3)
        return write_table(path, *args)

    writers(monkeypatch, 2)
    monkeypatch.setattr(config, "_write_table", dies_in_child)
    with pytest.raises(OSError, match="writer process exited with code 3") as info:
        emit_outputs(tiny_result, None, tmp_path)
    assert_no_child_left()
    # the child's share is records 1, 3 and 5
    for t in (0.1, 0.3, 0.5):
        assert f"state_{t:.6f}.csv" in str(info.value)
    assert "state_0.000000.csv" not in str(info.value)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="writes in one process")
def test_an_interrupted_caller_reaps_its_writers(tiny_result, tmp_path, monkeypatch):
    caller, write_table = os.getpid(), config._write_table

    def interrupted_in_caller(path, *args):
        if os.getpid() == caller and path.parent.name == "snapshots":
            raise KeyboardInterrupt
        return write_table(path, *args)

    writers(monkeypatch, 3)
    monkeypatch.setattr(config, "_write_table", interrupted_in_caller)
    with pytest.raises(KeyboardInterrupt):
        emit_outputs(tiny_result, None, tmp_path)
    assert_no_child_left()
    # both children finished their shares
    written = {p.name for p in (tmp_path / "snapshots").iterdir()}
    assert written == {f"state_{t:.6f}.csv" for t in (0.1, 0.2, 0.4, 0.5)}


SRC = Path(__file__).resolve().parents[1] / "src"

EMIT_PEAK = """
import os, re, sys, tempfile
from pathlib import Path
from haptosim.config import emit_outputs, parse_config
from haptosim.harness import run

def peak_kib():
    status = Path("/proc/self/status").read_text()
    return int(re.search(r"VmHWM:\\s*(\\d+) kB", status).group(1))

result = run(parse_config(sys.stdin.read()))
assert len(result.recorded_states) == 41
# on one CPU the writer forks no child, so this process does the whole write
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
with tempfile.TemporaryDirectory() as out:
    before = peak_kib()
    emit_outputs(result, None, out)
    print(peak_kib() - before)
"""


@pytest.mark.skipif(sys.platform != "linux", reason="reads /proc/self/status")
def test_emit_outputs_peak_memory_stays_flat():
    # 41 snapshots of a 24x20x16 weighted run, in a fresh interpreter so
    # that the peak is this run's alone.  The peak is VmHWM, not ru_maxrss:
    # on Linux a child's ru_maxrss starts from the high-water mark of the
    # process that started it, which here is the whole test session.
    # Formatting 1024-row blocks or whole records raised it by 4.4-4.8 MB
    text = config_text(
        model__taxis="constant(1.0)", model__production="affine(0.0, 1.0)",
        model__formulation="weighted", grid__cells="24, 20, 16",
        grid__extent="1.2, 1.0, 0.8", stepper__t_end="0.4",
        stepper__dt_max="0.01", stepper__record_every="0.01",
        initial__u0="bump(0.4, 0.15, 0.75)", initial__v0="constant(1.0)",
        initial__m0="constant(0.0)")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", EMIT_PEAK], input=text, env=env,
                          capture_output=True, text=True, check=True)
    assert int(proc.stdout) < 1024


def test_report_lines_carry_verdict_and_numbers(tiny_result, tmp_path):
    fit = DecayFit(rate=0.9, amplitude=0.1, r_squared=0.995,
                   window=(1.0, 2.0), n_samples=11)
    report = TheoremReport(regime="custom", claims=(
        Claim("alpha_decay", "pass", 0.95, 0.995, fit),
        Claim("mass_cap", "fail", 1.0, 1.5)))
    emit_outputs(tiny_result, report, tmp_path)
    lines = (tmp_path / "report.txt").read_text().splitlines()
    assert len(lines) == 2
    assert lines[0][:32].rstrip() == "alpha_decay"
    assert "pass" in lines[0]
    assert "measured=0.995" in lines[0]
    assert "rate=0.9" in lines[0] and "r_squared=0.995" in lines[0]
    assert "fail" in lines[1]
    assert "measured=1.5" in lines[1] and "threshold=1" in lines[1]
    assert "rate=" not in lines[1]


def test_config_echo_reproduces_the_input(tiny_result, tmp_path):
    emit_outputs(tiny_result, None, tmp_path)
    echo = (tmp_path / "config_echo.ini").read_text()
    assert echo == tiny_result.scenario.source_text
    parsed = parse_config(echo)
    assert parsed == tiny_result.scenario


def test_config_echo_falls_back_to_canonical_render(tiny_result, tmp_path):
    # replace() carries the parsed text along, which describes the scenario
    # it started from
    scenario = replace(tiny_result.scenario, name="renamed")
    assert scenario.source_text == tiny_result.scenario.source_text
    emit_outputs(replace(tiny_result, scenario=scenario), None, tmp_path)
    echo = (tmp_path / "config_echo.ini").read_text()
    assert echo == scenario_to_config(scenario)
    assert parse_config(echo) == scenario


def test_replaced_stepper_is_echoed(tmp_path):
    text = scenario_to_config(preset_scenario("byrne_baseline")).replace(
        "t_end = 10.0", "t_end = 0.05")
    parsed = parse_config(text)
    assert parsed.stepper.t_end == 0.05
    scenario = replace(parsed, stepper=replace(parsed.stepper, t_end=0.1))
    emit_outputs(run(scenario), None, tmp_path)
    echoed = parse_config((tmp_path / "config_echo.ini").read_text())
    assert echoed.stepper.t_end == 0.1
    assert echoed == scenario


@pytest.mark.parametrize("text", [None, config_text(stepper__t_end="0.25")],
                         ids=["no-text", "other-text"])
def test_config_echo_of_a_scenario_built_by_hand(text, tiny_result, tmp_path):
    parsed = tiny_result.scenario
    scenario = Scenario(
        name="by hand", regime="custom", params=parsed.params, grid=parsed.grid,
        stepper=parsed.stepper, initial_cells=parsed.initial_cells,
        initial_matrix=parsed.initial_matrix,
        initial_protease=parsed.initial_protease, source_text=text)
    emit_outputs(replace(tiny_result, scenario=scenario), None, tmp_path)
    assert (tmp_path / "config_echo.ini").read_text() == scenario_to_config(scenario)


def test_config_echo_text_that_does_not_parse_raises_first(tiny_result, tmp_path):
    scenario = replace(tiny_result.scenario, source_text="[model\n")
    with pytest.raises(ConfigError, match="line 1: malformed section header"):
        emit_outputs(replace(tiny_result, scenario=scenario), None, tmp_path / "out")
    assert not (tmp_path / "out").exists()


def test_convergence_levels_echo_their_own_grids(tmp_path, monkeypatch):
    # each level refines the parsed scenario and carries its text along
    results = []

    def kept(level):
        results.append(run(level))
        return results[-1]
    monkeypatch.setattr(harness, "run", kept)
    harness.convergence_study(parse_config(config_text(
        grid__cells="8", stepper__t_end="0.02", stepper__dt_max="0.002",
        stepper__record_every="0.02")), levels=3)
    assert [r.scenario.grid.cells for r in results] == [(8,), (16,), (32,)]
    for level, result in enumerate(results):
        emit_outputs(result, None, tmp_path / str(level))
        echo = (tmp_path / str(level) / "config_echo.ini").read_text()
        assert parse_config(echo) == result.scenario
    assert (tmp_path / "0" / "config_echo.ini").read_text() == results[0].scenario.source_text


# ---------------------------------------------------------------------------
# command line


def write_config(tmp_path, text, name="case.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_cli_run_writes_outputs(tmp_path, capsys):
    cfg = write_config(tmp_path, config_text())
    out = tmp_path / "out"
    assert main(["run", "-c", cfg, "-o", str(out)]) == 0
    assert (out / "series.csv").exists()
    assert not (out / "report.txt").exists()
    assert "completed custom" in capsys.readouterr().out


def test_cli_run_uses_config_output_dir(tmp_path, capsys):
    out = tmp_path / "from_config"
    cfg = write_config(tmp_path, config_text(output__dir=str(out)))
    assert main(["run", "-c", cfg]) == 0
    assert (out / "series.csv").exists()
    capsys.readouterr()


def test_cli_run_without_output_dir_fails(tmp_path, capsys):
    cfg = write_config(tmp_path, config_text())
    assert main(["run", "-c", cfg]) == 1
    assert "no output directory" in capsys.readouterr().err


def test_cli_reports_parse_errors(tmp_path, capsys):
    cfg = write_config(tmp_path, "[model]\nbogus = 3\n")
    assert main(["run", "-c", cfg, "-o", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: line 2: unknown key")


def test_cli_reports_snapshot_name_collision(tmp_path, capsys):
    cfg = write_config(tmp_path, config_text(
        stepper__t_end="0.1000004", stepper__dt_max="0.01",
        stepper__record_every="0.05"))
    assert main(["run", "-c", cfg, "-o", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: records at t=") and "state_0.100000.csv" in err


def test_cli_rerun_removes_stale_artifacts(tmp_path, capsys):
    conserved = dict(model__regime="mu_zero_conservation", model__mu="0.0",
                     model__production="affine(0.0, 1.0)")
    fine = write_config(tmp_path, config_text(**conserved), "fine.ini")
    coarse = write_config(tmp_path, config_text(
        **conserved, stepper__record_every="0.25"), "coarse.ini")
    out = tmp_path / "out"
    assert main(["verify", "-c", fine, "-o", str(out)]) == 0
    assert (out / "report.txt").exists()
    assert len(list((out / "snapshots").iterdir())) == 6
    assert main(["run", "-c", coarse, "-o", str(out)]) == 0
    assert not (out / "report.txt").exists()
    assert sorted(p.name for p in (out / "snapshots").iterdir()) == [
        "state_0.000000.csv", "state_0.250000.csv", "state_0.500000.csv"]
    capsys.readouterr()


@pytest.mark.parametrize("v0", ["constant(nan)", "bump(0.5, 0.1, inf)"])
def test_cli_reports_non_finite_initial_data(tmp_path, capsys, v0):
    cfg = write_config(tmp_path, config_text(initial__v0=v0))
    assert main(["run", "-c", cfg, "-o", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "v0 must be finite everywhere" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key", ["model__production", "model__taxis"])
def test_cli_reports_non_finite_table(tmp_path, capsys, key):
    # this used to parse, then fail in the first step as a solver blow-up
    cfg = write_config(tmp_path, config_text(**{key: "tabulated(nan:1.0, 1.0:2.0)"}))
    assert main(["verify", "-c", cfg, "-o", str(tmp_path / "out")]) == 1
    lineno, name = {"model__taxis": (6, "taxis"),
                    "model__production": (7, "production")}[key]
    assert capsys.readouterr().err == (
        f"error: line {lineno}: {name}: tabulated nodes and table must be finite, "
        "got nodes (nan, 1.0) and table (1.0, 2.0)\n")
    assert not (tmp_path / "out").exists()


def test_cli_reports_the_line_and_key_of_a_bad_initial_field(tmp_path, capsys):
    cfg = write_config(tmp_path, config_text(initial__u0="bump(0.5, 0.0, 1.0)"))
    assert main(["run", "-c", cfg, "-o", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == (
        "error: line 19: u0: bump width must be positive, got 0.0\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key, value, message", [
    ("u0", "constant(-1.0)", "u0 must be nonnegative everywhere"),
    ("v0", "constant(nan)", "v0 must be finite everywhere"),
    ("m0", "constant(-inf)", "m0 must be finite everywhere"),
], ids=["u0", "v0", "m0"])
def test_evaluated_initial_field_errors_name_the_line_and_key(key, value, message,
                                                              tmp_path, capsys):
    text = config_text(**{f"initial__{key}": value})
    lineno = text.splitlines().index(f"{key} = {value}") + 1
    cfg = write_config(tmp_path, text)
    assert main(["run", "-c", cfg, "-o", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == f"error: line {lineno}: {key}: {message}\n"
    assert not (tmp_path / "out").exists()
    # the recipe is at fault before any jitter, so the line is cited with it too
    text = config_text(**{f"initial__{key}": value, "initial__jitter": "0.1"})
    jittered = write_config(tmp_path, text, "jittered.ini")
    assert main(["run", "-c", jittered, "-o", str(tmp_path / "out")]) == 1
    lineno = text.splitlines().index(f"{key} = {value}") + 1
    assert capsys.readouterr().err == f"error: line {lineno}: {key}: {message}\n"
    assert not (tmp_path / "out").exists()


def test_a_fault_only_the_jitter_brings_cites_no_line(tmp_path, capsys):
    # 1 + N(0, 1) noise drives some of the 16 cells of u0 = 1 negative; the
    # fault is shared with seed and jitter, so no one line is cited
    cfg = write_config(tmp_path, config_text(initial__u0="constant(1.0)",
                                             initial__jitter="1"))
    assert main(["run", "-c", cfg, "-o", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == "error: u0 must be nonnegative everywhere\n"
    assert not (tmp_path / "out").exists()
    # and the same recipe without jitter is valid
    parse_config(config_text(initial__u0="constant(1.0)"))


def test_spec_errors_stay_validation_errors():
    with pytest.raises(ValidationError, match=r"^line 19: u0: bump width"):
        parse_config(config_text(initial__u0="bump(0.5, 0.0, 1.0)"))


def test_cli_rejects_production_negative_past_the_old_probe_range(tmp_path, capsys):
    # g = 1 - 0.05 v is nonnegative on [0, 10] only; g(30) < 0, and with
    # v0 = 30 this used to run and fail bound_cell_lower_bound, exit 2
    cfg = write_config(tmp_path, config_text(
        model__production="affine(1.0, -0.05)", initial__v0="constant(30)"))
    assert main(["verify", "-c", cfg, "-o", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == (
        "error: line 7: production: affine function has infimum -inf over v >= 0; "
        "it must be >= 0\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("jitter", ["0", "0.1"])
def test_cli_reports_negative_seed(tmp_path, capsys, jitter):
    # with jitter this ended in numpy's traceback; without, it was accepted
    text = config_text(initial__seed="-1", initial__jitter=jitter)
    lineno = text.splitlines().index("seed = -1") + 1
    cfg = write_config(tmp_path, text)
    assert main(["run", "-c", cfg, "-o", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == (
        f"error: line {lineno}: seed: seed must be an integer >= 0, got -1\n")
    assert not (tmp_path / "out").exists()


def test_cli_reports_missing_file(tmp_path, capsys):
    missing = str(tmp_path / "nope.ini")
    assert main(["run", "-c", missing, "-o", str(tmp_path / "out")]) == 1
    assert "error:" in capsys.readouterr().err


def test_cli_reports_non_utf8_file(tmp_path, capsys):
    data = np.random.default_rng(0).bytes(300)
    with pytest.raises(UnicodeDecodeError):
        data.decode("utf-8")
    path = tmp_path / "noise.ini"
    path.write_bytes(data)
    assert main(["run", "-c", str(path), "-o", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == f"error: {path} is not UTF-8 text\n"
    assert not (tmp_path / "out").exists()


def test_cli_reports_schedule_beyond_step_budget(tmp_path, capsys, monkeypatch):
    def no_step(*args, **kwargs):
        raise AssertionError("stepped before validation")
    monkeypatch.setattr(harness, "imex_step", no_step)
    cfg = write_config(tmp_path, config_text(
        stepper__t_end="0.02", stepper__dt_max="1e-9"))
    assert main(["run", "-c", cfg, "-o", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: t_end / dt_max needs 2e+07 steps")
    assert not (tmp_path / "out").exists()


def test_cli_verify_passes_on_conserved_run(tmp_path, capsys):
    cfg = write_config(tmp_path, config_text(
        model__regime="mu_zero_conservation", model__mu="0.0",
        model__production="affine(0.0, 1.0)"))
    out = tmp_path / "out"
    assert main(["verify", "-c", cfg, "-o", str(out)]) == 0
    assert (out / "report.txt").exists()
    stdout = capsys.readouterr().out
    assert "cell_mass_drift" in stdout
    assert "0 failed" in stdout


def test_cli_verify_passes_a_negative_bound_met_to_roundoff(tmp_path, capsys):
    # flat u0 = 0.5 and v0 = 0 put the cell lower barrier at 0.5 exactly;
    # the solve leaves min u at 0.49999999999999933, and the bound's slack
    # used to tighten the negative bound -0.5 instead of loosening it
    cfg = write_config(tmp_path, config_text(
        model__mu="0", initial__u0="constant(0.5)", initial__v0="constant(0.0)",
        initial__m0="constant(0.0)", stepper__t_end="0.1"))
    assert main(["verify", "-c", cfg, "-o", str(tmp_path / "out")]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[:2] for line in lines if "cell_lower_bound" in line] == [
        ["bound_cell_lower_bound", "pass"]]


def test_cli_verify_exits_2_on_failed_claims(tmp_path, capsys):
    # far too short a horizon for the decay thresholds, so claims fail
    cfg = write_config(tmp_path, config_text(
        model__regime="theorem_bound5",
        model__production="affine(0.0, 1.0)",
        stepper__t_end="1.0", stepper__record_every="0.25"))
    out = tmp_path / "out"
    assert main(["verify", "-c", cfg, "-o", str(out)]) == 2
    assert (out / "report.txt").exists()
    stdout = capsys.readouterr().out
    assert "fail" in stdout
    assert "protease_l2_final_over_peak" in stdout


def test_cli_convergence_prints_table(tmp_path, capsys):
    cfg = write_config(tmp_path, config_text(
        model__mu="0.0", model__taxis="constant(0.0)",
        model__production="constant(0.0)",
        grid__cells="8", stepper__t_end="0.02", stepper__dt_max="0.001",
        stepper__record_every="0.02",
        initial__u0="bump(0.5, 0.12, 1.0, 0.5)",
        initial__v0="constant(0.0)", initial__m0="constant(0.0)"))
    assert main(["convergence", "-c", cfg, "--levels", "3"]) == 0
    stdout = capsys.readouterr().out
    assert "order" in stdout
    assert "reference: 32 cells" in stdout


def test_cli_convergence_rejects_too_few_levels(tmp_path, capsys):
    cfg = write_config(tmp_path, config_text())
    assert main(["convergence", "-c", cfg, "--levels", "2"]) == 1
    assert "error:" in capsys.readouterr().err


def test_cli_presets_lists_every_regime(capsys):
    assert main(["presets"]) == 0
    stdout = capsys.readouterr().out
    for name in PRESETS:
        assert f"# ---- {name} ----" in stdout
        assert f"regime = {name}" in stdout
