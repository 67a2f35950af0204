"""End-to-end tests of the command line interface.

Each test drives ``main`` with a temp config and parses the report it
writes, checking exit codes, determinism and the output schema.
"""

import argparse
import contextlib
import copy
import csv
import io
import json
import math
import os
import subprocess
import sys
import threading
import time
from dataclasses import MISSING, fields, replace
from pathlib import Path
from unittest import mock

import jsonschema
import numpy as np
import pytest
from hypothesis import event, given, settings, strategies as st

from conftest import WALKER_KEYWORDS, schema_keywords

from cavitycluster import cli, dynamics, optics, protocol
from cavitycluster.cli import (
    EXIT_CHECK_FAIL,
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_REFUSED,
    config_hash,
    load_config,
    main,
)

RB_CAVITY = {
    "h": {"value": 27, "unit": "MHz_2pi"},
    "kappa": {"value": 2.4, "unit": "MHz_2pi"},
    "gamma": {"value": 6, "unit": "MHz_2pi"},
}


def write_cfg(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def read_rows(path):
    lines = [l for l in open(path) if not l.startswith("#")]
    return list(csv.DictReader(io.StringIO("".join(lines))))


def test_generate_exact_csv(tmp_path):
    cfg = write_cfg(tmp_path, {"cavities": [RB_CAVITY]})
    out = tmp_path / "report.csv"
    rc = main(["generate", "--config", cfg, "--exact-only", "--out", str(out)])
    assert rc == EXIT_OK
    text = out.read_text()
    assert text.startswith("# schema=1")
    rows = read_rows(out)
    by_point = {r["point"]: r for r in rows}
    gen = by_point["generate"]
    assert float(gen["network_acceptance"]) == pytest.approx(0.125)
    assert float(gen["leak_cavity_1"]) == pytest.approx(0.4358353511, abs=1e-9)
    ref = by_point["reference:joint_emission"]
    assert ref["status"] == "unexplained"
    assert float(ref["literature_value"]) == pytest.approx(0.208)


def test_generate_json_has_meta(tmp_path):
    cfg = write_cfg(tmp_path, {"cavities": [RB_CAVITY], "seed": 3,
                               "trials": 2000})
    out = tmp_path / "report.json"
    rc = main(["generate", "--config", cfg, "--format", "json",
               "--out", str(out)])
    assert rc == EXIT_OK
    doc = json.loads(out.read_text())
    assert set(doc) == {"rows", "checks", "meta"}
    assert doc["meta"]["seed"] == 3
    assert doc["meta"]["config_hash"]
    assert all(c["pass"] for c in doc["checks"])


def _generate_json(tmp_path, doc):
    out = tmp_path / "report.json"
    assert main(["generate", "--exact-only", "--config", write_cfg(tmp_path, doc),
                 "--format", "json", "--out", str(out)]) == EXIT_OK
    return json.loads(out.read_text())["rows"]


@pytest.mark.parametrize("optics_doc, derived, status", [
    ({}, 0.125, "reproduced"),
    # each was reported as "reproduced"
    ({"rail_transmission": 0.9}, 0.125 * 0.9 ** 4, "not_reproduced"),
    ({"detector_efficiency": 0}, 0.0, "not_reproduced"),
])
def test_heralded_acceptance_is_reproduced_only_at_one_eighth(tmp_path, optics_doc,
                                                              derived, status):
    rows = _generate_json(tmp_path, {"optics": optics_doc})
    [ref] = [r for r in rows if r["point"] == "reference:heralded_acceptance"]
    assert ref["derived_value"] == pytest.approx(derived, abs=1e-12)
    assert ref["status"] == status


def test_no_accepted_pattern_reports_a_float_network_acceptance(tmp_path):
    # an empty sum of pattern probabilities was written as the integer 0
    row = _generate_json(tmp_path, {"optics": {"detector_efficiency": 0}})[0]
    assert type(row["network_acceptance"]) is float
    assert row["network_acceptance"] == 0.0


def test_generate_is_deterministic(tmp_path):
    cfg = write_cfg(tmp_path, {"cavities": [RB_CAVITY], "seed": 5,
                               "trials": 5000})
    out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["generate", "--config", cfg, "--format", "json",
                 "--out", str(out_a)]) == EXIT_OK
    assert main(["generate", "--config", cfg, "--format", "json",
                 "--out", str(out_b)]) == EXIT_OK
    assert out_a.read_text() == out_b.read_text()


def _refuse_to_build_tables(monkeypatch):
    def no_table(model):
        raise AssertionError("a table was built before the refusal")

    monkeypatch.setattr(protocol, "RoundSampler", no_table)


COMMANDS = ("generate", "sweep", "network", "oracle", "fuse")


def subcommand_parser() -> argparse.ArgumentParser:
    """Reference parser: one subparser per command, each declaring the six
    options that ``cli.build_parser`` declares once."""
    parser = argparse.ArgumentParser(prog="cavitycluster")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--trials", type=int, default=None)
        p.add_argument("--out", default=None)
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--exact-only", action="store_true")
    return parser


@pytest.mark.parametrize("options", [
    [],
    ["--config", "c.json", "--seed", "7", "--trials", "100", "--out", "r.json",
     "--format", "json", "--exact-only"],
    ["--seed=-3", "--format", "csv", "--out", "-", "--trials", "0"],
    ["--exact-only", "--config", "a.json", "--config", "b.json"],
], ids=["defaults", "all", "negative-seed", "repeated"])
@pytest.mark.parametrize("command", COMMANDS)
def test_each_command_parses_its_options_as_subcommands_did(command, options):
    argv = [command, *options]
    assert vars(cli.build_parser().parse_args(argv)) == vars(subcommand_parser().parse_args(argv))


@pytest.mark.parametrize("argv, message", [
    ([], "the following arguments are required: command"),
    (["--seed", "1"], "the following arguments are required: command"),
    (["simulate"], "argument command: invalid choice: 'simulate'"),
])
def test_an_unknown_or_missing_command_exits_2(argv, message, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


def test_main_calls_share_one_parser(tmp_path, monkeypatch):
    _refuse_to_build_tables(monkeypatch)
    cli.build_parser.cache_clear()
    parsers = []
    parse_args = argparse.ArgumentParser.parse_args
    monkeypatch.setattr(argparse.ArgumentParser, "parse_args",
                        lambda self, *args: parsers.append(self) or parse_args(self, *args))
    cfg = write_cfg(tmp_path, {"cavities": [RB_CAVITY], "trials": 100})
    assert [main(["generate", "--config", cfg]) for _ in range(2)] == [EXIT_CONFIG] * 2
    assert len(parsers) == 2 and parsers[0] is parsers[1]
    assert cli.build_parser.cache_info().misses == 1


def test_main_runs_the_command_function_bound_at_call_time(tmp_path, monkeypatch):
    # the benchmark's tracer wraps cmd_* by rebinding the module attributes
    seen = []
    monkeypatch.setattr(cli, "cmd_oracle", lambda cfg, args: seen.append(args.command) or ([], []))
    assert main(["oracle", "--out", str(tmp_path / "o.csv")]) == EXIT_OK
    assert seen == ["oracle"]


def test_sampled_mode_requires_seed(tmp_path, monkeypatch):
    _refuse_to_build_tables(monkeypatch)
    cfg = write_cfg(tmp_path, {"cavities": [RB_CAVITY], "trials": 100})
    assert main(["generate", "--config", cfg]) == EXIT_CONFIG


def test_oversized_trials_are_refused(tmp_path, capsys, monkeypatch):
    # 10^15 trials would build 10^11 block tuples before the first draw
    _refuse_to_build_tables(monkeypatch)
    cfg = write_cfg(tmp_path, {"trials": 10 ** 15, "seed": 1})
    out = tmp_path / "sampled.csv"
    start = time.perf_counter()
    assert main(["generate", "--config", cfg, "--out", str(out)]) == EXIT_REFUSED
    assert time.perf_counter() - start < 1.0
    assert f"> {cli.MAX_SAMPLED_TRIALS}" in capsys.readouterr().err
    assert not out.exists()


def test_sampled_report_ignores_sim_threads(tmp_path, monkeypatch):
    # sampling runs on one thread; the retired variable (a non-integer once
    # exited 2) neither fails a run nor changes its report
    cfg = write_cfg(tmp_path, {"cavities": [RB_CAVITY], "trials": 25_000, "seed": 1})
    reports = []
    for value in (None, "1", "4", "two"):
        if value is None:
            monkeypatch.delenv("SIM_THREADS", raising=False)
        else:
            monkeypatch.setenv("SIM_THREADS", value)
        out = tmp_path / f"sampled-{value}.json"
        assert main(["generate", "--config", cfg, "--format", "json",
                     "--out", str(out)]) == EXIT_OK
        reports.append(out.read_bytes())
    assert len(set(reports)) == 1


@pytest.mark.parametrize("command,doc", [
    ("generate", {"optics": {"detector_efficiency": math.nan}}),
    ("generate", {"optics": {"rail_transmission": math.nan}}),
    ("generate", {"cavities": [dict(RB_CAVITY, h={"value": math.nan, "unit": "MHz_2pi"})]}),
    ("generate", {"cavities": [RB_CAVITY], "window": {"value": math.nan, "unit": "us"}}),
    ("oracle", {"oracle": {"sets": math.nan}}),
    ("generate", {"optics": {"dark_rate_hz": math.inf}}),
    ("generate", {"cavities": [RB_CAVITY], "window": {"value": -math.inf, "unit": "us"}}),
])
def test_non_finite_numbers_are_a_config_error(tmp_path, capsys, command, doc):
    # json reads NaN and Infinity, and a schema bound does not reject NaN: these
    # were a NetworkError or LinAlgError traceback, a failed check, or a report
    path = write_cfg(tmp_path, doc)
    out = tmp_path / "report.csv"
    assert main([command, "--exact-only", "--config", path, "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"config error: cannot read config {path}: ") \
        and err.endswith(" is not a finite number\n")
    assert not out.exists()


@pytest.mark.parametrize("command,doc", [
    # a dark-click probability of about 199 per 3/kappa window
    ("generate", {"cavities": [RB_CAVITY], "optics": {"dark_rate_hz": 1e9}}),
    ("fuse", {"cavities": [RB_CAVITY], "optics": {"dark_rate_hz": 1e9}}),
    ("network", {"cavities": [RB_CAVITY], "optics": {"dark_rate_hz": 1e9}}),
    # no cavities and no window: dark counts have no window to fall in
    ("generate", {"optics": {"dark_rate_hz": 100}}),
])
def test_impossible_dark_counts_are_a_config_error(tmp_path, capsys, command, doc):
    # each was a NetworkError or ValueError traceback
    out = tmp_path / "report.csv"
    assert main([command, "--config", write_cfg(tmp_path, doc),
                 "--out", str(out)]) == EXIT_CONFIG
    assert "dark_rate_hz" in capsys.readouterr().err
    assert not out.exists()


def test_config_rejects_unknown_keys(tmp_path):
    cfg = write_cfg(tmp_path, {"cavities": [RB_CAVITY], "frobnicate": 1})
    assert main(["generate", "--config", cfg]) == EXIT_CONFIG


def test_config_rejects_bad_unit(tmp_path):
    bad = {"h": {"value": 27, "unit": "GHz"},
           "kappa": {"value": 2.4, "unit": "MHz_2pi"},
           "gamma": {"value": 6, "unit": "MHz_2pi"}}
    cfg = write_cfg(tmp_path, {"cavities": [bad]})
    assert main(["generate", "--config", cfg]) == EXIT_CONFIG


def test_missing_config_file_reports_path(tmp_path, capsys):
    missing = str(tmp_path / "nope.json")
    assert main(["generate", "--config", missing]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "nope.json" in err


@pytest.mark.parametrize("text", ["[1]", "null"])
def test_config_top_level_must_be_an_object(tmp_path, capsys, text):
    path = tmp_path / "cfg.json"
    path.write_text(text)
    assert main(["generate", "--config", str(path), "--exact-only"]) == EXIT_CONFIG
    assert "JSON object" in capsys.readouterr().err


INVALID_CONFIGS = [
    {"frobnicate": 1},
    {"seed": -1},
    {"seed": "one", "trials": 1.5},
    {"cavities": []},
    {"cavities": [{"h": {"value": 27, "unit": "GHz"}}]},
    {"window": {"value": 0, "unit": "us"}},
    {"optics": {"detector_efficiency": 1.5, "dark_rate_hz": -1}},
    {"sweep": {"parameter": "gamma", "values": [1, "x"]}},
    {"fuse": {"target_length": 3}},
    {"network": {"builtin": "default5"}},
    {"oracle": {"sets": 0}},
    # the oracle's tolerance is fixed, and it injects no fault
    {"oracle": {"tolerance": 1e-3}},
    {"oracle": {"perturbation": 1e-6}},
]


@pytest.mark.parametrize("doc", INVALID_CONFIGS)
def test_config_error_matches_jsonschema_validate(tmp_path, doc):
    with pytest.raises(jsonschema.ValidationError) as expected:
        jsonschema.validate(doc, cli.CONFIG_SCHEMA)
    loc = "/".join(str(p) for p in expected.value.absolute_path) or "<root>"
    with pytest.raises(cli.ConfigError) as got:
        load_config(write_cfg(tmp_path, doc), {})
    assert str(got.value) == f"config field {loc}: {expected.value.message}"


def test_config_schema_passes_its_metaschema():
    jsonschema.Draft202012Validator.check_schema(cli.CONFIG_SCHEMA)


def test_config_schema_uses_only_the_keywords_its_walker_checks():
    assert set(schema_keywords(cli.CONFIG_SCHEMA)) <= WALKER_KEYWORDS


def _rate(value):
    return st.fixed_dictionaries({"value": value,
                                  "unit": st.sampled_from(["rad_per_us", "MHz_2pi"])})


_NUMBER = st.one_of(st.integers(0, 100), st.floats(0.0, 100.0))
_UNIT = st.floats(0.0, 1.0)
VALID_CONFIGS = st.fixed_dictionaries({}, optional={
    "cavities": st.one_of(st.none(), st.lists(st.fixed_dictionaries(
        {"h": _rate(_NUMBER), "kappa": _rate(_NUMBER), "gamma": _rate(_NUMBER)}),
        min_size=1, max_size=4)),
    "window": st.fixed_dictionaries({"value": st.floats(0.01, 10.0),
                                     "unit": st.sampled_from(["us", "per_kappa"])}),
    "optics": st.fixed_dictionaries({}, optional={
        "rail_transmission": _UNIT, "detector_efficiency": _UNIT,
        "dark_rate_hz": _NUMBER}),
    "trials": st.integers(0, 10 ** 6),
    "seed": st.one_of(st.none(), st.integers(0, 10 ** 6)),
    "sweep": st.fixed_dictionaries(
        {"parameter": st.sampled_from(["gamma", "h", "kappa", "rail_transmission",
                                       "detector_efficiency", "dark_rate_hz"]),
         "values": st.lists(_NUMBER, min_size=1, max_size=3)},
        optional={"unit": st.sampled_from(["rad_per_us", "MHz_2pi", "plain"])}),
    "fuse": st.fixed_dictionaries({}, optional={"target_length": st.integers(4, 20)}),
    "network": st.fixed_dictionaries({}, optional={
        "builtin": st.sampled_from(["default4", "parity_check"]), "file": st.text(max_size=3)}),
    "oracle": st.fixed_dictionaries({}, optional={"sets": st.integers(1, 100)}),
})
# wrong types, bad enum values, true and integral floats in number and
# integer fields, null, and arrays and objects where they do not belong
_FAULTY_VALUES = ["x", "GHz", True, False, None, 1.0, 4.0, 1.5, [], [1, 2, 3, 4, 5],
                  {}, {"value": 1}]
# each below or above some field's bound: minimum 0 and 1, exclusiveMinimum 0,
# maximum 1, target_length's minimum 4
_OUT_OF_RANGE = [-1, -0.5, 0, 0.0, 1.5, 3, 1e9]
_SITES = {  # the nodes each fault can hit
    "replace": lambda path, node: bool(path),
    "out of range": lambda path, node: type(node) in (int, float),
    "remove key": lambda path, node: isinstance(node, dict) and bool(node),
    "resize": lambda path, node: isinstance(node, list),
    "add key": lambda path, node: isinstance(node, dict),
}


def _nodes(doc, path=()):
    yield path, doc
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) \
        if isinstance(doc, list) else ()
    for key, child in items:
        yield from _nodes(child, path + (key,))


@st.composite
def mutated_configs(draw):
    """A valid config with one to three faults: a value replaced by a faulty
    or out-of-range one, an unknown key added, a key removed, or an array
    emptied or filled five times over."""
    doc = draw(VALID_CONFIGS)
    for _ in range(draw(st.integers(1, 3))):
        # an unknown key at the root wins over every deeper fault, so keys
        # are added half as often as the other faults are made
        kind = draw(st.sampled_from([*_SITES, *_SITES][:-1]))
        sites = [(p, n) for p, n in _nodes(doc) if _SITES[kind](p, n)]
        if not sites:  # the root is always an object
            kind, sites = "add key", [((), doc)]
        path, node = draw(st.sampled_from(sites))
        if kind in ("replace", "out of range"):
            parent = doc
            for key in path[:-1]:
                parent = parent[key]
            pool = _FAULTY_VALUES if kind == "replace" else _OUT_OF_RANGE
            parent[path[-1]] = copy.deepcopy(draw(st.sampled_from(pool)))
        elif kind == "add key":
            node[draw(st.sampled_from(["frobnicate", "tolerance", "zzz", "aaa"]))] = 1
        elif kind == "remove key":
            del node[draw(st.sampled_from(sorted(node)))]
        else:
            node[:] = [] if draw(st.booleans()) else copy.deepcopy(node * 5 or [1] * 5)
    return doc


@settings(max_examples=300, deadline=None)
@given(doc=mutated_configs())
def test_config_errors_match_jsonschema_best_match(tmp_path_factory, doc):
    expected = jsonschema.exceptions.best_match(
        jsonschema.Draft202012Validator(cli.CONFIG_SCHEMA).iter_errors(doc))
    path = write_cfg(tmp_path_factory.getbasetemp(), doc, "mutated.json")
    if expected is None:  # a fault may leave the config valid
        load_config(path, {})
        return
    loc = "/".join(str(p) for p in expected.absolute_path) or "<root>"
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        assert main(["generate", "--config", path, "--exact-only"]) == EXIT_CONFIG
    assert err.getvalue() == f"config error: config field {loc}: {expected.message}\n"


@pytest.mark.parametrize("command, doc, exact", [
    ("generate", {"seed": 1.0, "trials": 1000}, {"seed": 1, "trials": 1000}),
    ("fuse", {"seed": 1.0, "trials": 10}, {"seed": 1, "trials": 10}),
    ("generate", {"seed": 1, "trials": 1000.0}, {"seed": 1, "trials": 1000}),
    ("fuse", {"fuse": {"target_length": 8.0}, "trials": 10, "seed": 1},
     {"fuse": {"target_length": 8}, "trials": 10, "seed": 1}),
    ("oracle", {"oracle": {"sets": 2.0}}, {"oracle": {"sets": 2}}),
])
def test_integral_floats_in_integer_fields_run_as_integers(tmp_path, command, doc, exact):
    # each was a TypeError traceback (exit 1)
    reports = []
    for name, d in (("float", doc), ("int", exact)):
        out = tmp_path / f"{name}.json"
        assert main([command, "--config", write_cfg(tmp_path, d, f"{name}-cfg.json"),
                     "--format", "json", "--out", str(out)]) == EXIT_OK
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]


def test_config_hash_stable_under_key_order():
    a = {"cavities": [RB_CAVITY], "seed": 1}
    b = {"seed": 1, "cavities": [RB_CAVITY]}
    assert config_hash(load_config(None, a)) == config_hash(load_config(None, b))


def test_sweep_monotonic_check(tmp_path):
    doc = {
        "cavities": [{"h": {"value": 30, "unit": "MHz_2pi"},
                      "kappa": {"value": 3, "unit": "MHz_2pi"},
                      "gamma": {"value": 0, "unit": "MHz_2pi"}}],
        "sweep": {"parameter": "gamma", "values": [0, 2, 4, 6, 8, 10],
                  "unit": "MHz_2pi"},
    }
    cfg = write_cfg(tmp_path, doc)
    out = tmp_path / "sweep.csv"
    rc = main(["sweep", "--config", cfg, "--out", str(out)])
    assert rc == EXIT_OK
    rows = read_rows(out)
    leaks = [float(r["leak_cavity_1"]) for r in rows]
    assert leaks[0] == pytest.approx(1.0, abs=1e-9)
    assert leaks == sorted(leaks, reverse=True)


@pytest.mark.parametrize("parameter, values, unit, check", [
    ("detector_efficiency", [0.9, 0.7], "plain", "acceptance_non_decreasing"),
    ("detector_efficiency", [0.8, 0.9, 0.7], "plain", "acceptance_non_decreasing"),
    ("gamma", [6, 3], "MHz_2pi", "acceptance_non_increasing"),
    ("gamma", [4.5, 3, 6], "MHz_2pi", "acceptance_non_increasing"),
], ids=["efficiency-descending", "efficiency-shuffled", "gamma-descending",
        "gamma-shuffled"])
def test_sweep_checks_read_points_in_order_of_the_swept_value(tmp_path, parameter, values,
                                                               unit, check):
    doc = {"cavities": [RB_CAVITY], "sweep": {"parameter": parameter, "values": values,
                                              "unit": unit}}
    out = tmp_path / "sweep.json"
    assert main(["sweep", "--config", write_cfg(tmp_path, doc), "--format", "json",
                 "--out", str(out)]) == EXIT_OK
    report = json.loads(out.read_text())
    assert report["checks"] == [{"name": check, "pass": True}]
    # rows keep the listed order
    assert [r["point"] for r in report["rows"]] == [f"{parameter}={float(v):.12g}"
                                                    for v in values]


def test_sweep_refuses_huge_grids(tmp_path, monkeypatch):
    doc = {
        "cavities": [RB_CAVITY],
        "sweep": {"parameter": "gamma", "values": list(range(2_000_000)),
                  "unit": "MHz_2pi"},
    }
    cfg = write_cfg(tmp_path, doc)

    def no_validator(*args):
        pytest.fail("schema validation ran on the oversized sweep grid")

    # the size check must refuse before validation walks two million numbers
    monkeypatch.setattr(optics, "_schema_errors", no_validator)
    assert main(["sweep", "--config", cfg]) == EXIT_REFUSED


@pytest.mark.parametrize("parameter,value,unit", [
    ("rail_transmission", 1.2, "plain"),     # was run as lossless, exit 0
    ("detector_efficiency", 1.5, "plain"),   # was a NetworkError traceback
    ("dark_rate_hz", -5, "plain"),           # was a NetworkError traceback
    ("dark_rate_hz", 1e9, "plain"),          # in range, but p_dark > 1: likewise
    ("gamma", -6, "MHz_2pi"),                # was a ValueError traceback
])
def test_sweep_refuses_values_outside_the_field_range(tmp_path, monkeypatch, parameter,
                                                      value, unit):
    doc = {"cavities": [RB_CAVITY],
           "sweep": {"parameter": parameter, "values": [0.5, value], "unit": unit}}
    cfg = write_cfg(tmp_path, doc)
    out = tmp_path / "sweep.csv"

    def no_tables(models):
        pytest.fail("a table was built before the sweep values were checked")

    monkeypatch.setattr(protocol, "run_generation_rounds", no_tables)
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    assert not out.exists()


@pytest.mark.parametrize("parameter,unit", [
    ("dark_rate_hz", "MHz_2pi"),         # was read as Hz
    ("detector_efficiency", "rad_per_us"),
    ("gamma", "plain"),                  # was read as rad/us
    ("h", "plain"),
    ("kappa", "plain"),
])
def test_sweep_refuses_a_unit_that_does_not_fit_the_parameter(tmp_path, monkeypatch,
                                                              parameter, unit):
    doc = {"cavities": [RB_CAVITY],
           "sweep": {"parameter": parameter, "values": [0.5], "unit": unit}}
    cfg = write_cfg(tmp_path, doc)
    out = tmp_path / "sweep.csv"

    def no_tables(models):
        pytest.fail("a table was built before the sweep unit was checked")

    monkeypatch.setattr(protocol, "run_generation_rounds", no_tables)
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    assert not out.exists()


def test_kappa_sweep_moves_a_per_kappa_window(tmp_path):
    # a 3/kappa window given as per_kappa reads the same as the default one
    # at every point of a kappa sweep, dark counts included
    sweep = {"parameter": "kappa", "values": [2.4, 4.8], "unit": "MHz_2pi"}
    reports = []
    for window in ({}, {"window": {"value": 3, "unit": "per_kappa"}}):
        doc = {"cavities": [RB_CAVITY], "optics": {"dark_rate_hz": 1000},
               "sweep": sweep, **window}
        out = tmp_path / "kappa.json"
        assert main(["sweep", "--config", write_cfg(tmp_path, doc), "--format", "json",
                     "--out", str(out)]) == EXIT_OK
        reports.append(json.loads(out.read_text())["rows"])
    assert reports[0] == reports[1]
    assert reports[0][0]["network_acceptance"] != reports[0][1]["network_acceptance"]


def test_dark_rate_sweep_checks_that_acceptance_rises(tmp_path):
    # dark clicks only fill empty detectors, so the acceptance rises with
    # the rate (0.0045104549 -> 0.0045106680 from 50 to 100 Hz)
    doc = {"cavities": [RB_CAVITY],
           "sweep": {"parameter": "dark_rate_hz", "values": [0, 50, 100]}}
    out = tmp_path / "dark.json"
    assert main(["sweep", "--config", write_cfg(tmp_path, doc), "--format", "json",
                 "--out", str(out)]) == EXIT_OK
    report = json.loads(out.read_text())
    assert report["checks"] == [{"name": "acceptance_non_decreasing", "pass": True}]
    acceptances = [r["acceptance_exact"] for r in report["rows"]]
    assert acceptances[0] < acceptances[1] < acceptances[2]


def test_network_command_parity_check(tmp_path):
    cfg = write_cfg(tmp_path, {"network": {"builtin": "parity_check"}})
    out = tmp_path / "net.json"
    rc = main(["network", "--config", cfg, "--format", "json",
               "--out", str(out)])
    assert rc == EXIT_OK
    doc = json.loads(out.read_text())
    total = sum(float(r["probability"]) for r in doc["rows"])
    assert total == pytest.approx(1.0, abs=1e-9)
    assert any(c["name"] == "target_reachable" and c["pass"]
               for c in doc["checks"])


def test_network_parity_check_applies_rail_loss(tmp_path):
    # the built-in parity check used to ignore optics.rail_transmission
    cfg = write_cfg(tmp_path, {"optics": {"rail_transmission": 0.5},
                               "network": {"builtin": "parity_check"}})
    out = tmp_path / "net.json"
    assert main(["network", "--config", cfg, "--format", "json",
                 "--out", str(out)]) == EXIT_OK
    rows = json.loads(out.read_text())["rows"]
    # both photons survive with 1/4, and the parity check passes half of them
    assert sum(r["probability"] for r in rows if r["accepted"]) \
        == pytest.approx(0.125, abs=1e-12)
    assert sum(r["probability"] for r in rows) == pytest.approx(1.0, abs=1e-12)


def _detectors(rails):
    return [optics.Detector(r, f"D{r}", labels=("D", "A")) for r in rails]


@pytest.mark.parametrize("elements, message", [
    # a PBS on the cavities' circular light
    ([optics.PBS(1, 2, 5, 6), optics.PBS(3, 4, 7, 8), *_detectors((5, 6, 7, 8))],
     "PBS inputs must be linear-polarized"),
    # detectors straight on the circular rails
    (_detectors((1, 2, 3, 4)), "polarized photon at the detector on rail 1"),
    # rail 4 ends in no detector
    ([*(optics.QWP(r) for r in (1, 2, 3, 4)), *_detectors((1, 2, 3))],
     "unterminated rail 4"),
], ids=["pbs-on-circular", "detector-on-circular", "unterminated"])
def test_network_file_the_photons_cannot_pass_is_a_config_error(tmp_path, capsys,
                                                               elements, message):
    # each used to end in a traceback with exit 1, which reads as a failed check
    net = tmp_path / "net.json"
    net.write_text(optics.network_to_json(optics.NetworkConfig(tuple(elements))))
    cfg = write_cfg(tmp_path, {"network": {"file": str(net)}})
    out = tmp_path / "report.json"
    assert main(["network", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "config error: network document: " in err
    assert message in err
    assert not out.exists()


LAYOUT = Path(__file__).parent / "data" / "default_four_atom_network.json"


def test_network_refuses_a_builtin_and_a_file_together(tmp_path, capsys):
    # only one layout can run, and neither may win silently over the other
    cfg = write_cfg(tmp_path, {"network": {"builtin": "parity_check", "file": str(LAYOUT)}})
    out = tmp_path / "report.json"
    assert main(["network", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    assert "config error: network: give builtin or file, not both" in capsys.readouterr().err
    assert not out.exists()


def _layout_with(fault) -> bytes:
    """The golden layout file with ``fault`` applied to its element list."""
    doc = json.loads(LAYOUT.read_text())
    fault(doc["elements"])
    return json.dumps(doc).encode()


def _on_detectors(fault):
    def apply(elements):
        for el in elements:
            if el["type"] == "detector":
                fault(el)
    return apply


def _misspell_efficiency(detector):
    detector["efficency"] = detector.pop("efficiency")


@pytest.mark.parametrize("layout", [
    # each was a traceback with exit 1
    b"\xff" + LAYOUT.read_bytes(),
    LAYOUT.read_text().replace('"rail": 1', '"rail": ' + "1" * 5000, 1).encode(),
    LAYOUT.read_text().replace('"rail": 1', '"rail": 1e400', 1).encode(),
    # refused as literals, as in configs, before any field reads them
    LAYOUT.read_text().replace('"efficiency": 1.0', '"efficiency": NaN', 1).encode(),
    LAYOUT.read_text().replace('"efficiency": 1.0', '"efficiency": -Infinity', 1).encode(),
    # each ran with exit 0 on a value other than the one written
    _layout_with(_on_detectors(_misspell_efficiency)),
    _layout_with(_on_detectors(lambda el: el.update(efficiency=True))),
    _layout_with(lambda elements: elements[0].update(rail=True)),
    _layout_with(lambda elements: elements[0].update(rail=1.7)),
    _layout_with(lambda elements: elements[-1].update(id=5)),
    _layout_with(_on_detectors(lambda el: el.update(labels="DA"))),
], ids=["non-utf8", "5000-digits", "rail-1e400", "nan", "-infinity", "misspelled-efficiency",
        "efficiency-true", "rail-true", "rail-1.7", "id-5", "labels-DA"])
def test_a_layout_file_not_read_as_written_is_a_config_error(tmp_path, capsys, layout):
    net = tmp_path / "net.json"
    net.write_bytes(layout)
    cfg = write_cfg(tmp_path, {"network": {"file": str(net)}})
    out = tmp_path / "report.json"
    assert main(["network", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: network document: ") and "Traceback" not in err
    assert not out.exists()


def test_a_layout_with_colliding_detector_labels_is_a_config_error(tmp_path, capsys):
    # the golden layout with both channels of every detector named "D" once
    # merged its 16 heralded patterns into one and exited 1 on a physics check
    net = tmp_path / "net.json"
    net.write_bytes(_layout_with(_on_detectors(lambda el: el.update(labels=["D", "D"]))))
    cfg = write_cfg(tmp_path, {"network": {"file": str(net)}})
    out = tmp_path / "report.json"
    assert main(["network", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: network document: detector ") \
        and "colliding channel labels ['D', 'D']" in err
    assert not out.exists()


_LIST = st.lists(st.integers(), min_size=1, max_size=2)
_OBJECT = st.dictionaries(st.text(max_size=3), st.integers(), max_size=2)
_JUNK = st.one_of(st.none(), _LIST, _OBJECT)
_FINITE = st.floats(allow_nan=False, allow_infinity=False)
# values that a field of each annotation refuses
_WRONG_VALUES = {
    "int": st.one_of(_JUNK, st.booleans(), st.text(max_size=4),
                     st.integers(-10 ** 6, 10 ** 6).map(lambda k: k + 0.5),
                     st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)),
    "float": st.one_of(_JUNK, st.booleans(), st.text(max_size=4)),
    "str": st.one_of(_JUNK, st.booleans(), st.integers(), _FINITE),
    "tuple[str, str]": st.one_of(_JUNK, st.booleans(), st.integers(), st.text(max_size=4),
                                 st.builds(lambda names, k: names + [k],
                                           st.lists(st.text(max_size=2), max_size=2),
                                           st.integers())),
}
_BAD_LITERALS = ["NaN", "Infinity", "-Infinity", "1e400", "-1e400", "9" * 5000]


@st.composite
def faulty_layouts(draw):
    """(fault, file bytes) of the golden layout with one fault that makes it invalid."""
    doc = json.loads(LAYOUT.read_text())
    elements = doc["elements"]
    index = draw(st.integers(0, len(elements) - 1))
    element = elements[index]
    cls_fields = fields(optics._ELEMENT_TYPES[element["type"]][0])
    fault = draw(st.sampled_from(["required-key", "unknown-key", "wrong-type", "elements",
                                  "top-level", "literal", "byte"]))
    if fault == "required-key":
        del element[draw(st.sampled_from(
            ["type"] + [f.name for f in cls_fields if f.default is MISSING]))]
    elif fault == "unknown-key":
        names = {"type", *(f.name for f in cls_fields)}
        element[draw(st.text(min_size=1, max_size=8).filter(lambda k: k not in names))] = \
            draw(st.integers())
    elif fault == "wrong-type":
        field = draw(st.sampled_from(cls_fields))
        element[field.name] = draw(_WRONG_VALUES[field.type])
    elif fault == "elements":
        doc["elements"] = draw(st.one_of(st.none(), _OBJECT, st.booleans(), st.integers(),
                                         st.text(max_size=4)))
    elif fault == "top-level":
        doc = draw(st.one_of(st.just(elements), st.none(), _LIST, st.booleans(),
                             st.integers(), _FINITE, st.text(max_size=4)))
    elif fault == "literal":
        element[draw(st.sampled_from(cls_fields)).name] = "LITERAL"
    text = json.dumps(doc)
    if fault == "literal":
        text = text.replace('"LITERAL"', draw(st.sampled_from(_BAD_LITERALS)))
    data = text.encode()
    if fault == "byte":
        data = bytes([draw(st.integers(0x80, 0xFF))]) + data
    return fault, data


@settings(max_examples=100, deadline=None)
@given(layout=faulty_layouts())
def test_a_malformed_layout_file_exits_with_a_config_error(tmp_path_factory, layout):
    fault, data = layout
    base = tmp_path_factory.getbasetemp()
    net = base / "fuzz-net.json"
    net.write_bytes(data)
    out = base / "fuzz-net-report.json"
    out.unlink(missing_ok=True)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        rc = main(["network", "--config",
                   write_cfg(base, {"network": {"file": str(net)}}, "fuzz-net-cfg.json"),
                   "--format", "json", "--out", str(out)])
    event(fault)
    assert rc == EXIT_CONFIG, err.getvalue()
    assert err.getvalue().startswith("config error: network document:")
    assert not out.exists()


def test_network_fails_when_the_target_is_unreachable(tmp_path):
    # a dark-click probability of 0.1 per 1 us window: dark clicks herald
    # patterns no Pauli correction can fix (was exit 0 with the check FAILed)
    cfg = write_cfg(tmp_path, {"window": {"value": 1, "unit": "us"},
                               "optics": {"dark_rate_hz": 1e5},
                               "network": {"builtin": "parity_check"}})
    out = tmp_path / "net.json"
    assert main(["network", "--config", cfg, "--format", "json",
                 "--out", str(out)]) == EXIT_CHECK_FAIL
    checks = {c["name"]: c["pass"] for c in json.loads(out.read_text())["checks"]}
    assert checks == {"probabilities_sum_to_1": True, "target_reachable": False}


def test_csv_fields_holding_a_comma_a_quote_or_a_line_break_are_quoted(tmp_path):
    # with the id "D1,x" the header had 6 fields and every row 10 (exit 0)
    ids = iter(["D1,x", 'D2"y', "D3\nz", "D4"])
    net = tmp_path / "net.json"
    net.write_bytes(_layout_with(_on_detectors(lambda el: el.update(id=next(ids)))))
    cfg = write_cfg(tmp_path, {"network": {"file": str(net)}})
    out = tmp_path / "report.csv"
    assert main(["network", "--config", cfg, "--out", str(out)]) == EXIT_OK
    with open(out, newline="") as f:
        header, *rows = [r for r in csv.reader(f) if not r[0].startswith("#")]
    assert len(header) == 6 and rows
    assert all(len(row) == len(header) for row in rows)
    assert all(row[0].startswith('D1,x:') and '|D2"y:' in row[0] and '|D3\nz:' in row[0]
               for row in rows)


@pytest.mark.parametrize("out", ["missing/report.csv", ""], ids=["missing-directory",
                                                                  "directory"])
def test_an_unwritable_report_path_is_a_config_error(tmp_path, capsys, out):
    # each built the table, then exited 1 with a FileNotFoundError or
    # IsADirectoryError traceback
    path = str(tmp_path / out)
    assert main(["generate", "--exact-only", "--config", write_cfg(tmp_path, {}),
                 "--out", path]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"config error: cannot write report {path}: ") \
        and "Traceback" not in err


def test_fuse_command(tmp_path):
    cfg = write_cfg(tmp_path, {})
    out = tmp_path / "fuse.json"
    rc = main(["fuse", "--config", cfg, "--format", "json", "--out", str(out)])
    assert rc == EXIT_OK
    doc = json.loads(out.read_text())
    row = doc["rows"][0]
    assert float(row["acceptance"]) == pytest.approx(0.5, abs=1e-12)
    assert int(row["fused_length"]) == 6


def test_fuse_growth_row_is_pinned(tmp_path):
    cfg = write_cfg(tmp_path, {"cavities": [RB_CAVITY], "trials": 20,
                               "seed": 2024, "fuse": {"target_length": 10}})
    out = tmp_path / "grow.json"
    assert main(["fuse", "--config", cfg, "--format", "json",
                 "--out", str(out)]) == EXIT_OK
    grown = json.loads(out.read_text())["rows"][1]
    assert grown["point"] == "grow_to_10"
    assert grown["mean_generation_rounds"] == 2201.5
    assert grown["mean_fusion_attempts"] == 9.75


def _cavity(**rates):
    return {**RB_CAVITY, **{k: {"value": v, "unit": "MHz_2pi"} for k, v in rates.items()}}


# hex pins of mismatched 4+4 fusions (cavity 1 unlike cavity 0): rounds and
# fusion read one overlap matrix, and the fused row must not move by a bit.
# The lossy row is pinned with the rail loss folded into the detectors; the
# fold moved it (ROADMAP item 3's approximation of tagged photons under loss),
# and the table-wide correction scoring moved its fidelity by 1 ulp, and so
# did scoring on register-indexed rows (BLAS sums the columns in another order);
# the click stage as one pattern-by-group matrix, with no dark-count branch
# pruned, moved it by -1.4e-14
@pytest.mark.parametrize("cavity_1, optics_doc, acceptance, fidelity, visibility", [
    (_cavity(h=32.4), {}, "0x1.ffffffffffffep-2", "0x1.6ffab60bf6787p-1",
     0.6613768200475996),
    (_cavity(kappa=3.0), {"rail_transmission": 0.9, "detector_efficiency": 0.9,
                          "dark_rate_hz": 100}, "0x1.4fee664d431fdp-2",
     "0x1.ff4f6d05b7166p-1", 0.998671223946048),
], ids=["h_x1.2", "kappa_x1.25_loss_dark"])
def test_mismatched_fuse_row_is_pinned(tmp_path, cavity_1, optics_doc, acceptance,
                                       fidelity, visibility):
    cfg = write_cfg(tmp_path, {"cavities": [RB_CAVITY, cavity_1, RB_CAVITY, RB_CAVITY],
                               "optics": optics_doc})
    out = tmp_path / "fuse.json"
    assert main(["fuse", "--config", cfg, "--format", "json", "--out", str(out)]) == EXIT_OK
    row = json.loads(out.read_text())["rows"][0]
    assert row["point"] == "fuse_4_4"
    assert row["acceptance"].hex() == acceptance
    assert row["mean_corrected_fidelity"].hex() == fidelity
    assert row["visibility"] == visibility


SILENT = [RB_CAVITY, _cavity(h=0), RB_CAVITY, RB_CAVITY]


@pytest.mark.parametrize("command, doc, named", [
    ("generate", {"cavities": SILENT}, "cavities/1"),
    ("generate", {"cavities": [RB_CAVITY, _cavity(kappa=0), RB_CAVITY, RB_CAVITY]},
     "cavities/1"),
    ("fuse", {"cavities": SILENT}, "cavities/1"),
    ("fuse", {"cavities": [RB_CAVITY, RB_CAVITY, _cavity(h=0), RB_CAVITY],
              "trials": 3, "seed": 1}, "cavities/2"),
    # at h = 0 every cavity is silent, and cavity 1's gamma keeps them unequal
    ("sweep", {"cavities": [RB_CAVITY, _cavity(gamma=7), RB_CAVITY, RB_CAVITY],
               "sweep": {"parameter": "h", "values": [0, 27], "unit": "MHz_2pi"}},
     "cavities/0"),
])
def test_a_silent_cavity_among_unequal_ones_is_a_config_error(tmp_path, capsys, command,
                                                              doc, named):
    # its photon's overlap is undefined (was a ValueError traceback, exit 1)
    cfg = write_cfg(tmp_path, doc)
    out = tmp_path / "report.csv"
    assert main([command, "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    assert f"config error: {named} never emits a photon" in capsys.readouterr().err
    assert not out.exists()


STUCK = _cavity(kappa=0, gamma=0)  # h > 0: the excitation never leaves
NO_LIMIT = "kappa = gamma = 0 with h > 0 has no stationary limit"


@pytest.mark.parametrize("command, doc, message", [
    ("generate", {"cavities": [STUCK]}, f"cavities/0: {NO_LIMIT}"),
    ("generate", {"cavities": [RB_CAVITY, STUCK, RB_CAVITY, RB_CAVITY]},
     f"cavities/1: {NO_LIMIT}"),
    ("fuse", {"cavities": [STUCK], "trials": 3, "seed": 1}, f"cavities/0: {NO_LIMIT}"),
    ("fuse", {"cavities": [RB_CAVITY, STUCK, RB_CAVITY, RB_CAVITY]},
     f"cavities/1: {NO_LIMIT}"),
])
def test_a_cavity_with_no_stationary_leak_is_a_config_error(tmp_path, capsys, command,
                                                            doc, message):
    # was a ValueError traceback from dynamics.leak_probability_total, exit 1
    cfg = write_cfg(tmp_path, doc)
    out = tmp_path / "report.csv"
    assert main([command, "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    assert f"config error: {message}" in capsys.readouterr().err
    assert not out.exists()


TINY = _cavity(kappa=1e-200, gamma=1e-200)  # leak 0.667, envelope norm 0
DENORMAL = _cavity(kappa=5e-324, gamma=5e-324)  # envelope norm NaN


@pytest.mark.parametrize("command, doc, message", [
    # h^2 overflows: a NaN leak, then a ValueError from RoundSampler
    ("generate", {"cavities": [_cavity(h=1e200, kappa=1e200, gamma=5)]},
     "cavities/0: leak probability nan is not finite"),
    # was a ZeroDivisionError in dynamics.wavepacket_overlap
    ("generate", {"cavities": [RB_CAVITY, RB_CAVITY, RB_CAVITY, TINY]},
     "cavities/3: envelope norm 0.0 is not finite and positive"),
    # was a LinAlgError in optics.group_states
    ("generate", {"cavities": [RB_CAVITY, RB_CAVITY, RB_CAVITY, DENORMAL]},
     "cavities/3: envelope norm nan is not finite and positive"),
    # two nearly silent cavities: each envelope norm is positive (about
    # 1e-198), but their product underflows (was a ZeroDivisionError)
    ("fuse", {"cavities": [_cavity(gamma=1e100), _cavity(gamma=2e100), RB_CAVITY, RB_CAVITY]},
     "cavities/1: its overlap with cavities/0 is not finite"),
])
def test_a_cavity_whose_leak_or_overlap_is_not_finite_is_a_config_error(tmp_path, capsys,
                                                                        command, doc, message):
    cfg = write_cfg(tmp_path, doc)
    out = tmp_path / "report.csv"
    assert main([command, "--exact-only", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"config error: {message}" in err and "Traceback" not in err
    assert not out.exists()


BIG = "1" + "0" * 400  # an integer literal beyond the float range


@pytest.mark.parametrize("command, doc, literal, message", [
    # json reads 1e400 as inf (was a ValueError from RoundSampler, exit 1)
    ("generate", {"cavities": [_cavity(h="X")]}, "1e400",
     "cannot read config {path}: 1e400 is not a finite number"),
    ("fuse", {"cavities": [RB_CAVITY], "optics": {"dark_rate_hz": "X"}}, "-1e400",
     "cannot read config {path}: -1e400 is not a finite number"),
    # each was an OverflowError from the conversion to float
    ("generate", {"cavities": [_cavity(kappa="X")]}, BIG,
     "config field cavities/0/kappa/value: an integer of 401 digits is beyond the float range"),
    ("sweep", {"cavities": [RB_CAVITY],
               "sweep": {"parameter": "h", "values": ["X"], "unit": "MHz_2pi"}}, BIG,
     "config field cavities/0/h/value: an integer of 401 digits"),
    ("generate", {"cavities": [RB_CAVITY], "window": {"value": "X", "unit": "per_kappa"}}, BIG,
     "config field window/value: an integer of 401 digits"),
    ("network", {"cavities": [RB_CAVITY], "optics": {"dark_rate_hz": "X"}}, BIG,
     "config field optics/dark_rate_hz: an integer of 401 digits"),
], ids=["h-1e400", "dark-rate--1e400", "kappa-10^400", "sweep-10^400", "window-10^400",
        "dark-rate-10^400"])
def test_number_literals_beyond_the_float_range_are_a_config_error(tmp_path, capsys, command,
                                                                   doc, literal, message):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc).replace('"X"', literal))
    out = tmp_path / "report.csv"
    assert main([command, "--exact-only", "--config", str(path), "--out", str(out)]) \
        == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"config error: {message.format(path=path)}" in err and "Traceback" not in err
    assert not out.exists()


def test_a_seed_beyond_the_float_range_still_runs(tmp_path):
    # seeds and trials stay arbitrary integers: only float conversions refuse
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"cavities": [RB_CAVITY], "trials": 1000, "seed": "X"})
                    .replace('"X"', BIG))
    out = tmp_path / "report.json"
    assert main(["generate", "--config", str(path), "--format", "json",
                 "--out", str(out)]) == EXIT_OK
    assert json.loads(out.read_text())["meta"]["seed"] == int(BIG)


LONG = "1" * 5000  # an integer literal beyond Python's 4,300-digit conversion limit


@pytest.mark.parametrize("doc", [
    {"cavities": [RB_CAVITY], "seed": "X"},
    {"cavities": [_cavity(h="X")]},
], ids=["seed", "h"])
def test_an_integer_literal_beyond_the_digit_limit_is_a_config_error(tmp_path, capsys, doc):
    # was a ValueError traceback from json.load (exit 1)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc).replace('"X"', LONG))
    out = tmp_path / "report.csv"
    assert main(["generate", "--exact-only", "--config", str(path), "--out", str(out)]) \
        == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"config error: cannot read config {path}: integer literal "
                          "of 5000 digits is too long") and "Traceback" not in err
    # Python's own message ends "use sys.set_int_max_str_digits() to increase
    # the limit", which a command-line user cannot act on
    assert "set_int_max_str_digits" not in err
    assert not out.exists()


def test_an_overlong_integer_literal_in_a_layout_gets_no_interpreter_advice(tmp_path, capsys):
    net = tmp_path / "net.json"
    net.write_text(LAYOUT.read_text().replace('"rail": 1', '"rail": -' + LONG, 1))
    cfg = write_cfg(tmp_path, {"network": {"file": str(net)}})
    assert main(["network", "--config", cfg]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: network document: malformed network document: "
                          "integer literal of 5000 digits is too long")
    assert "set_int_max_str_digits" not in err


def test_a_config_file_that_does_not_decode_is_a_config_error(tmp_path, capsys):
    # was a UnicodeDecodeError traceback (exit 1) under a UTF-8 locale
    path = tmp_path / "cfg.json"
    path.write_bytes(b'{"seed": 1, "note": "\xff\xfe"}')
    assert main(["generate", "--exact-only", "--config", str(path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "Traceback" not in err


@pytest.mark.parametrize("exact_only", [True, False], ids=["exact", "sampled"])
def test_a_seed_at_the_digit_limit_still_runs(tmp_path, exact_only):
    seed = "1" * 4300
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"cavities": [RB_CAVITY], "trials": 1000, "seed": "X"})
                    .replace('"X"', seed))
    out = tmp_path / "report.json"
    flags = ["--exact-only"] if exact_only else []
    assert main(["generate", *flags, "--config", str(path), "--format", "json",
                 "--out", str(out)]) == EXIT_OK
    assert json.loads(out.read_text())["meta"]["seed"] == int(seed)


# every rate a config may hold, over the whole range json reads: zero, the
# smallest subnormal, tiny and huge floats, integers past the float range, and
# the rates of real cavities
_ANY_RATE = st.one_of(st.sampled_from([0, 5e-324, 1e-300, 1e308, 10 ** 400]),
                      st.floats(0.0, 1e308), st.integers(0, 10 ** 400), st.floats(0.1, 100.0))
_ANY_CAVITY = st.fixed_dictionaries({name: _rate(_ANY_RATE) for name in ("h", "kappa", "gamma")})
_RUN_BASE = st.fixed_dictionaries({}, optional={
    # one to four cavities, equal or not: four unequal ones are mismatched
    "cavities": st.one_of(st.none(), st.lists(st.one_of(st.just(RB_CAVITY), _ANY_CAVITY),
                                              min_size=1, max_size=4)),
    "window": st.fixed_dictionaries({"value": st.one_of(st.floats(5e-324, 1e308),
                                                        st.integers(1, 10 ** 400)),
                                     "unit": st.sampled_from(["us", "per_kappa"])}),
    "optics": st.fixed_dictionaries({}, optional={
        "rail_transmission": _UNIT, "detector_efficiency": _UNIT, "dark_rate_hz": _ANY_RATE}),
    "seed": st.one_of(st.none(), st.integers(0, 10 ** 400)),
})


@st.composite
def schema_valid_runs(draw):
    """(argv, config) of one run of a command on a schema-valid config."""
    cfg = draw(_RUN_BASE)
    command = draw(st.sampled_from(["generate", "sweep", "fuse", "network", "oracle"]))
    argv = [command]
    if command == "generate" and draw(st.booleans()):
        argv.append("--exact-only")
    elif command == "generate":
        cfg["trials"] = draw(st.integers(0, 200))
    elif command == "sweep":
        cfg["sweep"] = draw(st.fixed_dictionaries(
            {"parameter": st.sampled_from(["gamma", "h", "kappa", "rail_transmission",
                                           "detector_efficiency", "dark_rate_hz"]),
             "values": st.lists(st.one_of(_ANY_RATE, _UNIT), min_size=1, max_size=2)},
            optional={"unit": st.sampled_from(["rad_per_us", "MHz_2pi", "plain"])}))
    elif command == "fuse":
        cfg["fuse"] = {"target_length": draw(st.integers(4, 10 ** 9))}
        cfg["trials"] = draw(st.integers(0, 20))
    elif command == "network":
        cfg["network"] = {"builtin": draw(st.sampled_from(["default4", "parity_check"]))}
    else:
        cfg["oracle"] = {"sets": draw(st.integers(1, 2))}
    return argv, cfg


def _report_numbers(doc):
    """Every float in a parsed JSON report."""
    if isinstance(doc, dict):
        doc = list(doc.values())
    if isinstance(doc, list):
        for item in doc:
            yield from _report_numbers(item)
    elif isinstance(doc, float):
        yield doc


@settings(max_examples=100, deadline=None)
@given(run=schema_valid_runs())
def test_schema_valid_configs_exit_with_a_documented_code(tmp_path_factory, run):
    argv, cfg = run
    base = tmp_path_factory.getbasetemp()
    out = base / "fuzz-report.json"
    out.unlink(missing_ok=True)
    # ``cmd_fuse`` admits growth runs of up to 10^8 draws, minutes of work
    with contextlib.redirect_stderr(io.StringIO()), \
            mock.patch.object(cli, "MAX_GROWTH_DRAWS", 10 ** 5):
        rc = main(argv + ["--config", write_cfg(base, cfg, "fuzz.json"),
                          "--format", "json", "--out", str(out)])
    event(f"{argv[0]} exit {rc}")
    assert rc in (EXIT_OK, EXIT_CHECK_FAIL, EXIT_CONFIG, EXIT_REFUSED)
    if rc in (EXIT_CONFIG, EXIT_REFUSED):
        assert not out.exists()
        return
    report = json.loads(out.read_text())
    failed = [c["name"] for c in report["checks"] if not c["pass"]]
    assert bool(failed) == (rc == EXIT_CHECK_FAIL)
    if rc == EXIT_OK:
        assert all(math.isfinite(x) for x in _report_numbers(report))


@pytest.mark.parametrize("command, cavities", [
    ("network", SILENT),
    ("fuse", [RB_CAVITY, RB_CAVITY, _cavity(h=0), RB_CAVITY]),
    ("generate", [_cavity(h=0)]),
    ("fuse", [_cavity(h=0)]),
    # a fusion of equal cavities without trials reads neither leak nor overlap
    ("fuse", [STUCK]),
])
def test_runs_that_need_no_overlap_of_a_silent_cavity_succeed(tmp_path, command, cavities):
    cfg = write_cfg(tmp_path, {"cavities": cavities})
    assert main([command, "--config", cfg, "--out", str(tmp_path / "r.csv")]) == EXIT_OK


def test_sampled_generate_row_is_pinned(tmp_path):
    # the draw compares one uniform per round with the table's acceptance,
    # so a change in its last bits could move this row
    cfg = write_cfg(tmp_path, {"cavities": [RB_CAVITY], "trials": 10 ** 6, "seed": 1})
    out = tmp_path / "sampled.json"
    assert main(["generate", "--config", cfg, "--format", "json",
                 "--out", str(out)]) == EXIT_OK
    row = json.loads(out.read_text())["rows"][0]
    assert row["point"] == "generate"
    assert row["acceptance_sampled"] == 0.004548
    assert row["sampled_ci95"] == 0.00013187924771454227


def test_sampled_generate_reads_no_window_probabilities(tmp_path, monkeypatch):
    # the sampled rounds draw from the exact table's acceptance, which uses
    # the stationary leak; the in-window probabilities serve only the oracles
    def off_path(*args, **kwargs):
        raise AssertionError("window probabilities on the product path")

    monkeypatch.setattr(dynamics, "event_probabilities", off_path)
    monkeypatch.setattr(dynamics, "_window_probabilities", off_path)
    cfg = write_cfg(tmp_path, {"cavities": [RB_CAVITY], "trials": 10 ** 4, "seed": 1})
    assert main(["generate", "--config", cfg, "--out", str(tmp_path / "s.csv")]) == EXIT_OK


def test_rb_sampled_acceptance_agrees_with_the_exact_table():
    sampler = protocol.RoundSampler(protocol.ImperfectionModel(
        cavity_params=(dynamics.RB_PARAMS,) * 4))
    freq, sigma = cli.sample_acceptance_frequency(sampler, seed=1, trials=10 ** 7)
    assert abs(freq - sampler.table.acceptance) <= 3.0 * sigma


@pytest.mark.parametrize("trials, freq, sigma", [
    # 123 full blocks and a partial one
    (1_234_567, 0.004507653290586902, 6.028883378210046e-05),
    # one block, below SAMPLE_BLOCK
    (9_999, 0.0039003900390039005, 0.0006233430478559017),
], ids=["123_blocks_and_a_partial", "one_partial_block"])
def test_sampled_frequency_with_a_partial_block_is_pinned(trials, freq, sigma):
    sampler = protocol.RoundSampler(protocol.ImperfectionModel(
        cavity_params=(dynamics.RB_PARAMS,) * 4))
    assert trials % cli.SAMPLE_BLOCK
    assert cli.sample_acceptance_frequency(sampler, seed=7, trials=trials) == (freq, sigma)


def test_sampled_generate_starts_no_thread(tmp_path, monkeypatch):
    def no_thread(self):
        raise AssertionError("a sampled run started a thread")

    monkeypatch.setattr(threading.Thread, "start", no_thread)
    cfg = write_cfg(tmp_path, {"cavities": [RB_CAVITY],
                               "trials": 5 * cli.SAMPLE_BLOCK + 1, "seed": 1})
    assert main(["generate", "--config", cfg, "--out", str(tmp_path / "s.csv")]) == EXIT_OK


def test_fuse_growth_builds_one_table_and_one_fusion(tmp_path, monkeypatch):
    built = {"tables": 0, "fusions": 0}
    run_round, fuse = protocol.run_generation_round, protocol.fuse

    def counted_round(*args, **kwargs):
        built["tables"] += 1
        return run_round(*args, **kwargs)

    def counted_fuse(*args, **kwargs):
        built["fusions"] += 1
        return fuse(*args, **kwargs)

    monkeypatch.setattr(protocol, "run_generation_round", counted_round)
    monkeypatch.setattr(protocol, "fuse", counted_fuse)
    # mismatched cavities too: growth takes p_fuse from the report's fusion
    mismatched = [RB_CAVITY, {**RB_CAVITY, "h": {"value": 32.4, "unit": "MHz_2pi"}},
                  RB_CAVITY, RB_CAVITY]
    for cavities in (None, mismatched):
        built.update(tables=0, fusions=0)
        cfg = write_cfg(tmp_path, {"cavities": cavities, "trials": 5, "seed": 3,
                                   "fuse": {"target_length": 10}})
        assert main(["fuse", "--config", cfg, "--out", str(tmp_path / "f.csv")]) == EXIT_OK
        assert built == {"tables": 1, "fusions": 1}


def _refuse_to_fuse(monkeypatch):
    def no_stage(*args, **kwargs):
        raise AssertionError("a table or fusion was built before the refusal")

    monkeypatch.setattr(protocol, "run_generation_round", no_stage)
    monkeypatch.setattr(protocol, "fuse", no_stage)


def test_fuse_growth_requires_seed_before_fusing(tmp_path, capsys, monkeypatch):
    _refuse_to_fuse(monkeypatch)
    cfg = write_cfg(tmp_path, {"cavities": [RB_CAVITY], "trials": 5})
    assert main(["fuse", "--config", cfg]) == EXIT_CONFIG
    assert "seed is mandatory" in capsys.readouterr().err


def test_fuse_refuses_too_many_growth_trials(tmp_path, capsys, monkeypatch):
    # at p_gen = 1/8 a length-4 trial costs 8 draws, so the draw cap alone
    # admitted 1.25e7 trials: minutes of Python per run
    _refuse_to_fuse(monkeypatch)
    trials = cli.MAX_GROWTH_TRIALS + 1
    cfg = write_cfg(tmp_path, {"trials": trials, "seed": 1,
                               "fuse": {"target_length": 4}})
    out = tmp_path / "fuse.csv"
    assert main(["fuse", "--config", cfg, "--out", str(out)]) == EXIT_REFUSED
    assert f"refusing {trials} growth trials (> {cli.MAX_GROWTH_TRIALS})" \
        in capsys.readouterr().err
    assert not out.exists()


def test_fuse_refuses_growth_that_is_never_heralded(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {"optics": {"detector_efficiency": 0},
                               "trials": 1, "seed": 1})
    assert main(["fuse", "--config", cfg]) == EXIT_REFUSED
    assert "p_gen = 0" in capsys.readouterr().err


def test_fuse_fails_when_nothing_is_heralded(tmp_path):
    cfg = write_cfg(tmp_path, {"optics": {"detector_efficiency": 0}})
    out = tmp_path / "fuse.json"
    assert main(["fuse", "--config", cfg, "--format", "json",
                 "--out", str(out)]) == EXIT_CHECK_FAIL
    doc = json.loads(out.read_text())
    assert doc["rows"][0]["acceptance"] == 0.0
    assert isinstance(doc["rows"][0]["acceptance"], float)
    checks = {c["name"]: c["pass"] for c in doc["checks"]}
    assert checks == {"fused_length": True, "fusion_heralded": False}


def test_fuse_refuses_growth_that_would_take_too_many_draws(tmp_path, capsys):
    # p_fuse is 5e-7 here: a trial takes about 1.4e7 draws, one per block
    # and per attempt, however small p_gen (1.25e-13) is
    cfg = write_cfg(tmp_path, {"optics": {"detector_efficiency": 0.001},
                               "trials": 8, "seed": 1})
    start = time.perf_counter()
    assert main(["fuse", "--config", cfg]) == EXIT_REFUSED
    assert time.perf_counter() - start < 1.0
    assert "about 1.12e+08 expected draws" in capsys.readouterr().err
    # the failure-free lower bound refuses a huge target before the exact solve
    cfg = write_cfg(tmp_path, {"trials": 1, "seed": 1,
                               "fuse": {"target_length": 10 ** 8}})
    start = time.perf_counter()
    assert main(["fuse", "--config", cfg]) == EXIT_REFUSED
    assert time.perf_counter() - start < 1.0
    assert "at least 2e+08 expected draws" in capsys.readouterr().err


def test_fuse_grows_at_a_small_p_gen(tmp_path):
    # p_gen is 4.5e-11 here, but a trial takes only about 1.4e5 draws
    cfg = write_cfg(tmp_path, {"cavities": [RB_CAVITY],
                               "optics": {"detector_efficiency": 0.01},
                               "trials": 1, "seed": 1})
    out = tmp_path / "grow.json"
    assert main(["fuse", "--config", cfg, "--format", "json",
                 "--out", str(out)]) == EXIT_OK
    grown = json.loads(out.read_text())["rows"][1]
    assert grown["point"] == "grow_to_6"
    assert grown["mean_generation_rounds"] > 1e10


def test_fuse_refuses_growth_below_the_sampler_floor(tmp_path, capsys):
    # p_gen is 4.5e-19, where numpy's geometric saturates
    cfg = write_cfg(tmp_path, {"cavities": [RB_CAVITY],
                               "optics": {"detector_efficiency": 1e-4},
                               "trials": 1, "seed": 1})
    assert main(["fuse", "--config", cfg]) == EXIT_REFUSED
    assert "below the growth sampler's floor of 1e-15" in capsys.readouterr().err


def test_fuse_refuses_growth_whose_fusion_never_succeeds(tmp_path, capsys,
                                                         monkeypatch):
    # no config zeroes fusion alone (it shares the round's optics), so the
    # fusion is made to fail outright
    fuse = protocol.fuse

    def failing_fuse(*args, **kwargs):
        result = fuse(*args, **kwargs)
        result.acceptance = 0.0
        return result

    monkeypatch.setattr(protocol, "fuse", failing_fuse)
    cfg = write_cfg(tmp_path, {"trials": 1, "seed": 1,
                               "fuse": {"target_length": 6}})
    assert main(["fuse", "--config", cfg]) == EXIT_REFUSED
    assert "p_fuse = 0" in capsys.readouterr().err
    # a length-4 target needs no fusion, so its growth still runs; the
    # report then fails only its fusion_heralded check
    cfg = write_cfg(tmp_path, {"trials": 1, "seed": 1,
                               "fuse": {"target_length": 4}})
    out = tmp_path / "fuse.json"
    assert main(["fuse", "--config", cfg, "--format", "json",
                 "--out", str(out)]) == EXIT_CHECK_FAIL
    doc = json.loads(out.read_text())
    assert doc["rows"][1]["point"] == "grow_to_4"
    assert [c["name"] for c in doc["checks"] if not c["pass"]] == ["fusion_heralded"]


@pytest.mark.parametrize("trials, target_length, message", [
    (30, 20, "about 1.29e+08 expected draws"),
    (1, 80, "about 1.23e+27 expected draws"),
], ids=["length-20", "length-80"])
def test_fuse_refuses_growth_whose_failed_fusions_cost_too_much(tmp_path, capsys, monkeypatch,
                                                                trials, target_length, message):
    # with p_fuse = 1/8 a failed fusion undoes more than a success gains: the
    # estimate without failures, 30 * (1 + 2 * 8 / p_fuse) = 3,870 draws at
    # length 20, passes, but the exact expectation is 30 * 4.29e6 draws.  At
    # length 80 the growth chain's reduced coefficients round to 1
    fuse = protocol.fuse

    def rare_fuse(*args, **kwargs):
        result = fuse(*args, **kwargs)
        result.acceptance = 0.125
        return result

    monkeypatch.setattr(protocol, "fuse", rare_fuse)
    cfg = write_cfg(tmp_path, {"trials": trials, "seed": 1,
                               "fuse": {"target_length": target_length}})
    start = time.perf_counter()
    assert main(["fuse", "--config", cfg]) == EXIT_REFUSED
    assert time.perf_counter() - start < 1.0
    assert message in capsys.readouterr().err


def _wrong_amplitudes(monkeypatch):
    # the closed form off by a little (kappa 1e-7 relative), which only an ODE
    # that never consults the closed form can notice
    exact = dynamics.amplitudes_at
    monkeypatch.setattr(dynamics, "amplitudes_at",
                        lambda p, t: exact(replace(p, kappa=p.kappa * (1 + 1e-7)), t))


def test_oracle_command_negative_control(tmp_path, monkeypatch):
    _wrong_amplitudes(monkeypatch)
    cfg = write_cfg(tmp_path, {"oracle": {"sets": 5}})
    out = tmp_path / "oracle.json"
    assert main(["oracle", "--config", cfg, "--format", "json",
                 "--out", str(out)]) == EXIT_CHECK_FAIL
    failed = [c["name"] for c in json.loads(out.read_text())["checks"] if not c["pass"]]
    assert failed == ["analytic_vs_ode"]


def test_oracle_catches_a_wrong_closed_form(monkeypatch):
    _wrong_amplitudes(monkeypatch)
    checks = {c["name"]: c for c in cli.oracle_checks(sets=5)}
    assert not checks["analytic_vs_ode"]["pass"]
    assert checks["analytic_vs_ode"]["detail"] > 1e-9


def test_oracle_catches_a_wrong_leak_closed_form(monkeypatch):
    # the stationary leak off by 1e-7 relative; the spontaneous share is its
    # complement, so the two still sum to 1 and only the quadrature, which
    # integrates the rate from the amplitudes, can notice
    exact = dynamics.leak_probability_total
    monkeypatch.setattr(dynamics, "leak_probability_total",
                        lambda p: exact(p) * (1 + 1e-7))
    for p in cli.oracle_draws(5):
        total = dynamics.leak_probability_total(p) + dynamics.spont_probability_total(p)
        assert abs(total - 1.0) < 1e-12
    checks = {c["name"]: c for c in cli.oracle_checks(sets=5)}
    assert not checks["conservation"]["pass"]
    assert checks["conservation"]["detail"] > 1e-8
    assert checks["analytic_vs_ode"]["pass"]


def test_oracle_command_small_clean_run(tmp_path):
    cfg = write_cfg(tmp_path, {"oracle": {"sets": 5}})
    assert main(["oracle", "--config", cfg]) == EXIT_OK


_NO_SCIPY_SCRIPT = r"""
import json, sys
from cavitycluster import cli

def assert_no_scipy(step):
    loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
    assert not loaded, f"{step} imported {loaded[:3]}"

assert_no_scipy("import cavitycluster.cli")
codes = {}
for step, argv in json.loads(sys.argv[1]):
    codes[step] = cli.main(argv)
    assert_no_scipy(step)
assert cli.main(sys.argv[2:]) == cli.EXIT_OK
assert "scipy" in sys.modules, "the oracle no longer exercises SciPy"
assert "jsonschema" not in sys.modules, "a command imported jsonschema"
print(json.dumps(codes))
"""


def test_product_path_never_imports_scipy(tmp_path):
    rb_dark = write_cfg(tmp_path, {"cavities": [RB_CAVITY],
                                   "optics": {"dark_rate_hz": 100}}, "dark.json")
    sampled = write_cfg(tmp_path, {"cavities": [RB_CAVITY], "trials": 10_000,
                                   "seed": 1}, "sampled.json")
    sweep = write_cfg(tmp_path, {"cavities": [RB_CAVITY],
                                 "sweep": {"parameter": "h", "values": [20, 27],
                                           "unit": "MHz_2pi"}}, "sweep.json")
    growth = write_cfg(tmp_path, {"cavities": [RB_CAVITY], "trials": 5, "seed": 2,
                                  "fuse": {"target_length": 8}}, "growth.json")
    strong = dict(RB_CAVITY, h={"value": 30, "unit": "MHz_2pi"})
    mismatched = write_cfg(tmp_path, {"cavities": [RB_CAVITY, strong, RB_CAVITY,
                                                   RB_CAVITY]}, "mismatched.json")
    oracle = write_cfg(tmp_path, {"oracle": {"sets": 2}}, "oracle.json")
    out = ["--out", str(tmp_path / "report.csv")]
    steps = [
        ("generate --exact-only", ["generate", "--exact-only", "--config", rb_dark, *out]),
        ("generate sampled", ["generate", "--config", sampled, *out]),
        ("sweep", ["sweep", "--config", sweep, *out]),
        ("fuse growth", ["fuse", "--config", growth, *out]),
        ("fuse mismatched", ["fuse", "--config", mismatched, *out]),
    ]
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run([sys.executable, "-c", _NO_SCIPY_SCRIPT, json.dumps(steps),
                           "oracle", "--config", oracle, *out],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    codes = json.loads(proc.stdout.strip().splitlines()[-1])
    assert list(codes) == [name for name, _ in steps]


JSON_SCALARS = (st.none() | st.booleans() | st.integers() | st.text()
                | st.floats(allow_nan=True, allow_infinity=True)
                | st.floats(allow_nan=False).map(np.float64))  # a float subclass
JSON_DOCS = st.recursive(
    JSON_SCALARS,
    lambda inner: (st.lists(inner, max_size=4) | st.tuples(inner, inner)
                   | st.dictionaries(st.text(max_size=5), inner, max_size=4)),
    max_leaves=25)


@settings(max_examples=300, deadline=None)
@given(JSON_DOCS)
def test_report_json_is_json_dumps_with_indent(doc):
    # reports take json's C encoder, which indent alone turns off; strings
    # may hold line breaks, braces and separators, so every container kind,
    # nesting and scalar must come out as the pure-Python encoder writes it
    assert cli._indented_json(doc) == json.dumps(doc, indent=2, sort_keys=True)


@pytest.mark.parametrize("rows", [
    [{"a": 1.5, "b": "}, {"}, {"a": None, "b": "x\n"}],
    [{"a": 1}, {}],
    [{"a": [1, {"b": 2}]}, {"c": 3}],
    [],
], ids=["flat", "empty-row", "nested", "no-rows"])
def test_report_json_matches_for_the_row_shapes_a_report_holds(rows):
    doc = {"rows": rows, "checks": [{"name": "n", "pass": True, "detail": 0.1}],
           "meta": {"seed": None}}
    assert cli._indented_json(doc) == json.dumps(doc, indent=2, sort_keys=True)
