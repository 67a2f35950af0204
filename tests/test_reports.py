"""Report corpus: the bytes and exit codes of fixed CLI runs, pinned.

``data/reports/`` holds what ``cli.main`` writes for each case in ``CASES``:
the report (``<name>.json`` or ``<name>.csv``), or for a refusal the first
line of stderr (``<name>.stderr``), and every exit code in
``exit_codes.json``.  The JSON cases are the runs of CI's hash-seed step,
one low-efficiency loss + dark table, and two optics sweeps whose edge points
change which groups reach which patterns.
Each test runs one case in-process and compares bytes, so a moved answer
fails here and its diff shows what moved.

``oracle`` is left out: its digits come from SciPy's integrators, which
change between SciPy releases.

Rewrite the corpus (only in a change whose purpose is to move an answer,
with each moved report and field listed in CHANGES.md, old -> new):

    PYTHONPATH=src python tests/test_reports.py
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import tempfile
from pathlib import Path

import pytest

from cavitycluster.cli import main

ROOT = Path(__file__).parent.parent  # the layout-file case names its path from here
DATA = Path(__file__).parent / "data" / "reports"

RB = {"h": {"value": 27, "unit": "MHz_2pi"},
      "kappa": {"value": 2.4, "unit": "MHz_2pi"},
      "gamma": {"value": 6, "unit": "MHz_2pi"}}
MISMATCHED = [RB, {**RB, "h": {"value": 32.4, "unit": "MHz_2pi"}}, RB, RB]
LOSS_DARK = {"rail_transmission": 0.9, "detector_efficiency": 0.9, "dark_rate_hz": 100}
LOSSY = {"rail_transmission": 0.9, "detector_efficiency": 0.8}
#: low efficiency and a high dark rate: many dark-click branches of tiny weight,
#: all of which an entry keeps
LOSS_DARK_LOW = {"rail_transmission": 0.5, "detector_efficiency": 0.5, "dark_rate_hz": 1000}


def _sweep(parameter, values, unit):
    return {"parameter": parameter, "values": values, "unit": unit}


#: (name, command and flags, config, output kept: "json", "csv" or "stderr")
CASES = [
    ("generate-loss-dark", ["generate", "--exact-only"],
     {"cavities": [RB], "optics": LOSS_DARK}, "json"),
    ("generate-loss-dark-low", ["generate", "--exact-only"],
     {"cavities": [RB], "optics": LOSS_DARK_LOW}, "json"),
    ("generate-dark", ["generate", "--exact-only"],
     {"cavities": [RB], "optics": {"dark_rate_hz": 100}}, "json"),
    ("sweep-detector", ["sweep"],
     {"cavities": [RB], "optics": {"rail_transmission": 0.9, "dark_rate_hz": 100},
      "sweep": _sweep("detector_efficiency", [0.7, 0.8, 0.9], "plain")}, "json"),
    ("sweep-rail", ["sweep"],
     {"cavities": [RB], "optics": {"detector_efficiency": 0.9, "dark_rate_hz": 100},
      "sweep": _sweep("rail_transmission", [0.8, 0.9, 1.0], "plain")}, "json"),
    ("fuse-loss-dark", ["fuse"],
     {"cavities": [RB], "optics": LOSS_DARK, "trials": 20, "seed": 7}, "json"),
    ("fuse-mismatched", ["fuse"],
     {"cavities": MISMATCHED, "trials": 20, "seed": 7, "fuse": {"target_length": 8}},
     "json"),
    ("fuse-mismatched-loss-dark", ["fuse"],
     {"cavities": MISMATCHED, "optics": LOSS_DARK, "trials": 20, "seed": 7,
      "fuse": {"target_length": 8}}, "json"),
    # at eta = 0 every accepted pattern is dark clicks, at eta = 1 no photon
    # misses: W's support changes inside one sweep
    ("sweep-detector-edges", ["sweep"],
     {"cavities": [RB], "optics": {"rail_transmission": 0.9, "dark_rate_hz": 100},
      "sweep": _sweep("detector_efficiency", [0, 0.5, 1.0], "plain")}, "json"),
    # the dark-free point has no dark step, the others one per detector
    ("sweep-dark-edges", ["sweep"],
     {"cavities": [RB], "optics": {"rail_transmission": 0.9, "detector_efficiency": 0.9},
      "sweep": _sweep("dark_rate_hz", [0, 100, 1000], "plain")}, "json"),
    ("sweep-mismatched-detector", ["sweep"],
     {"cavities": MISMATCHED, "optics": {"rail_transmission": 0.9, "dark_rate_hz": 100},
      "sweep": _sweep("detector_efficiency", [0.8, 0.9], "plain")}, "json"),
    ("sweep-kappa", ["sweep"],
     {"cavities": [RB], "optics": {"dark_rate_hz": 1000},
      "window": {"value": 3, "unit": "per_kappa"},
      "sweep": _sweep("kappa", [2.4, 4.8], "MHz_2pi")}, "json"),
    ("generate-sampled", ["generate"],
     {"cavities": [RB], "trials": 1000000, "seed": 1}, "json"),
    ("network-default4", ["network"],
     {"cavities": [RB], "optics": LOSSY, "network": {"builtin": "default4"}}, "json"),
    ("network-parity-check", ["network"],
     {"cavities": [RB], "optics": LOSSY, "network": {"builtin": "parity_check"}}, "json"),
    ("network-file", ["network"],
     {"network": {"file": "tests/data/default_four_atom_network.json"}}, "json"),
    ("generate-loss-dark", ["generate", "--exact-only"],
     {"cavities": [RB], "optics": LOSS_DARK}, "csv"),
    ("network-default4", ["network"],
     {"cavities": [RB], "optics": LOSSY, "network": {"builtin": "default4"}}, "csv"),
    ("refused-config", ["generate", "--exact-only"],
     {"cavities": [RB], "optics": {"detector_efficiency": 1.5}}, "stderr"),
    ("refused-trials", ["generate"],
     {"cavities": [RB], "trials": 10 ** 9 + 1, "seed": 1}, "stderr"),
]


def run_case(argv, doc, kind, tmp: Path) -> tuple[int, bytes]:
    """Exit code and kept output of one case; run it from ``ROOT``."""
    cfg, out = tmp / "config.json", tmp / "report"
    cfg.write_text(json.dumps(doc))
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        rc = main([*argv, "--config", str(cfg), "--format", "csv" if kind == "csv" else "json",
                   "--out", str(out)])
    if kind == "stderr":
        return rc, (err.getvalue().splitlines()[0] + "\n").encode()
    return rc, out.read_bytes()


@pytest.mark.parametrize("name, argv, doc, kind", CASES,
                         ids=[f"{name}.{kind}" for name, _, _, kind in CASES])
def test_report_is_unchanged(name, argv, doc, kind, tmp_path, monkeypatch):
    monkeypatch.chdir(ROOT)
    rc, output = run_case(argv, doc, kind, tmp_path)
    assert rc == json.loads((DATA / "exit_codes.json").read_text())[f"{name}.{kind}"]
    assert output == (DATA / f"{name}.{kind}").read_bytes()


if __name__ == "__main__":
    os.chdir(ROOT)
    DATA.mkdir(exist_ok=True)
    codes = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, argv, doc, kind in CASES:
            codes[f"{name}.{kind}"], output = run_case(argv, doc, kind, Path(tmp))
            (DATA / f"{name}.{kind}").write_bytes(output)
    (DATA / "exit_codes.json").write_text(json.dumps(codes, indent=2, sort_keys=True) + "\n")
