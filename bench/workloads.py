"""Benchmark workloads: seeded CLI configs and the checks on each report.

Every op is one ``cavitycluster`` CLI invocation.  A workload turns the
workload seed into a fixed list of op configs (the program only ever sees
those configs) and checks each JSON report against values the benchmark
derives on its own from the config.  No drawn value changes how much work an
op does: the drawn ranges stay clear of every pruning threshold and branch
count in the simulator, so the per-op counts repeat exactly across seeds.

This module uses only the standard library, so importing it costs nothing
beyond what ``setup_s`` is meant to measure.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass
from typing import Callable

#: Ops generated per run; a run that gets through more of them cycles back.
OPS_PER_RUN = 32

RB_CAVITY = {
    "h": {"value": 27.0, "unit": "MHz_2pi"},
    "kappa": {"value": 2.4, "unit": "MHz_2pi"},
    "gamma": {"value": 6.0, "unit": "MHz_2pi"},
}

SWEEP_POINTS = 3
SMOKE_SWEEP_POINTS = 2
SAMPLED_TRIALS = 10 ** 7
SMOKE_SAMPLED_TRIALS = 10 ** 4
GROWTH_TRIALS = 50
SMOKE_GROWTH_TRIALS = 5
GROWTH_LENGTH = 10
SMOKE_ORACLE_SETS = 5
ORACLE_CHECKS = ("analytic_vs_ode", "conservation", "beta_continuity")


@dataclass(frozen=True)
class Op:
    """One CLI invocation: subcommand, extra flags and the config it reads."""

    command: str
    flags: tuple[str, ...]
    config: dict
    units: int  # work units the op's time is divided by (sweep points, else 1)

    @property
    def text(self) -> str:
        return json.dumps(self.config, sort_keys=True, indent=1) + "\n"


@dataclass(frozen=True)
class Workload:
    name: str
    make_op: Callable[[random.Random, bool], Op]
    check: Callable[[Op, dict], list[str]]


def _rad_per_us(rate: dict) -> float:
    return 2.0 * math.pi * rate["value"]  # every config here uses MHz_2pi


def emission_joint(cavities: list[dict]) -> float:
    """Joint leak probability of the four cavities (a single config entry
    stands for all four), each from the closed form
    kappa h^2 / ((kappa + gamma/2)(gamma kappa + h^2)) of the paper."""
    if len(cavities) == 1:
        cavities = cavities * 4
    joint = 1.0
    for cavity in cavities:
        h, kappa, gamma = (_rad_per_us(cavity[k]) for k in ("h", "kappa", "gamma"))
        joint *= kappa * h * h / ((kappa + gamma / 2.0) * (gamma * kappa + h * h))
    return joint


def config_hash(cfg: dict) -> str:
    """The report's ``meta.config_hash``, recomputed from the config."""
    blob = json.dumps(cfg, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def _close(a, b, rel: float) -> bool:
    return isinstance(a, (int, float)) and abs(a - b) <= rel * abs(b)


def _common(op: Op, report: dict) -> list[str]:
    problems = []
    meta = report.get("meta", {})
    if meta.get("config_hash") != config_hash(op.config):
        problems.append("meta.config_hash does not match the op config")
    if meta.get("seed") != op.config.get("seed"):
        problems.append("meta.seed does not match the op config")
    failed = [c.get("name") for c in report.get("checks", []) if c.get("pass") is not True]
    if failed:
        problems.append(f"report checks failed: {failed}")
    return problems


# ----------------------------------------------------------------------
# exact-loss: sweep detector efficiency with lossy rails
# ----------------------------------------------------------------------
def _exact_loss_op(rng: random.Random, smoke: bool) -> Op:
    points = SMOKE_SWEEP_POINTS if smoke else SWEEP_POINTS
    values = sorted(round(rng.uniform(0.5, 0.95), 6) for _ in range(points))
    cfg = {
        "cavities": [RB_CAVITY],
        "optics": {"rail_transmission": round(rng.uniform(0.8, 0.95), 6)},
        "sweep": {"parameter": "detector_efficiency", "values": values,
                  "unit": "plain"},
    }
    return Op("sweep", (), cfg, points)


def _exact_loss_check(op: Op, report: dict) -> list[str]:
    problems = _common(op, report)
    rows = report.get("rows", [])
    values = op.config["sweep"]["values"]
    if len(rows) != len(values):
        return problems + [f"{len(rows)} rows for {len(values)} sweep points"]
    joint = emission_joint([RB_CAVITY])
    eta_rail = op.config["optics"]["rail_transmission"]
    for row, eta_det in zip(rows, values):
        fid = row.get("mean_corrected_fidelity")
        if not _close(fid, 1.0, 1e-9):
            problems.append(f"eta_det={eta_det}: fidelity {fid} is not 1")
        if not _close(row.get("emission_joint"), joint, 1e-12):
            problems.append(f"eta_det={eta_det}: emission_joint {row.get('emission_joint')}")
        expected = joint * (eta_rail * eta_det) ** 4 / 8.0
        if not _close(row.get("acceptance_exact"), expected, 1e-9):
            problems.append(f"eta_det={eta_det}: acceptance {row.get('acceptance_exact')}"
                            f" != {expected}")
    return problems


# ----------------------------------------------------------------------
# exact-search: dark counts make every accepted pattern uncorrectable
# ----------------------------------------------------------------------
def _exact_search_op(rng: random.Random, smoke: bool) -> Op:
    cfg = {"cavities": [RB_CAVITY],
           "optics": {"dark_rate_hz": round(rng.uniform(50.0, 200.0), 3)}}
    return Op("generate", ("--exact-only",), cfg, 1)


def _uncorrectable_check(op: Op, report: dict) -> list[str]:
    """Checks of an exact table that no correction brings to fidelity 1."""
    problems = _common(op, report)
    row = report.get("rows", [{}])[0]
    fid = row.get("mean_corrected_fidelity")
    if not (isinstance(fid, float) and 0.0 < fid < 1.0):
        problems.append(f"fidelity {fid} is not strictly between 0 and 1")
    joint = emission_joint(op.config["cavities"])
    if not _close(row.get("emission_joint"), joint, 1e-12):
        problems.append(f"emission_joint {row.get('emission_joint')} != {joint}")
    net = row.get("network_acceptance")
    if not (isinstance(net, float) and
            _close(row.get("acceptance_exact"), joint * net, 1e-12)):
        problems.append("acceptance_exact != emission_joint * network_acceptance")
    return problems


# ----------------------------------------------------------------------
# sampled: seeded Monte Carlo draw of 10^7 rounds
# ----------------------------------------------------------------------
def _sampled_op(rng: random.Random, smoke: bool) -> Op:
    trials = SMOKE_SAMPLED_TRIALS if smoke else SAMPLED_TRIALS
    cfg = {"cavities": [RB_CAVITY], "trials": trials, "seed": rng.randrange(2 ** 31)}
    return Op("generate", (), cfg, 1)


def _sampled_check(op: Op, report: dict) -> list[str]:
    problems = _common(op, report)
    row = report.get("rows", [{}])[0]
    trials = op.config["trials"]
    if row.get("trials") != trials:
        problems.append(f"trials {row.get('trials')} != {trials}")
    if not _close(row.get("network_acceptance"), 0.125, 1e-12):
        problems.append(f"network_acceptance {row.get('network_acceptance')} != 1/8")
    exact = emission_joint([RB_CAVITY]) * 0.125
    if not _close(row.get("acceptance_exact"), exact, 1e-12):
        problems.append(f"acceptance_exact {row.get('acceptance_exact')} != {exact}")
    sigma = math.sqrt(exact * (1.0 - exact) / trials)
    sampled = row.get("acceptance_sampled")
    if not (isinstance(sampled, float) and abs(sampled - exact) <= 5.0 * sigma):
        problems.append(f"sampled acceptance {sampled} not within 5 sigma of {exact}")
    return problems


# ----------------------------------------------------------------------
# growth: fuse plus seeded chain-growth trials to length 10
# ----------------------------------------------------------------------
def _growth_op(rng: random.Random, smoke: bool) -> Op:
    trials = SMOKE_GROWTH_TRIALS if smoke else GROWTH_TRIALS
    cfg = {"cavities": [RB_CAVITY], "trials": trials, "seed": rng.randrange(2 ** 31),
           "fuse": {"target_length": GROWTH_LENGTH}}
    return Op("fuse", (), cfg, 1)


def _growth_check(op: Op, report: dict) -> list[str]:
    problems = _common(op, report)
    rows = report.get("rows", [])
    if len(rows) != 2:
        return problems + [f"expected fuse and growth rows, got {len(rows)}"]
    fused, grown = rows
    if fused.get("fused_length") != 6:
        problems.append(f"fused length {fused.get('fused_length')} != 6")
    if grown.get("trials") != op.config["trials"]:
        problems.append(f"growth trials {grown.get('trials')} != {op.config['trials']}")
    # growing 4 -> 10 needs at least three fusions, each with a fresh block
    rounds = grown.get("mean_generation_rounds")
    fusions = grown.get("mean_fusion_attempts")
    if not (isinstance(rounds, float) and rounds >= 4.0):
        problems.append(f"mean generation rounds {rounds} < 4")
    if not (isinstance(fusions, float) and fusions >= 3.0):
        problems.append(f"mean fusion attempts {fusions} < 3")
    return problems


# ----------------------------------------------------------------------
# oracle: closed forms against ODE integration and quadrature
# ----------------------------------------------------------------------
def _oracle_op(rng: random.Random, smoke: bool) -> Op:
    # the oracle draws its rate sets from a seed fixed inside the CLI
    cfg = {"oracle": {"sets": SMOKE_ORACLE_SETS}} if smoke else {}
    return Op("oracle", (), cfg, 1)


def _oracle_check(op: Op, report: dict) -> list[str]:
    problems = _common(op, report)
    passed = {c.get("name") for c in report.get("checks", []) if c.get("pass") is True}
    missing = [name for name in ORACLE_CHECKS if name not in passed]
    if missing:
        problems.append(f"oracle checks not passed: {missing}")
    return problems


# why each workload was chosen: BENCHMARK.json and README.md
WORKLOADS = {w.name: w for w in (
    Workload("exact-loss", _exact_loss_op, _exact_loss_check),
    Workload("exact-search", _exact_search_op, _uncorrectable_check),
    Workload("sampled", _sampled_op, _sampled_check),
    Workload("growth", _growth_op, _growth_check),
    Workload("oracle", _oracle_op, _oracle_check),
)}


def make_ops(workload: str, seed: int, smoke: bool = False) -> list[Op]:
    """The run's op list, a pure function of workload name, seed and mode."""
    rng = random.Random(f"{workload}:{seed}")
    make_op = WORKLOADS[workload].make_op
    return [make_op(rng, smoke) for _ in range(OPS_PER_RUN)]
