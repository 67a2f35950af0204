"""Frozen reference tables: the outcome tables of fixed runs, kept as data.

``data/reference_tables.json`` holds one record per table in ``live_records``:
every pattern with its accepted flag and correction; the probabilities,
corrected fidelities, acceptance, mean corrected fidelity and emission_joint
as float hex; and each accepted pattern's post-heralding density matrix
rho = sum_k w_k |s_k><s_k| over the atom levels, from its branches.
``test_reference_tables.py`` compares the live tables with it: discrete fields
exactly, scalars within ``SCALAR_TOL`` and rho within ``RHO_TOL``.  Unlike a
digest of the branches, this pins the answer, not its representation.

Write the file (only in a change whose purpose is to move an answer, with the
old and new values listed in CHANGES.md), from the repository root:

    PYTHONPATH=src python tests/reference_tables.py

and print each table's worst deviation of the live code from it:

    PYTHONPATH=src python tests/reference_tables.py --deviations
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from cavitycluster import dynamics, optics, protocol
from cavitycluster.protocol import ImperfectionModel

PATH = Path(__file__).parent / "data" / "reference_tables.json"
#: Absolute tolerances; neither may ever exceed 1e-12.
SCALAR_TOL = 1e-15
RHO_TOL = 1e-14

RB4 = (dynamics.RB_PARAMS,) * 4
LOSS_RAIL = 0.87
LOSS_DETECTORS = (0.55, 0.75, 0.95)  # the bench's exact-loss ranges


def _hex(x: float | None) -> str | None:
    return None if x is None else float(x).hex()


def _rho(post_state) -> list:
    """Nonzero entries [row, column, re, im] of sum_k w_k |s_k><s_k|, sorted,
    each basis state named by its atom levels (JSON floats read back exactly)."""
    rho: dict[tuple[str, str], complex] = {}
    for w, s in post_state.branches:
        amps = [("".join(a.value for a in label.atoms), amp) for label, amp in s.terms.items()]
        for row, a in amps:
            for col, b in amps:
                rho[row, col] = rho.get((row, col), 0.0) + w * a * b.conjugate()
    return [[row, col, v.real, v.imag] for (row, col), v in sorted(rho.items()) if v != 0.0]


def table_record(entries, acceptance: float, mean_fidelity: float,
                 emission_joint: float | None = None) -> dict:
    return {
        "acceptance": _hex(acceptance),
        "mean_corrected_fidelity": _hex(mean_fidelity),
        "emission_joint": _hex(emission_joint),
        "entries": [{
            "pattern": "|".join(f"{r.detector_id}:{r.outcome}" for r in e.pattern),
            "accepted": e.accepted,
            "correction": None if e.correction is None else [list(op) for op in e.correction],
            "probability": _hex(e.probability),
            "corrected_fidelity": _hex(e.corrected_fidelity),
            "rho": _rho(e.post_state) if e.accepted else None,
        } for e in entries],
    }


def _round_record(table: protocol.GenerationTable) -> dict:
    return table_record(table.entries, table.acceptance, table.mean_corrected_fidelity,
                        table.emission_joint)


def _fusion_record(model: ImperfectionModel) -> dict:
    chain = protocol.build_four_qubit_target()
    result = protocol.fuse(chain, chain, model)
    return table_record(result.entries, result.acceptance, result.mean_corrected_fidelity)


def _parity_check_record(model: ImperfectionModel) -> dict:
    """The ``network`` command's ``parity_check`` table: two emitted pairs
    heralding the Bell pair (|gg> + |ee>)/sqrt(2)."""
    psi = protocol.tensor_all([protocol.emitted_pair_state(r) for r in (1, 2)])
    entries = optics.run_network(psi, protocol.fusion_network(model))
    accepted = [e for e in entries if e.accepted]
    optics.correction_table(accepted, protocol.build_bell_pair().state)
    acceptance = sum(e.probability for e in accepted)
    mean_fid = sum(e.probability * e.corrected_fidelity for e in accepted) / acceptance
    return table_record(entries, acceptance, mean_fid)


def live_records() -> dict[str, dict]:
    """Every reference table, built by the code under test."""
    rb_dark = ImperfectionModel(cavity_params=RB4, dark_rate_hz=100.0)
    records = {
        "ideal": _round_record(protocol.run_generation_round(ImperfectionModel())),
        "rb": _round_record(protocol.run_generation_round(ImperfectionModel(cavity_params=RB4))),
        "rb_dark_100hz": _round_record(protocol.run_generation_round(rb_dark)),
        "loss_dark": _round_record(protocol.run_generation_round(ImperfectionModel(
            cavity_params=RB4, rail_transmission=0.9, detector_efficiency=0.9,
            dark_rate_hz=100.0))),
    }
    loss_models = [ImperfectionModel(cavity_params=RB4, rail_transmission=LOSS_RAIL,
                                     detector_efficiency=eta) for eta in LOSS_DETECTORS]
    for eta, table in zip(LOSS_DETECTORS, protocol.run_generation_rounds(loss_models)):
        records[f"exact_loss_{eta}"] = _round_record(table)
    records["fuse_4_4_ideal"] = _fusion_record(ImperfectionModel())
    records["fuse_4_4_rb_dark_100hz"] = _fusion_record(rb_dark)
    records["parity_check_lossy"] = _parity_check_record(ImperfectionModel(
        cavity_params=RB4, rail_transmission=0.9, detector_efficiency=0.8))
    return records


def deviations(live: dict, ref: dict) -> tuple[float, float]:
    """Worst (scalar, rho) absolute deviation of ``live`` from ``ref``, after
    checking that their discrete fields agree exactly."""
    def scalar(a, b):
        assert (a is None) == (b is None)
        return 0.0 if a is None else abs(float.fromhex(a) - float.fromhex(b))

    worst = [scalar(live[k], ref[k])
             for k in ("acceptance", "mean_corrected_fidelity", "emission_joint")]
    worst_rho = 0.0
    assert len(live["entries"]) == len(ref["entries"])
    for got, want in zip(live["entries"], ref["entries"]):
        for key in ("pattern", "accepted", "correction"):
            assert got[key] == want[key], (got["pattern"], key)
        worst.append(scalar(got["probability"], want["probability"]))
        worst.append(scalar(got["corrected_fidelity"], want["corrected_fidelity"]))
        if want["rho"] is not None:
            entries = [{(r, c): complex(re, im) for r, c, re, im in rho}
                       for rho in (got["rho"], want["rho"])]
            for key in entries[0].keys() | entries[1].keys():
                worst_rho = max(worst_rho, abs(entries[0].get(key, 0.0)
                                               - entries[1].get(key, 0.0)))
    return max(worst), worst_rho


if __name__ == "__main__":
    live = live_records()
    if sys.argv[1:] == ["--deviations"]:
        ref = json.loads(PATH.read_text())
        for name in ref:
            print(name, *deviations(live[name], ref[name]))
    else:
        # one line per pattern
        tables = []
        for name, record in live.items():
            head = json.dumps({k: v for k, v in record.items() if k != "entries"},
                              sort_keys=True)[:-1]
            rows = ",\n".join(json.dumps(e, sort_keys=True) for e in record["entries"])
            tables.append(f'{json.dumps(name)}: {head}, "entries": [\n{rows}]}}')
        PATH.write_text("{\n" + ",\n".join(tables) + "\n}\n")
