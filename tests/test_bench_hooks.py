"""What the benchmark's tracer reads off the product's tables.

A traced ``bench/run.py`` run wraps ``optics.detect_all`` and counts each
outcome table it returns with ``_count_outcomes`` (patterns, accepted
patterns, ``post_state.branches`` and their terms), and wraps
``correction_table`` and counts the accepted entries of its first argument
with ``_count_searched``.  Rounds and fusions read their photon stages from
memos and never call ``detect_all``, so no benchmark workload reaches
``_count_outcomes``; here both hooks run as the tracer runs them, on
``run_network`` tables and on a ``fuse`` table, with their counts pinned.
"""

import importlib.util
from pathlib import Path

import pytest

from cavitycluster import optics, protocol
from cavitycluster.dynamics import RB_PARAMS
from cavitycluster.protocol import ImperfectionModel, emitted_pair_state, tensor_all

ROOT = Path(__file__).parent.parent
LOSS_DARK = ImperfectionModel(cavity_params=(RB_PARAMS,) * 4, rail_transmission=0.9,
                              detector_efficiency=0.9, dark_rate_hz=100.0)


@pytest.fixture(scope="module")
def bench_run():
    """``bench/run.py`` as a module (it puts ``bench/`` on the path itself)."""
    spec = importlib.util.spec_from_file_location("bench_run", ROOT / "bench" / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def hook(monkeypatch, counts, mod, name, on_result):
    """Wrap ``mod.name`` as the tracer's span does: ``on_result(counts, args,
    result)`` after each call."""
    fn = getattr(mod, name)

    def wrapper(*args, **kwargs):
        result = fn(*args, **kwargs)
        on_result(counts, args, result)
        return result

    monkeypatch.setattr(mod, name, wrapper)


@pytest.mark.parametrize("network, want", [
    pytest.param(lambda: protocol.round_network(LOSS_DARK),
                 {"optics.patterns": 135, "optics.accepted_patterns": 16,
                  "optics.post_branches": 13716, "hilbert.post_terms": 21492},
                 id="default4-loss-dark"),
    pytest.param(lambda: optics.network_from_json(
                     (ROOT / "tests" / "data" / "lossy_four_atom_network.json").read_bytes()),
                 {"optics.patterns": 99, "optics.accepted_patterns": 16,
                  "optics.post_branches": 8352, "hilbert.post_terms": 11776},
                 id="lossy-layout-file"),
])
def test_count_outcomes_reads_run_network_tables(bench_run, monkeypatch, network, want):
    counts = {}
    hook(monkeypatch, counts, optics, "detect_all", bench_run._count_outcomes)
    psi = tensor_all([emitted_pair_state(rail) for rail in (1, 2, 3, 4)])
    optics.run_network(psi, network())
    assert counts == want


def test_count_searched_reads_a_fuse_table(bench_run, monkeypatch):
    counts = {}
    hook(monkeypatch, counts, protocol, "correction_table", bench_run._count_searched)
    chain = protocol.build_four_qubit_target()
    result = protocol.fuse(chain, chain, LOSS_DARK)
    assert len(result.entries) == 9
    assert counts == {"optics.searched_patterns": 4}
