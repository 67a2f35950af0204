"""Golden-file pins: serialized network layout and a state dump.

These freeze the on-disk formats so accidental changes to serialization
or to the canonical network show up as explicit diffs.
"""

from pathlib import Path

from conftest import debug_text

from cavitycluster.optics import default_four_atom_network, network_to_json
from cavitycluster.protocol import build_four_qubit_target

DATA = Path(__file__).parent / "data"


def test_default_network_serialization_pinned():
    expect = (DATA / "default_four_atom_network.json").read_text()
    assert network_to_json(default_four_atom_network()) + "\n" == expect


def test_four_qubit_target_dump_pinned():
    expect = (DATA / "four_qubit_target.txt").read_text()
    assert debug_text(build_four_qubit_target().state) + "\n" == expect
