"""Tests for wave plates, beam splitters, loss channels and detectors."""

import hashlib
import json
import math
import typing
from collections import Counter
from dataclasses import fields, replace
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from jsonschema import Draft202012Validator
from jsonschema.exceptions import best_match

from conftest import (WALKER_KEYWORDS, Ensemble, end_qubit_to_photon, fidelity, one_table,
                      schema_keywords)

from cavitycluster import dynamics, optics, protocol
from cavitycluster.hilbert import (
    HADAMARD,
    PAULI_X,
    PAULI_Z,
    AtomLevel,
    BasisLabel,
    PhotonMode,
    SparseHybridState,
    StateError,
    apply_local_unitary,
    inner_product,
    tensor,
    tensor_all,
)
from cavitycluster.optics import (
    Detector,
    HWP,
    Loss,
    NetworkConfig,
    NetworkError,
    PBS,
    QWP,
    _correction_candidates,
    apply_hwp,
    apply_loss,
    apply_pbs,
    apply_qwp,
    correction_table,
    default_four_atom_network,
    detect_all,
    hwp_jones,
    network_from_json,
    network_to_json,
    parity_check_network,
    run_network,
    stabilizer_group,
)
from cavitycluster.protocol import (
    ImperfectionModel,
    _atom_state,
    build_four_qubit_target,
    build_fused_six_state,
    build_linear_cluster,
    emitted_pair_state,
)


def single_photon(rail, pol, n_atoms=1, atoms=("g",)):
    return SparseHybridState(
        n_atoms, frozenset({rail}),
        {BasisLabel.make(atoms, {PhotonMode(rail, pol): 1}): 1.0},
    )


def photon_superposition(rail, amps, n_atoms=1, atoms=("g",)):
    """One photon on ``rail`` with amplitude ``amps[pol]`` in each polarization."""
    return SparseHybridState(
        n_atoms, frozenset({rail}),
        {BasisLabel.make(atoms, {PhotonMode(rail, pol): 1}): a for pol, a in amps.items()},
    )


def four_source_state():
    state = emitted_pair_state(1, None)
    for rail in (2, 3, 4):
        state = tensor(state, emitted_pair_state(rail, None))
    return state


def test_qwp_relabels_circular_to_linear():
    out = apply_qwp(single_photon(1, "L"), 1)
    (label,) = out.terms
    assert label.occ_map() == {PhotonMode(1, "H"): 1}
    out = apply_qwp(single_photon(1, "R"), 1)
    (label,) = out.terms
    assert label.occ_map() == {PhotonMode(1, "V"): 1}


def test_qwp_rejects_linear_input():
    with pytest.raises(StateError):
        apply_qwp(single_photon(1, "H"), 1)


def test_hwp_jones_matrix():
    had = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    assert np.allclose(hwp_jones(22.5), had, atol=1e-12)
    assert np.allclose(hwp_jones(45.0), np.array([[0, 1], [1, 0]]), atol=1e-12)


def test_hwp_is_unitary_involution():
    s = single_photon(1, "H")
    twice = apply_hwp(apply_hwp(s, 1, 22.5), 1, 22.5)
    assert fidelity(twice, s) == pytest.approx(1.0, abs=1e-12)


def test_pbs_routing():
    # H transmits (a -> 1), V reflects (a -> 2)
    out = apply_pbs(photon_superposition(1, {"H": 1.0, "V": 0.0}, 2, ("g", "g")), 1, 2, 3, 4)
    (label,) = out.terms
    assert label.occ_map() == {PhotonMode(3, "H"): 1}
    out = apply_pbs(single_photon(1, "V", 2, ("g", "g")), 1, 2, 3, 4)
    (label,) = out.terms
    assert label.occ_map() == {PhotonMode(4, "V"): 1}


def test_pbs_preserves_norm_on_superposition():
    s = photon_superposition(1, {"H": 1 / np.sqrt(2), "V": 1j / np.sqrt(2)}, 2, ("g", "g"))
    out = apply_pbs(s, 1, 2, 3, 4)
    assert out.norm2() == pytest.approx(1.0, abs=1e-12)


def sink_probabilities(state, sink):
    """Probability of each photon count on the ``sink`` rail."""
    probs = {}
    for label, a in state.terms.items():
        lost = sum(c for m, c in label.occ if m.rail == sink)
        probs[lost] = probs.get(lost, 0.0) + abs(a) ** 2
    return probs


def test_loss_channel_branch_probabilities():
    out = apply_loss(single_photon(1, "H"), 1, 0.75, 2)
    assert out.rails == {1, 2}
    assert sink_probabilities(out, 2) == pytest.approx({0: 0.75, 1: 0.25}, abs=1e-12)
    # the lost photon keeps its polarization
    assert sorted(l.occ for l in out.terms) == [((PhotonMode(1, "H"), 1),),
                                                ((PhotonMode(2, "H"), 1),)]


def test_loss_two_photons_binomial():
    s = SparseHybridState(
        2, frozenset({1}),
        {BasisLabel.make(("g", "g"), {PhotonMode(1, "H"): 2}): 1.0})
    out = apply_loss(s, 1, 0.6, 2)
    assert sink_probabilities(out, 2) == pytest.approx({0: 0.36, 1: 2 * 0.6 * 0.4, 2: 0.16},
                                                       abs=1e-12)


def test_lossless_rail_keeps_each_branch_as_it_is():
    # transmission 1: every term as it was, on rails that now include the sink
    s = photon_superposition(1, {"H": 0.6, "V": 0.8j}, 2, ("g", "e"))
    s = tensor(s, single_photon(2, "V", 1, ("e",)))
    out = apply_loss(s, 1, 1.0, 3)
    assert out.rails == s.rails | {3}
    assert list(out.terms.items()) == list(s.terms.items())


def test_loss_commutes_with_hwp():
    # polarization rotation commutes with polarization-blind loss: the
    # photons that stay agree, and so does each lost count's probability
    s = single_photon(1, "H")
    a = apply_loss(apply_hwp(s, 1, 17.0), 1, 0.6, 2)
    b = apply_hwp(apply_loss(s, 1, 0.6, 2), 1, 17.0)
    assert sink_probabilities(a, 2) == pytest.approx(sink_probabilities(b, 2), abs=1e-12)

    def kept(state):
        return {l: x for l, x in state.terms.items() if all(m.rail != 2 for m, _ in l.occ)}

    assert kept(a) == pytest.approx(kept(b), abs=1e-12)


def test_a_state_that_holds_a_sink_rail_is_refused():
    two_rails = tensor(single_photon(1, "H"), single_photon(2, "V", 1, ("e",)))
    with pytest.raises(StateError, match="sink rail 2 already holds modes"):
        apply_loss(two_rails, 1, 0.5, 2)
    # the layout names rail 1 only, so its loss's sink is the input's rail 2
    network = NetworkConfig((Loss(1, 0.5), Detector(1, "D1")))
    assert network.sinks == (2,)
    with pytest.raises(StateError, match="sink rail 2"):
        run_network(two_rails, network)


def test_sinks_are_fresh_past_pbs_outputs_that_take_the_highest_rails():
    # the loss comes before the PBS whose outputs 3 and 4 are the highest
    # rails named, so its sink is rail 5; with the outputs renamed 7 and 8
    # (sink 9) the table is the same
    def layout(out_1, out_2):
        return NetworkConfig((QWP(1), QWP(2), Loss(1, 0.7), PBS(1, 2, out_1, out_2),
                              HWP(out_1, 22.5), HWP(out_2, 22.5),
                              Detector(out_1, "DI", 0.9, 0.01), Detector(out_2, "DII", 0.9, 0.01)))

    psi = tensor(emitted_pair_state(1), emitted_pair_state(2))
    low, high = layout(3, 4), layout(7, 8)
    assert (low.sinks, high.sinks) == ((5,), (9,))
    assert optics.propagate(psi, low).rails == {1, 2, 3, 4, 5}
    entries = run_network(psi, low)
    assert abs(sum(e.probability for e in entries) - 1.0) <= 1e-12
    assert_same_detection(entries, run_network(psi, high))


def detector_net(**kwargs):
    return NetworkConfig((Detector(rail=1, id="D", **kwargs),))


def test_detection_completeness_single_photon():
    s = photon_superposition(1, {"H": 1 / np.sqrt(2), "V": 1 / np.sqrt(2)})
    entries = detect_all(s, detector_net())
    assert sum(e.probability for e in entries) == pytest.approx(1.0, abs=1e-12)
    outcomes = {e.pattern[0].outcome: e.probability for e in entries}
    assert outcomes == pytest.approx({"H": 0.5, "V": 0.5})


def test_detection_with_inefficiency():
    entries = detect_all(single_photon(1, "H"), detector_net(efficiency=0.8))
    outcomes = {e.pattern[0].outcome: e.probability for e in entries}
    assert outcomes["H"] == pytest.approx(0.8, abs=1e-12)
    assert outcomes["none"] == pytest.approx(0.2, abs=1e-12)
    # a channel holding two photons clicks with probability 1 - (1 - eta)^2
    two = SparseHybridState(2, frozenset({1}), {
        BasisLabel.make((AtomLevel.G, AtomLevel.G), {PhotonMode(1, "H"): 2}): 1.0})
    entries = detect_all(two, detector_net(efficiency=0.3))
    outcomes = {e.pattern[0].outcome: e.probability for e in entries}
    assert outcomes["H"] == pytest.approx(1.0 - 0.7 ** 2, abs=1e-15)
    assert outcomes["none"] == pytest.approx(0.7 ** 2, abs=1e-15)


@pytest.mark.parametrize("labels, outcomes", [
    (("D", "A"), {"D": 0.25, "A": 0.25, "both": 0.25, "none": 0.25}),
    # the H channel's click reads as the first label, whatever it names
    (("V", "H"), {"V": 0.25, "H": 0.25, "both": 0.25, "none": 0.25}),
])
def test_click_outcomes_follow_the_channel_labels(labels, outcomes):
    hv = SparseHybridState(2, frozenset({1}), {
        BasisLabel.make((AtomLevel.G, AtomLevel.G),
                        {PhotonMode(1, "H"): 1, PhotonMode(1, "V"): 1}): 1.0})
    h_only = SparseHybridState(2, frozenset({1}), {
        BasisLabel.make((AtomLevel.G, AtomLevel.G), {PhotonMode(1, "H"): 1}): 1.0})
    entries = detect_all(hv, detector_net(efficiency=0.5, labels=labels))
    got = {e.pattern[0].outcome: e.probability for e in entries}
    assert got == pytest.approx(outcomes, abs=1e-15)
    assert len(entries) == len(outcomes)
    assert [e.pattern[0].outcome for e in detect_all(h_only, detector_net(labels=labels))] \
        == [labels[0]]


@pytest.mark.parametrize("labels", [("X", "X"), ("none", "V"), ("H", "both")],
                         ids=["equal", "none", "both"])
def test_colliding_channel_labels_are_refused(labels):
    # each once ran: equal labels merged the two single clicks into one
    # outcome, and a channel named "none" read its clicks as no click
    with pytest.raises(NetworkError, match="detector D has colliding channel labels"):
        detector_net(labels=labels)
    # labels shared across detectors stay allowed: every built-in uses H, V
    NetworkConfig((Detector(rail=1, id="D1"), Detector(rail=2, id="D2")))


def test_a_layout_of_many_detectors_reads_like_its_busy_ones():
    # a pattern takes two bits per detector, so past 31 detectors it no
    # longer fits in an int64; the idle detectors only add "none" records
    busy = (Detector(33, "D33", 0.8, 0.1), Detector(34, "D34", 0.8, 0.1))
    idle = tuple(Detector(r, f"D{r:02d}") for r in range(1, 33))
    state = photon_superposition(34, {"H": 0.6, "V": 0.8})
    few = detect_all(state, NetworkConfig(busy))
    many = detect_all(state, NetworkConfig(idle + busy))
    assert [e.pattern[32:] for e in many] == [e.pattern for e in few]
    assert all(r.outcome == "none" for e in many for r in e.pattern[:32])
    assert [e.probability.hex() for e in many] == [e.probability.hex() for e in few]


def test_dark_counts_upgrade_empty_detector():
    vac = SparseHybridState(1, frozenset({1}), {BasisLabel.make(("g",)): 1.0})
    p_dc = 1e-3
    entries = detect_all(vac, detector_net(dark_probability=p_dc))
    outcomes = {e.pattern[0].outcome: e.probability for e in entries}
    assert sum(outcomes.values()) == pytest.approx(1.0, abs=1e-12)
    assert outcomes["none"] == pytest.approx(1.0 - p_dc, abs=1e-12)
    assert outcomes["H"] == pytest.approx(p_dc / 2, rel=1e-6)
    assert outcomes["V"] == pytest.approx(p_dc / 2, rel=1e-6)


def test_network_validation():
    with pytest.raises(NetworkError):
        # PBS output collides with its own input
        NetworkConfig((PBS(in_a=1, in_b=2, out_1=1, out_2=3),))
    with pytest.raises(NetworkError):
        NetworkConfig((Detector(rail=1, id="D"), Detector(rail=2, id="D")))
    with pytest.raises(NetworkError):
        NetworkConfig((Detector(rail=1, id="D", efficiency=1.5),))
    # a layout file's "labels": "D" (was an IndexError traceback at detection)
    with pytest.raises(NetworkError, match="detector D has 1 channel labels, not 2"):
        NetworkConfig((Detector(rail=1, id="D", labels=("D",)),))


def with_rail_loss(network, transmission):
    """``network`` with a ``Loss`` of ``transmission`` after each QWP: a
    built-in network's lossy twin, its rail loss an element of the layout."""
    elements = []
    for el in network.elements:
        elements.append(el)
        if isinstance(el, QWP):
            elements.append(Loss(el.rail, transmission))
    return NetworkConfig(tuple(elements))


def test_network_refuses_transmission_above_one():
    with pytest.raises(NetworkError, match="transmission must be in"):
        with_rail_loss(default_four_atom_network(), 1.2)


def test_default_network_round_trips_through_json():
    net = default_four_atom_network()
    assert network_from_json(network_to_json(net)) == net


def test_network_from_json_reports_bad_element():
    doc = json.loads(network_to_json(default_four_atom_network()))
    doc["elements"][3]["type"] = "mystery"
    with pytest.raises(NetworkError, match="3"):
        network_from_json(json.dumps(doc))


# one element of each kind, every field off its default
ALL_KINDS = (QWP(3), HWP(4, 11.25), PBS(3, 4, 7, 8), Loss(7, 0.375),
             Detector(7, "DX", 0.625, 0.125, ("R", "L")), Detector(8, "DY"))


def test_every_element_kind_round_trips_through_json():
    net = NetworkConfig(ALL_KINDS)
    assert network_from_json(network_to_json(net)) == net


def test_each_element_is_written_as_its_type_and_its_fields():
    written = json.loads(network_to_json(NetworkConfig(ALL_KINDS)))["elements"]
    assert len(written) == len(ALL_KINDS)
    for el, doc in zip(ALL_KINDS, written):
        assert doc["type"] == type(el).__name__.lower()
        assert set(doc) == {"type", *(f.name for f in fields(el))}


def test_a_detector_written_without_its_optional_fields_reads_their_defaults():
    doc = {"elements": [{"type": "detector", "rail": 8, "id": "DY"}]}
    assert network_from_json(json.dumps(doc)).elements == \
        (Detector(8, "DY", 1.0, 0.0, ("H", "V")),)


def _schema_checks(doc):
    """(instance, schema, path) of each schema check ``network_from_json``
    makes on layout ``doc``, in order: the document, then each element's
    ``type`` and then its class's fields."""
    yield doc, optics._LAYOUT_SCHEMA, ()
    for i, element in enumerate(doc["elements"]):
        yield element, optics._RECORD_SCHEMA, ("elements", i)
        yield element, optics._ELEMENT_TYPES[element["type"]][1], ("elements", i)


def best_match_refusal(doc) -> str:
    """The refusal of layout ``doc`` in the words of jsonschema's
    ``best_match``, run on the record and schema of its first failing check."""
    for instance, schema, path in _schema_checks(doc):
        error = best_match(Draft202012Validator(schema).iter_errors(instance))
        if error is not None:
            loc = "/".join(map(str, path + tuple(error.absolute_path))) or "<root>"
            return f"layout field {loc}: {error.message}"
    raise AssertionError(f"{doc} passes every layout schema")


@pytest.mark.parametrize("element", [
    {"type": "pbs", "in_a": 3, "in_b": 4, "out_1": 7},
    {"type": "hwp", "rail": 3, "angle_deg": "x"},
    ["qwp", 3],
    {"type": ["qwp"], "rail": 3},
    {"type": "mirror", "rail": 3},
    {"rail": 3},
], ids=["missing-field", "unparsable-number", "list-element", "list-type", "unknown-type",
        "no-type"])
def test_a_malformed_element_is_reported_with_its_index(element):
    doc = {"elements": [{"type": "qwp", "rail": 3}, element]}
    with pytest.raises(NetworkError) as exc:
        network_from_json(json.dumps(doc))
    assert str(exc.value) == best_match_refusal(doc)
    assert str(exc.value).startswith("layout field elements/1")


@pytest.mark.parametrize("elements", [5, None, "qwp"])
def test_elements_that_are_no_list_are_a_malformed_document(elements):
    # 5 and None were a TypeError traceback
    doc = {"elements": elements}
    with pytest.raises(NetworkError) as exc:
        network_from_json(json.dumps(doc))
    assert str(exc.value) == best_match_refusal(doc)
    assert str(exc.value).startswith("layout field elements: ")


def _element_schemas():
    return [optics._LAYOUT_SCHEMA, optics._RECORD_SCHEMA,
            *(schema for _, schema in optics._ELEMENT_TYPES.values())]


def test_every_element_schema_passes_its_metaschema():
    assert [cls for cls, _ in optics._ELEMENT_TYPES.values()] == \
        list(typing.get_args(optics.Element))
    for schema in _element_schemas():
        Draft202012Validator.check_schema(schema)


def test_every_element_schema_uses_only_the_keywords_its_walker_checks():
    for schema in _element_schemas():
        assert set(schema_keywords(schema)) <= WALKER_KEYWORDS


@pytest.mark.parametrize("element", [
    {"type": "detector", "rail": 3, "id": "D", "efficency": 0.5},
    {"type": "qwp", "rail": 3, "angle_deg": 45.0},
    {"type": "detector", "rail": 3, "id": "D", "efficiency": True},
    {"type": "qwp", "rail": True},
    {"type": "qwp", "rail": "3"},
    {"type": "qwp", "rail": 1.7},
    {"type": "detector", "rail": 3, "id": 5},
    {"type": "detector", "rail": 3, "id": "D", "labels": "DA"},
    {"type": "detector", "rail": 3, "id": "D", "labels": ["D", 1]},
    {"type": "loss", "rail": 3, "transmission": 10 ** 400},
], ids=["misspelled-key", "foreign-key", "bool-float", "bool-int", "str-int", "fraction-int",
        "int-str", "str-labels", "int-label", "int-beyond-float"])
def test_a_layout_value_of_the_wrong_type_is_refused(element):
    # each read as a different value (or a default) with exit 0
    doc = {"elements": [{"type": "qwp", "rail": 3}, element]}
    with pytest.raises(NetworkError) as exc:
        network_from_json(json.dumps(doc))
    if element.get("transmission") == 10 ** 400:
        # a JSON number: NetworkConfig's range check refuses it
        assert str(exc.value) == "transmission must be in [0, 1]"
    else:
        assert str(exc.value) == best_match_refusal(doc)
        assert str(exc.value).startswith("layout field elements/1")


def test_an_integral_float_in_an_integer_field_reads_as_the_integer():
    (qwp,) = network_from_json('{"elements": [{"type": "qwp", "rail": 3.0}]}').elements
    assert qwp == QWP(3) and type(qwp.rail) is int


def test_default_network_acceptance():
    entries = run_network(four_source_state(), default_four_atom_network())
    assert sum(e.probability for e in entries) == pytest.approx(1.0, abs=1e-12)
    accepted = [e for e in entries if e.accepted]
    assert len(accepted) == 16
    for e in accepted:
        assert e.probability == pytest.approx(1.0 / 128.0, abs=1e-12)


def test_default_network_corrections_are_z_only():
    entries = run_network(four_source_state(), default_four_atom_network())
    target = build_four_qubit_target().state
    correction_table([e for e in entries if e.accepted], target)
    for e in entries:
        if not e.accepted:
            continue
        assert e.correctable
        assert e.corrected_fidelity == pytest.approx(1.0, abs=1e-12)
        assert all(name == "Z" for _, name in e.correction)


def test_all_plus_pattern_needs_no_correction():
    entries = run_network(four_source_state(), default_four_atom_network())
    target = build_four_qubit_target().state
    correction_table([e for e in entries if e.accepted], target)
    for e in entries:
        if e.accepted and all(r.outcome == "D" for r in e.pattern):
            assert e.correction == []


def test_parity_check_network_topology():
    net = parity_check_network()
    assert len(net.detectors) == 2
    assert {d.id for d in net.detectors} == {"DI", "DII"}
    assert all(d.labels == ("D", "A") for d in net.detectors)


def apply_correction(state, ops):
    """The sparse reference: each (atom, "X" or "Z") op applied in turn."""
    for idx, name in ops:
        state = apply_local_unitary(state, idx, {"X": PAULI_X, "Z": PAULI_Z}[name])
    return state


def reference_correction(entry, target, threshold=1.0 - 1e-9):
    """The plain search: correct every branch, then take the ensemble fidelity."""
    best_ops, best_fid = [], -1.0
    for ops in reference_candidates(target.n_atoms):
        corrected = Ensemble((w, apply_correction(s, ops)) for w, s in entry.post_state.branches)
        fid = fidelity(corrected, target)
        if fid > best_fid + 1e-15:
            best_ops, best_fid = ops, fid
        if best_fid >= threshold:
            break
    return best_ops, best_fid


def assert_matches_reference(entries, target):
    expected = [reference_correction(e, target) for e in entries if e.accepted]
    correction_table(entries, target)
    got = [(e.correction, e.corrected_fidelity) for e in entries if e.accepted]
    assert [ops for ops, _ in got] == [ops for ops, _ in expected]
    for (_, fid), (_, ref) in zip(got, expected):
        assert abs(fid - ref) <= 1e-15


LEVELS = tuple(AtomLevel)  # G, E first, then the four non-qubit levels


def random_atom_state(rng, n_atoms, n_terms, p_qubit=0.8):
    """Random atoms-only state; a level is G/E with probability ``p_qubit``,
    otherwise one of the four levels the Pauli corrections leave alone."""
    terms = {}
    for _ in range(n_terms):
        atoms = tuple(
            LEVELS[rng.integers(2)] if rng.random() < p_qubit
            else LEVELS[2 + rng.integers(4)] for _ in range(n_atoms))
        terms[BasisLabel(atoms, ())] = complex(rng.normal(), rng.normal())
    return SparseHybridState(n_atoms, frozenset(), terms).normalized()


def random_ops(rng, n_atoms):
    """X then Z on atom 0, and a random X/Z/XZ/identity on each other atom."""
    ops = [(0, "X"), (0, "Z")]
    for i in range(1, n_atoms):
        ops += [(i, ch) for ch in "XZ" if rng.random() < 0.5]
    return ops


@given(seed=st.integers(min_value=0, max_value=10**6))
@settings(max_examples=30, deadline=None)
def test_correction_table_matches_branchwise_search(seed):
    rng = np.random.default_rng(seed)
    n_atoms = int(rng.integers(1, 4))
    target = random_atom_state(rng, n_atoms, 2 ** n_atoms, p_qubit=1.0)
    ensembles = []
    for _ in range(int(rng.integers(1, 4))):
        branches = []
        if rng.random() < 0.3:
            # exactly correctable: the search stops at fidelity 1
            branches.append((1.0, apply_correction(target, random_ops(rng, n_atoms))))
        else:
            for _ in range(int(rng.integers(1, 4))):
                branch = random_atom_state(rng, n_atoms, int(rng.integers(1, 7)))
                branches.append((rng.uniform(0.1, 1.0), branch.scaled(rng.uniform(0.5, 2.0))))
        ensembles.append(branches)
    assert_matches_reference(one_table(ensembles), target)


@given(seed=st.integers(min_value=0, max_value=10**6))
@settings(max_examples=30, deadline=None)
def test_corrected_target_overlap_identity(seed):
    # <t|P_k..P_1 s> = <P_1..P_k t|s> as complex numbers: the ops act on the
    # target in reverse order (XZ and ZX on one atom differ by a sign)
    rng = np.random.default_rng(seed)
    n_atoms = int(rng.integers(1, 4))
    t = random_atom_state(rng, n_atoms, 4)
    s = random_atom_state(rng, n_atoms, 4)
    ops = random_ops(rng, n_atoms)
    lhs = inner_product(t, apply_correction(s, ops))
    rhs = inner_product(apply_correction(t, reversed(ops)), s)
    assert lhs == pytest.approx(rhs, abs=1e-12)


# ----------------------------------------------------------------------
# corrected targets on the qubit register
# ----------------------------------------------------------------------
def register_mask(ops):
    """(a, b) with X^a Z^b the ops' product up to sign, bit i on atom i."""
    a = b = 0
    for i, name in ops:
        if name == "X":
            a ^= 1 << i
        else:
            b ^= 1 << i
    return a, b


@given(seed=st.integers(min_value=0, max_value=10**6))
@settings(max_examples=50, deadline=None)
def test_register_image_is_the_sparse_correction_up_to_a_global_sign(seed):
    # ops in any order, repeated or not: reordering X and Z on one atom
    # flips the sign of the whole product and nothing else
    rng = np.random.default_rng(seed)
    n_atoms = int(rng.integers(1, 6))
    target = random_qubit_state(rng, n_atoms)
    ops = [(int(rng.integers(n_atoms)), "XZ"[rng.integers(2)])
           for _ in range(int(rng.integers(8)))]
    expected, on_register = optics._qubit_amplitudes(apply_correction(target, reversed(ops)))
    assert on_register
    got = optics._pauli_image(optics._qubit_amplitudes(target)[0], *register_mask(ops))
    assert np.array_equal(got, expected) or np.array_equal(-got, expected)


def test_register_projection_leaves_out_terms_off_the_register():
    g, e = AtomLevel.G, AtomLevel.E
    state = SparseHybridState(2, frozenset({1}), {
        BasisLabel.make((g, e)): 0.6,
        BasisLabel.make((AtomLevel.ALPHA, e)): 0.48,
        BasisLabel.make((e, e), {PhotonMode(1, "H"): 1}): 0.64,
    })
    vec, on_register = optics._qubit_amplitudes(state)
    assert not on_register
    assert vec.tolist() == [0.0, 0.0, 0.6, 0.0]  # g on atom 0, e on atom 1: index 0b10


@pytest.mark.parametrize("target", [
    SparseHybridState(2, frozenset(), {BasisLabel.make(("g", "g")): 0.6,
                                       BasisLabel.make(("g", "a'")): 0.8}),
    single_photon(1, "H", n_atoms=2, atoms=("g", "e")),
], ids=["other-level", "photon"])
def test_correction_table_refuses_a_target_off_the_register(target):
    bell = _atom_state({"gg": 1 / math.sqrt(2), "ee": 1 / math.sqrt(2)})
    entries = one_table([[(1.0, bell)]])
    with pytest.raises(StateError, match="outside"):
        correction_table(entries, target)
    assert entries[0].corrected_fidelity is None
    entries[0].accepted = False  # nothing to correct: the empty table's answer
    assert correction_table(entries, target) == (0.0, 0.0)


def count_target_builds(monkeypatch):
    """Record (vector, a, b) for every ``optics._pauli_image`` call: one
    class's corrected target X^a Z^b t, built on the register.  The memoized
    click layouts are cleared first, since a column a layout keeps builds no
    target."""
    protocol._round_layout.cache_clear()
    protocol._fusion_layout.cache_clear()
    calls = []
    image = optics._pauli_image

    def counting(vec, a, b):
        calls.append((vec, a, b))
        return image(vec, a, b)

    monkeypatch.setattr(optics, "_pauli_image", counting)
    return calls


def builds_from(target, vec):
    """Whether ``vec`` is the conjugated register image of ``target``."""
    return np.array_equal(vec, np.conj(optics._qubit_amplitudes(target)[0]))


@pytest.mark.parametrize("eta", [1.0, 0.7])
def test_dark_count_correction_table_matches_branchwise_search(eta):
    psi = tensor(emitted_pair_state(1), emitted_pair_state(2))
    entries = run_network(psi, parity_check_network(detector_efficiency=eta,
                                                    dark_probability=0.05))
    bell = _atom_state({"gg": 1 / math.sqrt(2), "ee": 1 / math.sqrt(2)})
    assert any(len(e.post_state.branches) > 1 for e in entries if e.accepted)
    # one grouped state reaches several patterns (dark clicks, and below unit
    # efficiency missed clicks), so one dense row is scored for each of them
    holders = Counter(i for e in entries if e.accepted
                      for i in {id(s) for _, s in e.post_state.branches})
    assert max(holders.values()) >= (4 if eta < 1.0 else 2)
    assert_matches_reference(entries, bell)
    # dark-count mixtures are not correctable, so every candidate was tried
    assert not any(e.correctable for e in entries if e.accepted)


def test_z_only_exit_builds_only_the_targets_it_tries(monkeypatch):
    # every ideal pattern is fixed by a Z product, so the lazy search must
    # stop inside the 2^4 Z-only prefix instead of building all 4^4 targets
    calls = count_target_builds(monkeypatch)
    entries = run_network(four_source_state(), default_four_atom_network())
    correction_table(entries, build_four_qubit_target().state)
    built = [(a, b) for _, a, b in calls]
    assert 0 < len(built) <= 16
    assert len(set(built)) == len(built)


def reference_candidates(n_atoms):
    """The candidate order as a plain loop over per-atom Pauli labels."""
    for combo in product(*[["I", "Z"] for _ in range(n_atoms)]):
        yield [(i, p) for i, p in enumerate(combo) if p != "I"]
    for combo in product(*[["I", "Z", "X", "XZ"] for _ in range(n_atoms)]):
        if all(p in ("I", "Z") for p in combo):
            continue
        yield [(i, ch) for i, p in enumerate(combo) if p != "I" for ch in p]


def mask_ops(mask, n_atoms):
    """The packed mask a | b << n_atoms as correction ops, X before Z on an atom."""
    return [(i, name) for i in range(n_atoms)
            for name, bit in (("X", i), ("Z", n_atoms + i)) if mask >> bit & 1]


@pytest.mark.parametrize("n_atoms", range(7))
def test_correction_candidates_keep_their_order(n_atoms):
    # with no stabilizer but the identity every candidate is its own class
    got = [mask_ops(mask, n_atoms) for mask in _correction_candidates(n_atoms, {})]
    assert got == list(reference_candidates(n_atoms))


# ----------------------------------------------------------------------
# stabilizer classes of the target
# ----------------------------------------------------------------------
def brute_force_stabilizers(state):
    """Every X^a Z^b with |<t|P|t>| = <t|t>, one Pauli at a time, on the 2^n
    register of the qubit-only ``state`` (atom i as bit i, E = 1), where
    X^a Z^b t(y) = (-1)^popcount(b & (y ^ a)) t(y ^ a)."""
    n = state.n_atoms
    t = np.zeros(1 << n, dtype=complex)
    for label, amp in state.terms.items():
        assert not label.occ
        t[sum({AtomLevel.G: 0, AtomLevel.E: 1}[level] << i
              for i, level in enumerate(label.atoms))] = amp
    y = np.arange(t.size)
    sign = np.array([-1.0 if bin(v).count("1") % 2 else 1.0 for v in y])
    bound = (1.0 - optics.STABILIZER_TOL) * state.norm2()
    return [(a, b) for a in range(1 << n) for b in range(1 << n)
            if abs(np.vdot(t, sign[b & (y ^ a)] * t[y ^ a])) >= bound]


def random_stabilizer_state(rng, n_atoms):
    """A graph state on random edges, each atom in a random Pauli/Hadamard frame."""
    edges = [(i, j) for i in range(n_atoms) for j in range(i + 1, n_atoms)
             if rng.random() < 0.5]
    amplitudes = {}
    for bits in product("ge", repeat=n_atoms):
        sign = (-1) ** sum(bits[i] == bits[j] == "e" for i, j in edges)
        amplitudes["".join(bits)] = sign * 2.0 ** (-n_atoms / 2)
    state = _atom_state(amplitudes)
    frames = [(), (HADAMARD,), (PAULI_X,), (PAULI_Z,), (HADAMARD, PAULI_Z),
              (PAULI_X, HADAMARD)]
    for i in range(n_atoms):
        for u in frames[rng.integers(len(frames))]:
            state = apply_local_unitary(state, i, u)
    return state


def random_qubit_state(rng, n_atoms):
    return random_atom_state(rng, n_atoms, 2 ** n_atoms, p_qubit=1.0)


def test_stabilizer_group_sizes():
    assert len(stabilizer_group(build_four_qubit_target().state)) == 16
    assert len(stabilizer_group(build_fused_six_state().state)) == 64
    assert stabilizer_group(random_qubit_state(np.random.default_rng(5), 4)) == [(0, 0)]


@pytest.mark.parametrize("n", [8, 10])
def test_stabilizer_group_of_a_linear_cluster_has_every_member(n):
    # one Walsh-Hadamard transform of 4^n entries covers every shift
    assert len(stabilizer_group(build_linear_cluster(n).state)) == 2 ** n


def test_stabilizer_group_needs_a_qubit_only_target():
    levels = (AtomLevel.G, AtomLevel.ALPHAP)
    atoms = SparseHybridState(2, frozenset(), {BasisLabel(levels, ()): 1.0})
    assert stabilizer_group(atoms) == [(0, 0)]
    assert stabilizer_group(single_photon(1, "H")) == [(0, 0)]


@pytest.mark.parametrize("seed", range(6))
def test_stabilizer_group_matches_brute_force(seed):
    rng = np.random.default_rng(seed)
    bell = _atom_state({"gg": 1 / math.sqrt(2), "ee": 1 / math.sqrt(2)})
    states = [build_four_qubit_target().state, bell, random_qubit_state(rng, 3)]
    states += [random_stabilizer_state(rng, n) for n in (1, 2, 3, 4)]
    for state in states:
        assert sorted(stabilizer_group(state)) == brute_force_stabilizers(state)


@pytest.mark.parametrize("target", [
    build_four_qubit_target().state,
    build_fused_six_state().state,
    _atom_state({"gg": 1 / math.sqrt(2), "ee": 1 / math.sqrt(2)}),
    *(build_linear_cluster(n).state for n in range(1, 7)),
    random_qubit_state(np.random.default_rng(3), 3),
], ids=["four-qubit", "fused-six", "bell", *(f"linear-{n}" for n in range(1, 7)), "random-3"])
def test_correction_candidates_are_the_first_member_of_each_class(target):
    # two candidates share a class when their product stabilizes the target
    n = target.n_atoms
    stabilizers = set(brute_force_stabilizers(target))
    firsts = []
    for ops in reference_candidates(n):
        a, b = register_mask(ops)
        mask = a | b << n
        if all(((mask ^ f) & ((1 << n) - 1), (mask ^ f) >> n) not in stabilizers
               for f in firsts):
            firsts.append(mask)
    basis = optics._echelon_basis(stabilizer_group(target), n)
    assert list(_correction_candidates(n, basis)) == firsts
    assert len(firsts) == 4 ** n // len(stabilizers)


@given(seed=st.integers(min_value=0, max_value=10**6))
@settings(max_examples=30, deadline=None)
def test_coset_search_matches_branchwise_search_on_stabilizer_targets(seed):
    rng = np.random.default_rng(seed)
    n_atoms = int(rng.integers(1, 5))
    target = random_stabilizer_state(rng, n_atoms)
    ensembles = []
    for _ in range(int(rng.integers(1, 4))):
        # the target behind a random Pauli byproduct, alone (exactly
        # correctable) or mixed with other byproducts and noise branches
        branches = [(rng.uniform(0.5, 1.0), apply_correction(target, random_ops(rng, n_atoms)))]
        if rng.random() < 0.7:
            for _ in range(int(rng.integers(1, 4))):
                if rng.random() < 0.5:
                    branch = apply_correction(target, random_ops(rng, n_atoms))
                else:
                    branch = random_atom_state(rng, n_atoms, int(rng.integers(1, 7)))
                branches.append((rng.uniform(0.05, 0.5), branch.scaled(rng.uniform(0.5, 2.0))))
        ensembles.append(branches)
    assert_matches_reference(one_table(ensembles), target)


def fusion_photons(chain_a, chain_b, overlaps=None):
    """The chains' joint state with both end qubits as photons and their atoms
    removed, the input of the sparse fusion path's network run."""
    src_a, src_b = (None, None) if overlaps is None else (0, 1)
    end_a = chain_a.length - 1
    photons = end_qubit_to_photon(tensor(chain_a.state, chain_b.state), end_a, 1, src_a)
    return end_qubit_to_photon(photons, end_a, 2, src_b)


def test_correction_table_of_a_table_with_no_accepted_pattern_is_zero():
    chain = build_four_qubit_target()
    model = ImperfectionModel(detector_efficiency=0.0)
    entries = run_network(fusion_photons(chain, chain), protocol.fusion_network(model))
    assert not any(e.accepted for e in entries)
    result = correction_table(entries, protocol.fuse(chain, chain, model).target.state)
    assert result == (0.0, 0.0) and all(type(x) is float for x in result)
    assert all(e.corrected_fidelity is None for e in entries)


def mixed_count_entries():
    """An entry whose branches hold two and four atoms."""
    return one_table([[(0.5, protocol.build_bell_pair().state),
                       (0.5, build_four_qubit_target().state)]])


def test_correction_table_refuses_entries_of_two_tables():
    # scored as one table, the second table's rows would read the first
    # table's group states: wrong fidelities and no error
    psi = tensor(emitted_pair_state(1), emitted_pair_state(2))
    dark = run_network(psi, parity_check_network(dark_probability=0.05))
    lossy = run_network(psi, parity_check_network(detector_efficiency=0.7))
    bell = _atom_state({"gg": 1 / math.sqrt(2), "ee": 1 / math.sqrt(2)})
    with pytest.raises(StateError, match="more than one table"):
        correction_table(dark + lossy, bell)
    assert all(e.corrected_fidelity is None for e in dark + lossy)
    assert all(correction_table(table, bell)[0] > 0.0 for table in (dark, lossy))


@pytest.mark.parametrize("entries, target", [
    pytest.param(lambda: protocol.fuse(build_four_qubit_target(),
                                       build_four_qubit_target()).entries,
                 build_four_qubit_target, id="fused-six-against-four"),
    pytest.param(mixed_count_entries, protocol.build_bell_pair, id="mixed-branches"),
])
def test_correction_table_refuses_a_target_of_another_atom_count(entries, target):
    entries = entries()
    with pytest.raises(StateError, match="differ in atom count"):
        correction_table(entries, target().state)


# ----------------------------------------------------------------------
# detector efficiency as a click POVM
# ----------------------------------------------------------------------
def loss_in_front_of_detectors(network):
    """The same network with each detector's efficiency moved into a Loss
    element on its rail, in front of an ideal detector (dark counts kept)."""
    elements = []
    for el in network.elements:
        if isinstance(el, Detector):
            elements += [Loss(el.rail, el.efficiency), replace(el, efficiency=1.0)]
        else:
            elements.append(el)
    return NetworkConfig(tuple(elements))


def detector_input(obj, network, monkeypatch):
    """The state that ``run_network`` hands to ``detect_all``."""
    seen = []
    with monkeypatch.context() as m:
        m.setattr(optics, "detect_all", lambda state, net, overlaps=None: seen.append(state) or [])
        run_network(obj, network)
    return seen[0]


def conditional_density_matrix(entry, index):
    """Sum over post-state branches of w |s><s|, on the atom labels in ``index``."""
    amps = np.zeros((len(entry.post_state.branches), len(index)), dtype=complex)
    for row, (_, s) in enumerate(entry.post_state.branches):
        for label, a in s.terms.items():
            amps[row, index[label]] = a
    weights = np.array([w for w, _ in entry.post_state.branches])
    return (amps.T * weights) @ amps.conj()


def assert_same_detection(got, expected):
    """Same patterns, acceptance and probabilities, and conditional density
    matrices within 1e-12."""
    assert [e.pattern for e in got] == [e.pattern for e in expected]
    for g, x in zip(got, expected):
        assert g.accepted == x.accepted
        assert abs(g.probability - x.probability) <= 1e-12
        labels = {l for e in (g, x) for _, s in e.post_state.branches for l in s.terms}
        index = {l: i for i, l in enumerate(labels)}
        diff = conditional_density_matrix(g, index) - conditional_density_matrix(x, index)
        assert np.max(np.abs(diff)) <= 1e-12


def two_photon_channel_state():
    """A channel holding two photons next to one- and zero-photon channels."""
    g, e = AtomLevel.G, AtomLevel.E
    terms = {
        BasisLabel.make((g, g), {PhotonMode(1, "H"): 2}): 0.6,
        BasisLabel.make((e, g), {PhotonMode(1, "H"): 1, PhotonMode(1, "V"): 1}): 0.48j,
        BasisLabel.make((g, e), {PhotonMode(1, "V"): 1}): -0.48,
        BasisLabel.make((e, e), {PhotonMode(1, "V"): 2}): 0.3,
        BasisLabel.make((e, e)): 0.3,
    }
    return SparseHybridState(2, frozenset({1}), terms).normalized()


def detection_cases(rng):
    """(input, network) pairs with random efficiencies in (0, 1)."""
    eta = lambda: float(rng.uniform(0.05, 0.95))
    pair = tensor(emitted_pair_state(1), emitted_pair_state(2))
    return [
        (four_source_state(), with_rail_loss(default_four_atom_network(
            detector_efficiency=eta()), eta())),
        (four_source_state(), with_rail_loss(default_four_atom_network(
            detector_efficiency=eta(), dark_probability=0.02), eta())),
        (pair, parity_check_network(detector_efficiency=eta())),
        (pair, parity_check_network(detector_efficiency=eta(), dark_probability=0.05)),
        (two_photon_channel_state(), detector_net(efficiency=eta())),
        (two_photon_channel_state(), detector_net(efficiency=eta(), dark_probability=0.1)),
    ]


def test_click_povm_matches_loss_before_ideal_detectors(monkeypatch):
    for psi, network in detection_cases(np.random.default_rng(1)):
        expected = run_network(psi, loss_in_front_of_detectors(network))
        state = detector_input(psi, network, monkeypatch)

        def no_loss(*args, **kwargs):
            raise AssertionError("detect_all sent the state through apply_loss")

        with monkeypatch.context() as m:
            m.setattr(optics, "apply_loss", no_loss)
            got = detect_all(state, network)
        assert_same_detection(got, expected)


def test_two_losses_on_one_rail_are_one_loss_of_their_product():
    # each loss has its own sink, so a photon lost at either one is traced
    # out the same way as at a single loss of the product transmission
    psi = four_source_state()
    for dark in (0.0, 0.02):
        base = default_four_atom_network(detector_efficiency=0.8, dark_probability=dark)
        twice = with_rail_loss(with_rail_loss(base, 0.9), 0.7)
        assert len(twice.sinks) == 8 and len(set(twice.sinks)) == 8
        assert_same_detection(run_network(psi, twice),
                              run_network(psi, with_rail_loss(base, 0.9 * 0.7)))


# ----------------------------------------------------------------------
# uniform rail loss is detector inefficiency
# ----------------------------------------------------------------------
RB4 = (dynamics.RB_PARAMS,) * 4


def lossy_twins(cavity_params, t, eta, dark_rate_hz):
    """(input, lossy twin, folded network, overlaps) of a default4 round and
    of a parity-check fusion.  Each twin has ``Loss(t)`` after its QWPs and
    detectors of efficiency eta; the folded network is the one the protocol
    builds for the same model."""
    model = ImperfectionModel(cavity_params, t, eta, dark_rate_hz)
    p_dark = model.dark_probability()
    overlaps = model.overlaps(4)
    round_psi = tensor_all([emitted_pair_state(r, None if overlaps is None else r - 1)
                            for r in (1, 2, 3, 4)])
    chain = build_four_qubit_target()
    fusion_psi = fusion_photons(chain, chain, model.overlaps(2))
    return [
        (round_psi, with_rail_loss(default_four_atom_network(eta, p_dark), t),
         protocol.round_network(model), overlaps),
        (fusion_psi, with_rail_loss(parity_check_network(eta, p_dark), t),
         protocol.fusion_network(model), model.overlaps(2)),
    ]


@pytest.mark.parametrize("seed", range(3))
def test_rail_loss_folds_into_detector_efficiency(seed):
    rng = np.random.default_rng(seed)
    t, eta = (float(x) for x in rng.uniform(0.3, 1.0, 2))
    rate = float(10 ** rng.uniform(1.0, 5.0))  # Hz: dark probabilities 2e-6 to 2e-2
    for dark_rate_hz in (0.0, rate):
        for psi, lossy, folded, overlaps in lossy_twins(RB4, t, eta, dark_rate_hz):
            assert not any(isinstance(el, Loss) for el in folded.elements)
            assert_same_detection(run_network(psi, folded, overlaps=overlaps),
                                  run_network(psi, lossy, overlaps=overlaps))


@pytest.mark.xfail(strict=True, reason="ROADMAP item 3: tagged photons keep their "
                   "source-assignment decomposition from before any loss, so with "
                   "mismatched cavities the fold moves the rejected patterns' "
                   "probabilities")
def test_rail_loss_folds_into_detector_efficiency_with_mismatched_cavities():
    mismatched = (replace(dynamics.RB_PARAMS, kappa=3.0 * 2.0 * math.pi),) + RB4[1:]
    psi, lossy, folded, overlaps = lossy_twins(mismatched, 0.9, 0.8, 0.0)[0]
    assert overlaps is not None
    assert_same_detection(run_network(psi, folded, overlaps=overlaps),
                          run_network(psi, lossy, overlaps=overlaps))


def table_digest(entries):
    """SHA-256 over every entry's pattern, probability, acceptance, correction,
    corrected fidelity and post-state branches, floats as exact hex."""
    h = hashlib.sha256()
    for e in entries:
        fid = None if e.corrected_fidelity is None else e.corrected_fidelity.hex()
        h.update(repr(([(r.detector_id, r.outcome) for r in e.pattern],
                       e.probability.hex(), e.accepted, e.correction, fid)).encode())
        for w, s in e.post_state.branches:
            h.update(w.hex().encode())
            for label, a in s.terms.items():
                h.update(repr(([x.value for x in label.atoms], label.occ,
                               a.real.hex(), a.imag.hex())).encode())
    return h.hexdigest()


# pinned from the implementation that applied detector efficiency through
# apply_loss; at eta = 1 every click probability is exactly 1.0, so the
# tables must not move by a single bit.  Re-pinned when the correction search
# began to score the whole table as one dense matrix product: one corrected
# fidelity per table moved, by 4.4e-16, and every other field kept its bits.
# The dark-count table was re-pinned when the click stage became one
# pattern-by-group matrix: its dark clicks are summed in another order, no
# branch is pruned, and each group state is one branch per pattern; the
# dark-free tables kept their bits
TABLE_DIGESTS = {
    "ideal": "f0355263c8fae3342a387721a7e7b6d0250f441f5ae5336a4395bd8270f1087e",
    "rb": "f0355263c8fae3342a387721a7e7b6d0250f441f5ae5336a4395bd8270f1087e",
    "rb_dark_100hz": "aa2e26a338031dc233d4c1e90682c09dbd9ab0130d29a8c165951dfd35fa943b",
}
UNIT_EFFICIENCY_MODELS = {
    "ideal": ImperfectionModel(),
    "rb": ImperfectionModel(cavity_params=RB4),
    "rb_dark_100hz": ImperfectionModel(cavity_params=RB4, dark_rate_hz=100.0),
}


@pytest.mark.parametrize("name", sorted(UNIT_EFFICIENCY_MODELS))
def test_unit_efficiency_tables_are_bit_identical(name):
    table = protocol.run_generation_round(UNIT_EFFICIENCY_MODELS[name])
    assert table_digest(table.entries) == TABLE_DIGESTS[name]


def test_dark_count_table_builds_one_target_per_class(monkeypatch):
    # 4^4 candidates fall into 16 cosets of the target's stabilizer group
    calls = count_target_builds(monkeypatch)
    table = protocol.run_generation_round(UNIT_EFFICIENCY_MODELS["rb_dark_100hz"])
    assert not any(e.correctable for e in table.entries if e.accepted)
    assert all(builds_from(table.target.state, vec) for vec, _, _ in calls)
    assert 0 < len(calls) <= 16


def test_dark_count_fusion_builds_one_target_per_class(monkeypatch):
    calls = count_target_builds(monkeypatch)
    model = ImperfectionModel(cavity_params=RB4, dark_rate_hz=100.0)
    result = protocol.fuse(build_four_qubit_target(), build_four_qubit_target(), model)
    built = [(a, b) for vec, a, b in calls if builds_from(result.target.state, vec)]
    assert 0 < len(built) <= 64
    assert len(set(built)) == len(built)


# pinned at the first 10-atom fusion test; the per-class targets built on
# the register and with the sparse state ops agree to the bit here
RB_6_6_FUSION = ("0x1.00014dc5a8d18p-1", "0x1.fffd647814b02p-1")


def test_six_plus_six_dark_count_fusion_is_pinned(monkeypatch):
    # no dark-count pattern is correctable, so each of the 10-atom target's
    # 1,024 coset classes is scored once
    calls = count_target_builds(monkeypatch)
    model = ImperfectionModel(cavity_params=RB4, dark_rate_hz=100.0)
    result = protocol.fuse(build_linear_cluster(6), build_linear_cluster(6), model)
    assert result.fused_length == 10
    assert len({(a, b) for _, a, b in calls}) == len(calls) == 1024
    assert (result.acceptance.hex(), result.mean_corrected_fidelity.hex()) == RB_6_6_FUSION


@pytest.mark.parametrize("rail, detector, rate", [
    pytest.param(0.9, 0.9, 100.0, id="0.9-0.9"),
    pytest.param(0.87, 0.6, 100.0, id="0.87-0.6"),
    pytest.param(0.5, 0.5, 100.0, id="0.5-0.5"),
    pytest.param(0.5, 0.5, 1000.0, id="0.5-0.5-1kHz"),
])
def test_dark_count_weights_sum_to_one(rail, detector, rate):
    # no dark-click branch is dropped, however small its weight: every
    # post-heralding ensemble is whole, and so is the table
    model = ImperfectionModel(cavity_params=RB4, rail_transmission=rail,
                              detector_efficiency=detector, dark_rate_hz=rate)
    table = protocol.run_generation_round(model)
    for e in table.entries:
        assert abs(sum(w for w, _ in e.post_state.branches) - 1.0) <= 1e-13
    assert abs(sum(e.probability for e in table.entries) - 1.0) <= 1e-12
