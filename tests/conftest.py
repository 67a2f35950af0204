"""Shared pytest plumbing: collect acceptance-gate lines for the summary, the
state dump that golden-file tests compare, hand-made ensembles built as one
outcome table through the click stage, the ensemble fidelity of the
brute-force correction oracle, the end-qubit photons of the sparse fusion
oracle, and the keywords of a JSON Schema."""

from cavitycluster.hilbert import (
    AtomLevel,
    BasisLabel,
    PhotonMode,
    SparseHybridState,
    StateError,
    inner_product,
)
from cavitycluster.optics import ClickLayout, Detector, NetworkConfig, click_entries

gate_lines: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if gate_lines:
        terminalreporter.section("acceptance criteria")
        for line in gate_lines:
            terminalreporter.write_line(line)


def _mode_text(mode, count: int) -> str:
    src = "" if mode.src is None else f"#{mode.src}"
    rep = f"{mode.rail}{mode.pol}{src}"
    return rep if count == 1 else f"{rep}x{count}"


def debug_text(state) -> str:
    """Deterministic, sorted, human-readable dump of a ``SparseHybridState``."""
    lines = []
    for label in sorted(state.terms,
                        key=lambda l: (tuple(a.value for a in l.atoms),
                                       tuple(m.sort_key() + (c,) for m, c in l.occ))):
        amp = state.terms[label]
        atoms = ",".join(a.value for a in label.atoms)
        modes = " ".join(_mode_text(m, c) for m, c in label.occ) or "vac"
        lines.append(f"|{atoms}; {modes}> -> {amp.real:.12g},{amp.imag:.12g}")
    return "\n".join(lines)


class Ensemble:
    """A hand-made post-state: ``branches`` of (weight, state) pairs, as an
    outcome table entry's post-state has them."""

    def __init__(self, branches=()):
        self.branches = list(branches)


def one_table(ensembles):
    """The entries of one outcome table, built by ``click_entries``, whose
    k-th entry holds the k-th list of (weight, state) branches: each branch
    is a group whose config clicks H or V of ideal detector i by bit i of k,
    so every entry is accepted.  Entries come in k order."""
    width = max(1, (len(ensembles) - 1).bit_length())
    net = NetworkConfig(tuple(Detector(i, f"D{i}") for i in range(width)))
    groups = [(tuple(((f"D{i}", "HV"[k >> i & 1]), 1) for i in range(width)), w, s)
              for k, branches in enumerate(ensembles) for w, s in branches]
    entries = click_entries(ClickLayout(groups, ClickLayout.key_of(net)), net)
    return sorted(entries, key=lambda e: sum((r.outcome == "V") << i
                                             for i, r in enumerate(e.pattern)))


def fidelity(obj, reference) -> float:
    """Overlap fidelity |<ref|s>|^2 / |s|^2 of a state, or weight-averaged
    over the branches of a post-state."""
    if abs(reference.norm2() - 1.0) > 1e-9:
        raise StateError("reference state must be normalized")
    num = 0.0
    den = 0.0
    for w, s in getattr(obj, "branches", [(1.0, obj)]):
        n2 = s.norm2()
        if n2 == 0.0:
            raise StateError("zero-norm branch in fidelity")
        num += w * abs(inner_product(reference, s)) ** 2 / n2
        den += w
    if den == 0.0:
        raise StateError("empty ensemble in fidelity")
    return num / den


def end_qubit_to_photon(state, atom_idx: int, rail: int, src):
    """Map one end qubit of ``state`` to a circular photon on ``rail`` (g -> R,
    e -> L), removing the measured atom, so later atoms shift down by one: the
    sparse fusion path, whose network runs on the chains' whole joint state."""
    out = {}
    for label, amp in state.terms.items():
        lvl = label.atoms[atom_idx]
        if lvl not in (AtomLevel.G, AtomLevel.E):
            raise StateError("fusion qubit must be in the qubit subspace")
        atoms = label.atoms[:atom_idx] + label.atoms[atom_idx + 1:]
        occ = label.occ_map()
        occ[PhotonMode(rail, "R" if lvl is AtomLevel.G else "L", src)] = 1
        out[BasisLabel.make(atoms, occ)] = amp
    return SparseHybridState(state.n_atoms - 1, state.rails | {rail}, out)


#: The JSON Schema keywords ``optics._schema_errors`` checks; it silently
#: skips any other, which jsonschema would check.
WALKER_KEYWORDS = {"type", "enum", "minimum", "maximum", "exclusiveMinimum", "required",
                   "additionalProperties", "items", "minItems", "maxItems", "properties"}


def schema_keywords(schema):
    """Every keyword of ``schema`` and of its subschemas."""
    yield from schema
    subschemas = list(schema.get("properties", {}).values())
    if "items" in schema:
        subschemas.append(schema["items"])
    for sub in subschemas:
        yield from schema_keywords(sub)
