"""Command-line front end: generate | sweep | network | oracle | fuse.

Configuration is a single JSON document with explicit unit tags on every
rate (the 2*pi convention is the classic footgun in this domain).  Reports
are CSV (schema comment line + header + rows) or JSON ({rows, checks, meta});
fixed seed and config give byte-identical output.

Exit codes: 0 success, 1 check failure, 2 config error, 3 resource refusal.
"""

from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import io
import json
import math
import sys
# only bench/run.py's tracer reads this name; ROADMAP item 1 removes both
from concurrent.futures import ThreadPoolExecutor  # noqa: F401

import numpy as np

from . import __version__, dynamics, optics, protocol
from .dynamics import PhysicalParams
from .hilbert import StateError
from .protocol import ImperfectionModel

EXIT_OK = 0
EXIT_CHECK_FAIL = 1
EXIT_CONFIG = 2
EXIT_REFUSED = 3

MAX_SWEEP_POINTS = 10 ** 6
#: Cap on the trials of one sampled ``generate`` run.
MAX_SAMPLED_TRIALS = 10 ** 9
#: Cap on the expected draws of one ``fuse`` growth run, one per block and per
#: fusion attempt: a block takes a round or more, so rounds + attempts bound it.
MAX_GROWTH_DRAWS = 10 ** 8
#: Cap on the trials of one ``fuse`` growth run: each costs at least about
#: 2 us of Python.
MAX_GROWTH_TRIALS = 10 ** 6
SAMPLE_BLOCK = 10_000

_RATE_SCHEMA = {
    "type": "object",
    "properties": {
        "value": {"type": "number", "minimum": 0},
        "unit": {"enum": ["rad_per_us", "MHz_2pi"]},
    },
    "required": ["value", "unit"],
    "additionalProperties": False,
}

CONFIG_SCHEMA = {
    "type": "object",
    "properties": {
        "cavities": {
            "type": ["array", "null"],
            "items": {
                "type": "object",
                "properties": {"h": _RATE_SCHEMA, "kappa": _RATE_SCHEMA,
                               "gamma": _RATE_SCHEMA},
                "required": ["h", "kappa", "gamma"],
                "additionalProperties": False,
            },
            "minItems": 1,
            "maxItems": 4,
        },
        "window": {
            "type": "object",
            "properties": {"value": {"type": "number", "exclusiveMinimum": 0},
                           "unit": {"enum": ["us", "per_kappa"]}},
            "required": ["value", "unit"],
            "additionalProperties": False,
        },
        "optics": {
            "type": "object",
            "properties": {
                "rail_transmission": {"type": "number", "minimum": 0, "maximum": 1},
                "detector_efficiency": {"type": "number", "minimum": 0, "maximum": 1},
                "dark_rate_hz": {"type": "number", "minimum": 0},
            },
            "additionalProperties": False,
        },
        "trials": {"type": "integer", "minimum": 0},
        "seed": {"type": ["integer", "null"], "minimum": 0},
        "sweep": {
            "type": "object",
            "properties": {
                "parameter": {"enum": ["gamma", "h", "kappa", "rail_transmission",
                                       "detector_efficiency", "dark_rate_hz"]},
                "values": {"type": "array", "items": {"type": "number"}, "minItems": 1},
                "unit": {"enum": ["rad_per_us", "MHz_2pi", "plain"]},
            },
            "required": ["parameter", "values"],
            "additionalProperties": False,
        },
        "fuse": {
            "type": "object",
            "properties": {"target_length": {"type": "integer", "minimum": 4}},
            "additionalProperties": False,
        },
        "network": {
            "type": "object",
            "properties": {"builtin": {"enum": ["default4", "parity_check"]},
                           "file": {"type": "string"}},
            "additionalProperties": False,
        },
        "oracle": {
            "type": "object",
            "properties": {"sets": {"type": "integer", "minimum": 1}},
            "additionalProperties": False,
        },
    },
    "additionalProperties": False,
}


class ConfigError(Exception):
    pass


class RefusedError(Exception):
    """Input too large to run (exit code EXIT_REFUSED)."""


def _to_float(value, field: str) -> float:
    """``value`` as a float; an integer beyond the float range is refused."""
    try:
        return float(value)
    except OverflowError:
        raise ConfigError(f"config field {field}: an integer of {len(str(value))} digits "
                          "is beyond the float range") from None


def _rate_to_rad_us(doc, field: str) -> float:
    value = _to_float(doc["value"], f"{field}/value")
    return 2.0 * math.pi * value if doc["unit"] == "MHz_2pi" else value


def load_config(path: str | None, overrides: dict) -> dict:
    cfg = {}
    if path is not None:
        try:
            with open(path) as f:
                cfg = json.load(f, parse_constant=optics._finite_float,
                                parse_float=optics._finite_float, parse_int=optics.bounded_int)
        except (OSError, ValueError) as exc:
            # ValueError: undecodable text, malformed JSON, a non-finite number
            # or an integer literal of more than 4,300 digits
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        if not isinstance(cfg, dict):
            raise ConfigError(f"config {path}: top level must be a JSON object, "
                              f"not {type(cfg).__name__}")
    cfg.update({k: v for k, v in overrides.items() if v is not None})
    # refuse an oversized grid before schema validation walks every value
    sweep = cfg.get("sweep")
    if isinstance(sweep, dict) and isinstance(sweep.get("values"), list) \
            and len(sweep["values"]) > MAX_SWEEP_POINTS:
        raise RefusedError(f"refusing sweep with {len(sweep['values'])} points "
                           f"(> {MAX_SWEEP_POINTS})")
    error = optics.schema_error(cfg, CONFIG_SCHEMA)
    if error is not None:
        raise ConfigError(f"config field {error}")
    return cfg


def build_model(cfg: dict) -> ImperfectionModel:
    cavity_params = None
    if cfg.get("cavities"):
        raw = cfg["cavities"]
        if len(raw) not in (1, 4):
            raise ConfigError("cavities must list 1 (shared) or 4 parameter sets")
        params = tuple(PhysicalParams(*(_rate_to_rad_us(c[name], f"cavities/{k}/{name}")
                                        for name in ("h", "kappa", "gamma")))
                       for k, c in enumerate(raw))
        cavity_params = params * 4 if len(params) == 1 else params
    window = None
    if "window" in cfg:
        w = cfg["window"]
        window = _to_float(w["value"], "window/value")
        if w["unit"] == "per_kappa":
            if cavity_params is None or cavity_params[0].kappa == 0:
                raise ConfigError("per_kappa window needs cavity parameters with kappa > 0")
            window /= cavity_params[0].kappa
    opt = cfg.get("optics", {})
    model = ImperfectionModel(
        cavity_params=cavity_params,
        rail_transmission=opt.get("rail_transmission", 1.0),
        detector_efficiency=opt.get("detector_efficiency", 1.0),
        dark_rate_hz=_to_float(opt.get("dark_rate_hz", 0.0), "optics/dark_rate_hz"),
        window=window,
    )
    _check_dark_counts(model)
    return model


def _check_dark_counts(model: ImperfectionModel) -> None:
    """Refuse a dark rate with no observation window, or one whose dark-click
    probability per window exceeds 1 (the schema bounds the rate only below)."""
    try:
        p_dark = model.dark_probability()
    except ValueError as exc:
        raise ConfigError(f"dark_rate_hz {model.dark_rate_hz:g}: {exc}") from exc
    if not p_dark <= 1.0:
        raise ConfigError(f"dark_rate_hz {model.dark_rate_hz:g} over a "
                          f"{model.window_us():.3g} us window gives a dark-click "
                          f"probability of {p_dark:.3g} (> 1)")


def config_hash(cfg: dict) -> str:
    blob = json.dumps(cfg, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


# ----------------------------------------------------------------------
# reporting
# ----------------------------------------------------------------------
_SCALARS = frozenset({str, int, float, bool, type(None)})


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.12g}"
    if x is None:
        return ""
    return str(x)


def _indented_json(obj, depth: int = 0) -> str:
    """``json.dumps(obj, indent=2, sort_keys=True)``, which ``indent`` alone
    would hand to ``json``'s Python encoder.  A list of dicts of plain
    scalars (a report's rows) is one call of the C encoder whose item
    separator carries the indent.  No encoded string holds a line break, so
    ``str.replace`` places the breaks between those dicts and indents a
    nested value's lines."""
    pad = "\n" + "  " * depth
    if type(obj) is dict and obj:
        return "{" + ",".join(f"{pad}  {json.dumps(k)}: {_indented_json(v, depth + 1)}"
                              for k, v in sorted(obj.items())) + pad + "}"
    if type(obj) is not list or not obj or not all(
            type(r) is dict and r and _SCALARS.issuperset(map(type, r.values())) for r in obj):
        return json.dumps(obj, indent=2, sort_keys=True).replace("\n", pad)
    item = pad + "    "
    text = json.dumps(obj, sort_keys=True, separators=("," + item, ": "))[2:-2]
    return (f"[{pad}  {{{item}" + text.replace("}," + item + "{", f"{pad}  }},{pad}  {{{item}")
            + f"{pad}  }}{pad}]")


def write_report(rows: list[dict], checks: list[dict], meta: dict,
                 out_path: str | None, fmt: str) -> None:
    if fmt == "json":
        doc = {"rows": rows, "checks": checks, "meta": meta}
        text = _indented_json(doc) + "\n"
    else:
        columns = list(dict.fromkeys(key for row in rows for key in row))
        buf = io.StringIO()
        print("# schema=1", file=buf)
        # quotes only a field that holds a comma, a quote or a line break
        csv.writer(buf, lineterminator="\n").writerows(
            [columns, *([_fmt(row.get(c)) for c in columns] for row in rows)])
        for chk in checks:
            detail = "" if chk.get("detail") is None else f" detail={_fmt(chk['detail'])}"
            print(f"# check {chk['name']}={'pass' if chk['pass'] else 'FAIL'}{detail}", file=buf)
        text = buf.getvalue()
    if out_path:
        with open(out_path, "w") as f:
            f.write(text)
    else:
        sys.stdout.write(text)


# ----------------------------------------------------------------------
# sampling helpers (deterministic block substreams)
# ----------------------------------------------------------------------
def sample_acceptance_frequency(sampler: protocol.RoundSampler, seed: int,
                                trials: int) -> tuple[float, float]:
    """Accepted fraction and binomial sigma, drawn block by block on the
    calling thread; substreams keyed by (seed, block index) keep it
    deterministic for a given seed."""
    accepted = 0
    for idx, start in enumerate(range(0, trials, SAMPLE_BLOCK)):
        rng = np.random.default_rng([seed, idx])
        accepted += np.count_nonzero(
            sampler.sample_acceptances(rng, min(SAMPLE_BLOCK, trials - start)))
    freq = accepted / trials
    sigma = math.sqrt(max(freq * (1 - freq), 1e-300) / trials)
    return freq, sigma


# ----------------------------------------------------------------------
# literature reference bookkeeping
# ----------------------------------------------------------------------
def _is_rb(params: tuple[PhysicalParams, ...] | None) -> bool:
    if not params:
        return False
    rb = dynamics.RB_PARAMS
    return all(abs(p.h - rb.h) < 1e-9 and abs(p.kappa - rb.kappa) < 1e-9
               and abs(p.gamma - rb.gamma) < 1e-9 for p in params)


def reference_rows(model: ImperfectionModel, table: protocol.GenerationTable) -> list[dict]:
    rows = []
    if model.cavity_params is None:
        rows.append({"quantity": "heralded_acceptance", "literature_value": 0.125,
                     "source": "literature", "derived_value": table.acceptance,
                     "status": "reproduced" if abs(table.acceptance - 0.125) <= 1e-9
                               else "not_reproduced"})
    if _is_rb(model.cavity_params):
        rows.append({"quantity": "joint_emission", "literature_value": 0.208,
                     "source": "literature", "derived_value": table.emission_joint,
                     "status": "unexplained"})
    return rows


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------
def _table_row(point: str, table: protocol.GenerationTable) -> dict:
    """Report row of one exact generation table."""
    row = {"point": point,
           "acceptance_exact": table.acceptance,
           "network_acceptance": table.network_acceptance,
           "emission_joint": table.emission_joint,
           "mean_corrected_fidelity": table.mean_corrected_fidelity}
    for k, leak in enumerate(table.per_cavity_leak):
        row[f"leak_cavity_{k + 1}"] = leak
    return row


def cmd_generate(cfg: dict, args) -> tuple[list[dict], list[dict]]:
    model = build_model(cfg)
    trials = 0 if args.exact_only else cfg.get("trials", 0)
    if trials:  # refuse a sampled run before the table is built
        if cfg.get("seed") is None:
            raise ConfigError("seed is mandatory for sampled runs")
        if trials > MAX_SAMPLED_TRIALS:
            raise RefusedError(f"refusing {trials} sampled trials (> {MAX_SAMPLED_TRIALS})")
    sampler = protocol.RoundSampler(model)
    table = sampler.table
    row = _table_row("generate", table)
    if trials:
        freq, sigma = sample_acceptance_frequency(sampler, cfg["seed"], trials)
        row["acceptance_sampled"] = freq
        row["sampled_ci95"] = 1.96 * sigma
        row["trials"] = trials
    rows = [row]
    for ref in reference_rows(model, table):
        rows.append({"point": f"reference:{ref['quantity']}",
                     "acceptance_exact": None, "network_acceptance": None,
                     "emission_joint": None, "mean_corrected_fidelity": None,
                     **{f"leak_cavity_{k + 1}": None for k in range(4)},
                     "literature_value": ref["literature_value"], "source": ref["source"],
                     "derived_value": ref["derived_value"], "status": ref["status"]})
    checks = [{"name": "entry_probabilities_sum_to_1",
               "pass": abs(sum(table.probs.tolist()) - 1.0) < 1e-9}]
    return rows, checks


def _sweep_config(cfg: dict, param: str, value: float, unit: str | None) -> dict:
    """``cfg`` with the swept rate or optics field set to ``value``."""
    if param in ("gamma", "h", "kappa"):
        if not cfg.get("cavities"):
            raise ConfigError("rate sweeps need cavity parameters in the config")
        rate = {"value": value, "unit": unit or "rad_per_us"}
        return {**cfg, "cavities": [{**c, param: rate} for c in cfg["cavities"]]}
    return {**cfg, "optics": {**cfg.get("optics", {}), param: value}}


def _check_sweep_values(param: str, values: list, unit: str | None) -> None:
    """Refuse a sweep unit that does not fit its parameter, and a sweep value
    outside the schema range of the field it replaces."""
    rate = param in ("gamma", "h", "kappa")
    if unit is not None and (unit == "plain") == rate:
        fits = "'rad_per_us' or 'MHz_2pi'" if rate else "'plain'"
        raise ConfigError(f"sweep unit {unit!r} does not fit {param} (use {fits})")
    if rate:
        field = _RATE_SCHEMA["properties"]["value"]
    else:
        field = CONFIG_SCHEMA["properties"]["optics"]["properties"][param]
    lo, hi = field.get("minimum", -math.inf), field.get("maximum", math.inf)
    for v in values:
        if not lo <= v <= hi:
            raise ConfigError(f"sweep value {v} of {param} is outside [{lo}, {hi}]")


def cmd_sweep(cfg: dict, args) -> tuple[list[dict], list[dict]]:
    if "sweep" not in cfg:
        raise ConfigError("sweep requires a 'sweep' section")
    sweep = cfg["sweep"]
    param = sweep["parameter"]
    unit = sweep.get("unit")  # a rate without one is in rad/us
    _check_sweep_values(param, sweep["values"], unit)
    build_model(cfg)  # the base config's own refusals come first
    # each point is built from its own config: a kappa sweep moves the window
    models = [build_model(_sweep_config(cfg, param, v, unit)) for v in sweep["values"]]
    rows = []
    acceptances = []
    for v, table in zip(sweep["values"], protocol.run_generation_rounds(models)):
        rows.append(_table_row(f"{param}={_fmt(float(v))}", table))
        acceptances.append(table.acceptance)
    # the monotonicity checks read the points in order of the swept value
    acceptances = [a for _, a in sorted(zip(sweep["values"], acceptances),
                                        key=lambda point: point[0])]
    checks = []
    if param == "gamma":
        ok = all(a >= b - 1e-12 for a, b in zip(acceptances, acceptances[1:]))
        checks.append({"name": "acceptance_non_increasing", "pass": ok})
    elif param in ("rail_transmission", "detector_efficiency", "dark_rate_hz"):
        # a dark click only fills an empty detector, so it can complete a
        # four-click pattern but never spoil one
        ok = all(a <= b + 1e-12 for a, b in zip(acceptances, acceptances[1:]))
        checks.append({"name": "acceptance_non_decreasing", "pass": ok})
    return rows, checks


def _load_network(cfg: dict, model: ImperfectionModel):
    net_cfg = cfg.get("network", {"builtin": "default4"})
    if "builtin" in net_cfg and "file" in net_cfg:
        raise ConfigError("network: give builtin or file, not both")
    if "file" in net_cfg:
        with open(net_cfg["file"], "rb") as f:
            return optics.network_from_json(f.read()), "file"
    builtin = net_cfg.get("builtin", "default4")
    if builtin == "parity_check":
        return protocol.fusion_network(model), "parity_check"
    return protocol.round_network(model), "default4"


def cmd_network(cfg: dict, args) -> tuple[list[dict], list[dict]]:
    """Every click pattern of a layout, corrected to its target.  Photons carry no
    source tag, so the cavities set only the dark window (cavity 0's 3/kappa): with
    cavity 1's h at 32.4 MHz against Rb, ``default4`` differs from all-Rb only in
    ``config_hash``; ``generate`` reports fidelity 0.6484, exit 1 (ROADMAP item 28)."""
    model = build_model(cfg)
    try:
        network, kind = _load_network(cfg, model)
        n_inputs = 2 if kind == "parity_check" else 4
        psi = protocol.tensor_all(
            [protocol.emitted_pair_state(r) for r in range(1, n_inputs + 1)])
        entries = optics.run_network(psi, network)
    except (OSError, optics.NetworkError, StateError) as exc:
        # an unreadable or malformed network file, or a layout the photons
        # cannot pass (the built-in networks are neither)
        raise ConfigError(f"network document: {exc}") from exc
    target = (protocol.build_bell_pair() if kind == "parity_check"
              else protocol.build_four_qubit_target())
    optics.correction_table(entries, target.state)
    rows = []
    for e in entries:
        rows.append({
            "pattern": "|".join(f"{r.detector_id}:{r.outcome}" for r in e.pattern),
            "probability": e.probability,
            "accepted": e.accepted,
            "correction": "".join(f"{n}{i}" for i, n in (e.correction or [])) or
                          ("I" if e.accepted else ""),
            "corrected_fidelity": e.corrected_fidelity,
            "correctable": e.correctable,
        })
    total = sum(e.probability for e in entries)
    accepted = [e for e in entries if e.accepted]
    reachable = bool(accepted) and all(e.correctable for e in accepted)
    checks = [
        {"name": "probabilities_sum_to_1", "pass": abs(total - 1.0) < 1e-9,
         "detail": total},
        {"name": "target_reachable", "pass": reachable,
         "detail": None if reachable else "target unreachable"},
    ]
    return rows, checks


ORACLE_SEED = 20260826


def oracle_draws(sets: int):
    """The oracle's random rate sets, log-uniform on [0.1, 300] rad/us, about
    a fifth of them steered to within ~1e-6 of the degenerate-beta manifold."""
    rng = np.random.default_rng(ORACLE_SEED)
    for _ in range(sets):
        h, kappa, gamma = np.exp(rng.uniform(np.log(0.1), np.log(300.0), size=3))
        if rng.random() < 0.2:
            # steer onto the degenerate-beta manifold: pick h so that
            # (kappa + gamma/2)^2 = 2 (gamma kappa + h^2), when reachable
            h_crit2 = (kappa + gamma / 2.0) ** 2 / 2.0 - gamma * kappa
            if h_crit2 > 0:
                h = math.sqrt(h_crit2) * (1.0 + rng.normal(scale=1e-6))
        yield PhysicalParams(float(h), float(kappa), float(gamma))


def oracle_checks(sets: int = 100) -> list[dict]:
    """Analytic-vs-ODE suite over random rate draws spanning all beta regimes."""
    worst = 0.0
    worst_cons = 0.0
    for p in oracle_draws(sets):
        t_scale = dynamics.decay_timescale(p)
        grid = np.linspace(0.0, min(5.0 * t_scale, 50.0), 12)
        oracle = dynamics.ode_oracle_integrate(p, grid)
        amplitudes = dynamics.amplitudes_of(p)
        for t, o in zip(grid, oracle):
            a = amplitudes(float(t))
            worst = max(worst, abs(a.c_alpha - o.c_alpha), abs(a.c_g - o.c_g),
                        abs(a.c_e - o.c_e))
        cons = abs(dynamics.leak_probability_total(p)
                   + dynamics.spont_probability_total(p) - 1.0)
        quad_dev = abs(dynamics.leak_probability_total(p)
                       - dynamics.leak_probability_quadrature(p))
        worst_cons = max(worst_cons, cons, quad_dev)
    # beta-regime continuity: finite difference across the beta = 0 manifold
    p0 = PhysicalParams(1.0, 4.0, 2.0)  # beta real
    h_crit = math.sqrt(((p0.kappa + p0.gamma / 2.0) ** 2 / 2.0
                        - p0.gamma * p0.kappa))
    eps = 1e-8
    cont_dev = 0.0
    for t in (0.05, 0.2, 0.5):
        lo = dynamics.amplitudes_at(PhysicalParams(h_crit - eps, p0.kappa, p0.gamma), t)
        hi = dynamics.amplitudes_at(PhysicalParams(h_crit + eps, p0.kappa, p0.gamma), t)
        cont_dev = max(cont_dev, abs(lo.c_alpha - hi.c_alpha), abs(lo.c_g - hi.c_g))
    return [
        {"name": "analytic_vs_ode", "pass": worst < 1e-9, "detail": worst},
        {"name": "conservation", "pass": worst_cons < 1e-8, "detail": worst_cons},
        {"name": "beta_continuity", "pass": cont_dev < 1e-7, "detail": cont_dev},
    ]


def cmd_oracle(cfg: dict, args) -> tuple[list[dict], list[dict]]:
    checks = oracle_checks(sets=cfg.get("oracle", {}).get("sets", 100))
    rows = [{"check": c["name"], "pass": c["pass"], "worst_deviation": c["detail"]}
            for c in checks]
    return rows, checks


def cmd_fuse(cfg: dict, args) -> tuple[list[dict], list[dict]]:
    target_length = cfg.get("fuse", {}).get("target_length", 6)
    if target_length < 4 or target_length % 2:
        raise ConfigError("fusion target length must be an even number >= 4")
    model = build_model(cfg)
    trials = cfg.get("trials", 0)
    if trials:  # refuse a growth run before the table and fusion are built
        if cfg.get("seed") is None:
            raise ConfigError("seed is mandatory for sampled runs")
        if trials > MAX_GROWTH_TRIALS:
            raise RefusedError(f"refusing {trials} growth trials (> {MAX_GROWTH_TRIALS})")
    overlaps = model.overlaps(2)
    chain = protocol.build_four_qubit_target()
    result = protocol.fuse(chain, chain, model)
    rows = [{
        "point": "fuse_4_4",
        "acceptance": result.acceptance,
        "fused_length": result.fused_length,
        "mean_corrected_fidelity": result.mean_corrected_fidelity,
        "visibility": None if overlaps is None else abs(overlaps[0, 1]),
    }]
    checks = [{"name": "fused_length", "pass": result.fused_length == 6,
               "detail": result.fused_length},
              {"name": "fusion_heralded", "pass": result.acceptance > 0.0,
               "detail": result.acceptance}]
    if trials:
        # the stage probabilities depend only on the model: one table and
        # the fusion above serve every trial
        p_gen = protocol.run_generation_round(model).acceptance
        p_fuse = result.acceptance
        try:
            protocol.check_growth(target_length, p_gen, p_fuse)
        except ValueError as exc:
            raise RefusedError(f"refusing growth to length {target_length}: {exc}") from exc
        # the cap counts draws, one per block and one per attempt.  A trial
        # takes one block, then a block and an attempt per fusion attempt,
        # and its f = (L - 4) / 2 successes take f / p_fuse attempts on
        # average: that lower bound refuses a huge target before the O(L) solve
        fusions = (target_length - 4) // 2
        draws = trials * (1 + (2 * fusions / p_fuse if fusions else 0.0))
        bound = "at least"
        if draws <= MAX_GROWTH_DRAWS:
            draws = trials * sum(protocol.expected_growth_counts(target_length, p_fuse))
            bound = "about"
        if draws > MAX_GROWTH_DRAWS:
            raise RefusedError(f"refusing growth: {bound} {draws:.3g} expected draws "
                               f"(> {MAX_GROWTH_DRAWS}; p_gen = {p_gen:.3g}, "
                               f"p_fuse = {p_fuse:.3g})")
        rng = np.random.default_rng([cfg["seed"], 0])
        rounds = attempts = 0  # summed as the trials run: memory stays flat
        for _ in range(trials):
            stats = protocol.grow_chain(target_length, p_gen, p_fuse, rng)
            rounds += stats.generation_rounds
            attempts += stats.fusion_attempts
        rows.append({
            "point": f"grow_to_{target_length}",
            "acceptance": None,
            "fused_length": target_length,
            "mean_corrected_fidelity": None,
            "visibility": None,
            "mean_generation_rounds": rounds / trials,
            "mean_fusion_attempts": attempts / trials,
            "trials": trials,
        })
    return rows, checks


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------
@functools.lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cavitycluster",
        description="Dissipative cavity-QED cluster-state protocol simulator")
    parser.add_argument("command", choices=("generate", "sweep", "network", "oracle", "fuse"))
    parser.add_argument("--config", default=None, help="JSON config path")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--trials", type=int, default=None)
    parser.add_argument("--out", default=None, help="output path (default stdout)")
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    parser.add_argument("--exact-only", action="store_true")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, {"seed": args.seed, "trials": args.trials})
        rows, checks = globals()[f"cmd_{args.command}"](cfg, args)
    except (ConfigError, protocol.CavityError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except RefusedError as exc:
        print(exc, file=sys.stderr)
        return EXIT_REFUSED
    meta = {"seed": cfg.get("seed"), "version": __version__,
            "config_hash": config_hash(cfg)}
    try:
        write_report(rows, checks, meta, args.out, args.format)
    except OSError as exc:  # --out names a missing directory, a directory, ...
        print(f"config error: cannot write report {args.out}: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    return EXIT_OK if all(c["pass"] for c in checks) else EXIT_CHECK_FAIL


if __name__ == "__main__":
    sys.exit(main())
