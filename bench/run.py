"""Benchmark of the cavitycluster CLI: one workload per run, closed loop.

    python3 bench/run.py --workload exact-loss --seed 1 --seconds 16 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 16 --trace 0

One client runs ops back to back; each op is one in-process
``cavitycluster.cli.main(argv)`` call that reads a config file and writes a
JSON report, which the benchmark parses and checks.  Ops are started until
the next one, at the median duration so far, would end after ``--seconds``;
a second op always runs unless the first alone outlasted ``--seconds``.  With ``--trace 0`` the run reports end-to-end
metrics, with op times divided by host-speed samples taken during each op
(see speed.py); with ``--trace 1`` it wraps the package's layer functions
(see tracer.py) and reports per-op layer metrics instead.  The last stdout
line is one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
A run record and, when traced, the spans are written under ``bench/out/``.
See README.md for the workloads, the metrics and what is left out.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from importlib import metadata
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
sys.path.insert(0, str(BENCH_DIR))

import speed  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 3

# the end-to-end figure each workload is named for: a median op time in s, or
# trials per second summed over the run
_NAMED = {
    "exact-loss": ("loss_table_s", "s"),
    "exact-search": ("dark_table_s", "s"),
    "sampled": ("sampled_rounds_per_s", "1/s"),
    "growth": ("growth_trials_per_s", "1/s"),
    "oracle": ("oracle_s", "s"),
}

#: Per-layer metrics of a traced run, all per op unless the unit is a ratio.
LAYER_UNITS = {
    "optics.correction_table_s": "s/op",
    "optics.correction_candidates": "count/op",
    "optics.correction_yield": "ratio",
    "hilbert.apply_local_unitary_calls": "count/op",
    "hilbert.apply_local_unitary_s": "s/op",
    "optics.apply_loss_s": "s/op",
    "optics.detect_all_s": "s/op",
    "optics.run_network_s": "s/op",
    "optics.patterns": "count/op",
    "optics.accepted_patterns": "count/op",
    "optics.post_branches": "count/op",
    "hilbert.post_terms": "count/op",
    "hilbert.apply_rail_jones_s": "s/op",
    "hilbert.tensor_s": "s/op",
    "dynamics.ode_oracle_s": "s/op",
    "dynamics.quadrature_s": "s/op",
    "dynamics.amplitudes_at_calls": "count/op",
    "dynamics.self_s": "s/op",
    "protocol.tables_built": "count/op",
    "protocol.fusions_built": "count/op",
    "protocol.grow_chain_s": "s/op",
    "protocol.sample_acceptances_s": "s/op",
    "protocol.sample_blocks": "count/op",
    "cli.sample_wall_s": "s/op",
    "cli.sample_parallelism": "ratio",
    "cli.self_s": "s/op",
    "cli.load_config_s": "s/op",
    "cli.write_report_s": "s/op",
    "protocol.self_s": "s/op",
    "optics.self_s": "s/op",
    "hilbert.self_s": "s/op",
    "trace.overhead_frac": "ratio",
}

_QUADRATURE = ("dynamics.leak_probability_quadrature",
               "dynamics.spont_probability_quadrature",
               "dynamics.event_probabilities")
_COUNTED_CALLS = ("dynamics.amplitudes_at_calls", "optics.correction_candidates")


# ----------------------------------------------------------------------
# environment
# ----------------------------------------------------------------------
def nproc() -> int:
    return len(os.sched_getaffinity(0))


def sim_threads() -> int:
    """Sampler workers: one per usable core, at most the CLI's own cap of 4."""
    return max(1, min(4, nproc()))


def git_sha() -> str | None:
    """HEAD's commit, or None outside a git repository."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, timeout=30,
                              capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _version(dist: str) -> str | None:
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return None


_SETUP_CODE = """
import sys, time
start = time.perf_counter()
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import cavitycluster.cli, workloads
workloads.make_ops(sys.argv[3], int(sys.argv[4]), sys.argv[5] == "1")
setup = time.perf_counter() - start
import speed
print(setup, speed.host_chunk_s())
"""


def measure_setup(workload: str, seed: int, smoke: bool) -> dict:
    """Seconds a fresh interpreter takes to import the CLI and make the inputs,
    and the reference chunk's time measured in it right afterwards."""
    argv = [sys.executable, "-c", _SETUP_CODE, str(SRC), str(BENCH_DIR),
            workload, str(seed), "1" if smoke else "0"]
    out = subprocess.run(argv, cwd=ROOT, check=True, timeout=120,
                         capture_output=True, text=True).stdout
    setup, chunk = map(float, out.split())
    return {"setup_s": setup, "chunk_s": chunk,
            "scaled_s": setup * speed.REFERENCE_CHUNK_S / chunk}


# ----------------------------------------------------------------------
# tracing
# ----------------------------------------------------------------------
def _count_outcomes(counts, args, entries) -> None:
    """Sizes of a ``detect_all`` outcome table."""
    def add(key, n):
        counts[key] = counts.get(key, 0) + n

    add("optics.patterns", len(entries))
    add("optics.accepted_patterns", sum(1 for e in entries if e.accepted))
    add("optics.post_branches", sum(len(e.post_state.branches) for e in entries))
    add("hilbert.post_terms", sum(len(s.terms) for e in entries
                                  for _, s in e.post_state.branches))


def _count_searched(counts, args, result) -> None:
    """Accepted patterns handed to one ``correction_table`` search."""
    n = sum(1 for e in args[0] if e.accepted)
    counts["optics.searched_patterns"] = counts.get("optics.searched_patterns", 0) + n


def install_tracing(tr: tracing.Tracer) -> None:
    from cavitycluster import cli, dynamics, hilbert, optics, protocol

    mods = (cli, dynamics, hilbert, optics, protocol)

    def span(mod, name, on_result=None):
        label = f"{mod.__name__.rsplit('.', 1)[-1]}.{name}"
        tr.patch(mod, name, tr.span(label, getattr(mod, name), on_result), mods)

    for name in ("main", "load_config", "write_report", "cmd_generate", "cmd_sweep",
                 "cmd_fuse", "cmd_oracle", "sample_acceptance_frequency",
                 "oracle_checks"):
        span(cli, name)
    tr.patch(cli, "ThreadPoolExecutor", tr.executor_class())
    for name in ("run_generation_round", "fuse", "grow_chain"):
        span(protocol, name)
    tr.patch(protocol.RoundSampler, "sample_acceptances",
             tr.span("protocol.sample_acceptances",
                     protocol.RoundSampler.sample_acceptances))
    span(optics, "run_network")
    span(optics, "apply_loss")
    span(optics, "detect_all", _count_outcomes)
    span(optics, "correction_table", _count_searched)
    tr.patch(optics, "_correction_candidates",
             tr.count_yields("optics.correction_candidates",
                             optics._correction_candidates))
    for name in ("apply_local_unitary", "apply_rail_jones", "tensor", "inner_product",
                 "move_modes", "relabel_rail_pols", "drop_atoms"):
        tr.patch(hilbert, name, tr.leaf(f"hilbert.{name}", getattr(hilbert, name)), mods)
    for name in ("ode_oracle_integrate", "leak_probability_quadrature",
                 "spont_probability_quadrature", "event_probabilities"):
        span(dynamics, name)
    tr.patch(dynamics, "amplitudes_at",
             tr.count("dynamics.amplitudes_at_calls", dynamics.amplitudes_at), mods)


def layer_metrics(tr: tracing.Tracer, n_ops: int, op_wall: float) -> tuple[dict, list]:
    """Per-op layer figures from a finished trace, plus the spans themselves."""
    spans = tr.spans()
    leaves = tr.leaves()
    counts = tr.counts()
    self_s: dict[str, float] = {}
    total_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    layer_self: dict[str, float] = {}
    for s in spans:
        name = s["name"]
        self_s[name] = self_s.get(name, 0.0) + s["self_s"]
        total_s[name] = total_s.get(name, 0.0) + s["end"] - s["start"]
        calls[name] = calls.get(name, 0) + 1
        layer = name.split(".", 1)[0]
        layer_self[layer] = layer_self.get(layer, 0.0) + s["self_s"]
    for name, (_, leaf_self) in leaves.items():
        layer = name.split(".", 1)[0]
        layer_self[layer] = layer_self.get(layer, 0.0) + leaf_self
        self_s[name] = leaf_self

    costs = tracing.wrapper_costs()
    overhead = (len(spans) * costs["span"]
                + sum(n for n, _ in leaves.values()) * costs["leaf"]
                + sum(counts.get(k, 0) for k in _COUNTED_CALLS) * costs["count"]
                + tr.hook_seconds())
    candidates = counts.get("optics.correction_candidates", 0)
    sample_wall = total_s.get("cli.sample_acceptance_frequency", 0.0)
    raw = {
        "optics.correction_table_s": self_s.get("optics.correction_table", 0.0),
        "optics.correction_candidates": candidates,
        "hilbert.apply_local_unitary_calls": leaves.get("hilbert.apply_local_unitary",
                                                        (0, 0.0))[0],
        "hilbert.apply_local_unitary_s": self_s.get("hilbert.apply_local_unitary", 0.0),
        "optics.apply_loss_s": self_s.get("optics.apply_loss", 0.0),
        "optics.detect_all_s": self_s.get("optics.detect_all", 0.0),
        "optics.run_network_s": self_s.get("optics.run_network", 0.0),
        "optics.patterns": counts.get("optics.patterns", 0),
        "optics.accepted_patterns": counts.get("optics.accepted_patterns", 0),
        "optics.post_branches": counts.get("optics.post_branches", 0),
        "hilbert.post_terms": counts.get("hilbert.post_terms", 0),
        "hilbert.apply_rail_jones_s": self_s.get("hilbert.apply_rail_jones", 0.0),
        "hilbert.tensor_s": self_s.get("hilbert.tensor", 0.0),
        "dynamics.ode_oracle_s": self_s.get("dynamics.ode_oracle_integrate", 0.0),
        "dynamics.quadrature_s": sum(self_s.get(n, 0.0) for n in _QUADRATURE),
        "dynamics.amplitudes_at_calls": counts.get("dynamics.amplitudes_at_calls", 0),
        "dynamics.self_s": layer_self.get("dynamics", 0.0),
        "protocol.tables_built": calls.get("protocol.run_generation_round", 0),
        "protocol.fusions_built": calls.get("protocol.fuse", 0),
        "protocol.grow_chain_s": self_s.get("protocol.grow_chain", 0.0),
        "protocol.sample_acceptances_s": self_s.get("protocol.sample_acceptances", 0.0),
        "protocol.sample_blocks": calls.get("protocol.sample_acceptances", 0),
        "cli.sample_wall_s": sample_wall,
        "cli.self_s": layer_self.get("cli", 0.0),
        "cli.load_config_s": self_s.get("cli.load_config", 0.0),
        "cli.write_report_s": self_s.get("cli.write_report", 0.0),
        "protocol.self_s": layer_self.get("protocol", 0.0),
        "optics.self_s": layer_self.get("optics", 0.0),
        "hilbert.self_s": layer_self.get("hilbert", 0.0),
    }
    metrics = {k: v / n_ops for k, v in raw.items()}
    metrics["optics.correction_yield"] = (
        counts.get("optics.searched_patterns", 0) / candidates if candidates else 0.0)
    metrics["cli.sample_parallelism"] = (
        total_s.get("protocol.sample_acceptances", 0.0) / sample_wall
        if sample_wall else 0.0)
    metrics["trace.overhead_frac"] = overhead / max(op_wall - overhead, 1e-9)
    return {k: metrics[k] for k in LAYER_UNITS}, spans


# ----------------------------------------------------------------------
# the run
# ----------------------------------------------------------------------
def run_op(cli, op: workloads.Op, check, tmp: Path, index: int,
           probe: speed.SpeedProbe | None) -> dict:
    cfg_path = tmp / f"op{index}.json"
    out_path = tmp / f"op{index}-report.json"
    cfg_path.write_text(op.text)
    argv = [op.command, *op.flags, "--config", str(cfg_path),
            "--out", str(out_path), "--format", "json"]
    with probe or contextlib.nullcontext():
        start = perf_counter()
        try:
            code = cli.main(argv)
        except Exception:  # an op that raises is a failed op; keep measuring
            traceback.print_exc()
            code = None
        wall = perf_counter() - start - (probe.probe_s if probe else 0.0)
    problems = [] if code == 0 else [f"exit code {code}"]
    # a report written before a nonzero exit is checked too, to say what failed
    try:
        report = json.loads(out_path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        if code == 0:
            problems.append(f"unreadable report: {exc}")
    else:
        problems += check(op, report)
    for path in (cfg_path, out_path):
        path.unlink(missing_ok=True)
    return {"index": index, "wall_s": wall, "units": op.units,
            "trials": op.config.get("trials"), "ok": not problems,
            "problems": problems,
            "chunk_s": probe.chunk_s if probe else None,
            "chunk_samples": len(probe.samples) if probe else 0}


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 smoke: bool = False) -> dict:
    """Run one workload and return its result, record and human-readable lines."""
    workload = workloads.WORKLOADS[name]
    threads = sim_threads()
    os.environ["SIM_THREADS"] = str(threads)
    # setup_s is an end-to-end metric, so a traced run does not time setups
    setups = [] if trace else [measure_setup(name, seed, smoke)
                               for _ in range(SETUP_REPEATS)]

    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from cavitycluster import cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"imported cavitycluster from {cli.__file__}, not {SRC}")
    ops = workloads.make_ops(name, seed, smoke)

    tr = tracing.Tracer() if trace else None
    OUT_DIR.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=OUT_DIR))
    results = []
    try:
        if tr is not None:
            install_tracing(tr)
        deadline = perf_counter() + seconds
        while True:
            # the first op pays one-time costs, so a run times a second one
            # unless the first alone outlasted the run
            if len(results) > 1 or (results and results[0]["wall_s"] > seconds):
                expected = statistics.median(r["wall_s"] for r in results)
                if perf_counter() + expected > deadline:
                    break
            i = len(results)
            probe = None if trace else speed.SpeedProbe()
            results.append(run_op(cli, ops[i % len(ops)], workload.check, tmp, i, probe))
    finally:
        if tr is not None:
            tr.restore()
        shutil.rmtree(tmp, ignore_errors=True)

    failed = sum(1 for r in results if not r["ok"])
    # the first op in a process also pays one-time costs (lazy imports, caches
    # and allocator growth), so it is timed only when it is the only op
    warm = results[1:] or results
    timed = [r for r in warm if r["ok"]] or warm
    per_unit = [r["wall_s"] / r["units"] for r in timed]
    lines = [f"workload {name}  seed {seed}  ops {len(results)}  failed {failed}"
             f"  SIM_THREADS={threads}  nproc={nproc()}"]
    for r in results:
        for p in r["problems"]:
            lines.append(f"  op {r['index']} FAILED: {p}")
    spans = None
    if tr is None:
        metrics = {
            "setup_s": {"value": statistics.median(m["scaled_s"] for m in setups),
                        "unit": "s"},
            "op_norm": {"value": statistics.median(
                r["wall_s"] / r["units"] / r["chunk_s"] for r in timed), "unit": "chunks"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024.0, "unit": "MB"},
        }
        op_s = statistics.median(per_unit)
        named, unit = _NAMED[name]
        if unit == "s":
            named_value, basis = op_s, f"median of {len(timed)} ops"
        else:
            named_value = (sum(r["trials"] for r in timed)
                           / sum(r["wall_s"] for r in timed))
            basis = f"sum over {len(timed)} ops"
        table = [
            ("setup_s", metrics["setup_s"]["value"], "s",
             f"median of {len(setups)} setups, at a {speed.REFERENCE_CHUNK_S * 1e3:g} ms chunk"),
            ("setup_raw_s", statistics.median(m["setup_s"] for m in setups), "s",
             f"median of {len(setups)} setups, as timed"),
            ("op_s", op_s, "s", f"median of {len(timed)} ops"
             + (", per sweep point" if name == "exact-loss" else "")),
            (named, named_value, unit, basis),
            ("chunk_s", statistics.median(r["chunk_s"] for r in timed), "s",
             f"median over ops of the mean of {sum(r['chunk_samples'] for r in timed)}"
             " speed samples"),
            ("op_norm", metrics["op_norm"]["value"], "chunks",
             "median over ops of op time / mean chunk time during the op"),
            ("peak_rss_mb", metrics["peak_rss_mb"]["value"], "MB", "ru_maxrss"),
            ("fail_frac", failed / len(results), "ratio",
             f"{failed} of {len(results)} ops"),
        ]
    else:
        layer, spans = layer_metrics(tr, len(results), sum(r["wall_s"] for r in results))
        metrics = {k: {"value": v, "unit": LAYER_UNITS[k]} for k, v in layer.items()}
        table = [(k, v["value"], v["unit"], f"{len(results)} ops")
                 for k, v in metrics.items()]
    for metric, value, unit, basis in table:
        lines.append(f"  {metric:36s} {value:14.6g} {unit:9s} ({basis})")

    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "smoke": smoke, "git_sha": git_sha(), "python": sys.version.split()[0],
        "numpy": _version("numpy"), "scipy": _version("scipy"),
        "jsonschema": _version("jsonschema"), "nproc": nproc(),
        "sim_threads": threads, "setups": setups, "ops": results,
        "metrics": metrics, "op_configs": [ops[r["index"] % len(ops)].config for r in results],
    }
    result = {"correct": failed == 0, "attempted": len(results), "failed": failed,
              "metrics": metrics}
    return {"result": result, "record": record, "spans": spans, "lines": lines}


def write_outputs(run: dict) -> None:
    rec = run["record"]
    stem = f"{rec['workload']}-seed{rec['seed']}-trace{rec['trace']}"
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(rec, indent=1) + "\n")
    if run["spans"] is not None:
        (OUT_DIR / f"{stem}-spans.json").write_text(json.dumps(run["spans"]) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)

    if not (SRC / "cavitycluster" / "cli.py").is_file():
        print(f"bench: no cavitycluster source at {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        code = 0
        for name in workloads.WORKLOADS:
            cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
            code = max(code, subprocess.run(cmd + (["--smoke"] if args.smoke else []),
                                            timeout=900).returncode)
        return code

    run = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                       args.smoke)
    write_outputs(run)
    print("\n".join(run["lines"]))
    print(json.dumps(run["result"]), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
