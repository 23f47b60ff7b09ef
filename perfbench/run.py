"""Run one workload of the twdesign benchmark and print its metrics.

    python3 perfbench/run.py --workload desk --seed 0 --seconds 30 --trace 0

Run it from the root of a twdesign checkout; the package is imported from
``src/``.  Each workload runs in child processes of its own (see
``workloads.py``) with BLAS and OpenMP pinned to one thread: one
process that runs the study ``passes`` times, with set-up probes before
and after it.  A latency is the median of one call's repeats, one a
pass; the ``*_p50`` and ``*_tail`` metrics are taken over those per-call
medians, and every end-to-end time is scaled to a fixed speed of a
reference kernel timed in the same process (see ``end_to_end``).  With
``--trace 0`` the last line of standard output is a JSON object holding
every end-to-end metric named in BENCHMARK.json; with
``--trace 1`` every second pass is traced and the object holds the
per-layer metrics instead.  Lines above it repeat the metrics with their
sample counts, the correctness summary and a machine note.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

from tracing import self_times

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / ".out"

# Length of one pass of each workload at the seed commit (2-core x86 VM,
# Python 3.11, numpy 2.4).  A run makes ceil(--seconds / nominal) passes,
# at least two: the pass count, and with it every sample count and
# percentile, is then the same on both sides of a comparison.
NOMINAL_PASS_S = {"desk": 12.5, "dense": 13.0, "cli": 1.8}
MIN_PASSES = 2
# Set-up-only processes besides the measured one, half of them before it
# and half after, so that the set-ups sample more than one speed step.
SETUP_PROBES = 6
# Time of one reference kernel (workloads.reference_kernel) at the speed
# every reported time is scaled to; about its median on the 2-core VM this
# benchmark was written on.  Fixed, so that scaled times compare across runs.
REF_NOMINAL_S = 3e-4
HELD_OUT_SEED = 99  # not to be used while tuning a change; claims are re-checked on it
DEADLINE_S = 170.0
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
          "PYTHONHASHSEED": "0"}


class BenchError(RuntimeError):
    pass


def child(args: list[str], start: float) -> dict:
    """Run workloads.py in a fresh process and return its result file."""
    remaining = DEADLINE_S - (time.perf_counter() - start)
    if remaining <= 0:
        raise BenchError("out of time before all processes ran")
    env = dict(os.environ, **PINNED)
    with tempfile.TemporaryDirectory(dir=HERE, prefix=".work-") as work:
        out = Path(work) / "result.json"
        cmd = [sys.executable, str(HERE / "workloads.py"), *args, "--out", str(out), "--work", work]
        t0 = time.perf_counter()
        try:
            subprocess.run([*cmd, "--t0", repr(t0)], env=env, stdout=sys.stderr,
                           timeout=remaining, check=True)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"workload process timed out after {remaining:.0f} s") from exc
        except subprocess.CalledProcessError as exc:
            raise BenchError(f"workload process exited with code {exc.returncode}") from exc
        return json.loads(out.read_text())


def tail(xs: list[float]):
    """The highest percentile with at least ten samples beyond it."""
    n = len(xs)
    if n < 11:
        raise BenchError(f"a tail needs 11 samples, got {n}")
    return sorted(xs)[n - 11], 100 * (n - 10) // n


def per_call(passes: list[dict], kind: str) -> list[float] | None:
    """Each call's median latency over the passes, or None where the
    passes made different calls (one failed).

    Every pass makes the same calls on the same inputs in the same order,
    so the i-th sample of a kind is the same call in every pass.  Calls
    of one kind differ in cost (another instance, another model), so the
    median of the pooled samples falls between calls of different cost
    and jumps when this machine's speed drifts; the median of each call's
    own repeats, which lie a pass apart, does not.
    """
    rows = [p["lat"].get(kind, []) for p in passes]
    if len({len(r) for r in rows}) != 1:
        return None
    return [statistics.median(col) for col in zip(*rows)]


def end_to_end(res: dict, setups: list[dict]) -> tuple[dict, list[str]]:
    """The end-to-end metrics, every time scaled to the reference speed.

    A time t measured while the reference kernel took r (its median over
    the process that measured t) is reported as t * REF_NOMINAL_S / r.
    This machine's speed drifts by a quarter and more over minutes, in
    steps that outlast a run; the kernel slows with it, and scaling by it
    removes most of the drift from comparisons between runs.  The kernel
    is the benchmark's own code, so a change to twdesign does not move it.
    """
    passes = [p for p in res["passes"] if not p["traced"]]
    walls = [p["wall_s"] for p in passes]
    ref = statistics.median(x for p in passes for x in p["ref"])
    raw = {}
    notes = {"peak_rss_mb": "ru_maxrss of the measured process"}
    calls = per_call(passes, "wall")
    if calls is not None:
        raw["wall_s"] = sum(calls)
        notes["wall_s"] = (f"sum over the {len(calls)} calls of a pass of each call's median over "
                           f"{len(passes)} passes; whole passes took {min(walls):.4g}..{max(walls):.4g} s")
    else:
        raw["wall_s"] = statistics.median(walls)
        notes["wall_s"] = f"median of {len(passes)} passes, which made different calls"

    def latencies(kind):
        xs = per_call(passes, kind)
        if xs is not None:
            return xs, f"each the median of its {len(passes)} passes"
        return [x for p in passes for x in p["lat"].get(kind, [])], "pooled over passes that differ"

    # Where both models run in equal numbers, the median is taken over the
    # sm operations: rm solves are 5-7x faster, so the median of the pool
    # would fall in the gap between the two.  Design is timed on sm only.
    cmd_middle = "cmd.sm" if any(p["lat"].get("cmd.sm") for p in passes) else "cmd"
    for kind, middle in (("solve", "solve.sm"), ("design", "design"), ("cmd", cmd_middle)):
        xs, how = latencies(middle)
        raw[f"{kind}_s_p50"] = statistics.median(xs)
        notes[f"{kind}_s_p50"] = f"median of {len(xs)} {middle} calls, {how}"
        if kind != "design":
            xs, how = latencies(kind)
            raw[f"{kind}_s_tail"], pct = tail(xs)
            notes[f"{kind}_s_tail"] = f"p{pct} of {len(xs)} {kind} calls, 10 beyond, {how}"

    values = {k: v * REF_NOMINAL_S / ref for k, v in raw.items()}
    for k, v in raw.items():
        notes[k] += f"; {v:.6g} s as measured"
    values["setup_s"] = statistics.median(r["setup_s"] * REF_NOMINAL_S / statistics.median(r["ref_setup"])
                                          for r in setups)
    measured = statistics.median(r["setup_s"] for r in setups)
    notes["setup_s"] = (f"median of {len(setups)} set-ups, each scaled by its own process's kernel; "
                        f"{measured:.6g} s as measured")
    values["peak_rss_mb"] = res["peak_rss_mb"]
    lines = [f"reference kernel: median {ref * 1e3:.4g} ms over {sum(len(p['ref']) for p in passes)} runs "
             f"(nominal {REF_NOMINAL_S * 1e3:.4g} ms); times below are scaled by {REF_NOMINAL_S / ref:.4g}"]
    return values, lines + [f"{k}: {notes[k]}" for k in sorted(values)]


def per_layer(res: dict, spans: list[dict]) -> tuple[dict, dict]:
    """Layer metrics from the spans: summed per pass (the set-up counts as
    a pass for the calls it makes), then the median over traced passes."""
    selfs = self_times(spans)
    groups = defaultdict(list)
    for s, own in zip(spans, selfs):
        groups[s["pass"]].append((s, own))

    found = defaultdict(list)  # metric -> one value per pass that made the calls
    for items in groups.values():
        sums = defaultdict(float)
        calls = defaultdict(int)
        for s, own in items:
            name = s["name"]
            calls[name] += 1
            if name == "solver.branch_and_bound":
                m = s["model"]
                sums[f"bnb_s.{m}"] += own
                sums[f"nodes.{m}"] += s["nodes"]
                sums[f"pruned.{m}"] += s["pruned"]
                calls[m] += 1
            elif name == "instance.sample_travel_times":
                sums["sample_s"] += own
                sums["draws"] += s["q"] * s["arcs"]
                sums["clamped"] += s["clamp_rate"] * s["q"] * s["arcs"]
            elif name == "evaluate.evaluate_plan":
                sums["eval_s"] += own
                sums["arrivals"] += s["q"] * s["n"]
            elif name == "cli.main":
                found[f"cli.{s['cmd']}_s"].append(own)  # per call, not per pass
            elif name == "window_design.design_fixed_width":
                sums["fixed_width_s"] += own
                found["window_design.fixed_width_candidates"].append(s["candidates"])
                found["window_design.fixed_width_bytes"].append(s["bytes"])
            else:
                sums[name] += own
        for m in ("sm", "rm"):
            if calls[m]:
                bnb, nodes, pruned = sums[f"bnb_s.{m}"], sums[f"nodes.{m}"], sums[f"pruned.{m}"]
                found[f"solver.bnb_s.{m}"].append(bnb)
                found[f"solver.nodes.{m}"].append(nodes)
                found[f"solver.pruned.{m}"].append(pruned)
                found[f"solver.nodes_per_s.{m}"].append(nodes / bnb)
                found[f"solver.prune_ratio.{m}"].append(pruned / (nodes + pruned))
        if calls["instance.sample_travel_times"]:
            found["instance.sample_s"].append(sums["sample_s"])
            found["instance.draws_per_s"].append(sums["draws"] / sums["sample_s"])
            found["instance.clamp_rate"].append(sums["clamped"] / sums["draws"])
        if calls["evaluate.evaluate_plan"]:
            found["evaluate.eval_s"].append(sums["eval_s"])
            found["evaluate.arrivals_per_s"].append(sums["arrivals"] / sums["eval_s"])
        if calls["window_design.design_fixed_width"]:
            found["window_design.fixed_width_s"].append(sums["fixed_width_s"])
        for metric, names in (
            ("instance.network_s", ("instance.random_network",)),
            ("window_design.design_s", ("window_design.design_stochastic", "window_design.design_dro")),
            ("routing.reprice_s", ("routing.route_cost_sm", "routing.route_cost_rm")),
        ):
            if any(calls[n] for n in names):
                found[metric].append(sum(sums[n] for n in names))

    traced = [p for p in res["passes"] if p["traced"]]
    found["trace.overhead_s"] = [p["trace_overhead_s"] for p in traced]
    plain = [p["wall_s"] for p in res["passes"] if not p["traced"]]
    found["trace.wall_difference_s"] = [statistics.median(p["wall_s"] for p in traced) - statistics.median(plain)]
    values = {k: statistics.median(v) for k, v in found.items()}
    counts = {k: len(v) for k, v in found.items()}
    values["cli.bytes_written"] = statistics.median(p["bytes_written"] for p in res["passes"])
    for key in ("window_design.fixed_width_candidates", "window_design.fixed_width_bytes"):
        values.setdefault(key, 0)
    return values, counts


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(NOMINAL_PASS_S), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    start = time.perf_counter()
    try:
        if not (ROOT / "src" / "twdesign" / "__init__.py").is_file():
            raise BenchError(f"no twdesign sources under {ROOT / 'src'}; run from a checkout")
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        declared = spec["per_layer"] if args.trace else spec["end_to_end"]
        passes = max(MIN_PASSES, math.ceil(args.seconds / NOMINAL_PASS_S[args.workload]))
        base = ["--workload", args.workload, "--seed", str(args.seed)]

        def probes(k):
            return [child([*base, "--setup-only"], start) for _ in range(k)]

        setups = probes(SETUP_PROBES // 2)
        OUT.mkdir(exist_ok=True)
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
        res = child([*base, "--passes", str(passes), "--trace", str(args.trace),
                     "--spans", str(spans_path)], start)
        setups += [res, *probes(SETUP_PROBES - SETUP_PROBES // 2)]

        if args.trace:
            spans = [json.loads(line) for line in spans_path.read_text().splitlines()]
            values, counts = per_layer(res, spans)
            lines = [f"{k}: median of {counts[k]}" for k in sorted(counts)]
        else:
            values, lines = end_to_end(res, setups)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    flags = res["flags"]
    print(f"perfbench workload={args.workload} seed={args.seed} (held-out seed {HELD_OUT_SEED}) "
          f"passes={passes} trace={args.trace}")
    print("machine: " + json.dumps(res["machine"], sort_keys=True))
    print("inputs: " + json.dumps(res["inputs"]))
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    for key in sorted(values):
        print(f"  {key:40s} {values[key]:.6g} {units.get(key, 's')}")
    for line in lines:
        print("    " + line)
    rate = res["failed"] / res["attempted"]
    print(f"error_rate {rate:.6g} ratio ({res['failed']} failed of {res['attempted']} attempted)")
    for op, what in res["failures"].items():
        print(f"  FAILED {op}: {what}")
    print("counts: nodes/pruned repeat across passes: " + ("yes" if flags["counts_repeat"] else "NO")
          + "; match seed-commit reference: " + {True: "yes", False: "NO", None: "no reference for this seed"}[
              flags["counts_match_ref"]])
    for diff in flags.get("count_diffs", []):
        print("  count differs: " + diff)
    if not flags["ref"]:
        print(f"note: no reference recorded for seed {args.seed}; outputs checked for consistency only")

    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        print(f"perfbench: metrics not measured: {missing}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    print(json.dumps({"correct": res["failed"] == 0, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
