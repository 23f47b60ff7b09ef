"""One process of the twdesign benchmark: set up one workload and run it.

``run.py`` starts this file in a child process, once per set-up probe
(``--setup-only``) and once for the measured passes, so that set-up time
and peak memory belong to the workload alone.  Every call into twdesign
goes through the public API; the timings and spans are taken around
those calls, never inside ``src/``.

A pass is one run of the workload's whole study.  All passes of a
process use the same inputs, so their outputs must agree exactly; the
first pass is also compared with the values recorded at the seed commit
in ``refs/<workload>.json``, which the benchmark only reads.

The result (latencies, check outcomes, counts) is written as one JSON
file; with ``--trace 1`` every second pass is traced and its spans are
written to ``--spans``.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import gc
import io
import json
import os
import platform
import resource
import sys
import time
import traceback
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

from tracing import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFS = HERE / "refs"

TOL = 1e-9  # absolute tolerance for every float compared (costs are O(1..100))
COUNT_KEYS = ("nodes", "pruned")  # compared exactly, reported apart from failures


_REF_DATA = []


def reference_kernel() -> float:
    """The time of one run of a fixed piece of work that belongs to the
    benchmark, not to twdesign: a Python loop, a numpy partition and a
    small dict, the mix of the program's hot paths.  Its median over a
    run follows the speed of the machine during that run.  It runs once
    untimed first and with the garbage collector off, so that what the
    program left in the caches and on the heap does not enter its time."""
    import numpy as np

    if not _REF_DATA:
        _REF_DATA.append(np.random.default_rng(0).random(20000))

    def work():
        acc = 0.0
        for i in range(3000):
            acc += i * 0.5
        np.cumsum(np.partition(_REF_DATA[0], 10000)[:5000])
        {str(i): i for i in range(300)}

    was_enabled = gc.isenabled()
    gc.disable()
    try:
        work()
        start = time.perf_counter()
        work()
        return time.perf_counter() - start
    finally:
        if was_enabled:
            gc.enable()


def import_twdesign():
    sys.path.insert(0, str(ROOT / "src"))
    import twdesign
    from twdesign import cli

    return twdesign, cli


class Run:
    """Latencies, checks and spans of one process.

    An operation is one call the benchmark makes into the program, or one
    study-wide check.  It fails when it raises or when any check on its
    result fails; ``attempted`` and ``failed`` count operations.
    """

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.ops: set[str] = set()
        self.failed: dict[str, str] = {}
        self.passes: list[dict] = []
        self.cur: dict = {}
        self.depth = 0  # timed operations and checks open around the current call

    def begin_pass(self, index, traced: bool) -> dict:
        self.tracer.enabled = traced
        self.tracer.context = {"pass": index, "cell": ""}
        self.tracer.overhead_s = 0.0
        self.cur = {
            "index": index,
            "traced": traced,
            "lat": defaultdict(list),
            "check_s": 0.0,
            "ref": [],
            "ref_s": 0.0,
            "observed": {},
            "bytes_written": 0,
        }
        return self.cur

    def cell(self, cell_id: str) -> None:
        self.tracer.context["cell"] = cell_id

    @contextmanager
    def timed(self, op: str, span: str, kinds: tuple[str, ...] = (), **attrs):
        """Time one operation; ``kinds`` name the latency lists it joins.

        An operation that no other timed operation or check encloses also
        joins the ``wall`` list: those operations make up the pass.
        """
        self.ops.add(op)
        if not self.depth:
            kinds = (*kinds, "wall")
        self.depth += 1
        start = time.perf_counter()
        try:
            with self.tracer.span(span, op=op, **attrs) as rec:
                yield rec
        finally:
            self.depth -= 1
        elapsed = time.perf_counter() - start
        for kind in kinds:
            self.cur["lat"][kind].append(elapsed)
        if "wall" in kinds and self.cur["index"] != "setup":
            start = time.perf_counter()
            self.cur["ref"].append(reference_kernel())
            self.cur["ref_s"] += time.perf_counter() - start

    @contextmanager
    def checking(self):
        """Checks run outside the timed calls; their time leaves wall_s."""
        start = time.perf_counter()
        self.depth += 1
        try:
            with self.tracer.span("bench.check"):
                yield
        finally:
            self.depth -= 1
            self.cur["check_s"] += time.perf_counter() - start

    def check(self, op: str, ok, what: str) -> None:
        self.ops.add(op)
        if not ok and op not in self.failed:
            self.failed[op] = what

    def fail(self, op: str) -> None:
        self.ops.add(op)
        self.failed.setdefault(op, traceback.format_exc(limit=3).strip().splitlines()[-1])
        traceback.print_exc(file=sys.stderr)

    def observe(self, key: str, **values) -> None:
        self.cur["observed"][key] = values


def note(rec, **attrs) -> None:
    """Attach attributes to a span (a no-op when tracing is off)."""
    if rec is not None:
        rec.update(attrs)


def close(a: float, b: float) -> bool:
    return abs(float(a) - float(b)) <= TOL


def compare_observed(ref: dict, got: dict) -> tuple[list[str], list[str]]:
    """Differences between two observed-value maps: (values, counts)."""
    values, counts = [], []
    for key in sorted(set(ref) | set(got)):
        if key not in ref or key not in got:
            values.append(f"{key}: present on one side only")
            continue
        for field, want in ref[key].items():
            have = got[key].get(field)
            if field in COUNT_KEYS:
                if have != want:
                    counts.append(f"{key}.{field}: {have} != {want}")
            elif isinstance(want, float):
                if have is None or not close(have, want):
                    values.append(f"{key}.{field}: {have!r} != {want!r}")
            elif want and isinstance(want, list) and isinstance(want[0], float):
                if have is None or len(have) != len(want) or not all(map(close, have, want)):
                    values.append(f"{key}.{field}: {have!r} != {want!r}")
            elif have != want:
                values.append(f"{key}.{field}: {have!r} != {want!r}")
    return values, counts


class Study:
    """Layer calls and checks shared by the workloads.

    Every workload keeps its instances fixed and lets the workload seed
    drive the scenario draws only.  Topology changes the work of a solve
    several-fold (complete n=9 sm: 12k to 51k nodes over seeds 0-7) while
    the draws move it by a few percent, so runs on different seeds measure
    the same amount of work and still see different inputs.
    """

    def __init__(self, tw, cli, run: Run, seed: int, work: Path):
        self.tw = tw
        self.cli = cli
        self.run = run
        self.seed = seed
        self.work = work

    def network(self, op, n, seed, complete=False):
        with self.run.timed(op, "instance.random_network", n=n):
            return self.tw.random_network(n, seed=seed, complete=complete)

    def sample(self, op, net, q, seed):
        with self.run.timed(op, "instance.sample_travel_times", q=q, arcs=net.n_arcs) as rec:
            samples = self.tw.sample_travel_times(net, q, seed)
        note(rec, clamp_rate=samples.clamp_rate)
        return samples

    def solve(self, op, net, model, pen, name, timed=True):
        kinds = ("solve", f"solve.{name}") if timed else ()
        with self.run.timed(op, "solver.branch_and_bound", kinds, model=name) as rec:
            res = self.tw.branch_and_bound(net, model, pen)
        note(rec, nodes=res.nodes, pruned=res.pruned)
        return res

    def evaluate(self, op, route, plan, test):
        with self.run.timed(op, "evaluate.evaluate_plan", q=test.q, n=len(route.customers)):
            return self.tw.evaluate_plan(route, plan, test)

    def check_solve(self, op, net, res, name, pen, train, key):
        """objective == re-priced route cost == plan cost, and a fresh
        window design on the route reproduces the returned plan."""
        tw, run = self.tw, self.run
        if name == "sm":
            with run.timed(op + "/reprice", "routing.route_cost_sm"):
                cost = tw.route_cost_sm(res.route, train, pen)
            with run.timed(op + "/design", "window_design.design_stochastic",
                           ("design",) if self.time_design_check else ()):
                plan, _ = tw.design_stochastic(res.route, train, pen)
        else:
            with run.timed(op + "/reprice", "routing.route_cost_rm"):
                cost = tw.route_cost_rm(res.route, net.mean, net.cov, 0.0, pen)
            with run.timed(op + "/design", "window_design.design_dro"):
                plan = tw.design_dro(res.route, net.mean, net.cov, 0.0, pen)
        run.check(op, close(res.objective, cost), f"objective {res.objective!r} != re-priced {cost!r}")
        run.check(op, close(res.objective, res.plan.total_cost),
                  f"objective {res.objective!r} != plan cost {res.plan.total_cost!r}")
        same = (
            tuple(plan.customers) == tuple(res.plan.customers)
            and all(close(a, b) for a, b in zip(plan.lower, res.plan.lower))
            and all(close(a, b) for a, b in zip(plan.upper, res.plan.upper))
        )
        run.check(op, same, "fresh window design differs from the returned plan")
        run.observe(key, seq=list(res.route.seq), objective=res.objective,
                    nodes=res.nodes, pruned=res.pruned)


class Desk(Study):
    """The acceptance-criterion-6 study: sparse n=10 instances 0-19,
    q=1000, beta in {0.05, 0.025}; B&B for sm and rm, evaluation of both
    plans, and fixed-width design on the sm route.  Seed 0 draws exactly
    the scenarios of the acceptance test.  A request (``cmd``) is one
    beta of one instance: two solves, two evaluations and a fixed-width
    call, 40 a pass."""

    name = "desk"
    n = 10
    q = 1000
    betas = (0.05, 0.025)
    instances = 20
    time_design_check = False  # design_s_p50 times design_fixed_width here

    def inputs(self) -> dict:
        return {"n": self.n, "arcs": 3 * self.n, "q_train": self.q, "q_test": self.q,
                "instances": self.instances, "solves": 4 * self.instances,
                "fixed_width_calls": 2 * self.instances, "instance_seeds": f"0..{self.instances - 1}",
                "draw_seeds": f"{self.instances * self.seed}..{self.instances * self.seed + self.instances - 1}"}

    def setup(self):
        self.nets = [self.network(f"setup/net{i}", self.n, i) for i in range(self.instances)]

    def run_pass(self, p):
        tw, run = self.tw, self.run
        stats = defaultdict(list)
        for i, net in enumerate(self.nets):
            draws = self.instances * self.seed + i
            cell = f"p{p}/i{i}"
            run.cell(cell)
            try:
                with run.timed(cell, "bench.cell"):
                    train = self.sample(cell + "/train", net, self.q, tw.substream(draws, "sampling-train"))
                    test = self.sample(cell + "/test", net, self.q, tw.substream(draws, "sampling-test"))
                    out = []
                    for beta in self.betas:
                        pen = tw.penalties_from_beta(beta, beta, self.n)
                        op = f"{cell}/b{beta}"
                        with run.timed(op, "bench.request", kinds=("cmd",)):
                            res_sm = self.solve(op + "/sm", net, tw.SaaModel(train), pen, "sm")
                            rep_sm = self.evaluate(op + "/sm-eval", res_sm.route, res_sm.plan, test)
                            res_rm = self.solve(op + "/rm", net, tw.DroModel(0.0, 0.0), pen, "rm")
                            rep_rm = self.evaluate(op + "/rm-eval", res_rm.route, res_rm.plan, test)
                            n_cand = self.n * self.q * (self.q + 1) // 2 + 1
                            with run.timed(op + "/fixed", "window_design.design_fixed_width", ("design",),
                                           candidates=n_cand, bytes=8 * n_cand):
                                fixed = tw.design_fixed_width(res_sm.route, train, pen)
                        out.append((beta, pen, res_sm, rep_sm, res_rm, rep_rm, fixed))
            except Exception:
                run.fail(cell)
                continue
            with run.checking():
                for beta, pen, res_sm, rep_sm, res_rm, rep_rm, fixed in out:
                    op = f"{cell}/b{beta}"
                    key = f"i{i}/b{beta}"
                    self.check_solve(op + "/sm", net, res_sm, "sm", pen, train, key + "/sm")
                    self.check_solve(op + "/rm", net, res_rm, "rm", pen, train, key + "/rm")
                    run.check(op + "/fixed", fixed.total_cost >= res_sm.plan.total_cost - TOL,
                              f"fixed-width cost {fixed.total_cost!r} below the variable plan's")
                    run.observe(key + "/fixed", shared_width=float(fixed.shared_width),
                                total_cost=float(fixed.total_cost))
                    stats["rm_early", beta].append(rep_rm.early_rate)
                    stats["rm_late", beta].append(rep_rm.late_rate)
                    stats["len", "sm", beta].append(rep_sm.mean_length)
                    stats["len", "rm", beta].append(rep_rm.mean_length)
                    stats["viol", "sm", beta].append(int(rep_sm.early_count.sum() + rep_sm.late_count.sum()))
                    stats["viol", "rm", beta].append(int(rep_rm.early_count.sum() + rep_rm.late_count.sum()))
                    stats["fixed_w", beta].append(fixed.shared_width)
                    stats["var_w", beta].append(float(res_sm.plan.width.mean()))
        with run.checking():
            self.check_criterion_6(f"p{p}/criterion6", stats)

    def check_criterion_6(self, op, st):
        """Assertions (a)-(d) of acceptance criterion 6, on this pass's cells."""
        run = self.run
        if len(st["fixed_w", self.betas[0]]) != self.instances:
            run.check(op, False, "criterion 6 needs every cell of the pass")
            return

        def mean(xs):
            return sum(xs) / len(xs)

        loose, tight = self.betas
        for beta in self.betas:
            run.check(op, mean(st["rm_early", beta]) <= beta + 0.01, f"(a) rm early rate at {beta}")
            run.check(op, mean(st["rm_late", beta]) <= beta + 0.01, f"(a) rm late rate at {beta}")
            run.check(op, mean(st["len", "rm", beta]) >= mean(st["len", "sm", beta]), f"(b) at {beta}")
            run.check(op, mean(st["fixed_w", beta]) >= mean(st["var_w", beta]), f"(d) at {beta}")
        for model in ("sm", "rm"):
            run.check(op, sum(st["viol", model, tight]) < sum(st["viol", model, loose]),
                      f"(c) violations {model}")
            run.check(op, mean(st["len", model, tight]) > mean(st["len", model, loose]), f"(c) length {model}")


class Dense(Study):
    """Complete n=8 graphs, instances 0-15: B&B for sm (q=1000) and rm,
    evaluation of both plans.  Sixteen instances, not a few larger ones,
    so that a run holds enough solves for a tail percentile."""

    name = "dense"
    n = 8
    q = 1000
    beta = 0.05
    topologies = tuple(range(16))
    time_design_check = True  # design_s_p50 times the sm design check here

    def inputs(self) -> dict:
        return {"n": self.n, "arcs": self.n * (self.n + 1), "q_train": self.q, "q_test": self.q,
                "instances": len(self.topologies), "solves": 2 * len(self.topologies),
                "fixed_width_calls": 0, "instance_seeds": f"0..{len(self.topologies) - 1}",
                "draw_seeds": f"{len(self.topologies) * self.seed}..{len(self.topologies) * (self.seed + 1) - 1}"}

    def setup(self):
        self.nets = [self.network(f"setup/net{t}", self.n, t, complete=True) for t in self.topologies]

    def run_pass(self, p):
        tw, run = self.tw, self.run
        pen = tw.penalties_from_beta(self.beta, self.beta, self.n)
        for t, net in zip(self.topologies, self.nets):
            draws = len(self.topologies) * self.seed + t
            cell = f"p{p}/t{t}"
            run.cell(cell)
            try:
                train = self.sample(cell + "/train", net, self.q, tw.substream(draws, "sampling-train"))
                test = self.sample(cell + "/test", net, self.q, tw.substream(draws, "sampling-test"))
                results = []
                for name, model in (("sm", tw.SaaModel(train)), ("rm", tw.DroModel(0.0, 0.0))):
                    with run.timed(f"{cell}/{name}-cell", "bench.cell", kinds=("cmd", f"cmd.{name}")):
                        res = self.solve(f"{cell}/{name}", net, model, pen, name)
                        self.evaluate(f"{cell}/{name}-eval", res.route, res.plan, test)
                    results.append((name, res))
            except Exception:
                run.fail(cell)
                continue
            with run.checking():
                for name, res in results:
                    self.check_solve(f"{cell}/{name}", net, res, name, pen, train, f"t{t}/{name}")


class Cli(Study):
    """In-process ``cli.main`` in a scratch directory: per instance 0-19,
    gen (sparse n=12), solve sm/rm, design sm/rm, eval sm/rm (q=1000),
    then the guideline sweep on instance 0 (3 seeds x 2 beta pairs x
    sm,rm), run three times with the same arguments.

    The guideline command is the slowest one, so it sets ``cmd_s_tail``:
    three sweeps a pass put about 50 of them in a run, and the tail is near
    their 80th percentile instead of the 4th-fastest of about 14.

    The first pass, and every traced one, checks each file against the
    library; the repeated sweeps must write the same bytes, and every
    later pass must write byte-identical files.
    """

    name = "cli"
    n = 12
    q = 1000
    instances = 20
    beta_pairs = ("0.05,0.05", "0.025,0.025")
    sweeps = 3  # guideline commands a pass

    def inputs(self) -> dict:
        return {"n": self.n, "arcs": 3 * self.n, "q_train": self.q, "q_test": self.q,
                "instances": self.instances, "solves": 2 * self.instances,
                "fixed_width_calls": 0, "commands": 7 * self.instances + self.sweeps,
                "guideline_solves": 12 * self.sweeps, "instance_seeds": f"0..{self.instances - 1}",
                "draw_seeds": f"{self.instances * self.seed}..{self.instances * self.seed + self.instances - 1}"}

    def setup(self):
        self.first_pass_dir = None

    def command(self, op, argv, kinds=()):
        """One ``cli.main`` call; its output is kept for failure reports."""
        sink = io.StringIO()
        sub = argv[0]
        with self.run.timed(op, "cli.main", ("cmd", *kinds), cmd=sub) as rec, \
                contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            rc = self.cli.main([str(a) for a in argv])
        note(rec, rc=rc)
        self.run.check(op, rc == 0, f"exit code {rc}: {sink.getvalue().strip()[-200:]}")
        return rc

    def run_pass(self, p):
        run = self.run
        d = self.work / f"pass{p}"
        beta = ["--beta-l", "0.05", "--beta-u", "0.05"]
        for i in range(self.instances):
            m = self.instances * self.seed + i  # --seed of the commands that draw scenarios
            cell = f"p{p}/i{i}"
            run.cell(cell)
            dm = d / f"i{i}"
            inst = dm / "inst.json"
            try:
                self.command(cell + "/gen", ["gen", "--customers", self.n, "--seed", i, "--out", inst])
                for model in ("sm", "rm"):
                    self.command(f"{cell}/solve-{model}", [
                        "solve", "--instance", inst, "--model", model, *beta, "--q-train", self.q,
                        "--seed", m, "--out-dir", dm / f"solve_{model}", "--no-timestamp"],
                        kinds=("solve", f"solve.{model}"))
                for model in ("sm", "rm"):
                    self.command(f"{cell}/design-{model}", [
                        "design", "--instance", inst, "--route", dm / f"solve_{model}" / "route.json",
                        "--model", model, *beta, "--q-train", self.q, "--seed", m,
                        "--out", dm / f"design_{model}.json", "--no-timestamp"],
                        kinds=("design",) if model == "sm" else ())
                for model in ("sm", "rm"):
                    self.command(f"{cell}/eval-{model}", [
                        "eval", "--instance", inst, "--route", dm / f"solve_{model}" / "route.json",
                        "--plan", dm / f"solve_{model}" / "plan.json", "--q-test", self.q, "--seed", m,
                        "--model", model, *beta, "--out", dm / f"eval_{model}.csv"])
            except Exception:
                run.fail(cell)
                continue
            with run.checking():
                try:
                    for name in ("sm", "rm"):
                        with open(dm / f"solve_{name}" / "solve.json") as fh:
                            doc = json.load(fh)
                        run.observe(f"i{i}/{name}", seq=doc["seq"], objective=float(doc["objective"]),
                                    nodes=int(doc["nodes"]), pruned=int(doc["pruned"]))
                    if p == 0 or run.cur["traced"]:
                        self.check_instance(cell, i, m, dm)
                except Exception:
                    run.fail(cell + "/check")
        first = self.instances * self.seed
        pairs = [a for pair in self.beta_pairs for a in ("--beta-pair", pair)]
        outs = [d / f"guideline{k}.csv" for k in range(self.sweeps)]
        for k, out in enumerate(outs):
            cell = f"p{p}/guideline{k}"
            run.cell(cell)
            try:
                self.command(cell, [
                    "guideline", "--instance", d / "i0" / "inst.json", *pairs,
                    "--models", "sm,rm", "--seeds", f"{first},{first + 1},{first + 2}",
                    "--q-train", self.q, "--q-test", self.q, "--out", out])
            except Exception:
                run.fail(cell)
        with run.checking():
            self.check_pass_files(p, d, outs)

    def check_instance(self, cell, i, m, dm):
        """The files written for instance i agree with the library."""
        tw, run = self.tw, self.run
        with run.timed(cell + "/load", "instance.load_instance"):
            net = tw.load_instance(dm / "inst.json")
        want = self.network(cell + "/gen-ref", self.n, i)
        run.check(cell + "/gen", net.arcs == want.arcs and (net.mean == want.mean).all()
                  and (abs(net.cov - want.cov) <= 1e-12).all(), "instance file differs from random_network")
        pen = tw.penalties_from_beta(0.05, 0.05, self.n)
        train = self.sample(cell + "/train", net, self.q, tw.substream(m, "sampling-train"))
        test = self.sample(cell + "/test", net, self.q, tw.substream(m, "sampling-test"))
        for name, model in (("sm", tw.SaaModel(train)), ("rm", tw.DroModel(0.0, 0.0))):
            op = f"{cell}/solve-{name}"
            sd = dm / f"solve_{name}"
            with open(sd / "solve.json") as fh:
                doc = json.load(fh)
            plan = tw.load_plan(sd / "plan.json")
            route = tw.route_to_xy(tw.load_route(sd / "route.json"), net)
            if name == "sm":
                with run.timed(op + "/reprice", "routing.route_cost_sm"):
                    cost = tw.route_cost_sm(route, train, pen)
            else:
                with run.timed(op + "/reprice", "routing.route_cost_rm"):
                    cost = tw.route_cost_rm(route, net.mean, net.cov, 0.0, pen)
            run.check(op, close(doc["objective"], cost), "solve.json objective != re-priced route cost")
            run.check(op, close(doc["objective"], plan.total_cost), "solve.json objective != plan.json cost")
            run.check(op, doc["seq"] == list(route.seq) == list(plan.route_seq), "solve/route/plan seq differ")
            res = self.solve(op + "/library", net, model, pen, name, timed=False)
            run.check(op, list(res.route.seq) == doc["seq"] and close(res.objective, doc["objective"])
                      and (res.nodes, res.pruned) == (doc["nodes"], doc["pruned"]),
                      "library branch_and_bound disagrees with the solve command")

            designed = tw.load_plan(dm / f"design_{name}.json")
            if name == "sm":
                with run.timed(f"{cell}/design-{name}/library", "window_design.design_stochastic"):
                    lib, _ = tw.design_stochastic(route, train, pen)
            else:
                with run.timed(f"{cell}/design-{name}/library", "window_design.design_dro"):
                    lib = tw.design_dro(route, net.mean, net.cov, 0.0, pen)
            run.check(f"{cell}/design-{name}",
                      all(close(a, b) for a, b in zip(designed.lower, lib.lower))
                      and all(close(a, b) for a, b in zip(designed.upper, lib.upper))
                      and close(designed.total_cost, plan.total_cost),
                      "design command differs from the library and the solve plan")

            rep = self.evaluate(f"{cell}/eval-{name}/library", route, plan, test)
            with open(dm / f"eval_{name}.csv", newline="") as fh:
                agg = [row for row in csv.DictReader(fh) if row["customer"] == ""]
            run.check(f"{cell}/eval-{name}", len(agg) == 1
                      and close(float(agg[0]["early_rate"]), rep.early_rate)
                      and close(float(agg[0]["late_rate"]), rep.late_rate),
                      "eval report differs from evaluate_plan")

    def check_pass_files(self, p, d, guideline_csvs):
        """Record the guideline objectives (compared with the reference
        later), check that the repeated sweeps wrote the same bytes, and
        that this pass wrote the same bytes as the first."""
        run = self.run
        op = f"p{p}/files"
        try:
            with open(guideline_csvs[0], newline="") as fh:
                rows = list(csv.DictReader(fh))
            run.check(op, len(rows) == 12, f"guideline wrote {len(rows)} rows, want 12")
            run.observe("guideline", objective=[float(r["objective"]) for r in rows])
            sweep = guideline_csvs[0].read_bytes()
            run.check(op, all(f.read_bytes() == sweep for f in guideline_csvs[1:]),
                      "repeated guideline sweeps wrote different files")
            files = sorted(f for f in d.rglob("*") if f.is_file())
            run.cur["bytes_written"] = sum(f.stat().st_size for f in files)
            if self.first_pass_dir is None:
                self.first_pass_dir = d
                return
            first = self.first_pass_dir
            names = [f.relative_to(d) for f in files]
            same = names == sorted(f.relative_to(first) for f in first.rglob("*") if f.is_file())
            same = same and all((d / n).read_bytes() == (first / n).read_bytes() for n in names)
            run.check(op, same, "artifacts differ byte-wise from the first pass")
        except Exception:
            run.fail(op)


WORKLOADS = {w.name: w for w in (Desk, Dense, Cli)}


def machine_note(tw) -> dict:
    import numpy as np

    blas = "unknown"
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{info.get('name')} {info.get('version')}"
    except (TypeError, KeyError):
        pass
    return {"nproc": os.cpu_count(), "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas, "twdesign": tw.__version__,
            "threads": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                                       "MKL_NUM_THREADS")}}


def check_against(run: Run, passes: list[dict], refs: dict | None) -> dict:
    """Outputs of every pass against the first pass and the reference."""
    first = passes[0]["observed"]
    flags = {"counts_repeat": True, "counts_match_ref": None, "ref": refs is not None}
    for rec in passes[1:]:
        values, counts = compare_observed(first, rec["observed"])
        run.check(f"p{rec['index']}/repeat", not values, "; ".join(values[:3]))
        run.check(f"p{rec['index']}/repeat-counts", not counts, "; ".join(counts[:3]))
        flags["counts_repeat"] &= not counts
    if refs is not None:
        values, counts = compare_observed(refs, first)
        run.check("p0/reference", not values, "; ".join(values[:3]))
        flags["counts_match_ref"] = not counts
        flags["count_diffs"] = counts[:5]
    return flags


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--t0", type=float, required=True, help="perf_counter before this process was started")
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--work", type=Path, required=True, help="scratch directory for written files")
    ap.add_argument("--passes", type=int, default=2)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", type=Path)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    tracer = Tracer(enabled=bool(args.trace))
    run = Run(tracer)
    run.begin_pass("setup", traced=bool(args.trace))
    tw, cli = import_twdesign()
    wl = WORKLOADS[args.workload](tw, cli, run, args.seed, args.work)
    wl.setup()
    result = {"setup_s": time.perf_counter() - args.t0}
    result["ref_setup"] = [reference_kernel() for _ in range(20)]
    if not args.setup_only:
        for p in range(args.passes):
            rec = run.begin_pass(p, traced=bool(args.trace) and p % 2 == 1)
            start = time.perf_counter()
            with tracer.span("bench.pass"):
                wl.run_pass(p)
            rec["wall_s"] = time.perf_counter() - start - rec["check_s"] - rec["ref_s"]
            rec["trace_overhead_s"] = tracer.overhead_s
            run.passes.append(rec)
        ref_path = REFS / f"{args.workload}.json"
        refs = json.loads(ref_path.read_text()) if ref_path.exists() else {}
        flags = check_against(run, run.passes, refs.get(str(args.seed)))
        result.update(
            workload=args.workload,
            seed=args.seed,
            inputs=wl.inputs(),
            machine=machine_note(tw),
            passes=[{k: v for k, v in r.items() if k != "observed"} for r in run.passes],
            attempted=len(run.ops),
            failed=len(run.failed),
            failures=dict(sorted(run.failed.items())[:10]),
            flags=flags,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        )
        if args.trace:
            tracer.write(args.spans)
    args.out.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
