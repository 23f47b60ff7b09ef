"""Package-wide checks: the modules' import order, the README's quick start
and the finite-number rule at every entry point."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import twdesign as tw
from twdesign.window_design import DroPricer

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "twdesign"
# each module imports only from the modules before it; the package's
# __init__ re-exports them all
CHAIN = ["instance", "window_design", "solver", "evaluate", "cli", "__init__"]


def _package_imports(path: Path) -> set[str]:
    """The modules of every ``from .x import`` in a file, at any depth
    (function bodies too); ``from . import`` counts as ``""``."""
    return {
        node.module or ""
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ImportFrom) and node.level
    }


def test_modules_import_along_one_chain():
    assert sorted(p.stem for p in PACKAGE.glob("*.py")) == sorted(CHAIN)
    for pos, name in enumerate(CHAIN):
        imported = _package_imports(PACKAGE / f"{name}.py")
        assert imported <= set(CHAIN[:pos]), f"{name} imports {sorted(imported - set(CHAIN[:pos]))}"


def test_readme_quick_start_runs():
    readme = (ROOT / "README.md").read_text()
    block = re.search(r"## Quick start\s+```python\n(.*?)```", readme, re.S).group(1)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    out = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-c", block],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr


def test_all_lists_exactly_the_imported_names():
    import twdesign

    init = ast.parse((PACKAGE / "__init__.py").read_text())
    imported = {
        alias.asname or alias.name
        for node in init.body
        if isinstance(node, ast.ImportFrom) and node.level
        for alias in node.names
    }
    assert len(twdesign.__all__) == len(set(twdesign.__all__))
    for name in twdesign.__all__:
        getattr(twdesign, name)
    assert set(twdesign.__all__) == imported


def _reads(tree) -> set[str]:
    """The names a module reads, at any depth."""
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


def _private_definitions(tree) -> set[str]:
    """The module-level ``_private`` functions, classes and constants."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {t.id for t in targets if isinstance(t, ast.Name)}
    return {name for name in names if name.startswith("_") and not name.startswith("__")}


def test_modules_leave_no_unread_name():
    # a lint with no linter: no module imports a name it never reads (the
    # package's __init__ imports to re-export), and no module-level
    # _private function, class or constant is left that no module reads
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    read = set().union(*map(_reads, trees.values()))
    for name, tree in trees.items():
        if name != "__init__":
            bound = {
                (alias.asname or alias.name).split(".")[0]
                for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
                for alias in node.names
            }
            assert not bound - _reads(tree), f"{name} imports {sorted(bound - _reads(tree))} and never reads them"
        assert not _private_definitions(tree) - read, f"{name} defines {sorted(_private_definitions(tree) - read)}, never read"


# ---------------------------------------------------------------------------
# the finite-number rule where values enter the library

NAN, INF = float("nan"), float("inf")
REALS = (True, "1", NAN, INF)  # a bool, a string and the non-finite floats
WEIGHTS = REALS + (0, -1)  # a closed-form weight is also > 0
INTS = REALS + (2.0,)  # an id or a count is also no float


def _boundary_context():
    net = tw.random_network(2, seed=0, complete=True)
    return {
        "net": net,
        "samples": tw.sample_travel_times(net, 20, seed=0),
        "pen": tw.penalties_from_beta(0.05, 0.05, 2),
        "route": tw.route_to_xy((0, 1, 2, 0), net),
        "plan": dict(kind="saa", route_seq=(0, 1, 2, 0), customers=(1, 2), lower=[1.0, 2.0], upper=[3.0, 4.0],
                     cost_per_customer=[0.5, 0.5], total_cost=1.0),
    }


def _boundary_rows():
    """(input, call(context, bad value), the bad values, the error it must
    raise): each entry point where a real number or array enters the
    library.  An array input is given filled with the bad value."""
    full = np.full
    arcs, ones, zeros = ((0, 1), (1, 0)), np.ones(2), np.zeros((2, 2))
    moments = "moments and window edges must be finite"
    weights = "penalty weights must be positive and finite"
    return [
        ("Network.time_budget", lambda c, v: tw.Network(2, arcs, ones, zeros, v), REALS,
         "time_budget must be positive and finite"),
        ("random_network.time_budget", lambda c, v: tw.random_network(2, seed=0, time_budget=v), REALS,
         "time_budget must be positive and finite"),
        ("DroModel.alpha1", lambda c, v: tw.DroModel(alpha1=v), REALS, "alpha1 and alpha2 must be finite"),
        ("DroModel.alpha2", lambda c, v: tw.DroModel(alpha2=v), REALS, "alpha1 and alpha2 must be finite"),
        ("DroPricer.alpha2", lambda c, v: DroPricer(c["net"].mean, c["net"].cov, v, c["pen"]), REALS,
         "alpha2 must be finite and nonnegative"),
        ("scarf_earliness.lower", lambda c, v: tw.scarf_earliness(v, 10.0, 4.0), REALS, moments),
        ("scarf_earliness.mean", lambda c, v: tw.scarf_earliness(9.0, v, 4.0), REALS, moments),
        ("scarf_earliness.variance", lambda c, v: tw.scarf_earliness(9.0, 10.0, v), REALS, moments),
        ("scarf_tardiness.upper", lambda c, v: tw.scarf_tardiness(v, 10.0, 4.0), REALS, moments),
        ("dro_window.mean", lambda c, v: tw.dro_window(v, 4.0, 0.05, 1.0, 1.0), REALS, moments),
        ("dro_window.variance", lambda c, v: tw.dro_window(10.0, v, 0.05, 1.0, 1.0), REALS, moments),
        ("penalties_from_beta.beta_l", lambda c, v: tw.penalties_from_beta(v, 0.05, 2), REALS,
         "infeasible confidence"),
        ("penalties_from_beta.beta_u", lambda c, v: tw.penalties_from_beta(0.05, v, 2), REALS,
         "infeasible confidence"),
        ("simulate_waiting.lowers", lambda c, v: tw.simulate_waiting(c["route"], {1: 0.0, 2: v}, c["samples"]),
         REALS, "lower bound for customer 2 must be finite"),
        ("critical_indices.a_w", lambda c, v: tw.critical_indices(10, v, 1.0, 1.0), WEIGHTS, weights),
        ("critical_indices.a_l", lambda c, v: tw.critical_indices(10, 0.05, v, 1.0), WEIGHTS, weights),
        ("critical_indices.a_u", lambda c, v: tw.critical_indices(10, 0.05, 1.0, v), WEIGHTS, weights),
        ("saa_window.a_l", lambda c, v: tw.saa_window([1.0, 2.0, 3.0], 0.05, v, 1.0), WEIGHTS, weights),
        ("gamma_coeffs.a_w", lambda c, v: tw.gamma_coeffs(v, 1.0, 1.0), WEIGHTS, weights),
        ("gamma_coeffs.a_l", lambda c, v: tw.gamma_coeffs(0.05, v, 1.0), WEIGHTS, weights),
        ("gamma_coeffs.a_u", lambda c, v: tw.gamma_coeffs(0.05, 1.0, v), WEIGHTS, weights),
        ("dro_window.a_u", lambda c, v: tw.dro_window(10.0, 4.0, 0.05, 1.0, v), WEIGHTS, weights),
        ("Network.mean", lambda c, v: tw.Network(2, arcs, full(2, v), zeros, 10.0), REALS,
         "mean: entries must be finite"),
        ("Network.cov", lambda c, v: tw.Network(2, arcs, ones, full((2, 2), v), 10.0), REALS,
         "cov: entries must be finite"),
        ("SampleSet.values", lambda c, v: tw.SampleSet(2, full((2, 3), v)), REALS,
         "sample values: entries must be finite"),
        ("PenaltyConfig.a_l", lambda c, v: tw.PenaltyConfig(0.05 * ones, full(2, v), ones), WEIGHTS,
         r"a_l: weights must lie in \(0, 1\]"),
        ("PenaltyConfig.a_u", lambda c, v: tw.PenaltyConfig(0.05 * ones, ones, full(2, v)), WEIGHTS,
         r"a_u: weights must lie in \(0, 1\]"),
        ("PenaltyConfig.a_w 2-D", lambda c, v: tw.PenaltyConfig(full((2, 2), v), ones, ones), (0.05,),
         r"a_w: expected a 1-D array, got shape \(2, 2\)"),
        ("saa_window.arrivals", lambda c, v: tw.saa_window(full(3, v), 0.05, 1.0, 1.0), REALS,
         "arrivals must be finite"),
        ("benders_cut.anchor", lambda c, v: tw.benders_cut(full(6, v), c["samples"], c["pen"], 1), REALS,
         "anchor: entries must be finite"),
        ("oa_cut.anchor", lambda c, v: tw.oa_cut(full(2, v), np.eye(2)), REALS, "anchor: entries must be finite"),
        ("oa_cut.cbar", lambda c, v: tw.oa_cut(ones, full((2, 2), v)), REALS, "cbar: entries must be finite"),
        ("cut_check.y", lambda c, v: tw.cut_check(tw.oa_cut(ones, np.eye(2)), full(2, v), lambda y: 0.0), REALS,
         "y: entries must be finite"),
        ("DroPricer.mean", lambda c, v: DroPricer(full(6, v), c["net"].cov, 0.0, c["pen"]), REALS,
         "mean: entries must be finite"),
        ("DroModel.budget x", lambda c, v: tw.DroModel().budget(c["net"], full(6, v)), REALS,
         "x: entries must be finite"),
        ("SampleSet.q", lambda c, v: tw.SampleSet(v, np.ones((2, 3))), INTS, "q: expected an integer"),
        ("oa_cut.customer", lambda c, v: tw.oa_cut(ones, np.eye(2), customer=v), INTS,
         "customer: expected an integer"),
        ("WindowPlan.lower", lambda c, v: tw.WindowPlan(**dict(c["plan"], lower=full(2, v))), REALS,
         "lower: expected finite numbers"),
        ("WindowPlan.total_cost", lambda c, v: tw.WindowPlan(**dict(c["plan"], total_cost=v)), REALS,
         "total_cost: expected a finite number"),
        ("WindowPlan.shared_width", lambda c, v: tw.WindowPlan(**dict(c["plan"], shared_width=v)), REALS + (-1,),
         "shared_width: expected None or a finite number >= 0"),
    ]


@pytest.mark.parametrize("row", _boundary_rows(), ids=lambda row: row[0])
def test_entry_points_refuse_bools_strings_and_non_finite_numbers(row):
    # a bool or a string is no number, and a NaN or infinite one makes a NaN
    # cost, a NaN cut or a file that is not JSON; each is a ValueError that
    # names the input, with no RuntimeWarning (an error under pytest here)
    _, call, values, match = row
    context = _boundary_context()
    for bad in values:
        with pytest.raises(ValueError, match=match):
            call(context, bad)


# the one place that judges the search's own numbers, not an input
SEARCH_NUMBERS = {"solver.py": {"_Incumbent.infeasible"}}


def _finite_tests(path: Path) -> set[str]:
    """The functions (``Class.method`` for a method) of a module that call
    ``isfinite`` or compare ``<`` against an ``inf``."""
    found = set()

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            name = where
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                name = f"{where}.{child.name}" if where else child.name
            elif isinstance(child, ast.Call) and getattr(child.func, "attr", getattr(child.func, "id", "")) == "isfinite":
                found.add(where)
            elif isinstance(child, ast.Compare):
                pairs = zip(child.ops, child.comparators)
                if any(isinstance(op, ast.Lt) and getattr(right, "attr", getattr(right, "id", "")) == "inf"
                       for op, right in pairs):
                    found.add(where)
            visit(child, name)

    visit(ast.parse(path.read_text()), "")
    return found


def test_finite_number_rule_is_stated_once():
    # instance._is_finite_real (scalars) and instance._finite_array (arrays)
    # are the library's only finiteness tests of its inputs
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name != "instance.py":
            assert _finite_tests(path) == SEARCH_NUMBERS.get(path.name, set()), path.name
