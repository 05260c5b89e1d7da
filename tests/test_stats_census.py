"""Stats census: every ``SiteStats`` counter is read by something.

A counter that is only ever incremented costs a line at each increment and
a key in every ``site_totals`` table and dtxbench counter set, and answers
no question. This guard (the sibling of ``test_config_census.py``) walks
``src/repro``, ``benchmarks/dtxbench`` and the tests, and fails on a
``SiteStats`` field that nothing there reads: loaded as an attribute
(``stats.name`` anywhere but the target of its own ``+=``) or named by a
string (``count["name"]``, the way dtxbench's counter table and the sweeps
read the totals of ``aggregate_site_stats``).
"""

import ast
import dataclasses
import functools
from pathlib import Path

import repro
from repro.core.site import SiteStats

HERE = Path(__file__).resolve()
ROOTS = (
    Path(repro.__file__).resolve().parent,
    HERE.parents[1] / "benchmarks" / "dtxbench",
    HERE.parent,
)


def reads(tree: ast.AST) -> set[str]:
    """Names ``tree`` reads as ``<expr>.name`` or names in a string."""
    names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    return names


@functools.cache
def names_read() -> frozenset[str]:
    names: set[str] = set()
    for root in ROOTS:
        for path in root.rglob("*.py"):
            if path != HERE:
                names |= reads(ast.parse(path.read_text(), filename=str(path)))
    return frozenset(names)


def test_the_walk_sees_the_benchmark_and_the_tests():
    assert all(root.is_dir() for root in ROOTS)


def test_every_site_stats_field_is_read():
    dead = sorted(f.name for f in dataclasses.fields(SiteStats) if f.name not in names_read())
    assert not dead, f"SiteStats fields nothing reads but their own increments: {dead}"


def test_the_census_catches_a_counter_that_is_only_incremented():
    tree = ast.parse(
        "stats.only_bumped += 1\n"
        "stats.high_water = max(stats.high_water, level)\n"
        "share = count['by_key'] / total\n"
    )
    found = reads(tree)
    assert "only_bumped" not in found
    assert {"high_water", "by_key"} <= found
