"""Every library name the benchmark under perfbench/ reads resolves.

The benchmark imports marginseq as ``ms`` and calls it by attribute, so a
deleted or renamed entry point breaks it only when it runs.  This reads the
benchmark's sources, without running or changing them, and resolves every
``ms.<name>``, ``marginseq.<module>.<name>``, ``from marginseq import
<name>`` and ``from marginseq.<module> import <name>`` they hold.
"""

import ast
import importlib
import pathlib

from marginseq import AttackSampleConfig

BENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def _names_in(source: str) -> set[tuple[str, str]]:
    """(module, name) of every library name one source reads."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "marginseq":
            names |= {(node.module, alias.name) for alias in node.names}
        elif isinstance(node, ast.Attribute):
            base = node.value
            if isinstance(base, ast.Name) and base.id == "ms":
                names.add(("marginseq", node.attr))
            elif (isinstance(base, ast.Attribute) and isinstance(base.value, ast.Name)
                  and base.value.id == "marginseq"):
                names.add((f"marginseq.{base.attr}", node.attr))
    return names


def _benchmark_names() -> set[tuple[str, str]]:
    """(module, name) of every library name the benchmark's sources read."""
    paths = sorted([*BENCH.glob("*.py"), *BENCH.glob("tests/*.py")])
    return set().union(*(_names_in(path.read_text(encoding="utf-8")) for path in paths))


def test_every_name_the_benchmark_reads_resolves():
    names = _benchmark_names()
    # the scan sees each form the benchmark uses
    assert {("marginseq", "greedy_select_next"), ("marginseq", "union_area"),
            ("marginseq.regions", "mc_block_counts"), ("marginseq.regions", "MC_BLOCK"),
            ("marginseq.cli", "main"), ("marginseq.selfcheck", "run_all")} <= names
    missing = sorted((module, name) for module, name in names
                     if not hasattr(importlib.import_module(module), name))
    assert missing == []


def test_the_scan_reads_names_imported_from_the_package():
    assert _names_in("from marginseq import union_area\nfrom marginseq.cli import main\n") == {
        ("marginseq", "union_area"), ("marginseq.cli", "main")}


def test_benchmark_attack_config_form():
    # the benchmark passes the mode positionally and reads it back
    assert AttackSampleConfig("ensemble", 0, 0).mode == "ensemble"
