#!/usr/bin/env python3
"""Which ``src`` functions do the committed runs reach?

Copies the working tree (without ``.git``) into a temporary directory,
puts ``sitecustomize.py`` from this directory into the copy's ``src``,
and runs every root below in the copy with ``BIPS_REACH_OUT`` set, so
each interpreter records the code objects it calls.  The examples run
the same way, recorded apart.  A function under ``src/repro`` is reached
when a recorded code object starts at its ``def`` line or its first
decorator line.

The report lists the functions no root reaches, split by whether an
example reaches them, as ``path:line qualname``.  A run takes a few
minutes; it is a survey, not a gate.  Any root that exits non-zero is
named in the report (``bips lint`` exits 1 on findings, so check its
line before reading much into it).

    python3 tools/reach/survey.py [--out REPORT]
"""

from __future__ import annotations

import argparse
import ast
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parents[2]
HOOK = Path(__file__).with_name("sitecustomize.py")

FAULT_PROFILES = ("none", "lossy-lan", "flaky-workstations", "brownout", "chaos")
WORKLOADS = (
    "paper_artefacts",
    "department_day",
    "crowded_piconets",
    "location_queries",
    "location_updates",
)

BIPS = [sys.executable, "-m", "repro"]


def roots() -> list[list[str]]:
    """Every command the survey counts as a run, from the repo root."""
    commands = [
        BIPS + ["table1"],
        BIPS + ["figure2"],
        BIPS + ["section5"],
        BIPS + ["metrics"],
        BIPS + ["sweeps", "--fast", "--jobs", "2"],
        BIPS + ["lint", "src"],
        BIPS + ["bench", "--repeats", "1", "--out-dir", "results/bench"],
        # The CI trace job's forms.
        BIPS + ["trace", "--experiment", "table1", "--trials", "12", "--sample", "1.0",
                "--format", "chrome", "--out", "results/trace/table1.json"],
        BIPS + ["trace", "--experiment", "e2e", "--users", "4", "--duration", "120",
                "--sample", "1.0", "--format", "chrome", "--out", "results/trace/e2e.json"],
        BIPS + ["trace", "--experiment", "table1", "--faults", "chaos", "--format", "jsonl",
                "--jobs", "2", "--out", "results/trace/table1-chaos.jsonl"],
        BIPS + ["trace", "--users", "4", "--duration", "120", "--faults",
                "flaky-workstations", "--flight-recorder"],
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "benchmarks",
         "--benchmark-disable"],
    ]
    for profile in FAULT_PROFILES:
        commands.append(BIPS + ["e2e", "--faults", profile])
        commands.append(BIPS + ["table1", "--jobs", "2", "--faults", profile])
    for workload in WORKLOADS:
        for trace in ("0", "1"):
            commands.append([sys.executable, "bipsbench/run.py", "--workload", workload,
                             "--seed", "0", "--seconds", "1", "--trace", trace])
    return commands


def run(commands: list[list[str]], tree: Path, out: Path) -> list[str]:
    """Run each command in ``tree`` under the hook; return the failures."""
    out.mkdir()
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), BIPS_REACH_OUT=str(out))
    failed = []
    for command in commands:
        done = subprocess.run(command, cwd=tree, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL, check=False)
        if done.returncode != 0:
            failed.append(f"exit {done.returncode}: {' '.join(command[1:])}")
    return failed


def recorded(out: Path, src: Path) -> set[tuple[str, int]]:
    """``(path relative to src, first line)`` of each code object called in ``src``."""
    starts = set()
    for log in out.glob("*.tsv"):
        for line in log.read_text(encoding="utf-8").splitlines():
            filename, _, lineno = line.rpartition("\t")
            path = Path(filename)
            if path.is_relative_to(src):
                starts.add((path.relative_to(src).as_posix(), int(lineno)))
    return starts


def functions(src: Path) -> list[tuple[str, int, int, str]]:
    """``(path, def line, first decorator line, qualname)`` of every function."""
    found = []

    def visit(node: ast.AST, path: str, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                found.append((path, child.lineno, first, prefix + child.name))
                visit(child, path, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, path, f"{prefix}{child.name}.")
            else:
                visit(child, path, prefix)

    for file in sorted((src / "repro").rglob("*.py")):
        path = file.relative_to(src).as_posix()
        visit(ast.parse(file.read_text(encoding="utf-8")), path, "")
    return found


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, help="write the report here as well")
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="bips-reach-") as scratch:
        tree = Path(scratch) / "tree"
        shutil.copytree(REPO, tree, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".hypothesis", ".benchmarks"))
        shutil.copy(HOOK, tree / "src" / "sitecustomize.py")
        src = (tree / "src").resolve()
        failed = run(roots(), tree, Path(scratch) / "roots")
        examples = [[sys.executable, str(path.relative_to(tree))]
                    for path in sorted((tree / "examples").glob("*.py"))]
        failed += run(examples, tree, Path(scratch) / "examples")
        by_roots = recorded(Path(scratch) / "roots", src)
        by_examples = recorded(Path(scratch) / "examples", src)
        defs = functions(src)

    def hit(starts: set[tuple[str, int]], path: str, line: int, first: int) -> bool:
        return (path, line) in starts or (path, first) in starts

    unreached = [d for d in defs if not hit(by_roots, *d[:3])]
    only_examples = [d for d in unreached if hit(by_examples, *d[:3])]
    nothing = [d for d in unreached if not hit(by_examples, *d[:3])]
    lines = [
        f"{len(defs)} functions in src/repro; {len(defs) - len(unreached)} reached by "
        f"the roots, {len(only_examples)} only by the examples, {len(nothing)} by nothing",
        *(f"failed: {failure}" for failure in failed),
        f"reached only by the examples ({len(only_examples)}):",
        *(f"  {path}:{line} {name}" for path, line, _, name in only_examples),
        f"reached by nothing ({len(nothing)}):",
        *(f"  {path}:{line} {name}" for path, line, _, name in nothing),
    ]
    report = "\n".join(lines) + "\n"
    sys.stdout.write(report)
    if args.out:
        args.out.write_text(report, encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
