"""The lines of ``src/superselect`` that no test runs.

The test suite runs in this process under ``sys.settrace``, and only frames
of the package's own modules are traced line by line, so the rest of the run
pays little.  A module's executable lines are the line numbers of the code
objects that compiling its source gives; a line counts as run when a trace
event reports it.  The script prints, per module, the executable lines that
no test ran, as ranges, and a total.

Tests that run the command line in a subprocess (the budgets and recipes
that go through ``measured_main``, the entry-point tests) are not traced:
a line that only they reach is listed as untested.  The package must not be
imported before the trace starts, or its import-time lines read as untested;
so it is located, not imported, here.

Run as a script from the repository root, with optional pytest arguments
(the default is the whole suite, ``tests``):

    PYTHONPATH=src python tests/untested_lines.py [PYTEST ARGS]
"""

from __future__ import annotations

import importlib.util
import os
import sys
import types

import pytest


def package_dir() -> str:
    """The directory of the ``superselect`` package, found without importing it."""
    return os.path.dirname(importlib.util.find_spec("superselect").origin)


def executable_lines(path: str) -> set[int]:
    """The line numbers of every code object compiled from the source at ``path``."""
    with open(path, encoding="utf-8") as fh:
        stack = [compile(fh.read(), path, "exec")]
    lines = set()
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)  # not None, not 0
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def ranges(lines) -> str:
    """``1-3, 7`` for the sorted integers ``1, 2, 3, 7``."""
    out, lines = [], sorted(lines)
    for i, line in enumerate(lines):
        if i and line == lines[i - 1] + 1:
            continue
        end = line
        while end + 1 in lines:
            end += 1
        out.append(str(line) if end == line else f"{line}-{end}")
    return ", ".join(out)


def traced_run(pytest_args) -> tuple[int, dict[str, set[int]]]:
    """``(pytest exit code, {module path: lines run})`` of a pytest run in this process."""
    root = package_dir() + os.sep
    run: dict[str, set[int]] = {}

    def local(frame, event, arg):
        run[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def global_(frame, event, arg):
        path = frame.f_code.co_filename
        if not path.startswith(root):
            return None
        run.setdefault(path, set()).add(frame.f_lineno)
        return local

    sys.settrace(global_)
    try:
        code = pytest.main(list(pytest_args))
    finally:
        sys.settrace(None)
    return int(code), run


def report(run) -> str:
    """One line per module of the package: its untested lines of its executable ones."""
    root = package_dir()
    rows, missed, total = [], 0, 0
    for name in sorted(os.listdir(root)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(root, name)
        lines = executable_lines(path)
        left = lines - run.get(path, set())
        missed, total = missed + len(left), total + len(lines)
        rows.append(f"{name}: {len(left)} of {len(lines)} lines untested"
                    + (f": {ranges(left)}" if left else ""))
    rows.append(f"total: {missed} of {total} lines untested")
    return "\n".join(rows)


if __name__ == "__main__":
    exit_code, lines_run = traced_run(sys.argv[1:] or ["tests"])
    print(report(lines_run))
    sys.exit(exit_code)
