"""Pytest plugin: fail the session when a statement of the package never runs.

Loaded only on request, with the tests directory importable:

    PYTHONPATH=src:tests python -m pytest -q -p statement_trace

It records every line the package's modules execute, with sys.settrace in
the main thread and threading.settrace in threads started later, from
before the first conftest is loaded to the end of the session. At the end
it lists each statement of the package none of whose header lines ran and
sets exit status 1. A simple statement's header is all its lines; a
compound statement's is its decorators and the lines before its body. A
statement that compiles to no code, such as a function docstring, is not
judged, and the body of an unrun compound statement is not listed on its
own. Exempt are __main__.py and `if __name__ == "__main__":` blocks,
which only the subprocess tests reach.
"""

import ast
import os
import sys
import threading
from importlib.util import find_spec

import pytest

PACKAGE = "pluralitysim"

_ran: dict[str, set[int]] = {}      # package file -> lines executed
_tracers: dict[str, object] = {}    # co_filename -> its line tracer or None
_unrun: list[str] = []              # "path:line: source" of each unrun statement


def _line_tracer(lines):
    def trace_lines(frame, event, arg):
        if event == "line":
            lines.add(frame.f_lineno)
        return trace_lines
    return trace_lines


def _trace_calls(frame, event, arg):
    filename = frame.f_code.co_filename
    if filename not in _tracers:
        lines = _ran.get(os.path.realpath(filename))
        _tracers[filename] = None if lines is None else _line_tracer(lines)
    return _tracers[filename]


@pytest.hookimpl(tryfirst=True)
def pytest_load_initial_conftests(early_config, parser, args):
    (package_dir,) = find_spec(PACKAGE).submodule_search_locations
    for name in sorted(os.listdir(package_dir)):
        if name.endswith(".py") and name != "__main__.py":
            _ran[os.path.realpath(os.path.join(package_dir, name))] = set()
    threading.settrace(_trace_calls)
    sys.settrace(_trace_calls)


def _executable_lines(code) -> set[int]:
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if isinstance(const, type(code)):
            lines |= _executable_lines(const)
    return lines


MAIN_GUARD = ast.dump(ast.parse('__name__ == "__main__"', mode="eval").body)


def _statements(node):
    # The statements directly below node, through except handlers and cases.
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.stmt):
            yield child
        else:
            yield from _statements(child)


def _header(node) -> set[int]:
    decorators = getattr(node, "decorator_list", [])
    first = min([node.lineno] + [decorator.lineno for decorator in decorators])
    body = getattr(node, "body", None)
    if isinstance(body, list) and body and isinstance(body[0], ast.stmt):
        return set(range(first, max(body[0].lineno, node.lineno + 1)))
    return set(range(first, node.end_lineno + 1))


def _unrun_statements(path: str, ran: set[int]):
    with open(path, encoding="utf-8") as handle:
        source = handle.read()
    executable = _executable_lines(compile(source, path, "exec"))
    lines = source.splitlines()
    stack = list(_statements(ast.parse(source)))
    while stack:
        node = stack.pop()
        if isinstance(node, ast.If) and ast.dump(node.test) == MAIN_GUARD:
            continue
        header = _header(node) & executable
        if header and not header & ran:
            yield node.lineno, lines[node.lineno - 1].strip()
        else:
            stack.extend(_statements(node))


def pytest_sessionfinish(session, exitstatus):
    sys.settrace(None)
    threading.settrace(None)
    for path, ran in _ran.items():
        shown = os.path.relpath(path)
        _unrun.extend(f"{shown}:{line}: {text}"
                      for line, text in sorted(_unrun_statements(path, ran)))
    if _unrun and session.exitstatus == pytest.ExitCode.OK:
        session.exitstatus = pytest.ExitCode.TESTS_FAILED


def pytest_terminal_summary(terminalreporter):
    if _unrun:
        terminalreporter.section("statements never run", sep="=", red=True)
        for line in _unrun:
            terminalreporter.line(line)
    else:
        terminalreporter.line(f"every statement of {PACKAGE} ran")
