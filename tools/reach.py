#!/usr/bin/env python
"""Which functions under ``src/repro`` does an entry point run?

Runs every command of :data:`COMMANDS` (the figures at ``quick``, the
examples, the run commands of the CI ``verify`` job, ``repro.obs --quick``,
the four perfbench workloads traced at tiny scale and
``benchmarks/bench_*.py``) in a fresh interpreter whose ``sitecustomize``
records, through ``sys.settrace`` and ``threading.settrace`` call events,
the first call of every code object under the package.  Child interpreters
(perfbench's workload processes, process-backend workers) inherit the hook.

The function table is an AST walk: every function at module level and every
method of a module-level class (nested classes included), named
``module:Qualname``; a nested function counts as part of the function that
defines it.  A function is *reached* when its code object was called.

Every unreached function must match an entry of the allowlist
(``tools/reach_allowlist.txt``), and every allowlist entry must match an
unreached function.  The allowlist is a list of ``fnmatch`` patterns over
``module:Qualname`` under ``[reason]`` headers; an entry with no header above
it has no reason and is an error.  Exit status 1 on any unlisted unreached
function, stale entry or entry without a reason.

Standard library only (``coverage`` is not needed)::

    python tools/reach.py                           # checked against the allowlist
    python tools/reach.py --allowlist /dev/null     # every unreached function
"""

from __future__ import annotations

import argparse
import ast
import fnmatch
import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
ALLOWLIST = os.path.join(ROOT, "tools", "reach_allowlist.txt")

_PY = "python"  # replaced by sys.executable when a command runs
_DST = ["-m", "repro.verify", "dst"]
#: resuming the clustered kill file fails its unperturbed reference at the
#: default five steps: the CI verify job checks that it reports so and exits 1
_RESUME = [_PY, *_DST, "--resume-from",
           "ckpt-kill/fmm-B_move-clustered-bruck-seed3-kill2.ckpt.ndjson"]
#: exit status of each command that does not exit 0
EXPECTED_STATUS = {tuple(_RESUME): 1}

#: entry-point commands, run in order in one scratch directory (a later
#: command may read a file an earlier one wrote)
COMMANDS: List[List[str]] = [
    *[[_PY, "-m", "repro.bench", figure, "--preset", "quick"]
      for figure in ("phases", "fig6", "fig8", "fig9")],
    [_PY, "-m", "repro.bench", "fig7", "--preset", "quick", "--csv", "csv", "--chart"],
    *[[_PY, os.path.join(ROOT, "examples", name)] for name in (
        "adaptive_method.py", "domain_decomposition_viz.py", "md_coupled_simulation.py",
        "quickstart.py", "resort_indices_demo.py", "scaling_study.py", "thermostatted_md.py")],
    # the run commands of the CI verify job
    [_PY, "-m", "repro.verify", "--list"],
    [_PY, "-m", "repro.verify", "--quick"],
    [_PY, "-m", "repro.verify", "--solvers", "p2nfft", "ewald", "--shapes", "6", "12"],
    [_PY, "-m", "repro.verify", "--solvers", "p2nfft", "ewald", "--shapes", "27", "64",
     "--particles", "1200"],
    [_PY, *_DST, "--seeds", "5", "--steps", "3"],
    [_PY, *_DST, "--solvers", "fmm", "--methods", "B+move", "--steps", "3", "--particles", "24",
     "--nprocs", "4", "--seeds", "2", "--algos", "bruck,pairwise"],
    [_PY, *_DST, "--solvers", "fmm", "p2nfft", "--methods", "B", "--steps", "3",
     "--particles", "64", "--nprocs", "4", "--seeds", "1", "--algos", "bruck"],
    [_PY, *_DST, "--solvers", "fmm", "p2nfft", "--methods", "B", "--steps", "3",
     "--particles", "64", "--nprocs", "4", "--seeds", "1", "--algos", "bruck",
     "--backend", "process:2"],
    [_PY, *_DST, "--solvers", "direct", "fmm", "--methods", "A", "B", "--seeds", "2",
     "--steps", "2", "--backend", "process:2"],
    [_PY, "-m", "repro.ckpt", "save", "--solver", "fmm", "--method", "B", "--steps", "2",
     "--nprocs", "4", "--particles", "24", "--out", "melt.ckpt.ndjson"],
    [_PY, "-m", "repro.ckpt", "restore", "--path", "melt.ckpt.ndjson", "--steps", "1"],
    [_PY, "-m", "repro.ckpt", "resize", "--path", "melt.ckpt.ndjson", "--nprocs", "6",
     "--out", "melt6.ckpt.ndjson"],
    [_PY, "-m", "repro.ckpt", "verify"],
    [_PY, "-m", "repro.ckpt", "verify", "--via-file"],
    [_PY, *_DST, "--solvers", "fmm", "--methods", "B+move", "--steps", "3", "--particles", "12",
     "--nprocs", "2", "--seed-list", "3", "--kill-at", "2", "--algos", "bruck",
     "--distributions", "homogeneous", "clustered", "--ckpt-dir", "ckpt-kill"],
    _RESUME,
    [_PY, "-m", "repro.obs", "--quick", "--out-dir", "obs"],
    *[[_PY, os.path.join(ROOT, "perfbench", "run.py"), "--workload", workload, "--scale", "tiny",
       "--seconds", "1", "--trace", "1"]
      for workload in ("physics_force_p8", "many_ranks", "payload_p16", "variants_p64")],
    *[[_PY, os.path.join(ROOT, "benchmarks", f"bench_{name}.py"), "--out", f"BENCH_{name}.json"]
      for name in ("balance", "ckpt", "collectives")],
]

#: the ``sitecustomize`` each traced interpreter loads: it appends
#: ``path<TAB>first line`` of every new code object under ``REACH_ROOT`` to a
#: file of its own, line by line, so a worker that is terminated loses nothing
_HOOK = '''\
import os, sys, threading
_root = os.environ.get("REACH_ROOT")
_dir = os.environ.get("REACH_OUT")
if _root and _dir:
    _out = open(os.path.join(_dir, "%d.txt" % os.getpid()), "a", buffering=1)
    _seen = set()

    def _reach_call(frame, event, arg):
        code = frame.f_code
        if code not in _seen:
            _seen.add(code)
            if code.co_filename.startswith(_root):
                _out.write("%s\\t%d\\n" % (code.co_filename, code.co_firstlineno))
        return None

    sys.settrace(_reach_call)
    threading.settrace(_reach_call)
'''


@dataclass(frozen=True)
class Function:
    name: str  #: ``module:Qualname``
    path: str  #: real path of the file that defines it
    line: int  #: first line of its code object (its first decorator, if any)
    body_lines: int  #: lines from the first statement after the docstring to the end


def _body_lines(node: ast.AST) -> int:
    body = node.body
    if (len(body) > 1 and isinstance(body[0], ast.Expr)
            and isinstance(body[0].value, ast.Constant) and isinstance(body[0].value.value, str)):
        body = body[1:]
    return node.end_lineno - body[0].lineno + 1


def _accessor_suffix(node: ast.AST) -> str:
    """``.setter``/``.deleter`` for a property accessor (same name as its getter)."""
    for decorator in node.decorator_list:
        if isinstance(decorator, ast.Attribute) and decorator.attr in ("setter", "deleter"):
            return "." + decorator.attr
    return ""


def function_table(src: str, package: str) -> List[Function]:
    """Every module-level function and class method under ``src/package``."""
    table: List[Function] = []
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)

    def walk(statements, module, path, prefix):
        for node in statements:
            if isinstance(node, functions):
                first = min([node.lineno] + [d.lineno for d in node.decorator_list])
                table.append(Function(f"{module}:{prefix}{node.name}{_accessor_suffix(node)}",
                                      path, first, _body_lines(node)))
            elif isinstance(node, ast.ClassDef):
                walk(node.body, module, path, f"{prefix}{node.name}.")
            elif isinstance(node, (ast.If, ast.Try)):
                for block in (node.body, node.orelse, *(h.body for h in getattr(node, "handlers", ())),
                              getattr(node, "finalbody", ())):
                    walk(block, module, path, prefix)

    top = os.path.join(src, package)
    for directory, subdirs, files in os.walk(top):
        subdirs.sort()
        for file in sorted(f for f in files if f.endswith(".py")):
            path = os.path.realpath(os.path.join(directory, file))
            parts = os.path.relpath(os.path.join(directory, file), src)[:-3].split(os.sep)
            if parts[-1] == "__init__":
                parts.pop()
            with open(path) as handle:
                tree = ast.parse(handle.read(), path)
            walk(tree.body, ".".join(parts), path, "")
    return table


def trace_commands(commands: Sequence[Sequence[str]], src: str, *, cwd: str,
                   verbose: bool = False) -> Set[Tuple[str, int]]:
    """Run each command under the call hook; ``(real path, first line)`` of
    every code object under ``src`` that any of them called."""
    hook_dir = tempfile.mkdtemp(prefix="reach-hook-")
    out_dir = tempfile.mkdtemp(prefix="reach-out-")
    try:
        with open(os.path.join(hook_dir, "sitecustomize.py"), "w") as handle:
            handle.write(_HOOK)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [hook_dir, src] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
        env["REACH_ROOT"] = src
        env["REACH_OUT"] = out_dir
        for command in commands:
            argv = [sys.executable if word == _PY else word for word in command]
            start = time.perf_counter()
            done = subprocess.run(argv, cwd=cwd, env=env, stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE, text=True)
            if verbose:
                print(f"  {time.perf_counter() - start:6.1f} s  exit {done.returncode}  "
                      f"{' '.join(command[1:])}", flush=True)
            if done.returncode != EXPECTED_STATUS.get(tuple(command), 0):
                sys.stderr.write(done.stderr[-2000:])
                raise RuntimeError(f"command exited {done.returncode}: {' '.join(command)}")
        reached = set()
        for file in os.listdir(out_dir):
            with open(os.path.join(out_dir, file)) as handle:
                for line in handle:
                    path, _, first = line.rstrip("\n").rpartition("\t")
                    reached.add((os.path.realpath(path), int(first)))
        return reached
    finally:
        shutil.rmtree(hook_dir, ignore_errors=True)
        shutil.rmtree(out_dir, ignore_errors=True)


def read_allowlist(path: str) -> Tuple[Dict[str, str], List[str]]:
    """``{pattern: reason}`` and the problems found while reading it."""
    entries: Dict[str, str] = {}
    problems: List[str] = []
    reason: Optional[str] = None
    with open(path) as handle:
        for number, raw in enumerate(handle, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if line.startswith("[") and line.endswith("]"):
                reason = line[1:-1].strip() or None
            elif reason is None:
                problems.append(f"allowlist line {number}: {line} has no [reason] above it")
            elif line in entries:
                problems.append(f"allowlist line {number}: {line} is listed twice")
            else:
                entries[line] = reason
    return entries, problems


def check(table: Iterable[Function], reached: Set[Tuple[str, int]],
          allowlist: Dict[str, str]) -> Tuple[List[Function], List[Function], List[str]]:
    """``(unreached, unlisted unreached, stale allowlist entries)``."""
    table = list(table)
    unreached = [f for f in table if (f.path, f.line) not in reached]
    unlisted = [f for f in unreached
                if not any(fnmatch.fnmatchcase(f.name, pattern) for pattern in allowlist)]
    names = {f.name for f in table}
    stale = []
    for pattern in allowlist:
        if not any(fnmatch.fnmatchcase(f.name, pattern) for f in unreached):
            known = any(fnmatch.fnmatchcase(name, pattern) for name in names)
            stale.append(f"{pattern}: {'now reached' if known else 'no such function'}")
    return unreached, unlisted, stale


def report(table: Sequence[Function], unreached: Sequence[Function],
           unlisted: Sequence[Function], stale: Sequence[str], problems: Sequence[str]) -> int:
    """Print the verdict; the exit status."""
    total = sum(f.body_lines for f in table)
    lines = sum(f.body_lines for f in unreached)
    for f in unreached:
        mark = "UNLISTED " if f in unlisted else ""
        print(f"unreached {mark}{f.name}  ({f.body_lines} lines)")
    print(f"{len(unreached)} of {len(table)} functions unreached "
          f"({lines} of {total} body lines, {100.0 * lines / max(total, 1):.1f} %)")
    for problem in [*problems, *(f"stale allowlist entry {s}" for s in stale)]:
        print(problem)
    failed = bool(unlisted or stale or problems)
    print(f"{len(unlisted)} unlisted, {len(stale)} stale: {'FAIL' if failed else 'ok'}")
    return 1 if failed else 0


def run(commands: Sequence[Sequence[str]], *, src: str, package: str, allowlist: str,
        verbose: bool = False) -> int:
    """Trace ``commands`` in a scratch directory and check ``src/package``."""
    table = function_table(src, package)
    entries, problems = read_allowlist(allowlist)
    with tempfile.TemporaryDirectory(prefix="reach-cwd-") as cwd:
        reached = trace_commands(commands, os.path.realpath(src), cwd=cwd, verbose=verbose)
    return report(table, *check(table, reached, entries), problems)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--allowlist", default=ALLOWLIST)
    args = parser.parse_args(argv)
    return run(COMMANDS, src=SRC, package="repro", allowlist=args.allowlist, verbose=True)


if __name__ == "__main__":
    sys.exit(main())
