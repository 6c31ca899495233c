"""The benchmark's own tests (``python -m pytest perfbench/tests``, < 60 s).

Outside tier-1 ``testpaths`` on purpose: they test the measuring instrument,
not the program.
"""

import dataclasses
import json
import math
import os
import subprocess
import sys
import time
import types

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
for path in (os.path.join(ROOT, "src"), ROOT):
    if path not in sys.path:
        sys.path.insert(0, path)

from perfbench import checks, metrics, runner, trace  # noqa: E402
from perfbench.workloads import WORKLOAD_NAMES, Workload, build_workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    DECLARED = json.load(fh)


def _reject_duplicates(pairs):
    keys = [k for k, _v in pairs]
    assert len(keys) == len(set(keys)), f"duplicate keys in {keys}"
    return dict(pairs)


def _cli(workload, trace_flag):
    done = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload", workload,
         "--scale", "tiny", "--seconds", "0", "--trace", str(trace_flag)],
        stdout=subprocess.PIPE, text=True, cwd=ROOT, timeout=120,
    )
    assert done.returncode == 0, done.stdout
    return json.loads(done.stdout.rstrip("\n").split("\n")[-1], object_pairs_hook=_reject_duplicates)


# -- the declarations ------------------------------------------------------------------


def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in DECLARED["workloads"]] == list(WORKLOAD_NAMES)
    assert [
        (m["name"], m["unit"], m["better"], m["bound"]) for m in DECLARED["end_to_end"]
    ] == list(metrics.END_TO_END)
    assert [
        (m["name"], m["unit"], m["better"]) for m in DECLARED["per_layer"]
    ] == list(metrics.PER_LAYER)
    assert DECLARED["paths"] == ["perfbench"]
    names = [m["name"] for m in DECLARED["end_to_end"] + DECLARED["per_layer"]]
    assert len(names) == len(set(names))


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
@pytest.mark.parametrize("trace_flag", (0, 1))
def test_tiny_run_emits_every_declared_metric_once(workload, trace_flag):
    result = _cli(workload, trace_flag)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = DECLARED["per_layer" if trace_flag else "end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in declared)
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert math.isfinite(got["value"]), m["name"]
    if not trace_flag:
        assert all(v["value"] > 0 for v in result["metrics"].values())


# -- tracer arithmetic ---------------------------------------------------------------------


def test_self_times_sum_to_root_and_parents_enclose_children():
    tracer = trace.Tracer()
    with tracer.span("a", "root"):
        time.sleep(0.002)
        with tracer.span("b", "child"):
            time.sleep(0.002)
            with tracer.span("a", "grandchild"):
                time.sleep(0.001)
        with tracer.span("b", "sibling"):
            time.sleep(0.001)
    stats = trace.layer_stats(tracer.spans)
    root = tracer.spans[0][3] - tracer.spans[0][2]
    assert sum(stats.self_s.values()) == pytest.approx(root, abs=1e-9)
    assert stats.root_s == {"a": pytest.approx(root)}
    # "a" is entered at the root and again below "b"; "b" twice below "a"
    assert stats.calls == {"a": 2, "b": 2}
    assert min(stats.self_s.values()) > 0


def test_traced_pass_spans_nest_and_wrappers_are_fully_removed():
    def patched_attributes():
        seen = {}
        for _layer, modname, clsname, names in trace.LAYERS:
            module = sys.modules.get(modname) or __import__(modname, fromlist=["_"])
            owner = module if clsname is None else getattr(module, clsname)
            for name, value in vars(owner).items():
                if isinstance(value, types.FunctionType):
                    seen[(modname, clsname, name)] = value
        for module in trace._repro_modules():
            for name, value in vars(module).items():
                if isinstance(value, types.FunctionType):
                    seen[(module.__name__, None, name)] = value
        return seen

    workload = build_workloads("tiny")["many_ranks"]
    before = patched_attributes()
    contexts = []
    runs, tracer = runner._traced_pass(workload, 1, contexts)
    after = patched_attributes()
    assert not any(run.error for run in runs), [run.error for run in runs]
    assert tracer.installed == 0 and not tracer.missing
    assert {k: v for k, v in after.items() if k in before} == before  # identity: functions

    spans = tracer.spans
    assert len(spans) > 100
    for _layer, _name, t0, t1, parent, ctx in spans:
        assert t1 >= t0
        if parent >= 0:
            assert spans[parent][2] <= t0 and t1 <= spans[parent][3]
            # a child belongs to the timed call (or set-up) of its parent
            assert spans[parent][5] == ctx
    stats = trace.layer_stats(spans)
    roots = sum(t1 - t0 for _l, _n, t0, t1, parent, _c in spans if parent < 0)
    assert sum(stats.self_s.values()) == pytest.approx(roots, rel=1e-9)
    assert stats.calls["sorting.merge_sort"] > 0 and stats.calls["simmpi.p2p"] > 0


# -- failures count ------------------------------------------------------------------------


def _tiny(name):
    return build_workloads("tiny")[name]


def test_forced_check_failure_raises_fail_frac(monkeypatch):
    monkeypatch.setattr(checks, "ids_are_permutation", lambda ids, n: False)
    result = runner.run_workload(_tiny("payload_p16"), 1, 0.0, traced=False,
                                 scale="tiny")
    assert not result.correct
    assert result.failed == len(_tiny("payload_p16").cells)
    assert result.notes["fail_frac"] == result.failed / result.attempted > 0
    assert all("ids-permutation" in failure for failure in result.failures)


def test_forced_exception_forfeits_the_cells_calls():
    good = _tiny("payload_p16").cells[0]
    bad = dataclasses.replace(good, solver="no-such-solver")
    workload = Workload("forced", "a cell that raises", (good, bad))
    result = runner.run_workload(workload, 1, 0.0, traced=False, scale="tiny")
    assert not result.correct
    # init + steps of the bad cell, in each of the two passes
    assert result.failed == 2 * (1 + bad.steps)
    assert any("no-such-solver" in failure for failure in result.failures)
    assert result.metrics["wall_s"][0] > 0  # the good cell still reports


# -- nothing outlives a run ----------------------------------------------------------------

#: runs argv[1:] as a "child subreaper" (Linux prctl 36): a process the
#: command leaves behind is re-parented here, where waitpid finds it; prints
#: the command's exit code and how many such processes there were
_SUBREAPER = """
import ctypes, os, signal, subprocess, sys, time
assert ctypes.CDLL(None, use_errno=True).prctl(36, 1, 0, 0, 0) == 0
delay = float(sys.argv[1])
child = subprocess.Popen(sys.argv[2:], stdout=subprocess.DEVNULL)
if delay:
    time.sleep(delay)
    child.send_signal(signal.SIGTERM)
code = child.wait()
orphans, deadline = 0, time.time() + 10
while time.time() < deadline:
    try:
        pid, _status = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        break  # no child left: everything the command started has been waited for
    if pid:
        orphans += 1  # ended, but only after the command had
    else:
        orphans = max(orphans, 1)  # still running
        time.sleep(0.05)
print(code, orphans)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="needs prctl")
@pytest.mark.parametrize("sigterm_after", (0.0, 2.0))
def test_a_run_with_process_workers_leaves_no_process_behind(sigterm_after):
    """The process backend's workers *and* multiprocessing's resource tracker
    have ended when the benchmark exits, also when it is told to stop."""
    done = subprocess.run(
        [sys.executable, "-c", _SUBREAPER, str(sigterm_after),
         sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload", "variants_p64",
         "--scale", "tiny", "--seconds", "4" if sigterm_after else "0", "--trace", "0"],
        stdout=subprocess.PIPE, text=True, cwd=ROOT, timeout=120,
    )
    assert done.returncode == 0, done.stdout
    code, orphans = map(int, done.stdout.split())
    assert code == (128 + 15 if sigterm_after else 0)
    assert orphans == 0


def test_without_the_program_the_cli_fails_without_a_result(tmp_path):
    import shutil

    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "payload_p16", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, cwd=tmp_path, timeout=60,
    )
    assert done.returncode != 0 and done.stdout == ""
