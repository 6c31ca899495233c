"""The run-description flags every front end shares (``repro.run_args``).

Each refused value exits 2 naming its flag before anything runs, and every
argv the parse step accepts describes a run the front end can build.  The
fuzz tests call only the parse steps: nothing is played.
"""

import contextlib
import io
import json
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.bench.__main__ import main as bench_main
from repro.bench.__main__ import parse as bench_parse
from repro.ckpt.cli import main as ckpt_main
from repro.ckpt.cli import parse as ckpt_parse
from repro.core.handle import available_solvers
from repro.md.simulation import METHODS, SimulationConfig
from repro.obs.cli import main as obs_main
from repro.obs.cli import parse as obs_parse
from repro.simmpi.chaos import Perturbation
from repro.verify.__main__ import main as verify_main
from repro.verify.__main__ import parse as verify_parse
from repro.verify.__main__ import parse_dst
from repro.verify.trajectory import CellSpec

#: small runs, so that a parse step that lets a bad value through plays little
DST = ["dst", "--solvers", "direct", "--methods", "A", "--steps", "1", "--particles", "8",
       "--nprocs", "2", "--seed-list", "1"]
DIFF = ["--solvers", "direct", "--shapes", "2", "--steps", "0", "--particles", "8"]

#: (main, argv, the flag stderr must name): every one of these was a raw
#: traceback (exit 1), a silently accepted value, or a run before the refusal
PROBES = {
    "verify-solvers-nope": (verify_main, ["--solvers", "nope", "--shapes", "2"], "--solvers"),
    "verify-rtol-negative": (verify_main, DIFF + ["--rtol", "-1"], "--rtol"),
    "verify-rtol-nan": (verify_main, DIFF + ["--rtol", "nan"], "--rtol"),
    "verify-backend-bogus": (verify_main, DIFF + ["--backend", "bogus"], "--backend"),
    "verify-backend-process0": (verify_main, DIFF + ["--backend", "process:0"], "--backend"),
    "verify-seed-negative": (verify_main, DIFF + ["--seed", "-1"], "--seed"),
    "dst-solvers-nope": (verify_main, DST[:2] + ["nope"] + DST[3:], "--solvers"),
    "dst-methods-Z": (verify_main, DST[:4] + ["Z"] + DST[5:], "--methods"),
    "dst-algos-nonsense": (verify_main, DST + ["--algos", "nonsense"], "--algos"),
    "dst-algos-comma": (verify_main, DST + ["--algos", "bruck,nonsense"], "--algos"),
    "dst-backend-bogus": (verify_main, DST + ["--backend", "bogus"], "--backend"),
    "dst-backend-process0": (verify_main, DST + ["--backend", "process:0"], "--backend"),
    "dst-system-seed-negative": (verify_main, DST + ["--system-seed", "-1"], "--system-seed"),
    "ckpt-verify-solvers-nope": (
        ckpt_main, ["verify", "--solvers", "nope", "--methods", "A"], "--solvers"),
    "ckpt-verify-methods-Z": (
        ckpt_main, ["verify", "--solvers", "direct", "--methods", "Z"], "--methods"),
    "ckpt-save-solver-nope": (
        ckpt_main, ["save", "--solver", "nope", "--out", "x.ckpt.ndjson"], "--solver"),
    "ckpt-save-seed-negative": (
        ckpt_main, ["save", "--seed", "-1", "--steps", "0", "--nprocs", "2", "--particles", "8",
                    "--solver", "direct", "--out", "x.ckpt.ndjson"], "--seed"),
    "obs-nprocs-0": (obs_main, ["--nprocs", "0"], "--nprocs"),
    "obs-particles-odd": (obs_main, ["--particles", "3"], "--particles"),
    "obs-steps-negative": (obs_main, ["--steps", "-1"], "--steps"),
    "obs-capacity-0": (obs_main, ["--capacity", "0"], "--capacity"),
    "obs-solver-direct": (
        obs_main, ["--solver", "direct", "--nprocs", "2", "--particles", "8", "--steps", "0"],
        "--solver"),
    "obs-solver-nope": (obs_main, ["--solver", "nope"], "--solver"),
    "obs-method-Z": (obs_main, ["--method", "Z"], "--method"),
    "bench-fig8-steps-0": (bench_main, ["fig8", "--steps", "0"], "--steps"),
}


@pytest.mark.parametrize("main, argv, flag", PROBES.values(), ids=PROBES)
def test_refused_at_parse_time_naming_the_flag(main, argv, flag, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert f"argument {flag}:" in err
    assert out == "" and not list(tmp_path.iterdir())


def test_an_explicit_flag_wins_over_quick(tmp_path, capsys):
    """Was: ``repro.obs --quick`` ran 8 ranks, 1024 particles and 2 steps
    whatever ``--nprocs``/``--particles``/``--steps`` said."""
    argv = ["--quick", "--nprocs", "2", "--particles", "16", "--steps", "1",
            "--out-dir", str(tmp_path)]
    assert obs_main(argv) == 0
    meta = json.loads((tmp_path / "spans.ndjson").read_text().splitlines()[0])
    assert (meta["nprocs"], meta["particles"], meta["steps"]) == (2, 16, 1)
    assert "== per-rank timeline (2 ranks" in capsys.readouterr().out
    args, spec = obs_parse(["--quick", "--steps", "5"])
    assert (args.nprocs, args.particles, args.steps) == (8, 1024, 5)


def test_quick_and_defaults_fill_only_the_left_out_fields():
    assert vars(verify_parse(["--quick", "--particles", "8"])) == dict(
        list_invariants=False, solvers=["direct", "fmm"], shapes=[4, 8], steps=2,
        particles=8, seed=0, backend=None, quick=True, rtol=1e-6,
    )
    args = parse_dst(["--algos", "bruck,direct", "pairwise", "--seeds", "2"])
    assert args.algos == ["bruck", None, "pairwise"]
    assert (args.seeds, args.steps, args.nprocs, args.particles) == (2, 5, 4, 24)
    assert ckpt_parse(["verify", "--quick"]).methods == ["A", "B+move"]
    assert ckpt_parse(["resize", "--path", "a", "--nprocs", "3", "--out", "b"]).nprocs == 3


def test_direct_solver_has_no_skip_compute_cell():
    with pytest.raises(ValueError, match="solver 'direct'"):
        CellSpec("direct", "A", 2, 8, physics=False)


# -- fuzzing the parse steps --------------------------------------------------

VALUES = st.one_of(
    st.integers(-3, 5).map(str),
    st.sampled_from([
        "0", "-1", "7", "1e3", "1.5", "nan", "inf", "x", "", str(10**30), "9" * 5000,
        "direct", "ewald", "fmm", "p2nfft", "nope", "A", "B", "B+move", "adaptive", "Z",
        "bruck", "bruck,pairwise", "direct", ",", "alltoallv=ring", "nonsense",
        "inprocess", "process", "process:2", "process:0", "process:x", "homogeneous",
        "clustered",
    ]),
)
FUZZ = settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])


def argv_over(flags):
    """argv drawn over ``flags``: each present or not, with one or two
    values, in any order."""
    option = st.sampled_from(flags).flatmap(
        lambda flag: st.lists(VALUES, min_size=0, max_size=2).map(lambda vs: [flag, *vs])
    )
    return st.lists(option, max_size=5).map(lambda parts: [w for part in parts for w in part])


def outcome(parse, argv, flags):
    """``parse(argv)``, or ``None`` after an exit 2 that printed nothing to
    stdout and names one of ``flags`` (or the stray words of ``argv`` that
    no flag takes); any other exception escapes."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            return parse(argv)
    except SystemExit as exc:
        assert exc.code == 2, (argv, err.getvalue())
        assert out.getvalue() == ""
        error = err.getvalue().split("error:", 1)[1]
        if "unrecognized arguments: " in error:
            assert set(error.split(": ", 1)[1].split()) <= set(argv), (argv, error)
        else:
            assert set(re.findall(r"--[a-z][a-z-]*", error)) & set(flags), (argv, error)
        return None


def accept_cells(solvers, methods, nprocs, particles, steps, seed, backend=None, algos=(None,)):
    """What building each cell checks, short of building a machine."""
    assert nprocs >= 1 and particles >= 2 and particles % 2 == 0 and steps >= 0
    np.random.default_rng(seed)
    for solver in solvers:
        assert solver in available_solvers()
        for method in methods:
            assert method in METHODS
            CellSpec(solver, method, nprocs, particles, seed=seed)
            for spec in algos:
                SimulationConfig(solver=solver, method=method, seed=seed, backend=backend,
                                 collective_algos=spec)


VERIFY_FLAGS = ["--solvers", "--shapes", "--steps", "--particles", "--seed", "--backend",
                "--quick", "--rtol", "--list"]


@FUZZ
@given(argv_over(VERIFY_FLAGS))
def test_fuzz_verify(argv):
    args = outcome(verify_parse, argv, VERIFY_FLAGS)
    if args is not None:
        assert args.rtol >= 0 and np.isfinite(args.rtol)
        for nprocs in args.shapes:
            accept_cells(args.solvers, ["A"], nprocs, args.particles, args.steps, args.seed,
                         args.backend)


DST_FLAGS = ["--seeds", "--steps", "--solvers", "--methods", "--nprocs", "--particles",
             "--seed-list", "--system-seed", "--backend", "--algos", "--distributions",
             "--kill-at", "--ckpt-dir", "--resume-from"]


@FUZZ
@given(argv_over(DST_FLAGS))
def test_fuzz_dst(argv):
    args = outcome(parse_dst, argv, DST_FLAGS)
    if args is None:
        return
    for seed in args.seed_list or range(1, args.seeds + 1):
        Perturbation.sample(seed)
    assert args.seeds >= 1 and (args.kill_at is None or 0 <= args.kill_at <= args.steps)
    if args.resume_from is None:
        accept_cells(args.solvers, args.methods, args.nprocs, args.particles, args.steps,
                     args.system_seed, args.backend, args.algos or [None])


CKPT_FLAGS = ["--solver", "--method", "--solvers", "--methods", "--steps", "--nprocs",
              "--particles", "--seed", "--quick", "--via-file", "--path", "--out"]


@FUZZ
@given(st.sampled_from(["save", "restore", "resize", "verify"]), argv_over(CKPT_FLAGS))
def test_fuzz_ckpt(command, argv):
    args = outcome(ckpt_parse, [command, *argv], CKPT_FLAGS)
    if args is None:
        return
    assert args.steps >= 0 if command != "resize" else args.nprocs >= 1
    if command == "save":
        accept_cells([args.solver], [args.method], args.nprocs, args.particles, args.steps,
                     args.seed)
    elif command == "verify":
        accept_cells(args.solvers, args.methods, args.nprocs, args.particles, args.steps, 0)


OBS_FLAGS = ["--solver", "--method", "--nprocs", "--particles", "--steps", "--chaos-seed",
             "--capacity", "--quick", "--no-per-rank"]


@FUZZ
@given(argv_over(OBS_FLAGS))
def test_fuzz_obs(argv):
    parsed = outcome(obs_parse, argv, OBS_FLAGS)
    if parsed is not None:
        args, spec = parsed
        assert args.capacity >= 1 and spec.nprocs == args.nprocs
        accept_cells([args.solver], [args.method], args.nprocs, args.particles, args.steps, 1)
        if args.chaos_seed is not None:
            Perturbation.sample(args.chaos_seed)


BENCH_FLAGS = ["--steps", "--preset", "--chart"]


@FUZZ
@given(st.sampled_from(["fig6", "fig7", "fig8", "fig9", "phases", "all"]),
       argv_over(BENCH_FLAGS))
def test_fuzz_bench(figure, argv):
    args = outcome(bench_parse, [figure, *argv], BENCH_FLAGS)
    if args is not None and args.steps is not None:
        assert args.steps >= 1 and args.figure in ("fig8", "all")
