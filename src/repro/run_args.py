"""The run-description flags of every command-line front end.

``repro.bench``, ``repro.verify`` (and ``dst``), ``repro.ckpt`` and
``repro.obs`` describe a run with the same fields.  Each is declared here
once (:data:`FIELDS`): its option strings (a sweep form takes ``nargs="+"``),
its parse-time check and its help.  A front end adds the ones it takes with
:func:`add_run_args`, naming each one's default; a refused value exits 2
naming the flag before anything runs.  The flags parse to ``None`` when left
out, so a given value can be told from a default (:func:`given_options`)
before :func:`resolve_run_args` fills them in.  ``--quick`` is a second
table of defaults: an explicit flag always wins over it.
"""

from __future__ import annotations

import argparse
import math
from typing import Any, Callable, List, Mapping, Optional

from repro.backend.base import BackendError, _parse_spec
from repro.core.handle import available_solvers
from repro.md.simulation import METHODS
from repro.simmpi.algos import parse_algos

__all__ = [
    "FIELDS", "REQUIRED", "add_run_args", "chaos_seed", "given_options", "particle_count",
    "positive_count", "rank_count", "resolve_run_args", "step_count", "system_seed", "tolerance",
]

#: the default of a field that must be given
REQUIRED = object()


def _checked(name: str, ok: Callable[[Any], bool], what: str, convert=int):
    """An ``argparse`` type: ``convert(text)``, refused unless ``ok``."""

    def check(text: str):
        value = convert(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"{what}, got {text}")
        return value

    check.__name__ = name
    return check


def _named(kind: str, names: Callable[[], Any]):
    """An ``argparse`` type accepting one of ``names()``."""
    pick = ", ".join(names())
    return _checked(kind, lambda text: text in names(), f"unknown {kind}: pick from {pick}", str)


def _algo_specs(text: str) -> List[Optional[str]]:
    # "--algos bruck,pairwise" sweeps two specs; '+' combines collectives in one
    specs = [spec for spec in text.split(",") if spec]
    try:
        for spec in specs:
            parse_algos(spec)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return [None if spec == "direct" else spec for spec in specs]


def _backend(text: str) -> str:
    try:
        _parse_spec(text)
    except BackendError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return text


# counts and seeds: refused at parse time, not by the machine, the system
# builder or the RNG after a run has started (the test systems are
# charge-neutral ±1 pairs, hence even particle counts)
step_count = _checked("step_count", lambda n: n >= 0, "must be a non-negative step count")
rank_count = _checked("rank_count", lambda n: n >= 1, "must be a rank count >= 1")
particle_count = _checked(
    "particle_count", lambda n: n >= 2 and n % 2 == 0, "must be an even particle count >= 2"
)
chaos_seed = _checked("chaos_seed", lambda n: n >= 0, "chaos seed must be non-negative")
system_seed = _checked("system_seed", lambda n: n >= 0, "system seed must be non-negative")
positive_count = _checked("positive_count", lambda n: n >= 1, "must be at least 1")
tolerance = _checked(
    "tolerance", lambda x: math.isfinite(x) and x >= 0, "must be a finite number >= 0", float
)

#: ``({dest: nargs}, type, help, metavar)`` per field; each dest is one spelling
FIELDS = (
    ({"solver": None, "solvers": "+"}, _named("solver", available_solvers), "solver(s)", "SOLVER"),
    ({"method": None, "methods": "+"}, _named("method", lambda: METHODS),
     "redistribution method(s)", "METHOD"),
    ({"nprocs": None, "shapes": "+"}, rank_count, "machine rank count(s)", "NPROCS"),
    ({"particles": None}, particle_count, "particles in the system (even)", None),
    ({"steps": None}, step_count, "MD time steps", None),
    ({"seed": None, "system_seed": None}, system_seed, "system/trajectory seed", None),
    ({"chaos_seed": None, "seed_list": "+"}, chaos_seed,
     "chaos seed(s): the machine runs under Perturbation.sample(SEED)", "SEED"),
    ({"seeds": None}, positive_count, "sweep the chaos seeds 1..SEEDS", None),
    ({"backend": None}, _backend,
     "execution backend: inprocess, process or process:N; results are "
     "backend-independent by contract", "ENGINE"),
    ({"algos": "+"}, _algo_specs,
     "collective-algorithm specs to sweep, e.g. 'bruck,pairwise' or "
     "'alltoallv=pairwise+allreduce=binomial-tree'", "SPEC"),
)

_BY_DEST = {dest: (nargs, rest) for forms, *rest in FIELDS for dest, nargs in forms.items()}


def _option(dest: str) -> str:
    return "--" + dest.replace("_", "-")


def _shown(value: Any) -> str:
    return " ".join(map(str, value)) if isinstance(value, (list, tuple)) else str(value)


def add_run_args(parser, defaults: Mapping[str, Any], quick: Optional[Mapping] = None) -> None:
    """Add the fields ``defaults`` names (dest -> what leaving it out means,
    :data:`REQUIRED` if it must be given) to ``parser``, and with a
    ``quick`` table ``--quick``, which takes its defaults from it."""
    for dest, default in defaults.items():
        nargs, (type_, help_, metavar) = _BY_DEST[dest]
        shown = [f"--quick: {_shown(quick[dest])}"] if quick and dest in quick else []
        if default is not None:
            shown.insert(0, "required" if default is REQUIRED else f"default: {_shown(default)}")
        parser.add_argument(
            _option(dest), type=type_, nargs=nargs, metavar=metavar,
            required=default is REQUIRED,
            help=help_ + (f" ({'; '.join(shown)})" if shown else ""),
        )
    if quick:
        parser.add_argument("--quick", action="store_true", help="the smaller defaults")


def given_options(parser: argparse.ArgumentParser, args: argparse.Namespace) -> List[str]:
    """The options of a freshly parsed ``args`` that were given (their value
    is not the parser's default), in declaration order."""
    return [_option(d) for d, value in vars(args).items() if value != parser.get_default(d)]


def resolve_run_args(
    args: argparse.Namespace, defaults: Mapping[str, Any], quick: Optional[Mapping] = None
) -> argparse.Namespace:
    """Fill in the left-out fields of ``args``: from ``quick`` under
    ``--quick``, else from ``defaults``.  Sweeps come out as lists and the
    ``--algos`` tokens as one list of specs (``None`` is direct)."""
    chosen = dict(defaults)
    if quick and args.quick:
        chosen.update(quick)
    for dest, default in chosen.items():
        value = getattr(args, dest)
        if value is None:
            value = list(default) if isinstance(default, tuple) else default
        elif dest == "algos":
            value = [spec for token in value for spec in token]
        setattr(args, dest, value)
    return args
