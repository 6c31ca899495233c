"""Damaged checkpoint files and interrupted writes (ROADMAP 4c).

A damaged file is rejected by one ``ValueError`` that names the path and
the offending record(s) — the record whose checksum does not match its
line, the missing / duplicated / unsealed record kinds, the 1-based number
of the line that is not a complete JSON record, or the record that is not
an object, lacks a field or does not decode — before any
:class:`Checkpoint` is constructed; a reordered but complete file keeps
loading.  An interrupted write never leaves a partial file under the final
name.  The malformed-record cases below re-seal the line they edit, so
they reach the check behind the checksum.
"""

import json
import subprocess
import sys

import pytest

import repro.ckpt.checkpoint as checkpoint_module
from repro.ckpt import capture_checkpoint, load_checkpoint, write_checkpoint
from repro.ckpt.format import dumps, seal
from repro.md.simulation import Simulation, SimulationConfig
from repro.md.systems import silica_melt_system
from repro.simmpi.machine import Machine


@pytest.fixture(scope="module")
def ckpt():
    sim = Simulation(
        Machine(2),
        silica_melt_system(12, seed=2),
        SimulationConfig(solver="direct", method="B", seed=2),
    )
    try:
        sim.run(1)
        return capture_checkpoint(sim)
    finally:
        sim.fcs.destroy()


def _kinds(lines):
    return [json.loads(line)["kind"] for line in lines]


def drop_tail(lines):
    """Truncated at a line boundary: the last two records never made it."""
    return lines[:-2], r"missing record\(s\) auditor, thermostat"


def drop_one_kind(lines):
    return (
        [line for line, kind in zip(lines, _kinds(lines)) if kind != "system"],
        r"missing record\(s\) system",
    )


def drop_one_rank(lines):
    return (
        [line for line in lines if '"rank":1' not in line],
        r"missing record\(s\) rank 1",
    )


def cut_mid_line(lines):
    """Truncated mid-record: the last kept line is not complete JSON."""
    cut = _kinds(lines).index("records") + 1
    kept = lines[:cut]
    kept[-1] = kept[-1][: len(kept[-1]) // 2]
    return kept, rf"line {cut} is not a complete JSON record"


def duplicate_kind(lines):
    solver = lines[_kinds(lines).index("solver")]
    return lines + [solver], r"duplicated record\(s\) solver"


def duplicate_rank(lines):
    return lines + [lines[_kinds(lines).index("rank")]], r"duplicated record\(s\) rank 0"


# -- malformed records: each used to escape as an unnamed AttributeError,
# KeyError or TypeError, or a ValueError that named no record


def _resealed(line):
    """``line`` sealed by the checksum of its (edited) content."""
    rec = json.loads(line)
    del rec["crc"]
    return seal(dumps(rec))


def _edit_record(lines, kind, edit):
    """Re-encode and re-seal the first record of ``kind`` after ``edit``
    mutates it."""
    at = _kinds(lines).index(kind)
    rec = json.loads(lines[at])
    del rec["crc"]
    edit(rec)
    return lines[:at] + [seal(dumps(rec))] + lines[at + 1:]


def number_line(lines):
    return lines[:1] + ["3"] + lines[1:], r"record 2 is a JSON int, not an object"


def list_line(lines):
    return lines + ["[]"], rf"record {len(lines) + 1} is a JSON list, not an object"


def rank_without_data(lines):
    return (
        _edit_record(lines, "rank", lambda rec: rec.pop("data")),
        r"rank 0 record has no 'data' field",
    )


def rank_without_capacity(lines):
    return (
        _edit_record(lines, "rank", lambda rec: rec["data"].pop("capacity")),
        r"rank 0 record has no 'capacity' field",
    )


def meta_without_version(lines):
    return (
        _edit_record(lines, "meta", lambda rec: rec.pop("version")),
        r"meta record has no 'version' field",
    )


def unknown_dtype(lines):
    at = _kinds(lines).index("rank")
    bad = _resealed(lines[at].replace('"dtype":"<f8"', '"dtype":"<zz"', 1))
    return (
        lines[:at] + [bad] + lines[at + 1:],
        r"rank 0 record does not decode: TypeError: data type '<zz' not understood",
    )


def payload_misfit(lines):
    """One float short of its shape: still hex, no longer an (n, 3) block."""
    at = _kinds(lines).index("rank")
    start = lines[at].index('"hex":"') + len('"hex":"')
    bad = _resealed(lines[at][:start] + lines[at][start + 16:])
    return (
        lines[:at] + [bad] + lines[at + 1:],
        r"rank 0 record does not decode: ValueError: cannot reshape",
    )


def unsealed_rank(lines):
    """A rank line without its ``crc`` key: nothing vouches for its content."""
    at = _kinds(lines).index("rank")
    unsealed = "{" + lines[at][len('{"crc":"00000000",'):]
    return lines[:at] + [unsealed] + lines[at + 1:], r"unsealed record\(s\) rank 0"


DAMAGES = [drop_tail, drop_one_kind, drop_one_rank, cut_mid_line, duplicate_kind,
           duplicate_rank, number_line, list_line, rank_without_data,
           rank_without_capacity, meta_without_version, unknown_dtype, payload_misfit,
           unsealed_rank]


@pytest.mark.parametrize("damage", DAMAGES, ids=lambda fn: fn.__name__)
def test_damaged_file_is_one_value_error_naming_path_and_record(
    ckpt, damage, tmp_path, monkeypatch
):
    lines, expected = damage(ckpt.to_lines())
    path = tmp_path / "damaged.ckpt.ndjson"
    path.write_text("".join(line + "\n" for line in lines))

    def no_construction(*args, **kwargs):
        raise AssertionError("a Checkpoint was constructed from a damaged file")

    monkeypatch.setattr(checkpoint_module.Checkpoint, "__init__", no_construction)
    with pytest.raises(ValueError, match=expected) as caught:
        load_checkpoint(str(path))
    assert type(caught.value) is ValueError  # not a bare JSONDecodeError
    assert str(path) in str(caught.value)


HEXDIGITS = "0123456789abcdef"


def flip_digit(line):
    """One hex digit inside a JSON string of a record's content changed (not
    its kind, rank number or seal): the line is still one JSON object."""
    body = line[: line.index('"kind":')]
    inside, spots = False, []
    for i, char in enumerate(body):
        if char == '"':
            inside = not inside
        elif inside and char in HEXDIGITS and i >= len('{"crc":"00000000",'):
            spots.append(i)
    at = spots[len(spots) // 2]
    return line[:at] + "%x" % ((int(line[at], 16) + 1) % 16) + line[at + 1:]


def _record_names(lines):
    return [
        f"rank {rec['rank']}" if rec["kind"] == "rank" else rec["kind"]
        for rec in map(json.loads, lines)
    ]


def test_digit_flip_in_any_record_is_named(ckpt, tmp_path):
    """A one-digit flip inside a well-formed line loads no record of the
    file, whichever record it hits: its checksum names it."""
    lines = ckpt.to_lines()
    names = _record_names(lines)
    assert {"meta", "config", "system", "rank 0", "rank 1", "records", "sim", "fcs",
            "solver", "monitor", "machine", "auditor", "thermostat"} == set(names)
    for at, name in enumerate(names):
        damaged = lines[:at] + [flip_digit(lines[at])] + lines[at + 1:]
        json.loads(damaged[at])  # still one JSON object
        path = tmp_path / f"flipped-{at}.ckpt.ndjson"
        path.write_text("".join(line + "\n" for line in damaged))
        with pytest.raises(ValueError) as caught:
            load_checkpoint(str(path))
        assert type(caught.value) is ValueError
        assert str(caught.value) == (
            f"{path}: line {at + 1}: {name} record fails its checksum (corrupted)"
        )


def test_resize_cli_refuses_a_damaged_file_and_writes_nothing(ckpt, tmp_path):
    lines = ckpt.to_lines()
    at = _kinds(lines).index("rank") + 1
    damaged = tmp_path / "damaged.ckpt.ndjson"
    damaged.write_text("".join(
        (flip_digit(line) if k == at else line) + "\n" for k, line in enumerate(lines)
    ))
    out = tmp_path / "resized.ckpt.ndjson"
    result = subprocess.run(
        [sys.executable, "-m", "repro.ckpt", "resize", "--path", str(damaged),
         "--nprocs", "3", "--out", str(out)],
        capture_output=True, text=True, timeout=300,
    )
    assert result.returncode != 0
    assert "rank 1 record fails its checksum" in result.stderr
    assert sorted(p.name for p in tmp_path.iterdir()) == [damaged.name]


def test_reordered_complete_file_still_loads(ckpt, tmp_path):
    lines = ckpt.to_lines()
    path = tmp_path / "reordered.ckpt.ndjson"
    path.write_text("".join(line + "\n" for line in reversed(lines)))
    assert load_checkpoint(str(path)).to_lines() == lines


class _FailingHandle:
    """A text file handle whose disk fills up after ``budget`` characters."""

    def __init__(self, handle, budget):
        self._handle, self._budget = handle, budget

    def write(self, text):
        self._handle.write(text[: self._budget])
        if len(text) > self._budget:
            self._handle.flush()
            raise OSError("No space left on device")
        self._budget -= len(text)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._handle.close()


def test_interrupted_write_keeps_the_previous_file(ckpt, tmp_path, monkeypatch):
    path = tmp_path / "step-000002.ckpt.ndjson"
    nbytes = write_checkpoint(ckpt, str(path))
    before = path.read_bytes()
    assert nbytes == len(before)

    def failing_open(file, mode="r", **kwargs):
        handle = open(file, mode, **kwargs)
        return _FailingHandle(handle, nbytes // 2) if "w" in mode else handle

    monkeypatch.setattr(checkpoint_module, "open", failing_open, raising=False)
    with pytest.raises(OSError, match="No space left"):
        write_checkpoint(ckpt, str(path))
    monkeypatch.undo()

    # the previous checkpoint is intact and nothing partial sits beside it
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == [path.name]
    assert load_checkpoint(str(path)).to_lines() == ckpt.to_lines()


# -- ragged columns: all seven are cut by one offsets vector -------------------------


@pytest.fixture(scope="module")
def step_ckpt():
    """A 4-rank method-B checkpoint with a cached plan (512 particles)."""
    sim = Simulation(
        Machine(4),
        silica_melt_system(512, seed=2),
        SimulationConfig(
            solver="p2nfft", method="B", seed=2, dynamics="brownian",
            solver_kwargs={"compute": "skip"},
        ),
    )
    try:
        sim.run(1)
        return capture_checkpoint(sim)
    finally:
        sim.fcs.destroy()


@pytest.mark.parametrize("column", checkpoint_module.COLUMNS)
def test_ragged_column_is_one_value_error_naming_column_and_rank(step_ckpt, column):
    """One column one row short on one rank: ``q``/``vel``/``acc``/``pot``
    used to die with a bare ``IndexError: index 511 is out of bounds`` out of
    ``Checkpoint.gathered()``, and a short ``ids`` restored fine and failed a
    step later inside ``ResortPlan.execute``.  Now every column is checked
    against the same counts at load, before the machine is touched."""
    import copy
    import dataclasses

    from repro.ckpt import restore_simulation
    from repro.verify import enable_auditing

    arrays = list(step_ckpt.columns(column))
    arrays[2] = arrays[2][:-1]
    ragged = dataclasses.replace(copy.deepcopy(step_ckpt), **{column: arrays})
    machine = Machine(4)
    auditor = enable_auditing(machine)
    untouched = machine.clocks.copy(), machine.trace.state_dict(), auditor.state_dict()
    if column == "pos":
        # positions size the checkpoint: the next column is the one that differs
        expected = r"column 'q', rank 2: \d+ rows, the other columns hold \d+"
    else:
        expected = rf"column '{column}', rank 2: \d+ rows, the other columns hold \d+"
    with pytest.raises(ValueError, match=expected):
        restore_simulation(ragged, machine=machine)
    assert (machine.clocks == untouched[0]).all()
    assert machine.trace.state_dict() == untouched[1]
    assert auditor.state_dict() == untouched[2]
    with pytest.raises(ValueError, match=expected):
        ragged.gathered()
    # the intact checkpoint restores and steps
    sim = restore_simulation(step_ckpt, machine=Machine(4))
    try:
        sim.step()
    finally:
        sim.fcs.destroy()
