"""Damaged checkpoint files and interrupted writes (ROADMAP 4c).

A damaged file is rejected by one ``ValueError`` that names the path and
the offending record(s) — the missing / duplicated record kinds, or the
1-based number of the line that is not a complete JSON record — before any
:class:`Checkpoint` is constructed; a reordered but complete file keeps
loading.  An interrupted write never leaves a partial file under the final
name.
"""

import json

import pytest

import repro.ckpt.checkpoint as checkpoint_module
from repro.ckpt import capture_checkpoint, load_checkpoint, write_checkpoint
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


DAMAGES = [drop_tail, drop_one_kind, drop_one_rank, cut_mid_line, duplicate_kind,
           duplicate_rank]


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
