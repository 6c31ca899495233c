"""The entry-point reach check (``tools/reach.py``) on a synthetic package."""

import pathlib
import sys
import textwrap

import pytest

sys.path.append(str(pathlib.Path(__file__).resolve().parents[1] / "tools"))
import reach  # noqa: E402

MODULE = '''
def entry():
    return helper() + 1


def helper():
    return 1


def only_tested():
    return 2


def allowlisted():
    return 3


class Box:
    def __repr__(self):
        return "Box()"

    @property
    def size(self):
        return 1

    @size.setter
    def size(self, value):
        pass
'''

ENTRY = "import reach_demo.mod; reach_demo.mod.entry(); reach_demo.mod.Box().size"


@pytest.fixture(scope="module")
def package(tmp_path_factory):
    src = tmp_path_factory.mktemp("src").resolve()
    (src / "reach_demo").mkdir()
    (src / "reach_demo" / "__init__.py").write_text("")
    (src / "reach_demo" / "mod.py").write_text(textwrap.dedent(MODULE))
    return src


@pytest.fixture(scope="module")
def traced(package):
    table = reach.function_table(str(package), "reach_demo")
    reached = reach.trace_commands([[sys.executable, "-c", ENTRY]], str(package),
                                   cwd=str(package))
    return table, reached


def allowlist(tmp_path, text):
    path = tmp_path / "allow.txt"
    path.write_text(textwrap.dedent(text))
    return reach.read_allowlist(str(path))


def names(functions):
    return sorted(f.name for f in functions)


def test_table_names_functions_methods_and_accessors(traced):
    table, _ = traced
    assert names(table) == [
        "reach_demo.mod:Box.__repr__", "reach_demo.mod:Box.size", "reach_demo.mod:Box.size.setter",
        "reach_demo.mod:allowlisted", "reach_demo.mod:entry", "reach_demo.mod:helper", "reach_demo.mod:only_tested"]


def test_function_called_by_an_entry_point_is_reached(traced):
    table, reached = traced
    unreached, _, _ = reach.check(table, reached, {})
    # called by the command, and called by what the command called
    assert {"reach_demo.mod:entry", "reach_demo.mod:helper", "reach_demo.mod:Box.size"}.isdisjoint(names(unreached))


def test_function_called_only_from_a_test_is_reported(traced, package, monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(package))
    from reach_demo import mod

    assert mod.only_tested() == 2  # a call from here is not an entry point's
    table, reached = traced
    unreached, unlisted, stale = reach.check(table, reached, {})
    assert names(unlisted) == names(unreached) == [
        "reach_demo.mod:Box.__repr__", "reach_demo.mod:Box.size.setter", "reach_demo.mod:allowlisted",
        "reach_demo.mod:only_tested"]
    assert reach.report(table, unreached, unlisted, stale, []) == 1
    out = capsys.readouterr().out
    assert "unreached UNLISTED reach_demo.mod:only_tested" in out and "FAIL" in out


def test_allowlisted_functions_pass(traced, tmp_path, capsys):
    table, reached = traced
    entries, problems = allowlist(tmp_path, """\
        # comments and blank lines are skipped

        [called by the interpreter]
        *:*__*__
        [kept for a reason]
        reach_demo.mod:allowlisted
        reach_demo.mod:only_tested
        reach_demo.mod:Box.size.setter
        """)
    assert not problems and entries["reach_demo.mod:allowlisted"] == "kept for a reason"
    unreached, unlisted, stale = reach.check(table, reached, entries)
    assert len(unreached) == 4 and not unlisted and not stale
    assert reach.report(table, unreached, unlisted, stale, problems) == 0
    assert capsys.readouterr().out.endswith("0 unlisted, 0 stale: ok\n")


def test_stale_allowlist_entries_fail(traced, tmp_path, capsys):
    table, reached = traced
    entries, problems = allowlist(tmp_path, """\
        [reason]
        *:*__*__
        reach_demo.mod:allowlisted
        reach_demo.mod:only_tested
        reach_demo.mod:Box.size.setter
        reach_demo.mod:entry
        reach_demo.mod:renamed_away
        """)
    unreached, unlisted, stale = reach.check(table, reached, entries)
    assert not unlisted
    assert stale == ["reach_demo.mod:entry: now reached", "reach_demo.mod:renamed_away: no such function"]
    assert reach.report(table, unreached, unlisted, stale, problems) == 1
    assert "stale allowlist entry reach_demo.mod:entry: now reached" in capsys.readouterr().out


def test_entries_need_a_reason_and_appear_once(tmp_path):
    _, problems = allowlist(tmp_path, """\
        reach_demo.mod:allowlisted
        [reason]
        reach_demo.mod:only_tested
        reach_demo.mod:only_tested
        """)
    assert problems == [
        "allowlist line 1: reach_demo.mod:allowlisted has no [reason] above it",
        "allowlist line 4: reach_demo.mod:only_tested is listed twice"]


def test_run_checks_a_package_end_to_end(package, tmp_path, capsys):
    path = tmp_path / "allow.txt"
    path.write_text("[reason]\n*:*__*__\nreach_demo.mod:allowlisted\nreach_demo.mod:Box.size.setter\n")
    status = reach.run([[sys.executable, "-c", ENTRY]], src=str(package), package="reach_demo",
                       allowlist=str(path))
    assert status == 1  # only_tested is called by no command, and is the one failure
    out = capsys.readouterr().out
    assert "unreached UNLISTED reach_demo.mod:only_tested" in out
    assert "stale allowlist entry" not in out and out.endswith("1 unlisted, 0 stale: FAIL\n")
