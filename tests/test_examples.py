"""Every example stays runnable (subprocess smoke tests, smallest args)."""

import subprocess
import sys

import pytest

EXAMPLES = [
    ("domain_decomposition_viz.py", ["4", "8"]),
    ("resort_indices_demo.py", []),
    ("quickstart.py", []),
    ("md_coupled_simulation.py", ["2"]),
    ("thermostatted_md.py", ["2"]),
]


@pytest.mark.parametrize("script,args", EXAMPLES, ids=[e[0] for e in EXAMPLES])
def test_example_runs(script, args):
    result = subprocess.run(
        [sys.executable, f"examples/{script}", *args],
        capture_output=True,
        text=True,
        timeout=420,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    assert result.stdout.strip(), "examples must print something"
