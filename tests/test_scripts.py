"""Smoke test: each script in ``scripts/`` runs to completion at its smallest
size."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

SCRIPTS = [
    ("qubit_closed_form_scan.py", "--n", "3", "--p", "1.5,2", "--restarts", "1"),
    ("depolarizing_bound_sweep.py", "--bs", "0.5", "--restarts", "2"),
    # At its default sizes the demo checks the linearizer identities at p = 4.
    ("conjugate_routes_demo.py",),
]


@pytest.mark.parametrize("argv", SCRIPTS, ids=[a[0] for a in SCRIPTS])
def test_script_runs(argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    res = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip()
