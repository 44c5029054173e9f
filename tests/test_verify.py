import inspect

import numpy as np
import pytest

from qcc import gl, verify


def test_gl_shift_check_fails_when_the_p1_shift_is_not_the_identity(monkeypatch):
    real = gl.shift_operator

    def broken(p, direction, d):
        return -np.eye(d) if p == 1 else real(p, direction, d)

    monkeypatch.setattr(gl, "shift_operator", broken)
    results = {r.name: r for r in verify.suite_gl(seed=0, trials=1)}
    check = results["shift operators: swap at p=2 and left-right inverse"]
    assert check.max_err == 0.0
    assert not check.passed
    assert check.detail == "p=1 shift is not the identity"


def test_run_suites_uses_each_suite_default_trial_count(monkeypatch):
    seen = {}
    for name in verify.SUITE_NAMES:
        default = inspect.signature(getattr(verify, f"suite_{name}")).parameters["trials"].default

        def fake(seed=0, trials=default, name=name):
            seen[name] = trials
            return []

        monkeypatch.setattr(verify, f"suite_{name}", fake)
    verify.run_suites("all")
    assert seen == {"conjugate": 20, "pauli": 25, "ebt": 8, "gl": 10}
    verify.run_suites("all", trials=3)
    assert set(seen.values()) == {3}


def test_run_suites_rejects_an_unknown_suite():
    with pytest.raises(ValueError, match="unknown suite 'nosuch'"):
        verify.run_suites("nosuch")
