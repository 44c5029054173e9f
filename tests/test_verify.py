import inspect
import json

import numpy as np
import pytest

from qcc import conjugate as conj
from qcc import gl, verify
from qcc.cli import main


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


def test_verify_reports_a_refused_relation_and_runs_every_other_check(capsys, monkeypatch):
    argv = ["verify", "--suite", "conjugate", "--seed", "1", "--trials", "4"]
    assert main(argv) == 0
    clean = json.loads(capsys.readouterr().out)["checks"]
    real, calls = conj.find_relating_isometry, []

    def second_call_refused(*args, **kwargs):
        calls.append(args)
        if len(calls) == 2:
            raise conj.NotConjugateError("no partial isometry relates the two channels")
        return real(*args, **kwargs)

    monkeypatch.setattr(conj, "find_relating_isometry", second_call_refused)
    assert main(argv) == 3
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert [c["name"] for c in checks] == [c["name"] for c in clean]
    failed = [c for c in checks if not c["passed"]]
    assert [(c["name"], c["detail"]) for c in failed] == [
        ("three conjugate routes agree up to partial isometry",
         "no partial isometry relates the two channels"),
    ]
    assert [c for c in checks if c["passed"]] == [c for c in clean if c["name"] != failed[0]["name"]]
