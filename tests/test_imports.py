"""The package loads lazily: ``import qcc`` loads no submodule, and a CLI
command loads only the modules it runs.

Each check runs in a fresh interpreter, since the test process has long
since imported everything.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qcc

SRC = Path(__file__).resolve().parents[1] / "src"
ENV = dict(os.environ, PYTHONPATH=str(SRC))

def loaded_after(code: str, cwd, prefix: str = "qcc.") -> set[str]:
    """Modules named ``prefix...`` in ``sys.modules`` after ``code`` runs in
    a fresh interpreter, without the prefix."""
    script = (
        code
        + "\nimport json, sys"
        + f"\nprint(json.dumps(sorted(m for m in sys.modules if m.startswith({prefix!r}))))"
    )
    out = subprocess.run(
        [sys.executable, "-c", script], env=ENV, cwd=cwd, capture_output=True, text=True,
        timeout=120,
    )
    assert out.returncode == 0, out.stderr
    return {m.removeprefix(prefix) for m in json.loads(out.stdout.splitlines()[-1])}


def loaded_by_command(cwd, *argv) -> set[str]:
    """qcc submodules loaded by one ``main(argv)`` run that exits 0."""
    code = f"from qcc.cli import main\nassert main({list(argv)!r}) == 0"
    return loaded_after(code, cwd)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """A depolarizing channel and a state, written by fresh interpreters."""
    wd = tmp_path_factory.mktemp("imports")
    loaded_by_command(wd, "build", "depolarizing", "-d", "2", "-b", "0.4", "--out", "dep.json")
    (wd / "rho.json").write_text(json.dumps([[[1, 0], [0, 0]], [[0, 0], [0, 0]]]))
    return wd


def test_import_cli_loads_no_command_module(tmp_path):
    assert loaded_after("import qcc.cli", tmp_path) == {"cli"}
    assert loaded_after("import qcc", tmp_path) == set()


def test_help_and_parser_load_no_command_module(tmp_path):
    code = "from qcc.cli import build_parser, main\nbuild_parser()\nassert main(['--help']) == 0"
    assert loaded_after(code, tmp_path) == {"cli"}


@pytest.mark.parametrize(
    "argv",
    [
        ("--help",),
        ("nu", "--help"),
        ("nu", "--in", "x.json", "-p", "2", "--tol", "0"),
        ("build", "depolarizing", "--help"),
        ("build", "depolarizing", "-d", "3", "-b", "0.5", "--dout", "5"),
    ],
)
def test_help_and_usage_errors_load_no_numpy(tmp_path, argv):
    code = f"from qcc.cli import main\nmain({list(argv)!r})"
    assert loaded_after(code, tmp_path, prefix="numpy") == set()


@pytest.mark.parametrize(
    "argv, unused",
    [
        (("build", "depolarizing", "-d", "3", "-b", "0.2"),
         {"verify", "gl", "ebt", "purity", "conjugate", "random"}),
        (("build", "random", "-d", "3"), {"verify", "gl", "ebt", "purity", "conjugate", "pauli"}),
    ],
)
def test_build_loads_no_optimizer(workdir, argv, unused):
    loaded = loaded_by_command(workdir, *argv, "--out", "built.json")
    assert "serialize" in loaded
    assert not loaded & unused


def test_nu_loads_no_pauli_or_suites(workdir):
    loaded = loaded_by_command(
        workdir, "nu", "--in", "dep.json", "-p", "2", "--restarts", "2", "--out", "nu.json"
    )
    assert "purity" in loaded
    assert not loaded & {"verify", "gl", "ebt", "pauli"}


@pytest.mark.parametrize(
    "argv",
    [
        ("conjugate", "--in", "dep.json", "--method", "choi", "--check"),
        ("choi", "--in", "dep.json"),
        ("apply", "--in", "dep.json", "--state", "rho.json"),
    ],
)
def test_channel_commands_load_only_channel_modules(workdir, argv):
    loaded = loaded_by_command(workdir, *argv, "--out", "out.json")
    assert not loaded & {"verify", "gl", "pauli", "purity", "ebt"}


def test_capacity_loads_the_optimizer_it_needs(tmp_path):
    loaded_by_command(tmp_path, "build", "noisy", "-d", "2", "--pauli-json", "--out", "n.json")
    loaded = loaded_by_command(tmp_path, "capacity", "--in", "n.json", "--restarts", "1",
                               "--out", "c.json")
    assert {"pauli", "purity"} <= loaded
    assert not loaded & {"verify", "gl", "ebt"}


def test_verify_suite_loads_only_its_modules(tmp_path):
    loaded = loaded_by_command(tmp_path, "verify", "--suite", "gl", "--trials", "1",
                               "--out", "v.json")
    assert {"verify", "gl"} <= loaded
    assert not loaded & {"pauli", "ebt", "purity"}


def test_submodules_resolve_as_attributes(tmp_path):
    code = "import qcc\nassert qcc.pauli.MAX_DIM == 32"
    assert "pauli" in loaded_after(code, tmp_path)


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        qcc.no_such_name
    # Objects are named by their submodule only, even once it is loaded.
    with pytest.raises(AttributeError, match="KrausChannel"):
        qcc.KrausChannel
    with pytest.raises(ImportError):
        from qcc import no_such_name


def test_cli_suite_names_match_verify():
    from qcc import cli, verify

    assert cli.SUITE_NAMES == verify.SUITE_NAMES


def test_cli_optimizer_flags_default_to_optimizer_options():
    # build_parser restates the defaults, so that --help loads no numpy.
    from qcc.cli import _opts, build_parser
    from qcc.purity import OptimizerOptions

    parser = build_parser()
    for argv in (
        ["nu", "--in", "c.json", "-p", "2"],
        ["smin", "--in", "c.json"],
        ["mult", "--a", "c.json", "--b", "c.json", "-p", "2"],
        ["capacity", "--in", "c.json"],
    ):
        assert repr(_opts(parser.parse_args(argv))) == repr(OptimizerOptions()), argv
