import argparse
import json
import math
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qcc import channel as chn
from qcc import serialize as ser
from qcc.channel import KrausChannel
from qcc.cli import build_parser, main
from qcc.pauli import build_basis, depolarizing_weights, pauli_channel
from qcc.random import random_kraus_operators, rng_from_seed
from qcc.verify import run_suites


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_float_formatting_round_trips():
    for x in (1 / 3, 0.1, 5.0556e-2, 1e-300, 123456.789):
        assert float(ser.format_float(x)) == x


def _writer_error(obj) -> str:
    with pytest.raises(ValueError) as info:
        ser.dumps(obj)
    return str(info.value)


def test_array_writer_matches_the_list_writer():
    # The writer of nested Python lists is the reference: an array must come
    # out as the nested list plain() makes of it would.
    rng = np.random.default_rng(5)
    edge = np.array([-0.0, 5e-324, 1e300, -1e300, 1 / 3, 0.1, 1.0, 0.0])
    arrays = [edge, edge + 1j * edge[::-1], edge.reshape(2, 4) * 1j]
    for shape in ((3,), (2, 3), (2, 3, 4), (1, 1, 1)):
        x = rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 300, shape)
        arrays += [x, x + 1j * rng.standard_normal(shape)]
    arrays += [np.arange(4), np.zeros(0), np.zeros((2, 0), dtype=complex)]
    for a in arrays:
        lists = ser.plain(a).tolist()
        assert ser.dumps(a) == ser.dumps(lists), a
        nested = {"a": a, "b": [1, (a, {"c": a})], "d": None}
        reference = {"a": lists, "b": [1, (lists, {"c": lists})], "d": None}
        assert ser.dumps(nested) == ser.dumps(reference)
    assert ser.plain(np.array([1 + 2j, -0.0 - 3j])).tolist() == [[1.0, 2.0], [-0.0, -3.0]]

    for bad in (np.nan, np.inf, -np.inf):
        for a in (np.array([1.0, bad]), np.array([[1 + 1j, complex(2, bad)]])):
            message = _writer_error(ser.plain(a).tolist())
            assert message == f"cannot serialize non-finite value {bad}"
            assert _writer_error(a) == message
            assert _writer_error({"x": [a]}) == message


def test_channel_json_round_trip_fixed_point():
    rng = rng_from_seed(0)
    ch = KrausChannel(d_in=2, d_out=3, kraus=random_kraus_operators(2, 3, 4, rng))
    text = ser.dumps(ser.channel_to_obj(ch))
    back = ser.channel_from_obj(json.loads(text))
    assert np.array_equal(back.kraus, ch.kraus)
    text2 = ser.dumps(ser.channel_to_obj(back))
    assert text2 == text


def _numbers(obj) -> list:
    """The numbers of a nested object of dicts, lists and arrays, in order."""
    if isinstance(obj, np.ndarray):
        obj = ser.plain(obj).tolist()
    if isinstance(obj, dict):
        obj = list(obj.values())
    if isinstance(obj, (list, tuple)):
        return [x for v in obj for x in _numbers(v)]
    return [obj]


def test_negative_zero_keeps_its_sign_through_a_read_and_a_write():
    # -0.0 in either part of a pair, beside 1.0 and -0.0 in the other: the
    # construction re + 1j * im would turn some of these -0.0 into 0.0.  The
    # files are written by the json module, which spells -0.0 out.  qcc's own
    # writer prints every zero as 0, so the read arrays' bits are checked.
    u = [[-0.0, 1.0], [-0.0, -0.0]]
    v = [[-0.0, -0.0], [1.0, -0.0]]
    files = [
        (ser.channel_from_obj, ser.channel_to_obj, {"d_in": 2, "d_out": 2, "kraus": [[u, v]]}),
        (lambda obj: ser.complex_array(obj, 2), lambda a: a, [u, v]),
        (ser.ebt_from_obj, ser.ebt_to_obj, {"x": [u, v], "w": [u, v]}),
    ]
    for read, to_obj, obj in files:
        got, want = _numbers(to_obj(read(json.loads(json.dumps(obj))))), _numbers(obj)
        assert got == want
        assert np.array_equal(np.signbit(got), np.signbit(want))


def test_every_format_prints_a_zero_of_either_sign_as_0():
    from qcc.cli import _render

    zero = -0.0
    payload = {"x": zero, "l": [zero, 0.0], "a": np.array([zero, 0.0]), "c": np.array([complex(zero, zero)])}
    assert ser.format_float(zero) == "0"
    assert json.loads(_render(payload, "json")) == {"x": 0, "l": [0, 0], "a": [0, 0], "c": [[0, 0]]}
    assert _render(payload, "csv") == "key,value\nx,0\nl,0;0\na,0;0\nc.0,0;0\n"
    assert _render(payload, "text") == "x    0\nl    0;0\na    0;0\nc.0  0;0\n"


def test_channel_json_field_order():
    ch = chn.identity_channel(2)
    obj = ser.channel_to_obj(ch)
    assert list(obj.keys()) == ["d_in", "d_out", "kraus"]


def test_malformed_channel_json_is_rejected():
    with pytest.raises(ValueError):
        ser.channel_from_obj({"d_in": 2, "kraus": []})
    with pytest.raises(ValueError):
        ser.channel_from_obj({"d_in": 2, "d_out": 2, "kraus": [[[[1, 0]]]]})
    with pytest.raises(ValueError):
        ser.complex_array([[[1, 0], [0, 0]], [[1, 0]]], 2)


def test_pauli_json_round_trip():
    ch = pauli_channel(build_basis(3), depolarizing_weights(3, 0.5))
    obj = ser.pauli_to_obj(ch)
    assert obj["basis"] == "pauli" and len(obj["weights"]) == 9
    back = ser.pauli_from_obj(json.loads(ser.dumps(obj)))
    assert np.abs(back.weights - ch.weights).max() == 0

    b2 = build_basis(2)
    from qcc.pauli import product_basis

    prod = pauli_channel(product_basis(b2, b2), np.full(16, 1 / 16))
    obj = ser.pauli_to_obj(prod)
    assert obj["basis"] == "pauli_product:[2,2]"
    back = ser.pauli_from_obj(json.loads(ser.dumps(obj)))
    assert back.basis.kind == "pauli_product"


def test_build_depolarizing_weights(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "build", "depolarizing", "-d", "3", "-b", "0.5", "--pauli-json")
    assert code == 0
    obj = json.loads(out)
    assert abs(obj["weights"][0] - (0.5 + 0.5 / 9)) < 1e-15
    assert abs(obj["weights"][1] - 0.5 / 9) < 1e-15


def test_build_noisy_kraus_count(capsys):
    code, out, _ = run_cli(capsys, "build", "noisy", "-d", "2")
    assert code == 0
    obj = json.loads(out)
    assert len(obj["kraus"]) == 4
    ch = ser.channel_from_obj(obj)
    assert np.abs(np.abs(ch.kraus) * 2 - np.abs(build_basis(2).ops)).max() < 1e-15


def test_build_random_is_deterministic(capsys):
    code1, out1, _ = run_cli(capsys, "build", "random", "-d", "2", "--dout", "3", "--kraus", "4", "--seed", "7")
    code2, out2, _ = run_cli(capsys, "build", "random", "-d", "2", "--dout", "3", "--kraus", "4", "--seed", "7")
    assert code1 == code2 == 0
    assert out1 == out2
    ch = ser.channel_from_obj(json.loads(out1))
    assert chn.validate_cpt(ch).tp_ok


def test_nu_identity_and_depolarizing(capsys, tmp_path):
    id_path = tmp_path / "id2.json"
    run_cli(capsys, "build", "identity", "-d", "2", "--out", str(id_path))
    code, out, _ = run_cli(capsys, "nu", "--in", str(id_path), "-p", "2", "--restarts", "4")
    assert code == 0
    assert abs(json.loads(out)["results"]["value"] - 1.0) < 1e-9

    dep_path = tmp_path / "dep3.json"
    run_cli(capsys, "build", "depolarizing", "-d", "3", "-b", "0.5", "--out", str(dep_path))
    code, out, _ = run_cli(capsys, "nu", "--in", str(dep_path), "-p", "2", "--restarts", "6")
    assert code == 0
    assert abs(json.loads(out)["results"]["value"] - math.sqrt(0.5)) < 1e-6


def test_conjugate_identity_has_one_dimensional_output(capsys, tmp_path):
    path = tmp_path / "id3.json"
    run_cli(capsys, "build", "identity", "-d", "3", "--out", str(path))
    code, out, _ = run_cli(capsys, "conjugate", "--in", str(path))
    assert code == 0
    obj = json.loads(out)
    assert obj["d_out"] == 1 and len(obj["kraus"]) == 3


def test_conjugate_methods_and_check(capsys, tmp_path):
    path = tmp_path / "r.json"
    run_cli(capsys, "build", "random", "-d", "2", "--dout", "2", "--kraus", "3", "--seed", "5", "--out", str(path))
    code, out, err = run_cli(capsys, "conjugate", "--in", str(path), "--method", "choi", "--check")
    assert code == 0
    assert "PASS" in err
    conj_ch = ser.channel_from_obj(json.loads(out))
    assert chn.validate_cpt(conj_ch).tp_ok

    # Conjugating twice and checking against the original passes.
    c1 = tmp_path / "c1.json"
    run_cli(capsys, "conjugate", "--in", str(path), "--method", "kraus", "--out", str(c1))
    code, out, err = run_cli(
        capsys, "conjugate", "--in", str(c1), "--method", "kraus", "--check-against", str(path)
    )
    assert code == 0 and "PASS" in err

    # d = 6 with 36 Kraus operators: the relation is found on the 6 x 6
    # Kraus-swapped system, not the 36^2 direct one.
    big = tmp_path / "r6.json"
    run_cli(capsys, "build", "random", "-d", "6", "--kraus", "36", "--out", str(big))
    code, out, err = run_cli(capsys, "conjugate", "--in", str(big), "--method", "choi", "--check")
    assert code == 0 and "rank 36: PASS" in err


def test_conjugate_check_against_an_oversized_pair_is_refused(capsys, tmp_path):
    # Two (1, 40, 40) channels: both intertwiner systems have 40 x 40 = 1600
    # unknowns, above MAX_DIM^2 = 1024.
    rng = rng_from_seed(3)
    paths = []
    for name in ("a.json", "b.json"):
        ch = KrausChannel(d_in=1, d_out=40, kraus=random_kraus_operators(1, 40, 40, rng))
        paths.append(tmp_path / name)
        paths[-1].write_text(ser.dumps(ser.channel_to_obj(ch)))
    code, out, err = run_cli(
        capsys, "conjugate", "--in", str(paths[0]), "--check-against", str(paths[1])
    )
    assert (code, out) == (2, "")
    assert err.startswith("error:") and "exceeds the supported size" in err
    assert len(err.strip().splitlines()) == 1


def test_conjugate_routes_refuse_oversized_choi_matrices(capsys, tmp_path):
    # A (d_in, d_out, n) = (8, 20, 160) channel has Choi rank 160: the Choi
    # route's conjugate Choi matrix would have dimension 8 * 160 = 1280, and
    # the ancilla route's conjugate has d_in * d_out = 1280, both above
    # MAX_DIM^2 = 1024.
    rng = rng_from_seed(31)
    ch = KrausChannel(d_in=8, d_out=20, kraus=random_kraus_operators(8, 20, 160, rng))
    path = tmp_path / "big.json"
    path.write_text(ser.dumps(ser.channel_to_obj(ch)))
    for argv in (["--method", "choi"], ["--method", "ancilla", "--check"]):
        code, out, err = run_cli(capsys, "conjugate", "--in", str(path), *argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith("error:") and "1280" in err and "exceeds the supported size" in err
        assert len(err.strip().splitlines()) == 1


def test_conjugate_choi_of_the_zero_map_is_refused(capsys, tmp_path):
    path = tmp_path / "zero.json"
    path.write_text(ser.dumps(ser.channel_to_obj(KrausChannel.from_operators([np.zeros((2, 2))]))))
    code, out, err = run_cli(capsys, "conjugate", "--in", str(path), "--method", "choi")
    assert (code, out) == (2, "")
    assert err.strip() == "error: Choi matrix is numerically zero"


def test_boolean_dimensions_are_rejected(capsys, tmp_path):
    # JSON true loads as a Python bool, an int equal to 1, which would pass
    # for the dimension of a one-dimensional channel.
    for key in ("d_in", "d_out"):
        obj = ser.channel_to_obj(chn.identity_channel(1))
        obj[key] = True
        path = tmp_path / f"{key}.json"
        path.write_text(ser.dumps(obj))
        for argv in (["choi"], ["nu", "-p", "2"]):
            code, out, err = run_cli(capsys, *argv, "--in", str(path))
            assert (code, out) == (2, ""), argv
            assert err == "error: d_in and d_out must be positive integers\n"


def test_pauli_product_factor_dimensions_must_be_integers(capsys, tmp_path):
    weights = [1 / 16] * 16
    for dims in ("[2.7,2]", '["2",2]', "[2.0,2]", "[true,4]", '{"2": 2}'):
        path = tmp_path / "pp.json"
        path.write_text(json.dumps({"d": 4, "basis": f"pauli_product:{dims}", "weights": weights}))
        code, out, err = run_cli(capsys, "pauli", "lambda", "--in", str(path))
        assert (code, out) == (2, ""), dims
        assert err.startswith("error: bad basis tag") and len(err.strip().splitlines()) == 1
    path.write_text(json.dumps({"d": 4, "basis": "pauli_product:[2,2]", "weights": weights}))
    code, out, _ = run_cli(capsys, "pauli", "lambda", "--in", str(path))
    assert code == 0 and json.loads(out)["results"]["d"] == 4


def test_restarts_beyond_the_cap_are_rejected(capsys, tmp_path):
    dep = tmp_path / "dep.json"
    run_cli(capsys, "build", "depolarizing", "-d", "2", "-b", "0.5", "--out", str(dep))
    for restarts in ("1025", "1000000000000"):
        for argv in (["nu", "--in", str(dep), "-p", "2"], ["smin", "--in", str(dep)]):
            code, out, err = run_cli(capsys, *argv, "--restarts", restarts)
            assert (code, out) == (2, ""), argv
            assert err == (
                f"error: restarts {restarts} exceeds the supported size (restarts <= 1024)\n"
            )


def test_pauli_subgroup_rejects_a_state_of_the_wrong_shape(capsys, tmp_path):
    state = tmp_path / "rho3.json"
    state.write_text(ser.dumps(np.eye(3, dtype=complex) / 3))
    code, out, err = run_cli(capsys, "pauli", "subgroup", "-d", "2", "--state", str(state))
    assert (code, out) == (2, "")
    assert err == "error: state must be 2x2\n"


def test_apply_and_choi_commands(capsys, tmp_path):
    path = tmp_path / "id.json"
    run_cli(capsys, "build", "identity", "-d", "2", "--out", str(path))
    state = tmp_path / "rho.json"
    state.write_text(json.dumps([[[0.75, 0], [0, 0]], [[0, 0], [0.25, 0]]]))
    code, out, _ = run_cli(capsys, "apply", "--in", str(path), "--state", str(state))
    assert code == 0
    got = ser.complex_array(json.loads(out)["matrix"], 2)
    assert np.abs(got - np.diag([0.75, 0.25])).max() < 1e-15

    code, out, _ = run_cli(capsys, "choi", "--in", str(path))
    assert code == 0
    gamma = ser.complex_array(json.loads(out)["gamma"], 2)
    phi = np.zeros(4)
    phi[0] = phi[3] = 1 / np.sqrt(2)
    assert np.abs(gamma - np.outer(phi, phi)).max() < 1e-12


def test_mult_command(capsys, tmp_path):
    dep = tmp_path / "dep2.json"
    run_cli(capsys, "build", "depolarizing", "-d", "2", "-b", "0.5", "--out", str(dep))
    code, out, _ = run_cli(capsys, "mult", "--a", str(dep), "--b", str(dep), "-p", "2", "--restarts", "6")
    assert code == 0
    res = json.loads(out)["results"]
    assert abs(res["gap"]) < 1e-6
    assert res["witness_state"] is None


def test_capacity_command(capsys, tmp_path):
    dep = tmp_path / "dep2p.json"
    run_cli(capsys, "build", "depolarizing", "-d", "2", "-b", "0.5", "--pauli-json", "--out", str(dep))
    code, out, _ = run_cli(capsys, "capacity", "--in", str(dep), "--restarts", "6")
    assert code == 0
    want = 1.0 + 0.75 * math.log2(0.75) + 0.25 * math.log2(0.25)
    assert abs(json.loads(out)["results"]["capacity"] - want) < 1e-6


def test_pauli_subcommands(capsys, tmp_path):
    dep = tmp_path / "dep3p.json"
    run_cli(capsys, "build", "depolarizing", "-d", "3", "-b", "0.5", "--pauli-json", "--out", str(dep))
    code, out, _ = run_cli(capsys, "pauli", "lambda", "--in", str(dep))
    assert code == 0
    lam = ser.complex_array(json.loads(out)["results"]["lambda"], 1)
    assert abs(lam[0] - 1.0) < 1e-12 and np.abs(lam[1:] - 0.5).max() < 1e-12

    code, out, _ = run_cli(capsys, "pauli", "bound", "--in", str(dep), "-p", "inf")
    assert code == 0
    res = json.loads(out)["results"]
    assert abs(res["majorization_bound"] - (0.5 + 0.5 / 3)) < 1e-12
    code, out, _ = run_cli(capsys, "pauli", "bound", "--in", str(dep), "-p", "2000")
    assert code == 0
    assert abs(json.loads(out)["results"]["majorization_bound"] - 2 / 3) < 1e-12

    state = tmp_path / "e0.json"
    state.write_text(json.dumps([[[1, 0], [0, 0]], [[0, 0], [0, 0]]]))
    code, out, _ = run_cli(capsys, "pauli", "ncimage", "-d", "2", "--state", str(state))
    assert code == 0
    checks = json.loads(out)["results"]["checks"]
    assert checks["projector"] < 1e-10

    code, out, _ = run_cli(capsys, "pauli", "subgroup", "-d", "2", "--state", str(state))
    assert code == 0
    assert json.loads(out)["results"]["order"] == 2

    bell = tmp_path / "bell.json"
    s = 1 / math.sqrt(2)
    bell.write_text(json.dumps([[s, 0], [0, 0], [0, 0], [s, 0]]))
    code, out, _ = run_cli(capsys, "pauli", "classify", "-d", "2", "--state", str(bell))
    assert code == 0
    assert json.loads(out)["results"]["class"] == "maximally_entangled"


def test_ebt_commands(capsys, tmp_path):
    cq = tmp_path / "cq.json"
    run_cli(capsys, "build", "cq", "-d", "2", "--dout", "3", "--ebt-json", "--seed", "3", "--out", str(cq))
    code, out, _ = run_cli(capsys, "ebt", "conjugate", "--in", str(cq))
    assert code == 0
    res = json.loads(out)["results"]
    inner = ser.channel_from_obj(res["channel"])
    assert chn.validate_cpt(inner).tp_ok

    chfile = tmp_path / "conj.json"
    chfile.write_text(ser.dumps(res["channel"]))
    code, out, _ = run_cli(capsys, "ebt", "detect", "--in", str(chfile))
    assert code == 0
    assert json.loads(out)["results"]["verdict"] == "yes"


def test_gl_commands(capsys, tmp_path):
    path = tmp_path / "r.json"
    run_cli(capsys, "build", "random", "-d", "2", "--dout", "2", "--kraus", "3", "--seed", "1", "--out", str(path))
    code, out, _ = run_cli(capsys, "gl", "verify", "--in", str(path), "-p", "2")
    assert code == 0
    res = json.loads(out)["results"]
    assert res["passed"] and res["residual_conjugate"] < 1e-12

    code, out, _ = run_cli(capsys, "gl", "theta", "--in", str(path), "-p", "2")
    assert code == 0
    assert len(json.loads(out)["matrix"]) == 4


def test_gl_commands_take_every_p_within_the_size_cap(capsys, tmp_path):
    # The d = 3 Werner-Holevo channel, Kraus operators (|i><j| - |j><i|) / sqrt(2)
    # for i < j, first breaks multiplicativity at p = 5, where 3^5 = 243 <= 256.
    ops = []
    for i, j in ((0, 1), (0, 2), (1, 2)):
        k = np.zeros((3, 3))
        k[i, j], k[j, i] = 1.0, -1.0
        ops.append(k / math.sqrt(2))
    wh = tmp_path / "wh.json"
    wh.write_text(ser.dumps(ser.channel_to_obj(KrausChannel.from_operators(ops))))
    code, out, _ = run_cli(capsys, "gl", "theta", "--in", str(wh), "-p", "5")
    assert code == 0 and len(json.loads(out)["matrix"]) == 243
    code, out, _ = run_cli(capsys, "gl", "verify", "--in", str(wh), "-p", "5", "--trials", "2")
    assert code == 0 and json.loads(out)["results"]["passed"]

    qubit = tmp_path / "q.json"
    run_cli(capsys, "build", "random", "-d", "2", "--kraus", "3", "--out", str(qubit))
    for path, p in ((qubit, "9"), (wh, "6"), (qubit, str(10**18))):
        for sub in ("theta", "omega", "verify"):
            code, out, err = run_cli(capsys, "gl", sub, "--in", str(path), "-p", p)
            assert (code, out) == (2, ""), (sub, p)
            assert err.startswith("error:") and "exceeds the supported size" in err
            assert len(err.strip().splitlines()) == 1


def test_verify_command_and_exit_codes(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "verify", "--suite", "gl", "--seed", "1")
    assert code == 0
    rep = json.loads(out)
    assert rep["results"]["checks_failed"] == 0
    assert all(c["passed"] for c in rep["checks"])

    # Missing file: I/O error.
    code, _, err = run_cli(capsys, "nu", "--in", str(tmp_path / "absent.json"), "-p", "2")
    assert code == 4

    # Malformed JSON: validation error.
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, _ = run_cli(capsys, "nu", "--in", str(bad), "-p", "2")
    assert code == 2

    # Invalid parameter: validation error.
    dep = tmp_path / "dep.json"
    run_cli(capsys, "build", "depolarizing", "-d", "2", "-b", "0.5", "--out", str(dep))
    code, _, _ = run_cli(capsys, "nu", "--in", str(dep), "-p", "0.5")
    assert code == 2


def test_reports_are_byte_identical_across_runs(capsys, tmp_path):
    dep = tmp_path / "dep.json"
    run_cli(capsys, "build", "depolarizing", "-d", "2", "-b", "0.3", "--out", str(dep))
    # A random d = 9 channel with 9 Kraus operators: its (9, 9) kernel is
    # above the fixed point's cutoff at p = 1.5 and for the entropy.
    big = tmp_path / "big.json"
    run_cli(capsys, "build", "random", "-d", "9", "--kraus", "9", "--seed", "3", "--out", str(big))
    # The fixed-point engine (p = 2 on both inputs, p = 1.5 and smin on dep)
    # and the gradient engine (p = 1.5 and smin on big).
    for argv in (["nu", "-p", "2"], ["nu", "-p", "1.5"], ["smin"]):
        for path in (dep, big):
            outs = []
            for _ in range(2):
                code, out, _ = run_cli(
                    capsys, *argv, "--in", str(path), "--seed", "9", "--restarts", "4"
                )
                assert code == 0
                outs.append(out)
            assert outs[0] == outs[1]


def test_threads_env_override(capsys, tmp_path, monkeypatch):
    # QCC_THREADS is no longer read: it neither enters config nor changes stdout.
    dep = tmp_path / "dep.json"
    run_cli(capsys, "build", "depolarizing", "-d", "2", "-b", "0.3", "--out", str(dep))
    argv = ("nu", "--in", str(dep), "-p", "2", "--restarts", "4")
    code, plain, _ = run_cli(capsys, *argv)
    assert code == 0
    monkeypatch.setenv("QCC_THREADS", "2")
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert out == plain
    assert list(json.loads(out)["config"]) == ["seed", "tol", "restarts", "format"]


def test_results_independent_of_thread_setting(capsys, tmp_path):
    # There is no thread setting: --threads, whatever its value, is a usage error.
    dep = tmp_path / "dep.json"
    run_cli(capsys, "build", "depolarizing", "-d", "2", "-b", "0.3", "--out", str(dep))
    for threads in ("1", "8"):
        code, out, err = run_cli(
            capsys, "nu", "--in", str(dep), "-p", "2", "--restarts", "4", "--threads", threads
        )
        assert (code, out) == (2, "")
        assert err.startswith("error:") and len(err.strip().splitlines()) == 1
        assert "--threads" in err


def test_csv_and_text_formats(capsys, tmp_path):
    dep = tmp_path / "dep.json"
    run_cli(capsys, "build", "depolarizing", "-d", "2", "-b", "0.3", "--out", str(dep))
    code, out, _ = run_cli(capsys, "smin", "--in", str(dep), "--restarts", "4", "--format", "csv")
    assert code == 0
    assert out.startswith("key,value")
    code, out, _ = run_cli(capsys, "smin", "--in", str(dep), "--restarts", "4", "--format", "text")
    assert code == 0
    assert "results.value" in out


def test_non_finite_input_is_rejected(capsys, tmp_path):
    for bad in ("NaN", "Infinity", "-Infinity"):
        with pytest.raises(ValueError):
            ser.complex_array([float(bad), 0.0], 0)
        path = tmp_path / f"ch_{bad}.json"
        path.write_text(
            '{"d_in": 1, "d_out": 1, "kraus": [[[[%s, 0]]]]}' % bad, encoding="utf-8"
        )
        code, out, err = run_cli(capsys, "conjugate", "--in", str(path), "--method", "kraus")
        assert (code, out) == (2, "")
        assert err.startswith("error:") and "Traceback" not in err

        weights = tmp_path / f"pauli_{bad}.json"
        weights.write_text('{"d": 2, "basis": "pauli", "weights": [%s, 0, 0, 0]}' % bad)
        code, out, _ = run_cli(capsys, "pauli", "lambda", "--in", str(weights))
        assert (code, out) == (2, "")

    dep = tmp_path / "dep.json"
    run_cli(capsys, "build", "depolarizing", "-d", "2", "-b", "0.5", "--out", str(dep))
    for argv in (
        ["nu", "--in", str(dep), "-p", "nan"],
        ["mult", "--a", str(dep), "--b", str(dep), "-p", "nan"],
        ["smin", "--in", str(dep), "--tol", "nan"],
        ["build", "depolarizing", "-d", "2", "-b", "nan"],
        ["build", "pauli", "-d", "2", "--weights", "nan,0,0,1"],
    ):
        code, out, _ = run_cli(capsys, *argv)
        assert (code, out) == (2, ""), argv


def test_usage_error_is_one_line(capsys, tmp_path):
    dep = tmp_path / "dep.json"
    run_cli(capsys, "build", "depolarizing", "-d", "2", "-b", "0.5", "--out", str(dep))
    code, out, err = run_cli(capsys, "nu", "--in", str(dep), "-p", "nan")
    assert (code, out) == (2, "")
    assert err.startswith("error: argument -p") and len(err.strip().splitlines()) == 1

    # A bad value names the flag and the value, never a private parser function.
    for argv, flag in (
        (["nu", "--in", str(dep), "-p", "nan"], "-p"),
        (["nu", "--in", str(dep), "-p", "abc"], "-p"),
        (["nu", "--in", str(dep), "-p", "0.5"], "-p"),
        (["nu", "--in", str(dep), "-p", "2", "--tol", "abc"], "--tol"),
        (["nu", "--in", str(dep), "-p", "2", "--tol", "inf"], "--tol"),
        (["build", "depolarizing", "-d", "2", "-b", "x"], "-b"),
        (["verify", "--trials", "abc"], "--trials"),
        (["gl", "verify", "--in", str(dep), "--trials", "1.5"], "--trials"),
        (["nu", "--in", str(dep), "-p", "2", "--max-iter", "-5"], "--max-iter"),
        (["nu", "--in", str(dep), "-p", "2", "--max-iter", "0"], "--max-iter"),
        (["nu", "--in", str(dep), "-p", "2", "--restarts", "0"], "--restarts"),
        (["nu", "--in", str(dep), "-p", "2", "--tol", "0"], "--tol"),
        (["nu", "--in", str(dep), "-p", "2", "--seed", "-1"], "--seed"),
        (["build", "random", "-d", "2", "--kraus", "0"], "--kraus"),
        (["build", "random", "-d", "2", "--dout", "0"], "--dout"),
        (["build", "ebt", "-d", "2", "-n", "0"], "-n"),
        (["build", "ebt", "-d", "0"], "-d/--dim"),
        (["gl", "theta", "--in", str(dep), "-p", "0"], "-p"),
        (["pauli", "ncimage", "-d", "abc", "--state", str(dep)], "-d/--dim"),
        (["pauli", "subgroup", "-d", "abc", "--state", str(dep)], "-d/--dim"),
        (["pauli", "classify", "-d", "abc", "--state", str(dep)], "-d/--dim"),
        (["pauli", "classify", "-d", "0", "--state", str(dep)], "-d/--dim"),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith(f"error: argument {flag}: "), err
        assert len(err.strip().splitlines()) == 1, err
        assert "invalid" not in err and " _" not in err, err

    code, out, err = run_cli(capsys, "nosuchcommand")
    assert (code, out) == (2, "")
    assert err.startswith("error:") and len(err.strip().splitlines()) == 1

    # --help still prints the full usage text and exits 0.
    code, out, _ = run_cli(capsys, "nu", "--help")
    assert code == 0 and out.startswith("usage: qcc nu")


def _leaf_parsers(parser, name=()):
    """Yield ``(command words, parser)`` for every leaf command."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        yield " ".join(name), parser
        return
    for word, sub in subs[0].choices.items():
        yield from _leaf_parsers(sub, name + (word,))


# The flags each ``build`` kind reads, besides ``--format`` and ``--out``.
BUILD_FLAGS = {
    "identity": {"-d", "--pauli-json"},
    "noisy": {"-d", "--pauli-json"},
    "depolarizing": {"-d", "--pauli-json", "-b"},
    "pauli": {"-d", "--pauli-json", "--weights"},
    "axes": {"-d", "--pauli-json", "-s", "-t", "-u"},
    "random": {"-d", "--seed", "--dout", "--kraus"},
    "cq": {"-d", "--seed", "--dout", "--ebt-json"},
    "ebt": {"-d", "--seed", "--dout", "--ebt-json", "-n"},
}


def test_each_command_takes_only_the_flags_it_reads():
    optimizer = {"--seed", "--tol", "--restarts", "--max-iter"}
    extra = {
        "build random": {"--seed"},
        "build cq": {"--seed"},
        "build ebt": {"--seed"},
        "nu": optimizer,
        "smin": optimizer,
        "mult": optimizer,
        "capacity": optimizer,
        "pauli subgroup": {"--tol"},
        "pauli classify": {"--tol"},
        "gl verify": {"--seed"},
        "verify": {"--seed"},
    }
    leaves = dict(_leaf_parsers(build_parser()))
    assert len(leaves) == 26 and set(extra) <= set(leaves)
    for name, parser in leaves.items():
        flags = {s for a in parser._actions for s in a.option_strings}
        shared = flags & (optimizer | {"--format", "--out"})
        assert shared == {"--format", "--out"} | extra.get(name, set()), name
    for kind, own in BUILD_FLAGS.items():
        actions = leaves[f"build {kind}"]._actions
        flags = {a.option_strings[0] for a in actions if a.option_strings and a.dest != "help"}
        assert flags == own | {"--format", "--out"}, kind
    assert sum(len(own) + 2 for own in BUILD_FLAGS.values()) == 44


def test_build_kinds_reject_the_flags_they_do_not_read(capsys, tmp_path):
    out = str(tmp_path / "built.json")
    values = {
        "-d": ["2"], "--dout": ["2"], "-b": ["0.5"], "--weights": ["0.25,0.25,0.25,0.25"],
        "-s": ["0.5"], "-t": ["0.5"], "-u": ["0"], "--kraus": ["2"], "-n": ["3"],
        "--pauli-json": [], "--ebt-json": [], "--seed": ["1"], "--format": ["csv"], "--out": [out],
    }
    required = {"-d", "-b", "--weights", "-s", "-t", "-u"}
    for kind, own in BUILD_FLAGS.items():
        base = ["build", kind] + [w for f in sorted(own & required) for w in [f, *values[f]]]
        for flag, value in values.items():
            if flag in required and flag in own:
                continue
            code, stdout, err = run_cli(capsys, *base, flag, *value)
            if flag in own or flag in ("--format", "--out"):
                assert code == 0 and err.startswith("[qcc] build finished"), (kind, flag)
            else:
                assert (code, stdout) == (2, ""), (kind, flag)
                assert err.startswith(f"error: unrecognized arguments: {flag}"), err
                assert len(err.strip().splitlines()) == 1, err
        for flag in own & required:
            i = base.index(flag)
            code, stdout, err = run_cli(capsys, *base[:i], *base[i + 1 + len(values[flag]):])
            assert (code, stdout) == (2, ""), (kind, flag)
            assert err.startswith("error: the following arguments are required: ")
            assert flag in err and len(err.strip().splitlines()) == 1, err

    # A kind's flags follow the kind.
    code, stdout, err = run_cli(capsys, "build", "-d", "2", "identity")
    assert (code, stdout) == (2, "")
    assert err.startswith("error:") and len(err.strip().splitlines()) == 1


def test_route_check_of_the_kraus_method_is_a_usage_error(capsys, tmp_path):
    dep = tmp_path / "dep.json"
    run_cli(capsys, "build", "depolarizing", "-d", "2", "-b", "0.5", "--out", str(dep))
    # The missing file shows that the check is refused before the input is read.
    for infile in (str(dep), str(tmp_path / "missing.json")):
        for method in ([], ["--method", "kraus"]):
            code, out, err = run_cli(capsys, "conjugate", "--in", infile, *method, "--check")
            assert (code, out) == (2, "")
            assert err.startswith("error: --check needs --method choi or ancilla")
            assert len(err.strip().splitlines()) == 1
    code, out, err = run_cli(capsys, "conjugate", "--in", str(dep), "--method", "choi", "--check")
    assert code == 0 and "check choi vs kraus" in err


def test_flags_a_command_does_not_take_are_rejected(capsys, tmp_path):
    dep = tmp_path / "dep.json"
    run_cli(capsys, "build", "depolarizing", "-d", "2", "-b", "0.5", "--out", str(dep))
    for argv, flag in (
        (["conjugate", "--in", str(dep), "--seed", "1"], "--seed"),
        (["conjugate", "--in", str(dep), "--tol", "0"], "--tol"),
        (["pauli", "lambda", "--in", str(dep), "--tol", "1e-9"], "--tol"),
        (["gl", "theta", "--in", str(dep), "-p", "2", "--seed", "2"], "--seed"),
        (["verify", "--tol", "1e-9"], "--tol"),
        (["verify", "--restarts", "3"], "--restarts"),
        (["gl", "verify", "--in", str(dep), "--tol", "1e-9"], "--tol"),
        (["ebt", "detect", "--in", str(dep), "--seed", "1"], "--seed"),
        (["build", "identity", "-d", "2", "--tol", "1e-9"], "--tol"),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith(f"error: unrecognized arguments: {flag} "), err
        assert len(err.strip().splitlines()) == 1, err


def test_config_echoes_only_the_flags_a_command_takes(capsys, tmp_path):
    dep = tmp_path / "dep.json"
    depp = tmp_path / "depp.json"
    run_cli(capsys, "build", "depolarizing", "-d", "2", "-b", "0.5", "--out", str(dep))
    run_cli(capsys, "build", "depolarizing", "-d", "2", "-b", "0.5", "--pauli-json", "--out", str(depp))
    state = tmp_path / "e0.json"
    state.write_text(json.dumps([[[1, 0], [0, 0]], [[0, 0], [0, 0]]]))
    for argv, keys in (
        (["pauli", "lambda", "--in", str(depp)], ["format"]),
        (["pauli", "subgroup", "-d", "2", "--state", str(state), "--tol", "1e-9"], ["tol", "format"]),
        (["gl", "verify", "--in", str(dep), "--seed", "3"], ["seed", "format"]),
        (["verify", "--suite", "gl", "--trials", "1"], ["seed", "format"]),
        (["nu", "--in", str(dep), "-p", "2", "--restarts", "2"], ["seed", "tol", "restarts", "format"]),
    ):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0, argv
        assert list(json.loads(out)["config"]) == keys, argv


def test_readme_examples_parse():
    # Every ``qcc ...`` line of the README's command-line tour names only
    # flags its command takes.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    tour = readme.split("## Command-line tour", 1)[1].split("```", 2)[1]
    lines = [ln.split("#", 1)[0] for ln in tour.splitlines() if ln.startswith("qcc ")]
    assert len(lines) >= 10
    parser = build_parser()
    for line in lines:
        try:
            parser.parse_args(shlex.split(line)[1:])
        except SystemExit:
            pytest.fail(f"README example does not parse: {line.strip()}")


def test_trials_below_one_are_rejected(capsys, tmp_path):
    path = tmp_path / "r.json"
    run_cli(capsys, "build", "random", "-d", "2", "--kraus", "3", "--out", str(path))
    for argv in (
        ["gl", "verify", "--in", str(path), "--trials", "-3"],
        ["gl", "verify", "--in", str(path), "--trials", "0"],
        ["verify", "--suite", "gl", "--trials", "0"],
        ["verify", "--suite", "all", "--trials", "-1"],
    ):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith("error: argument --trials") and len(err.strip().splitlines()) == 1

    with pytest.raises(ValueError):
        run_suites("gl", trials=0)


def test_sizes_beyond_the_cap_are_rejected(capsys, tmp_path):
    from qcc.pauli import MAX_DIM

    state = tmp_path / "rho.json"
    state.write_text(ser.dumps(np.eye(2, dtype=complex) / 2))
    over = str(MAX_DIM + 1)
    for argv in (
        ["build", "noisy", "-d", over],
        ["build", "random", "-d", "2", "--dout", over],
        ["build", "random", "-d", "2", "--kraus", str(MAX_DIM**2 + 1)],
        ["pauli", "ncimage", "-d", over, "--state", str(state)],
        ["pauli", "subgroup", "-d", over, "--state", str(state)],
        # The product basis on d x d: d = 6 is the least d with d * d > MAX_DIM.
        ["pauli", "ncimage", "-d", "6", "--product", "--state", str(state)],
    ):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith("error:") and "exceeds the supported size" in err
        assert len(err.strip().splitlines()) == 1

    code, out, _ = run_cli(capsys, "build", "noisy", "-d", str(MAX_DIM), "--pauli-json")
    assert code == 0 and len(json.loads(out)["weights"]) == MAX_DIM**2


def test_optimizer_commands_reject_channels_beyond_the_size_cap(capsys, tmp_path):
    # d_in = d_out = n = 33: d_in * min(n, d_out) = 1089 > MAX_DIM^2 on either side.
    path = tmp_path / "big.json"
    kraus = random_kraus_operators(33, 33, 33, rng_from_seed(3))
    ch = KrausChannel(d_in=33, d_out=33, kraus=kraus)
    path.write_text(ser.dumps(ser.channel_to_obj(ch)))
    for argv in (["nu", "--in", str(path), "-p", "2"], ["smin", "--in", str(path)]):
        code, out, err = run_cli(capsys, *argv, "--restarts", "1")
        assert (code, out) == (2, ""), argv
        assert err.startswith("error:") and "exceeds the optimizer's supported size" in err
        assert len(err.strip().splitlines()) == 1

    # One Kraus operator from C^2 into C^600: d_in d_out = 1200, but the
    # optimizer runs on the conjugate, whose output is one-dimensional.
    path = tmp_path / "wide.json"
    path.write_text(ser.dumps(ser.channel_to_obj(KrausChannel.from_operators([np.eye(600, 2)]))))
    for argv, value in ((["nu", "-p", "2"], 1), (["smin"], 0)):
        code, out, _ = run_cli(capsys, *argv, "--in", str(path), "--restarts", "1")
        assert code == 0 and json.loads(out)["results"]["value"] == value


def test_optimizer_values_print_in_their_exact_range(capsys, tmp_path):
    # On the identity the optimum sits on the bound nu_p = 1, S_min = 0, where
    # rounding printed 1.0000000000000009, -6.4e-16 and -0.
    path = tmp_path / "id.json"
    path.write_text(ser.dumps(ser.channel_to_obj(chn.identity_channel(2))))
    for restarts in ("2", "32"):
        code, out, _ = run_cli(capsys, "smin", "--in", str(path), "--restarts", restarts)
        assert code == 0 and '"value": 0,' in out
        for p in ("1.5", "2", "inf"):
            code, out, _ = run_cli(capsys, "nu", "--in", str(path), "-p", p, "--restarts", restarts)
            assert code == 0 and '"value": 1,' in out
    code, out, _ = run_cli(capsys, "mult", "--a", str(path), "--b", str(path), "-p", "2")
    results = json.loads(out)["results"]
    assert code == 0 and (results["lhs"], results["rhs"], results["gap"]) == (1, 1, 0)
    assert '"gap": 0,' in out


def test_choi_forming_commands_refuse_channels_beyond_the_size_cap(capsys, tmp_path):
    # One Kraus operator from C^1 into C^1025: the Choi matrix would have
    # dimension d_in d_out = 1025, the applied stack 1025^2 entries and the
    # Hadamard-form Gram matrix 1025 rows, each above its cap.
    path = tmp_path / "tall.json"
    path.write_text(ser.dumps(ser.channel_to_obj(KrausChannel.from_operators([np.eye(1025, 1)]))))
    state = tmp_path / "one.json"
    state.write_text(json.dumps([[[1, 0]]]))
    for argv in (
        ["choi"],
        ["conjugate", "--method", "choi"],
        ["apply", "--state", str(state)],
        ["ebt", "detect"],
    ):
        code, out, err = run_cli(capsys, *argv, "--in", str(path))
        assert (code, out) == (2, ""), argv
        assert err.startswith("error:") and "exceeds the supported size" in err, argv
        assert len(err.strip().splitlines()) == 1


VECTOR3 = [[1, 0], [0, 0], [0, 0]]
MATRIX2 = [[[0.5, 0], [0, 0]], [[0, 0], [0.5, 0]]]


@pytest.mark.parametrize(
    "argv, state, message",
    [
        (["pauli", "classify", "-d", "2"], VECTOR3,
         "state must be a vector of length 4, got shape (3,)"),
        (["pauli", "classify", "-d", "2"], MATRIX2,
         "expected a vector of [re, im] pairs, got a matrix with 2 rows"),
        (["pauli", "subgroup", "-d", "2"], VECTOR3,
         "expected a matrix of rows of [re, im] pairs, got a vector of length 3"),
        (["pauli", "ncimage", "-d", "2"], VECTOR3,
         "expected a matrix of rows of [re, im] pairs, got a vector of length 3"),
        (["apply", "--in", "CHANNEL"], VECTOR3,
         "expected a matrix of rows of [re, im] pairs, got a vector of length 3"),
        (["apply", "--in", "CHANNEL"], [[[1, 0], [0, 0]], [[0, 0]]],
         "matrix rows have inconsistent lengths"),
        (["pauli", "subgroup", "-d", "2"], [[[0.5, 0]], [[0, 0], [0.5, 0]]],
         "matrix rows have inconsistent lengths"),
    ],
    ids=["classify-short-vector", "classify-matrix", "subgroup-vector", "ncimage-vector",
         "apply-vector", "apply-unequal-rows", "subgroup-unequal-rows"],
)
def test_state_files_of_the_wrong_kind_name_what_was_expected(capsys, tmp_path, argv, state, message):
    channel = tmp_path / "id.json"
    channel.write_text(ser.dumps(ser.channel_to_obj(chn.identity_channel(2))))
    path = tmp_path / "state.json"
    path.write_text(json.dumps(state))
    argv = [str(channel) if a == "CHANNEL" else a for a in argv]
    code, out, err = run_cli(capsys, *argv, "--state", str(path))
    assert (code, out) == (2, "")
    assert err == f"error: {message}\n"


def test_pauli_classify_refuses_the_zero_vector(capsys, tmp_path):
    path = tmp_path / "zero.json"
    path.write_text(json.dumps([[0, 0]] * 4))
    code, out, err = run_cli(capsys, "pauli", "classify", "-d", "2", "--state", str(path))
    assert (code, out, err) == (2, "", "error: state is the zero vector\n")


@pytest.mark.parametrize(
    "state, message",
    [
        ([[[1, 0], [0, 0]], [[0, 0], [1, 0]]],
         "the explicit formula needs a state of trace 1, got 2"),
        ([[[1, 0], [1, 0]], [[0, 0], [0, 0]]], "the explicit formula needs a Hermitian state"),
        ([[[1.5, 0], [0, 0]], [[0, 0], [-0.5, 0]]],
         "the explicit formula needs a pure state (rank one)"),
        ([[[1, 0], [0, 0]]], "state must be a square matrix, got shape (1, 2)"),
        # Pure states, but not on C^2.
        ([[[1, 0], [0, 0], [0, 0]], [[0, 0], [0, 0], [0, 0]], [[0, 0], [0, 0], [0, 0]]],
         "state must be a vector of length 2, got shape (3,)"),
        ([[[1, 0]]], "state must be a vector of length 2, got shape (1,)"),
    ],
    ids=["identity", "non-hermitian", "trace-one-not-rank-one", "non-square", "pure-3x3",
         "pure-1x1"],
)
def test_pauli_ncimage_explicit_refuses_what_is_not_a_pure_state(capsys, tmp_path, state, message):
    path = tmp_path / "state.json"
    path.write_text(json.dumps(state))
    code, out, err = run_cli(capsys, "pauli", "ncimage", "-d", "2", "--explicit", "--state", str(path))
    assert (code, out) == (2, "")
    assert err == f"error: {message}\n"


def _kraus_obj(kraus, d_in=1, d_out=1):
    return {"d_in": d_in, "d_out": d_out, "kraus": kraus}


def _pauli_obj(d, basis, n_weights=None):
    n = d * d if n_weights is None else n_weights
    return {"d": d, "basis": basis, "weights": [1 / n] * n}


@pytest.mark.parametrize(
    "command, obj, message",
    [
        (["choi"], [1, 2], "channel JSON must be an object"),
        (["choi"], {"d_in": 1, "d_out": 1, "kraus": "x"}, "kraus must be a non-empty array"),
        # Kraus list with sum F^+ F = 4 I: not trace-preserving.
        (["nu", "-p", "2"], {"d_in": 1, "d_out": 1, "kraus": [[[[2, 0]]]]},
         "Kraus list is not trace-preserving"),
        (["pauli", "lambda"], {"d": 2, "weights": [1, 0, 0, 0]},
         "Pauli-diagonal JSON needs d, basis, and weights"),
        (["pauli", "lambda"], _pauli_obj(1, "pauli"), "d must be an integer >= 2"),
        (["pauli", "lambda"], _pauli_obj(4, "pauli_product:[2,"), "bad basis tag"),
        (["pauli", "lambda"], _pauli_obj(4, "pauli_product:[4]"),
         "product basis needs at least two factors"),
        (["pauli", "lambda"], _pauli_obj(3, "pauli_product:[2,2]"),
         "product of [2, 2] has dimension 4, not 3"),
        (["pauli", "lambda"], _pauli_obj(2, "weyl"), "unknown basis tag 'weyl'"),
        (["ebt", "conjugate"], {"x": [[[1, 0]]]}, "EBT JSON needs x and w vector lists"),
        # A JSON integer too large for a double.
        (["choi"], {"d_in": 1, "d_out": 1, "kraus": [[[[10**400, 0]]]]},
         "complex scalar must be a finite [re, im] pair"),
        # EBT files beyond the caps of build ebt, refused before the
        # completeness check forms a 3000 x 3000 outer product.
        (["ebt", "conjugate"], {"x": [[[1, 0]]] * 3, "w": [[[1, 0]] * 3000] * 3},
         "EBT d_in 3000 exceeds the supported size (d_in <= 32)"),
        (["ebt", "conjugate"], {"x": [[[1, 0]] * 33], "w": [[[1, 0]]]},
         "EBT d_out 33 exceeds the supported size (d_out <= 32)"),
        (["ebt", "conjugate"], {"x": [[[1, 0]]] * 1025, "w": [[[1, 0]]] * 1025},
         "EBT n 1025 exceeds the supported size (n <= 1024)"),
        # Entries and pairs that are not finite [re, im] numbers.
        (["choi"], _kraus_obj([[[["1", 0]]]]), "complex scalar must be a finite [re, im] pair"),
        (["choi"], _kraus_obj([[[[None, 0]]]]), "complex scalar must be a finite [re, im] pair"),
        (["choi"], _kraus_obj([[[[1]]]]), "complex scalar must be a finite [re, im] pair"),
        (["choi"], _kraus_obj([[[[1, 0, 0]]]]), "complex scalar must be a finite [re, im] pair"),
        (["choi"], _kraus_obj([[[[1, 0], [0]]]], d_in=2),
         "complex scalar must be a finite [re, im] pair"),
        (["ebt", "conjugate"], {"x": [[["1", 0]]], "w": [[[1, 0]]]},
         "complex scalar must be a finite [re, im] pair"),
        (["choi"], _kraus_obj([[[[1, 0], [0, 0]], [[0, 0]]]], d_in=2, d_out=2),
         "matrix rows have inconsistent lengths"),
        (["choi"], _kraus_obj([[[[1, 0]]], [[[1, 0]], [[0, 0]]]]),
         "every Kraus operator must be d_out x d_in"),
        (["pauli", "lambda"], {"d": 2, "basis": "pauli", "weights": ["0.25", 0.25, 0.25, 0.25]},
         "weights must be a flat array of 4 finite doubles"),
    ],
    ids=["channel-not-object", "kraus-not-array", "not-trace-preserving", "pauli-missing-field",
         "pauli-d-below-2", "tag-unparsable", "tag-one-factor", "tag-mis-sized", "tag-unknown",
         "ebt-missing-w", "entry-beyond-double", "ebt-d-in-beyond-cap", "ebt-d-out-beyond-cap",
         "ebt-n-beyond-cap", "entry-numeric-string", "entry-null", "pair-of-one", "pair-of-three",
         "pair-of-one-among-pairs", "ebt-entry-numeric-string", "kraus-unequal-rows",
         "kraus-unequal-heights", "pauli-weight-string"],
)
def test_malformed_input_files_are_rejected(capsys, tmp_path, command, obj, message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    code, out, err = run_cli(capsys, *command, "--in", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error:") and message in err
    assert len(err.strip().splitlines()) == 1


def test_input_nested_beyond_the_json_reader_is_malformed(capsys, tmp_path):
    # json.load recurses once per nesting level and gives up with a
    # RecursionError; that is malformed input too.
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000)
    code, out, err = run_cli(capsys, "choi", "--in", str(path))
    assert (code, out) == (2, "")
    assert err == "error: JSON input nests too deeply\n"


def test_cli_paths_beyond_the_common_ones(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "build", "axes", "-d", "3", "-s", "0.5", "-t", "0.25,0.25",
                           "-u", "0", "--pauli-json")
    weights = json.loads(out)["weights"]
    assert code == 0 and abs(weights[0] - (0.5 + 0.5 / 3)) < 1e-15
    assert sorted(i for i, w in enumerate(weights) if w > 0) == [0, 1, 2, 3, 6]

    code, out, _ = run_cli(capsys, "build", "ebt", "-d", "2", "--seed", "4")
    assert code == 0 and chn.validate_cpt(ser.channel_from_obj(json.loads(out))).tp_ok
    code, out, _ = run_cli(capsys, "build", "ebt", "-d", "2", "-n", "4", "--ebt-json")
    assert code == 0 and len(json.loads(out)["x"]) == 4

    state = tmp_path / "plus.json"
    state.write_text(json.dumps([[[0.5, 0], [0.5, 0]], [[0.5, 0], [0.5, 0]]]))
    for extra in ([], ["--explicit"]):
        code, out, _ = run_cli(capsys, "pauli", "ncimage", "-d", "2", "--state", str(state), *extra)
        assert code == 0 and json.loads(out)["results"]["checks"]["projector"] < 1e-12

    path = tmp_path / "r.json"
    run_cli(capsys, "build", "random", "-d", "2", "--kraus", "3", "--seed", "1", "--out", str(path))
    code, out, _ = run_cli(capsys, "gl", "omega", "--in", str(path), "-p", "2")
    assert code == 0 and len(json.loads(out)["matrix"]) == 4

    # A channel's own Kraus list is not its conjugate: the check exits 3.
    code, out, err = run_cli(capsys, "conjugate", "--in", str(path), "--check-against", str(path))
    assert code == 3 and json.loads(out)["d_out"] == 3
    assert "check output vs reference: FAIL" in err


def test_unwritable_output_is_an_io_error(capsys, tmp_path):
    code, out, err = run_cli(capsys, "build", "identity", "-d", "2", "--out", str(tmp_path))
    assert (code, out) == (4, "")
    assert err.startswith("i/o error:")


def _render_reference(obj):
    """The payload with every numpy array replaced by its nested list."""
    if isinstance(obj, np.ndarray):
        return ser.plain(obj).tolist()
    if isinstance(obj, dict):
        return {k: _render_reference(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_render_reference(v) for v in obj]
    return obj


def test_csv_and_text_write_arrays_as_their_nested_lists():
    from qcc.cli import _flatten, _render

    def rows(obj):
        out = []
        _flatten("", obj, out)
        return out

    rng = np.random.default_rng(6)
    edge = np.array([-0.0, 5e-324, 1e300, -1e300, 1 / 3, 0.1, 1.0, 0.0])
    arrays = [edge, edge + 1j * edge[::-1], edge.reshape(2, 4) * 1j, np.array(0.25), np.array(1j)]
    for shape in ((3,), (2, 3), (2, 3, 4), (1, 1, 1), (11, 2)):
        x = rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 300, shape)
        arrays += [x, x + 1j * rng.standard_normal(shape)]
    arrays += [np.arange(4), np.array([True, False]), np.zeros(0), np.zeros((2, 0)),
               np.zeros((0, 3), dtype=complex)]
    for a in arrays:
        assert rows(a) == rows(ser.plain(a).tolist()), a
        payload = {"a": a, "b": [1, (a, {"c": a})], "d": None, "e": "x,y"}
        for fmt in ("csv", "text"):
            assert _render(payload, fmt) == _render(_render_reference(payload), fmt), (a, fmt)
    for bad in (np.nan, np.inf, -np.inf):
        a = np.array([[1 + 1j, complex(2, bad)]])
        for fmt in ("csv", "text"):
            with pytest.raises(ValueError, match=f"^cannot serialize non-finite value {bad}$"):
                _render({"a": a}, fmt)


def _cli_process(cwd, *argv, code=""):
    """``python -m qcc.cli argv`` in a fresh interpreter, after ``code``."""
    src = Path(__file__).resolve().parents[1] / "src"
    script = f"import runpy, sys\n{code}\nsys.argv = ['qcc'] + {list(argv)!r}\nrunpy.run_module('qcc.cli', run_name='__main__')"
    return subprocess.run(
        [sys.executable, "-c", script], cwd=cwd, env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True, text=True, timeout=120,
    )


def test_the_program_exit_path_keeps_codes_and_output(tmp_path):
    # Each exit code, a complete --out file and a complete piped stdout, from
    # the same exit path as `python -m qcc.cli`.
    build = ("build", "random", "-d", "5", "--kraus", "40", "--seed", "3")
    out = _cli_process(tmp_path, *build, "--out", "a.json")
    assert out.returncode == 0 and out.stdout == ""
    text = (tmp_path / "a.json").read_text()
    assert ser.channel_from_obj(json.loads(text)).kraus.shape == (40, 5, 5)
    piped = _cli_process(tmp_path, *build)  # about 100 kB, more than a pipe holds
    assert (piped.returncode, piped.stdout) == (0, text)

    _cli_process(tmp_path, "build", "random", "-d", "5", "--kraus", "2", "--seed", "4", "--out", "b.json")
    for argv, code in (
        (("conjugate", "--in", "a.json", "--check-against", "b.json"), 3),
        (("nu", "--in", "a.json", "-p", "0.5"), 2),
        (("choi", "--in", "absent.json"), 4),
        (("build", "identity", "-d", "2", "--out", str(tmp_path)), 4),
    ):
        assert _cli_process(tmp_path, *argv).returncode == code, argv


def test_only_the_program_exit_path_freezes_the_heap(capsys, tmp_path):
    import gc

    before = gc.get_freeze_count()
    code, out, _ = run_cli(capsys, "build", "depolarizing", "-d", "2", "-b", "0.3")
    assert code == 0 and out
    assert gc.get_freeze_count() == before

    # The process exit path freezes, and atexit handlers still run after it.
    probe = "import atexit, gc\natexit.register(lambda: print('frozen', gc.get_freeze_count() > 0))"
    run = _cli_process(tmp_path, "build", "identity", "-d", "2", "--out", "i.json", code=probe)
    assert (run.returncode, run.stdout) == (0, "frozen True\n")
    pyproject = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    assert '\nqcc = "qcc.cli:run"\n' in pyproject
