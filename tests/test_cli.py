import hashlib
import json
import math
import os
import shlex
import subprocess
import sys
import time
from pathlib import Path

import click
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from bruhat_satake import cli, kernels, padic
from oracles import block_inverse


@pytest.fixture()
def runner():
    return CliRunner()


def invoke(runner, args, **kwargs):
    return runner.invoke(cli.main, args, catch_exceptions=False, **kwargs)


def body(result):
    return json.loads(result.stdout_bytes.decode())


ROOT = Path(__file__).resolve().parents[1]

# stdout sha256 of each README command, in README order; each exits 0
README_REPORTS = {
    "weyl cosets --kind A --n 3": "4e0f047e29819300f6866fd9af00116c3104acecc5f0fbbcb7c988877750fe4b",
    "cells dims --kind C --n 2": "b9a36c6fbc01b231cb25278208da27c4a255248eec0fd41b7e3c30123876c8a2",
    "flag census --kind C --n 2 --q 2": "22d28efd4deea2154acf08bf50a10e4004d11de18ee5a765638acea5afe92ca9",
    "flag check-cover --kind A --n 2 --q 2": "972a27d7216b550cf3d47f76f92c3d15bb3665aaeb093296d2dc3ca5a9dbbde4",
    "flag check-finding-j --kind C --n 2 --q 2": "6b50bd97bd31cc30270f41b71d922441134dc2d46344a4b9b673a1566824f8b1",
    "satake verify --kind A --n 2 --twist": "258ab9eb42724f27e0fe3b3b8222fe8b88605c1c6fb846687a776cd4d5c85d8c",
    "padic h --kind C --n 2 --p 3 --m 2 --seed 7 --count 20":
        "8a32052cafbebdcafc2cc8903f35a63ec06bd145e66e7c6537f046ffb1e50225",
    "padic h --kind A --n 1 --p 2 --matrix '[[1,0],[2,1]]'":
        "a78c780c0c196451f312103d07e5e3b3ec31bfd4dd761d92b35fbfa7b9eb5df6",
    "padic factor --kind A --n 1 --p 2 --matrix '[[1,0],[4,1]]' --m 2":
        "96d6e201b1dcfbc6f73e0abbee018c3ef36e7d68d1b850f0e5f2b185a2b8ad04",
    "ordcoh ranks --d 5": "9396e5bc1c0c7b4ab482567a93ca43f102c470203115c5fe8f3aef58814ec33b",
    "ordcoh ordinary --d 3 --p 3 --r 2": "73a91bcd0ebc498009079ef8d2de8a64240a4b1adb9f904fcca1bdc788069fb9",
}


@pytest.mark.parametrize("command", README_REPORTS)
def test_readme_command_reproduces_its_report(runner, command):
    result = invoke(runner, shlex.split(command))
    assert result.exit_code == 0
    assert hashlib.sha256(result.stdout_bytes).hexdigest() == README_REPORTS[command]


def test_readme_lists_the_pinned_commands_and_every_command_has_one():
    prefix = "bruhat-satake "
    readme = [line[len(prefix):] for line in (ROOT / "README.md").read_text().splitlines() if line.startswith(prefix)]
    assert readme == list(README_REPORTS)
    registered = {f"{group} {name}" for group, cmds in cli.main.commands.items() for name in cmds.commands}
    assert registered == {" ".join(command.split()[:2]) for command in README_REPORTS}


def test_weyl_cosets(runner):
    result = invoke(runner, ["weyl", "cosets", "--kind", "A", "--n", "3"])
    assert result.exit_code == 0
    report = body(result)
    assert report["schema"] == cli.SCHEMA
    assert report["command"] == "weyl cosets"
    assert report["count"] == 4
    assert [row["tau"] for row in report["rows"]] == [0, 1, 2, 3]
    assert report["ok"] is True


def test_weyl_cosets_canonical_json(runner):
    result = invoke(runner, ["weyl", "cosets", "--kind", "C", "--n", "2"])
    data = result.stdout_bytes
    assert data.endswith(b"\n")
    report = json.loads(data.decode())
    recanon = (json.dumps(report, sort_keys=True, separators=(",", ":")) + "\n").encode()
    assert data == recanon


def test_cells_dims(runner):
    result = invoke(runner, ["cells", "dims", "--kind", "C", "--n", "2"])
    assert result.exit_code == 0
    report = body(result)
    assert all(row["agree"] for row in report["rows"])
    assert [row["dim_by_roots"] for row in report["rows"]] == [0, 2, 3]


def test_flag_census_literals(runner):
    result = invoke(runner, ["flag", "census", "--kind", "C", "--n", "2", "--q", "2"])
    assert result.exit_code == 0
    report = body(result)
    assert report["total"] == 15
    assert {row["tau"]: row["points"] for row in report["rows"]} == {0: 1, 1: 6, 2: 8}

    result = invoke(runner, ["flag", "census", "--kind", "A", "--n", "2", "--q", "2"])
    report = body(result)
    assert report["total"] == 35
    assert {row["tau"]: row["points"] for row in report["rows"]} == {0: 1, 1: 18, 2: 16}
    assert report["open_cell_points"] == report["open_cell_expected"] == 16


def test_flag_checks(runner):
    result = invoke(runner, ["flag", "check-cover", "--kind", "A", "--n", "1", "--q", "3"])
    assert result.exit_code == 0
    assert body(result)["ok"] is True
    result = invoke(runner, ["flag", "check-finding-j", "--kind", "C", "--n", "1", "--q", "3"])
    assert result.exit_code == 0
    report = body(result)
    assert report["ok"] is True
    assert all(row["ok"] for row in report["rows"])


def test_satake_verify(runner):
    result = invoke(runner, ["satake", "verify", "--kind", "A", "--n", "1"])
    assert result.exit_code == 0
    report = body(result)
    assert report["degree"] == 2
    assert report["first_difference"] is None
    assert all(row["equal"] for row in report["rows"])
    result = invoke(runner, ["satake", "verify", "--kind", "C", "--n", "2", "--no-twist"])
    assert result.exit_code == 0
    assert body(result)["degree"] == 5


def test_guards_exit_2(runner):
    result = invoke(runner, ["satake", "verify", "--kind", "A", "--n", "4"])
    assert result.exit_code == 2
    assert "error:" in result.stderr
    result = invoke(runner, ["flag", "census", "--kind", "A", "--n", "3", "--q", "5"])
    assert result.exit_code == 2
    assert "error:" in result.stderr
    # the Weyl group guard refuses S_18 before any enumeration starts
    for args in (["weyl", "cosets", "--kind", "A", "--n", "9"], ["cells", "dims", "--kind", "A", "--n", "9"]):
        result = invoke(runner, args)
        assert result.exit_code == 2
        assert "error:" in result.stderr
        assert result.stdout_bytes == b""
    # a count past 4,300 digits used to end the message in a failed int-to-str conversion
    for args, guard in (
        ("weyl cosets --kind A --n 900", "WEYL_ORDER_GUARD"),
        ("cells dims --kind A --n 900", "WEYL_ORDER_GUARD"),
        ("flag census --kind A --n 300 --q 2", "FLAG_POINT_GUARD"),
        ("flag check-cover --kind C --n 300 --q 2", "GROUP_ORDER_GUARD"),
    ):
        refused(invoke(runner, args.split()), guard, "type " + args.split()[3])
    # flag commands take only the fields they have generators for
    flag_q = [("census", "A", "1"), ("census", "A", "-3"), ("check-cover", "C", "0")]
    flag_q += [("check-finding-j", "A", q) for q in ("0", "4", "7", "9")]
    for command, kind, q in flag_q:
        result = invoke(runner, ["flag", command, "--kind", kind, "--n", "1", "--q", q])
        assert result.exit_code == 2
        assert result.stderr.startswith("error:") and result.stderr.count("\n") == 1
        assert result.stdout_bytes == b""


def test_check_cover_refuses_a_large_group_before_the_closure_sweep(runner, monkeypatch):
    # the closure sweep of A 3 3 enumerates 33,880 points (about 2 s) before
    # the group guard would be reached
    swept = []
    genuine = cli.flagfq.enumerate_flag
    monkeypatch.setattr(cli.flagfq, "enumerate_flag", lambda *args: swept.append(args) or genuine(*args))
    refused(invoke(runner, "flag check-cover --kind A --n 3 --q 3".split()), "GROUP_ORDER_GUARD")
    assert swept == []


@pytest.mark.parametrize("q", sorted(kernels.PRIMITIVE_ROOT))
@pytest.mark.parametrize("kind", ["A", "C"])
def test_guards_keep_every_flag_shape_in_one_byte_lane(runner, monkeypatch, kind, q):
    # a flag point or group element has 2n columns, the inner dimension of
    # every matmul_mod call; take the smallest n that would overflow a byte lane
    n = -(-(1 << 8) // (2 * (q - 1) ** 2))
    assert 2 * (n - 1) * (q - 1) ** 2 < 1 << 8 <= 2 * n * (q - 1) ** 2
    calls = []
    monkeypatch.setattr(kernels, "matmul_mod", lambda *args: calls.append(args))
    for command in ("check-cover", "check-finding-j"):
        refused(invoke(runner, ["flag", command, "--kind", kind, "--n", str(n), "--q", str(q)]), "_GUARD")
    assert calls == []


def test_unusable_output_dir_exits_2_before_the_report(runner, tmp_path, monkeypatch):
    def no_report(kind):
        raise AssertionError("the report was built")

    monkeypatch.setattr(cli.weyl, "double_cosets", no_report)
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    args = ["cells", "dims", "--kind", "A", "--n", "2"]
    for result, where in (
        (invoke(runner, args + ["--output-dir", str(blocker / "out")]), str(blocker / "out")),
        (invoke(runner, args, env={"BRUHAT_SATAKE_OUTPUT_DIR": str(blocker)}), str(blocker)),
    ):
        assert result.exit_code == 2
        assert result.stderr.startswith("error:") and result.stderr.count("\n") == 1
        assert where in result.stderr
        assert result.stdout_bytes == b""


def test_unwritable_report_file_exits_2(runner, tmp_path):
    (tmp_path / "cells-dims_kind=A_n=2.json").mkdir()
    result = invoke(runner, ["cells", "dims", "--kind", "A", "--n", "2", "--output-dir", str(tmp_path)])
    assert result.exit_code == 2
    assert result.stderr.startswith("error:") and result.stderr.count("\n") == 1
    assert "cells-dims_kind=A_n=2.json" in result.stderr


def test_failed_check_exits_1(runner, monkeypatch):
    genuine = cli.satake.verify_determinant_factorization

    def doctored(case, n, twist=True):
        report = dict(genuine(case, n, twist=twist))
        report["verdict"] = False
        return report

    monkeypatch.setattr(cli.satake, "verify_determinant_factorization", doctored)
    result = invoke(runner, ["satake", "verify", "--kind", "A", "--n", "1"])
    assert result.exit_code == 1
    assert body(result)["ok"] is False


@pytest.mark.parametrize("args", ["--kind A --n 2", "--kind C --n 1 --no-twist"])
def test_satake_verify_fails_when_a_library_step_is_wrong(runner, monkeypatch, args):
    # the right-hand side loses its dual: the expansion itself must disagree
    monkeypatch.setattr(cli.satake, "dual_char_poly", lambda P: P)
    result = invoke(runner, ["satake", "verify", *args.split()])
    assert result.exit_code == 1
    report = body(result)
    assert report["ok"] is False
    assert report["first_difference"] is not None
    assert not all(row["equal"] for row in report["rows"])


def _identity_weyl_matrix(genuine):
    """The identity rows for every w: a lift of the same type, so it still
    goes through ``_mul_mod`` and ``_translate_keys``."""
    return lambda w, q: kernels._scalar(w.kind.ambient, 1)


def _unit_hecke_gamma(genuine):
    """The scalar 1 in every degree: each degree is then all ordinary."""
    return lambda d, a, lam: [1] * (d + 1)


def _tau_one_too_high(genuine):
    return lambda U, q: min(genuine(U, q) + 1, len(U))


def _tau_zero_and_one_swapped(genuine):
    return lambda U, q: {0: 1, 1: 0}.get(genuine(U, q), genuine(U, q))


def _two_orbits_of_one_tau_merged(genuine):
    """The first two orbits whose points share a tau, read as one orbit."""

    def orbits(points, gens, q):
        found = genuine(points, gens, q)
        taus = [cli.flagfq.tau_of_point(points[orbit[0]], q) for orbit in found]
        i = next(i for i in range(len(found)) if taus.count(taus[i]) > 1)
        j = taus.index(taus[i], i + 1)
        return [sorted(found[i] + found[j]) if k == i else orbit for k, orbit in enumerate(found) if k != j]

    return orbits


def _first_orbit_split(genuine):
    """The first orbit of more than one point, read as its first point and
    the rest: each part still misses the orbit's frame."""

    def orbits(points, gens, q):
        found = genuine(points, gens, q)
        i = next(i for i, orbit in enumerate(found) if len(orbit) > 1)
        return found[:i] + [found[i][:1], found[i][1:]] + found[i + 1 :]

    return orbits


# Each report with one library step broken: (command, module, name, the
# broken step built from the genuine one).  The report must notice and exit 1.
BROKEN_STEPS = [
    ("flag census --kind A --n 2 --q 2", "flagfq", "tau_of_point", _tau_one_too_high),
    # the total and the open cell still agree: only the lower strata are wrong
    ("flag census --kind C --n 2 --q 2", "flagfq", "tau_of_point", _tau_zero_and_one_swapped),
    ("flag check-cover --kind A --n 1 --q 2", "flagfq", "weyl_matrix", _identity_weyl_matrix),
    ("flag check-cover --kind C --n 1 --q 3", "flagfq", "weyl_matrix", _identity_weyl_matrix),
    # two orbits read with the same tau: the P_I-orbits no longer match the tau fibers
    ("flag check-cover --kind A --n 1 --q 2", "flagfq", "tau_of_point", _tau_one_too_high),
    # the whole group in place of the Borel: both inclusions fail
    ("flag check-cover --kind A --n 1 --q 2", "flagfq", "_borel_matrices",
     lambda genuine: lambda kind, q: cli.flagfq._group_matrices(kind, q)),
    ("flag check-finding-j --kind A --n 2 --q 2", "flagfq", "frame_subspace",
     lambda genuine: lambda J, q: genuine(frozenset(range(1, len(J) + 1)), q)),
    # an orbit of tau n - 1 read as the open cell: it meets the full frame
    ("flag check-finding-j --kind A --n 2 --q 2", "flagfq", "tau_of_point", _tau_one_too_high),
    # Borel orbits merged or split: tau stays constant on every orbit, but the orbits are not the Bruhat cells
    ("flag check-finding-j --kind A --n 2 --q 2", "flagfq", "_orbits", _two_orbits_of_one_tau_merged),
    ("flag check-finding-j --kind C --n 2 --q 3", "flagfq", "_orbits", _first_orbit_split),
    # every sigma_k replaced by sigma_0, the identity
    ("weyl cosets --kind A --n 3", "weyl", "sigma", lambda genuine: lambda kind, k: genuine(kind, 0)),
    ("weyl cosets --kind C --n 2", "weyl", "sigma", lambda genuine: lambda kind, k: genuine(kind, 0)),
    # the right double cosets, listed in the wrong order: they still fill W, but sigma_k has tau n - k
    ("weyl cosets --kind A --n 3", "weyl", "double_cosets", lambda genuine: lambda kind: genuine(kind)[::-1]),
    # |W| counted twice: the double cosets of the right sigma_k no longer fill it
    ("weyl cosets --kind C --n 3", "weyl", "order", lambda genuine: lambda kind: 2 * genuine(kind)),
    ("cells dims --kind A --n 2", "roots", "cell_dim_formula", lambda genuine: lambda kind, t: t),
    ("ordcoh ordinary --d 3", "ordcoh", "hecke_gamma", _unit_hecke_gamma),
]


@pytest.mark.parametrize("command,module_name,name,broken", BROKEN_STEPS, ids=[f"{c} {n}" for c, _, n, _ in BROKEN_STEPS])
def test_report_fails_when_a_library_step_is_wrong(runner, monkeypatch, command, module_name, name, broken):
    result = invoke(runner, command.split())
    assert result.exit_code == 0
    assert body(result)["ok"] is True
    module = getattr(cli, module_name)
    monkeypatch.setattr(module, name, broken(getattr(module, name)))
    result = invoke(runner, command.split())
    assert result.exit_code == 1
    assert body(result)["ok"] is False


@pytest.mark.parametrize(
    "args,message",
    [
        ("weyl cosets --kind A --n 0", "n must be a positive integer"),
        ("cells dims --kind C --n -1", "n must be a positive integer"),
        ("flag census --kind C --n 0 --q 2", "n must be a positive integer"),
        ("ordcoh ordinary --d 3 --a 0", "level exponent must be >= 1"),
        ("ordcoh ordinary --d 2 --a -2", "level exponent must be >= 1"),
    ],
)
def test_rank_and_level_below_one_are_refused(runner, args, message):
    refused(invoke(runner, args.split()), message)


def test_padic_h_explicit_matrix(runner):
    result = invoke(
        runner,
        ["padic", "h", "--kind", "A", "--n", "1", "--p", "2", "--m", "1",
         "--matrix", "[[1,0],[2,1]]"],
    )
    assert result.exit_code == 0
    report = body(result)
    assert report["rows"] == [{"h": 1, "in_P_Gamma1": True}]


def test_padic_h_infinite_values(runner):
    result = invoke(
        runner,
        ["padic", "h", "--kind", "A", "--n", "1", "--p", "2",
         "--matrix", "[[1,0],[0,1]]"],
    )
    assert body(result)["rows"][0]["h"] == "+inf"
    result = invoke(
        runner,
        ["padic", "h", "--kind", "A", "--n", "1", "--p", "2",
         "--matrix", "[[0,1],[1,0]]"],
    )
    assert body(result)["rows"][0]["h"] == "-inf"


def test_padic_h_suite_is_deterministic(runner):
    args = ["padic", "h", "--kind", "C", "--n", "2", "--p", "3", "--m", "2",
            "--seed", "11", "--count", "8"]
    first = invoke(runner, args)
    second = invoke(runner, args)
    assert first.exit_code == 0
    assert first.stdout_bytes == second.stdout_bytes
    report = body(first)
    assert len(report["rows"]) == 8
    assert all(row["passed"] for row in report["rows"])


def test_padic_factor_matrix_and_failure(runner):
    result = invoke(
        runner,
        ["padic", "factor", "--kind", "A", "--n", "1", "--p", "2", "--m", "1",
         "--matrix", "[[1,0],[2,1]]"],
    )
    assert result.exit_code == 0
    report = body(result)
    assert report["rows"][0]["reassembled"] is True
    assert report["p_part"][1][0] == "0"
    assert report["gamma1_part"][1][0] == "2"
    # fractional entries come back as 'a/b' strings
    result = invoke(
        runner,
        ["padic", "factor", "--kind", "C", "--n", "1", "--p", "2", "--m", "1",
         "--matrix", '[["1/2", 0], [4, 2]]'],
    )
    assert result.exit_code == 0
    assert body(result)["p_part"][0][0] == "1/2"
    # h too small for the requested level
    result = invoke(
        runner,
        ["padic", "factor", "--kind", "A", "--n", "1", "--p", "2", "--m", "2",
         "--matrix", "[[1,0],[2,1]]"],
    )
    assert result.exit_code == 2
    assert "error:" in result.stderr


def test_padic_factor_suite(runner):
    result = invoke(
        runner,
        ["padic", "factor", "--kind", "C", "--n", "1", "--p", "5", "--count", "6"],
    )
    assert result.exit_code == 0
    assert all(row["passed"] for row in body(result)["rows"])


def test_padic_factor_of_a_given_matrix_computes_h_once(runner, monkeypatch):
    seen = []
    genuine = cli.padic.h_invariant
    monkeypatch.setattr(cli.padic, "h_invariant", lambda g: seen.append(g) or genuine(g))
    command = "padic factor --kind A --n 1 --p 2 --matrix '[[1,0],[4,1]]' --m 2"
    result = invoke(runner, shlex.split(command))
    assert result.exit_code == 0
    assert hashlib.sha256(result.stdout_bytes).hexdigest() == README_REPORTS[command]
    assert len(seen) == 1  # once for the row, and factor_P_Gamma1 takes it


def test_padic_h_suite_fails_when_gamma_is_wrong(runner, monkeypatch):
    # gamma * gamma^-1 is the identity, which leaves h unshifted
    genuine = cli.padic.gamma
    monkeypatch.setattr(cli.padic, "gamma", lambda kind, p: genuine(kind, p) * block_inverse(genuine(kind, p)))
    result = invoke(runner, "padic h --kind C --n 2 --p 3 --m 2 --seed 7 --count 5".split())
    assert result.exit_code == 1
    report = body(result)
    assert report["ok"] is False
    assert not any(row["passed"] for row in report["rows"])


def test_padic_factor_suite_fails_when_the_factorization_is_wrong(runner, monkeypatch):
    # the congruence factor is g itself, so the factors no longer reassemble g
    genuine = cli.padic.factor_P_Gamma1
    monkeypatch.setattr(cli.padic, "factor_P_Gamma1", lambda g, m: (genuine(g, m)[0], g))
    result = invoke(runner, "padic factor --kind A --n 2 --p 2 --seed 3 --count 5".split())
    assert result.exit_code == 1
    report = body(result)
    assert report["ok"] is False
    assert not all(row["passed"] for row in report["rows"])


def _factor_unsplit(genuine):
    """factor_P_Gamma1 returning the trivial split (g, I): it reassembles g and
    I is in every Gamma_1(p^m), but g is no parabolic factor."""
    return lambda g, m, h=None: (g, g * block_inverse(g))


def test_padic_factor_of_a_given_matrix_fails_on_the_trivial_split(runner, monkeypatch):
    command = "padic factor --kind A --n 1 --p 2 --matrix '[[1,0],[4,1]]' --m 2"
    monkeypatch.setattr(cli.padic, "factor_P_Gamma1", _factor_unsplit(cli.padic.factor_P_Gamma1))
    result = invoke(runner, shlex.split(command))
    assert result.exit_code == 1
    report = body(result)
    assert report["ok"] is False
    assert report["rows"][0]["reassembled"] is True  # the product still reassembles g
    assert report["p_part"] == [["1", "0"], ["4", "1"]]


def test_padic_factor_suite_fails_on_the_trivial_split(runner, monkeypatch):
    command = "padic factor --kind C --n 2 --p 3 --m 2 --seed 3 --count 5"
    assert invoke(runner, command.split()).exit_code == 0
    monkeypatch.setattr(cli.padic, "factor_P_Gamma1", _factor_unsplit(cli.padic.factor_P_Gamma1))
    result = invoke(runner, command.split())
    assert result.exit_code == 1
    report = body(result)
    assert report["ok"] is False
    assert not any(row["passed"] for row in report["rows"])


def test_matrix_and_file_conflict(runner, tmp_path):
    path = tmp_path / "m.json"
    path.write_text("[[1,0],[0,1]]")
    result = invoke(
        runner,
        ["padic", "h", "--kind", "A", "--n", "1", "--p", "2",
         "--matrix", "[[1,0],[0,1]]", "--matrix-file", str(path)],
    )
    assert result.exit_code == 2
    result = invoke(
        runner,
        ["padic", "h", "--kind", "A", "--n", "1", "--p", "2", "--matrix-file", str(path)],
    )
    assert result.exit_code == 0
    assert body(result)["rows"][0]["h"] == "+inf"


def test_ordcoh_commands(runner):
    result = invoke(runner, ["ordcoh", "ranks", "--d", "3"])
    assert result.exit_code == 0
    report = body(result)
    assert [row["rank"] for row in report["rows"]] == [1, 3, 3, 1]
    assert report["trivial_weights_vanish"] is True

    result = invoke(runner, ["ordcoh", "ordinary", "--d", "2", "--p", "3", "--r", "2"])
    assert result.exit_code == 0
    report = body(result)
    assert [row["ordinary_rank"] for row in report["rows"]] == [0, 0, 1]

    result = invoke(runner, ["ordcoh", "ranks", "--d", "99"])
    assert result.exit_code == 2


def test_csv_format(runner):
    result = invoke(
        runner, ["weyl", "cosets", "--kind", "A", "--n", "2", "--format", "csv"]
    )
    assert result.exit_code == 0
    lines = result.stdout_bytes.decode().splitlines()
    assert lines[0] == "k,perm,tau,length"
    assert len(lines) == 4  # header + three representatives
    assert lines[1].startswith("0,")


def test_output_dir_writes_deterministic_names(runner, tmp_path):
    args = ["flag", "census", "--kind", "C", "--n", "1", "--q", "2",
            "--output-dir", str(tmp_path)]
    result = invoke(runner, args)
    assert result.exit_code == 0
    files = sorted(f.name for f in tmp_path.iterdir())
    assert files == ["flag-census_kind=C_n=1_q=2.json"]
    payload = (tmp_path / files[0]).read_bytes()
    assert payload == result.stdout_bytes


def test_output_dir_renders_boolean_params(runner, tmp_path):
    args = ["satake", "verify", "--kind", "A", "--n", "1", "--no-twist", "--output-dir", str(tmp_path)]
    result = invoke(runner, args)
    assert result.exit_code == 0
    assert [f.name for f in tmp_path.iterdir()] == ["satake-verify_kind=A_n=1_twist=false.json"]
    assert (tmp_path / "satake-verify_kind=A_n=1_twist=false.json").read_bytes() == result.stdout_bytes


def test_output_dir_from_environment(runner, tmp_path):
    result = runner.invoke(
        cli.main,
        ["ordcoh", "ranks", "--d", "2", "--format", "csv"],
        env={"BRUHAT_SATAKE_OUTPUT_DIR": str(tmp_path)},
        catch_exceptions=False,
    )
    assert result.exit_code == 0
    assert (tmp_path / "ordcoh-ranks_d=2_p=2_r=2.csv").exists()


def test_matrix_digest_filename(runner, tmp_path):
    result = invoke(
        runner,
        ["padic", "h", "--kind", "A", "--n", "1", "--p", "2",
         "--matrix", "[[1,0],[2,1]]", "--output-dir", str(tmp_path)],
    )
    assert result.exit_code == 0
    names = [f.name for f in tmp_path.iterdir()]
    assert len(names) == 1
    assert "digest=" in names[0]
    assert "[[" not in names[0]


def test_a_refused_run_creates_the_output_dir_first(runner, tmp_path):
    # the padic checks run in the report build, like every other command's
    for args in (["padic", "h", "--kind", "A", "--n", "1", "--p", "2", "--m", "0"],
                 ["padic", "factor", "--kind", "A", "--n", "1", "--p", "2", "--matrix", "[[1,0]]"],
                 ["cells", "dims", "--kind", "A", "--n", "0"]):
        out = tmp_path / "-".join(args[:2])
        refused(invoke(runner, args + ["--output-dir", str(out)]))
        assert out.is_dir() and not any(out.iterdir())


def refused(result, *words):
    """Exit 2 with one stderr line naming the problem, and no report."""
    assert result.exit_code == 2
    assert result.stdout_bytes == b""
    lines = result.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    for word in words:
        assert word in lines[0]


@pytest.mark.parametrize(
    "matrix",
    [
        "[[1,0],[0.1,1]]",  # a float
        "[[1,0],[1e400,1]]",  # a float that overflows to infinity
        "[[1,0],[Infinity,1]]",
        "[[1,0],[NaN,1]]",
        "[[true,0],[0,1]]",
        '[[1,0],["0.5",1]]',  # a decimal string
        '[[1,0],["1/0",1]]',
        "[1,0,0,1]",  # not a list of rows
        "[[1,0,0],[0,1,0]]",  # a wrong shape
        "[[1,0],[0]]",
        "[[1,",  # not JSON
    ],
)
@pytest.mark.parametrize("command", ["h", "factor"])
def test_padic_refuses_inexact_matrix_entries(runner, command, matrix):
    result = invoke(runner, ["padic", command, "--kind", "A", "--n", "1", "--p", "2", "--matrix", matrix])
    refused(result)


def test_padic_missing_matrix_file(runner, tmp_path):
    missing = str(tmp_path / "absent.json")
    result = invoke(runner, ["padic", "h", "--kind", "A", "--n", "1", "--p", "2", "--matrix-file", missing])
    refused(result, "--matrix-file")


def test_padic_refuses_deeply_nested_matrix_file(runner, tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    result = invoke(runner, ["padic", "h", "--kind", "A", "--n", "1", "--p", "2", "--matrix-file", str(path)])
    refused(result, "nested")


def test_matrix_file_digest_matches_inline_text(runner, tmp_path):
    path = tmp_path / "m.json"
    path.write_text("[[1,0],[2,1]]")
    out_file, out_inline = tmp_path / "file", tmp_path / "inline"
    base = ["padic", "h", "--kind", "A", "--n", "1", "--p", "2"]
    assert invoke(runner, base + ["--matrix-file", str(path), "--output-dir", str(out_file)]).exit_code == 0
    assert invoke(runner, base + ["--matrix", "[[1,0],[2,1]]", "--output-dir", str(out_inline)]).exit_code == 0
    assert [f.name for f in out_file.iterdir()] == [f.name for f in out_inline.iterdir()]


@pytest.mark.parametrize("command", ["h", "factor"])
@pytest.mark.parametrize(
    "extra",
    ["--m 0", "--m -1", "--count 0", "--count -3", "--m 0 --matrix [[1,0],[2,1]]"],
)
def test_padic_refuses_bad_level_and_count(runner, command, extra):
    result = invoke(runner, ["padic", command, "--kind", "A", "--n", "1", "--p", "2", *extra.split()])
    refused(result, extra.split()[0])


@pytest.mark.parametrize("command", ["h", "factor"])
def test_padic_suite_work_guard_at_its_limit(runner, command):
    # 2^1023 has 1024 bits, so 64 samples reach SUITE_WORK_GUARD exactly
    assert padic.SUITE_WORK_GUARD == 64 * (1024 + padic.SUITE_SAMPLE_BITS)
    base = ["padic", command, "--kind", "A", "--n", "1", "--p", "2", "--m", "1023"]
    assert invoke(runner, base + ["--count", "64"]).exit_code == 0
    refused(invoke(runner, base + ["--count", "65"]), "SUITE_WORK_GUARD")
    # every sample also costs SUITE_SAMPLE_BITS, so p^m = 2 admits 1,987 samples (2^15 before that term)
    limit = padic.SUITE_WORK_GUARD // (2 + padic.SUITE_SAMPLE_BITS)
    assert limit == 1987
    base = ["padic", command, "--kind", "A", "--n", "1", "--p", "2", "--m", "1"]
    assert invoke(runner, base + ["--count", str(limit)]).exit_code == 0
    refused(invoke(runner, base + ["--count", str(limit + 1)]), "SUITE_WORK_GUARD")
    # a modulus far past the guard is refused before p^m is computed
    refused(invoke(runner, ["padic", command, "--kind", "A", "--n", "1", "--p", "3", "--m", str(10**30)]), "SUITE_WORK_GUARD")
    # a given matrix draws no samples, so the count is not bounded
    matrix = ["--count", "10000", "--matrix", "[[1,0],[2,1]]"]
    assert invoke(runner, ["padic", command, "--kind", "A", "--n", "1", "--p", "2", *matrix]).exit_code == 0


@pytest.mark.parametrize("command", ["h", "factor"])
def test_padic_suite_work_guard_grows_with_n(runner, command, monkeypatch):
    # n <= 3 keeps the n-free limit; a large n is refused before any sample
    # is drawn (--n 32 --count 5 once ran for 20 s, --n 64 for over 200 s)
    def no_sample(*args):
        raise AssertionError("a sample was drawn")

    for n in (1, 2, 3):
        assert padic.suite_work(n, 1024, 64) == padic.SUITE_WORK_GUARD < padic.suite_work(n, 1024, 65)
        assert padic.suite_work(n, 2, 1987) <= padic.SUITE_WORK_GUARD < padic.suite_work(n, 2, 1988)
    assert padic.suite_work(4, 2, 1987) > padic.SUITE_WORK_GUARD
    monkeypatch.setattr(cli.padic, "random_congruence_element", no_sample)
    for n, m in (("32", "1"), ("64", "1"), (str(10**9), "1"), ("6", "1023")):
        result = invoke(runner, ["padic", command, "--kind", "C", "--n", n, "--p", "2", "--m", m, "--count", "5"])
        refused(result, "SUITE_WORK_GUARD")
    # the largest suite admitted at n = 16 and p^m = 2, then one sample more
    limit = max(c for c in range(1, 100) if padic.suite_work(16, 2, c) <= padic.SUITE_WORK_GUARD)
    base = ["padic", command, "--kind", "A", "--n", "16", "--p", "2", "--m", "1"]
    refused(invoke(runner, base + ["--count", str(limit + 1)]), "SUITE_WORK_GUARD")
    monkeypatch.undo()
    assert invoke(runner, base + ["--count", str(limit)]).exit_code == 0


def test_padic_refuses_a_non_prime_before_building_gamma(runner):
    result = invoke(runner, ["padic", "h", "--kind", "C", "--n", "1", "--p", "0"])
    refused(result, "prime")


def run_cli(args, timeout):
    """The command in a fresh interpreter, killed after ``timeout`` seconds."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run(
        [sys.executable, "-m", "bruhat_satake.cli", *args], capture_output=True, text=True, env=env, timeout=timeout
    )


def test_padic_refuses_a_prime_too_large_to_check():
    # trial division up to sqrt(10^18) did not finish
    result = run_cli(["padic", "h", "--kind", "A", "--n", "1", "--p", "1000000000000000003", "--count", "1"], 8)
    assert result.returncode == 2
    assert result.stdout == ""
    lines = result.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:") and "2^31" in lines[0]


@pytest.mark.parametrize(
    "args,guard",
    [
        ("flag census --kind A --n 3000 --q 2", "FLAG_POINT_GUARD"),  # ran past 120 s on the exact count
        ("weyl cosets --kind A --n 3000", "WEYL_ORDER_GUARD"),  # built 3,001 representatives first
        ("weyl cosets --kind C --n 3000", "WEYL_ORDER_GUARD"),
        ("cells dims --kind C --n 3000", "WEYL_ORDER_GUARD"),
    ],
)
def test_guards_refuse_a_large_n_at_once(args, guard):
    result = run_cli(args.split(), 5)
    assert result.returncode == 2
    assert result.stdout == ""
    lines = result.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:") and guard in lines[0]


def test_ordcoh_ranks_with_a_large_prime_finishes():
    # Lambda used to test primality with O(p) divisions
    result = run_cli(["ordcoh", "ranks", "--d", "3", "--p", "1000000007"], 8)
    assert result.returncode == 0
    assert [row["rank"] for row in json.loads(result.stdout)["rows"]] == [1, 3, 3, 1]


@pytest.mark.parametrize(
    "args",
    [
        "--d 3 --p 46337 --r 2 --a 1",  # was a 16 GiB allocation, then refused for 3 x 3 matrices
        "--d 12 --p 2 --r 31",  # was refused for 924 x 924 matrices
        # each refused while the arithmetic was int64: (p^r - 1)^2 >= 2^63
        "--d 2 --p 3 --r 39 --a 1",  # was an AssertionError traceback
        "--d 2 --p 2 --r 70",  # was an OverflowError traceback
        "--d 3 --p 65537 --r 2 --a 1",
        "--d 2 --p 65537 --r 2",  # its p^a x p^a model was too big
        "--d 2 --p 2 --r 1023 --a 100",  # the degree-0 scalar 2^200
        "--d 1 --p 2 --r 1023",  # the longest modulus CONGRUENCE_BITS_GUARD allows
    ],
)
def test_ordcoh_ordinary_reports_every_modulus_the_guard_allows(runner, args):
    # the arithmetic over Z/p^r is exact on Python ints, so no modulus the
    # coefficient ring accepts overflows
    started = time.perf_counter()
    result = invoke(runner, ["ordcoh", "ordinary", *args.split()])
    assert time.perf_counter() - started < 1.0
    assert result.exit_code == 0
    assert body(result)["ok"] is True


@pytest.mark.parametrize("command", ["ranks --d 2", "ordinary --d 1"])
def test_ordcoh_refuses_a_long_modulus_before_computing_it(runner, command):
    # at --r 16000000 ranks ran for 33 s and exited 0, and ordinary squared
    # p^r - 1 for 16 s before its int64 refusal
    started = time.perf_counter()
    refused(invoke(runner, ["ordcoh", *command.split(), "--p", "3", "--r", "16000000"]), "CONGRUENCE_BITS_GUARD")
    assert time.perf_counter() - started < 1.0
    refused(invoke(runner, ["ordcoh", *command.split(), "--p", "2", "--r", "1024"]), "CONGRUENCE_BITS_GUARD")


def test_padic_factor_checks_a_deep_level_without_computing_p_to_the_m(runner):
    # in_level reduced modulo 3^16000000, a 25-million-bit number: 6 s for
    # this report, which now tests each congruence by a p-adic valuation
    started = time.perf_counter()
    result = invoke(runner, ["padic", "factor", "--kind", "A", "--n", "1", "--p", "3",
                             "--matrix", "[[1,0],[0,1]]", "--m", "16000000"])
    assert time.perf_counter() - started < 1.0
    assert result.exit_code == 0
    assert result.stdout == (
        '{"command":"padic factor","gamma1_part":[["1","0"],["0","1"]],"ok":true,"p_part":[["1","0"],["0","1"]],'
        '"params":{"count":20,"kind":"A","m":16000000,"n":1,"p":3,"seed":0},'
        '"rows":[{"h":"+inf","reassembled":true}],"schema":"bruhat-satake/1"}\n'
    )


def test_ordcoh_takes_the_longest_modulus_the_guard_allows(runner):
    # 2^1023 has 1024 bits: both reports take it, one more bit is refused
    for command in (["ranks", "--d", "2"], ["ordinary", "--d", "1"]):
        result = invoke(runner, ["ordcoh", *command, "--p", "2", "--r", "1023"])
        assert result.exit_code == 0 and body(result)["ok"] is True
        refused(invoke(runner, ["ordcoh", *command, "--p", "2", "--r", "1024"]), "CONGRUENCE_BITS_GUARD")


# ------------------------------------------------------------------ start-up
# numpy is bound lazily in kernels: the exact reports, the ordcoh reports
# (Python rows over Z/p^r) and flag census (its ranks are scalar, on Python
# rows) never import it, and the other flag reports load it on first use
# with unchanged bytes.
# The package's own modules are lazy too: each command runs only the ones
# it uses.

NUMPY_FREE = [
    "weyl cosets --kind A --n 3",
    "cells dims --kind C --n 2",
    "satake verify --kind A --n 2 --twist",
    "padic h --kind C --n 2 --p 3 --m 2 --seed 7 --count 20",
    "flag census --kind C --n 2 --q 2",
    "ordcoh ranks --d 5",
    "ordcoh ordinary --d 3 --p 3 --r 2",
]
NUMPY_USERS = ["flag check-cover --kind A --n 1 --q 2"]

STARTUP_SCRIPT = """
import io, json, sys
if sys.argv[2] == "eager":
    import numpy
first = sys.modules.get("numpy")
from bruhat_satake import cli, kernels
out = []
for args in json.loads(sys.argv[1]):
    real, sys.stdout = sys.stdout, io.TextIOWrapper(io.BytesIO())
    try:
        cli.main.main(args, prog_name="bruhat-satake")
    except SystemExit as stop:
        code = stop.code
    finally:
        captured, sys.stdout = sys.stdout, real
    numpy_loaded = sorted(name for name in sys.modules if name.startswith("numpy."))
    out.append({"code": code, "stdout": captured.buffer.getvalue().hex(), "numpy": numpy_loaded})
import numpy
works = numpy.zeros(2).tolist() == [0.0, 0.0]
out.append({"is_kernels_np": numpy is kernels.np, "works": works, "first_kept": first in (None, kernels.np)})
print(json.dumps(out))
"""


def startup_run(commands, mode):
    """Each command through ``cli.main`` in one fresh interpreter that imports
    numpy before the package (``eager``) or only through it (``lazy``)."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    result = subprocess.run(
        [sys.executable, "-c", STARTUP_SCRIPT, json.dumps([shlex.split(c) for c in commands]), mode],
        capture_output=True, text=True, env=env, timeout=60, check=True,
    )
    *reports, numpy_module = json.loads(result.stdout)
    return reports, numpy_module


def test_exact_reports_never_import_numpy_and_the_others_load_it():
    lazy, lazy_numpy = startup_run(NUMPY_FREE + NUMPY_USERS, "lazy")
    eager, eager_numpy = startup_run(NUMPY_FREE + NUMPY_USERS, "eager")
    # an earlier ``import numpy`` is the module kernels binds, not replaced by a lazy one
    assert lazy_numpy == eager_numpy == {"is_kernels_np": True, "works": True, "first_kept": True}
    for command, report in zip(NUMPY_FREE, lazy):
        assert report["code"] == 0 and report["numpy"] == [], command
        assert hashlib.sha256(bytes.fromhex(report["stdout"])).hexdigest() == README_REPORTS[command]
    for command, report in zip(NUMPY_USERS, lazy[len(NUMPY_FREE):]):
        assert report["code"] == 0 and report["numpy"], command  # loaded on first use
    assert [(r["code"], r["stdout"]) for r in lazy] == [(r["code"], r["stdout"]) for r in eager]


# the library modules each command runs (cli runs for every command), and
# whether it loads numpy
MODULES_RUN = {
    "--help": ([], False),
    "weyl cosets --kind A --n 3": (["weyl"], False),
    "cells dims --kind C --n 2": (["roots", "weyl"], False),
    "satake verify --kind A --n 2 --twist": (["satake"], False),
    "padic h --kind C --n 2 --p 3 --m 2 --seed 7 --count 20": (["kernels", "padic", "weyl"], False),
    "padic factor --kind A --n 1 --p 2 --matrix '[[1,0],[2,1]]'": (["kernels", "padic", "weyl"], False),
    "ordcoh ranks --d 2": (["kernels", "ordcoh", "padic", "weyl"], False),
    "ordcoh ordinary --d 2": (["kernels", "ordcoh", "padic", "weyl"], False),
    "flag census --kind A --n 1 --q 2": (["flagfq", "kernels", "roots", "weyl"], False),
    "flag census --kind A --n 3 --q 3": (["flagfq", "kernels", "roots", "weyl"], False),
    "flag check-cover --kind A --n 1 --q 2": (["flagfq", "kernels", "weyl"], True),
}

RAN_SCRIPT = """
import io, json, sys, types
from bruhat_satake import cli
real, sys.stdout = sys.stdout, io.TextIOWrapper(io.BytesIO())
try:
    cli.main.main(json.loads(sys.argv[1]), prog_name="bruhat-satake")
except SystemExit as stop:
    code = stop.code
finally:
    sys.stdout = real
# a registered module that never ran is still of the lazy loader's type;
# type() reads it without loading the module
ours = {name: module for name, module in sys.modules.items() if name.startswith("bruhat_satake.")}
ran = sorted(name for name, module in ours.items() if type(module) is types.ModuleType)
numpy = type(sys.modules.get("numpy")) is types.ModuleType
print(json.dumps({"code": code, "registered": sorted(ours), "ran": ran, "numpy": numpy}))
"""


@pytest.mark.parametrize("command", MODULES_RUN)
def test_each_command_runs_only_the_modules_it_uses(command):
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    result = subprocess.run(
        [sys.executable, "-c", RAN_SCRIPT, json.dumps(shlex.split(command))],
        capture_output=True, text=True, env=env, timeout=60, check=True,
    )
    report = json.loads(result.stdout)
    modules, numpy = MODULES_RUN[command]
    library = ["flagfq", "kernels", "ordcoh", "padic", "roots", "satake", "weyl"]
    assert report["code"] == 0
    assert report["registered"] == [f"bruhat_satake.{name}" for name in ["cli", *library]]
    assert report["ran"] == [f"bruhat_satake.{name}" for name in sorted(["cli", *modules])]
    assert report["numpy"] is numpy


OPENBLAS_SCRIPT = """
import io, os, sys, types
from bruhat_satake import cli
before = os.environ.get("OPENBLAS_NUM_THREADS")
real, sys.stdout = sys.stdout, io.TextIOWrapper(io.BytesIO())
try:
    cli.main.main(["flag", "check-cover", "--kind", "A", "--n", "1", "--q", "2"], prog_name="bruhat-satake")
except SystemExit as stop:
    code = stop.code
finally:
    sys.stdout = real
numpy = type(sys.modules.get("numpy")) is types.ModuleType
print(before, code, os.environ.get("OPENBLAS_NUM_THREADS"), numpy)
"""


@pytest.mark.parametrize("preset,threads", [(None, "1"), ("3", "3")])
def test_cli_asks_openblas_for_one_thread_unless_the_user_chose(preset, threads):
    # set as a command starts, before its body loads numpy; importing the
    # module changes nothing
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {key: value for key, value in os.environ.items() if key != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = src
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    result = subprocess.run(
        [sys.executable, "-c", OPENBLAS_SCRIPT], capture_output=True, text=True, env=env, timeout=60, check=True
    )
    assert result.stdout.split() == [str(preset), "0", threads, "True"]


def run_under_hash_seeds(argv, seeds, cwd):
    """The stdout of ``python argv`` under each PYTHONHASHSEED, the processes side by side."""
    src = str(Path(cli.__file__).resolve().parents[1])
    procs = [
        subprocess.Popen(
            [sys.executable, *argv], stdout=subprocess.PIPE, stderr=subprocess.PIPE, cwd=cwd,
            env=dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=str(seed), PYTHONDONTWRITEBYTECODE="1"),
        )
        for seed in seeds
    ]
    outputs = [proc.communicate(timeout=120) for proc in procs]
    for proc, (_, stderr) in zip(procs, outputs):
        assert proc.returncode == 0, stderr.decode()
    return [stdout for stdout, _ in outputs]


def test_reports_do_not_depend_on_the_hash_seed(tmp_path):
    # str hashes, and so set and dict orders of strings, change with
    # PYTHONHASHSEED; no report may read them.  Each README command and the
    # benchmark's library sweep run as fresh processes under two seeds.
    seeds = (1, 2718)
    for command, digest in README_REPORTS.items():
        first, second = run_under_hash_seeds(["-m", "bruhat_satake.cli", *shlex.split(command)], seeds, tmp_path)
        assert hashlib.sha256(first).hexdigest() == hashlib.sha256(second).hexdigest() == digest, command
    sweep = [str(ROOT / "perfbench" / "child.py"), "sweep", "--seed", "0", "--max-n", "4", "--count", "500"]
    first, second = run_under_hash_seeds(sweep, seeds, tmp_path)
    assert first == second and json.loads(first)["dims_agree"] == 41508


# Every command with well-typed options over small ranges: a report (exit 0
# or 1) or one error line (exit 2), never a traceback, within FUZZ_CAP_S.
# Flag commands enumerate points or group elements, so their rank stays
# small.  n is also drawn large, up to FUZZ_TOP_N: from FUZZ_REFUSED_N on,
# the guards refuse every draw of the other options at once; the padic
# commands have no such n and report at every n up to FUZZ_TOP_N.
FUZZ_RANGES = {"n": (0, 3), "q": (1, 5), "p": (1, 7), "m": (0, 3), "seed": (0, 3), "count": (0, 4),
               "d": (-1, 6), "r": (0, 3), "a": (0, 3)}
FUZZ_MAX_N = {"flag census": 2, "flag check-finding-j": 2, "flag check-cover": 1}
FUZZ_TOP_N = 12
FUZZ_REFUSED_N = {"cells dims": 8, "flag census": 5, "flag check-cover": 3, "flag check-finding-j": 5,
                  "satake verify": 4, "weyl cosets": 8}
FUZZ_CAP_S = 5.0
FUZZ_EXAMPLES = {"padic factor": 100, "padic h": 100}  # they also draw --matrix text; 25 for the others
FUZZ_MATRIX_RANGES = {"n": (1, 3), "p": (2, 3), "m": (1, 3), "count": (1, 4)}  # so that the text is parsed
FUZZ_COMMANDS = sorted(f"{group} {name}" for group, cmds in cli.main.commands.items() for name in cmds.commands)


@st.composite
def matrix_texts(draw, size):
    """``--matrix`` text for a size x size matrix: well-formed (the identity,
    or any square of ints and 'a/b' strings) or malformed (a wrong shape, a
    float, a bool or a zero denominator among the entries, or not JSON rows)."""
    form = draw(st.sampled_from(["identity", "square", "shape", "entry", "text"]))
    if form == "text":
        return draw(st.sampled_from(["[[1,", "rows", "", "5", "[1, 2]", '{"rows": [[1]]}', "[[[1]]]"]))
    rows = [[int(i == j) for j in range(size)] for i in range(size)]
    if form == "square":
        rng = draw(st.randoms(use_true_random=False))
        rows = [[rng.randint(-3, 3) if rng.random() < 0.7 else f"{rng.randint(-3, 3)}/{rng.randint(1, 3)}"
                 for _ in range(size)] for _ in range(size)]
    elif form == "shape":
        rows = draw(st.sampled_from([rows[:-1], rows + rows[:1], [row[:-1] for row in rows], [rows[0]] + rows[2:]]))
    elif form == "entry":
        i, j = draw(st.integers(0, size - 1)), draw(st.integers(0, size - 1))
        rows[i][j] = draw(st.sampled_from([1.5, -0.0, True, False, "1/0", "2/0"]))
    return json.dumps(rows)


@st.composite
def cli_options(draw, command):
    group, name = command.split()
    args = [group, name]
    params = cli.main.commands[group].commands[name].params
    matrix = any(option.name == "matrix" for option in params) and draw(st.booleans())
    n = 1
    for option in params:
        if option.is_flag:
            args.append(option.opts[0] if draw(st.booleans()) else option.secondary_opts[0])
        elif isinstance(option.type, click.Choice):
            args += [option.opts[0], draw(st.sampled_from(option.type.choices))]
        elif option.type is click.INT:
            low, high = (FUZZ_MATRIX_RANGES if matrix else FUZZ_RANGES).get(option.name, FUZZ_RANGES[option.name])
            if option.name == "n":
                high = FUZZ_MAX_N.get(command, high)
                large = st.integers(FUZZ_REFUSED_N.get(command, high + 1), FUZZ_TOP_N)
                n = draw(st.integers(low, high) | large)
                args += [option.opts[0], str(n)]
            else:
                args += [option.opts[0], str(draw(st.integers(low, high)))]
        elif option.name == "matrix" and matrix:
            args += [option.opts[0], draw(matrix_texts(2 * max(n, 1)))]
    return args


@pytest.mark.parametrize("command", FUZZ_COMMANDS)
def test_every_command_exits_cleanly_on_well_typed_options(command):
    @settings(derandomize=True, database=None, deadline=None, max_examples=FUZZ_EXAMPLES.get(command, 25))
    @given(cli_options(command))
    def run(args):
        started = time.perf_counter()
        result = CliRunner().invoke(cli.main, args)
        assert time.perf_counter() - started < FUZZ_CAP_S, args
        assert result.exit_code in (0, 1, 2), args
        assert result.exception is None or isinstance(result.exception, SystemExit), (args, result.exception)
        if "--n" in args and int(args[args.index("--n") + 1]) >= FUZZ_REFUSED_N.get(command, math.inf):
            assert result.exit_code == 2, args
        if result.exit_code == 2:
            refused(result)
        elif "csv" not in args:
            assert body(result)["ok"] is (result.exit_code == 0)

    run()
