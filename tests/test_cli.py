import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

from bruhat_satake import cli


@pytest.fixture()
def runner():
    return CliRunner()


def invoke(runner, args, **kwargs):
    return runner.invoke(cli.main, args, catch_exceptions=False, **kwargs)


def body(result):
    return json.loads(result.stdout_bytes.decode())


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


def test_ordcoh_ranks_with_a_large_prime_finishes():
    # Lambda used to test primality with O(p) divisions
    result = run_cli(["ordcoh", "ranks", "--d", "3", "--p", "1000000007"], 8)
    assert result.returncode == 0
    assert [row["rank"] for row in json.loads(result.stdout)["rows"]] == [1, 3, 3, 1]


@pytest.mark.parametrize(
    "args",
    [
        "--d 2 --p 3 --r 39 --a 1",  # was an AssertionError traceback
        "--d 2 --p 2 --r 70",  # was an OverflowError traceback
        "--d 3 --p 46337 --r 2 --a 1",  # was a 16 GiB allocation
        "--d 2 --p 65537 --r 2",  # p^a x p^a model too big; now the int64 bound
    ],
)
def test_ordcoh_ordinary_refuses_int64_overflow(runner, args):
    result = invoke(runner, ["ordcoh", "ordinary", *args.split()])
    refused(result, "overflow")
