import contextlib
import io
import subprocess
import sys
import tracemalloc

import pytest

from qpaste.catalog import builtin, perfect
from qpaste.cli import main
from qpaste.files import dumps
from qpaste.verification import enumerate_errors

from helpers import degenerate_code6, fail_distance3_on, shor_code9


@pytest.fixture
def stab_files(tmp_path):
    paths = {}
    for name in ("code5", "code8", "code13"):
        p = tmp_path / f"{name}.stab"
        p.write_text(dumps(builtin(name)))
        paths[name] = str(p)
    # The [[21,15,3]] code: its 2^21-amplitude state vectors exceed the KL
    # route's default limit.
    p = tmp_path / "perfect2.stab"
    p.write_text(dumps(perfect(2)))
    paths["perfect2"] = str(p)
    return paths


def test_verify_code13(stab_files, capsys):
    assert main(["verify", stab_files["code13"]]) == 0
    out = capsys.readouterr().out
    assert "n=13 a=6 k=7" in out
    assert "validate: pass" in out
    assert "40/40 distinct syndromes, nondegenerate" in out
    assert "best_k=7" in out
    assert "result: pass" in out


def test_verify_with_distance_and_kl(stab_files, capsys):
    assert main(["verify", stab_files["code5"], "--distance", "--kl"]) == 0
    out = capsys.readouterr().out
    assert "distance: 3 (searched weight <= 3)" in out
    assert "kl: pass" in out


def test_verify_distance_explicit_weight(stab_files, capsys):
    assert main(["verify", stab_files["code5"], "--distance", "2"]) == 0
    out = capsys.readouterr().out
    assert "distance: none (searched weight <= 2)" in out


def test_verify_kl_refused_above_cap(stab_files, capsys):
    assert main(["verify", stab_files["perfect2"], "--kl"]) == 2
    err = capsys.readouterr().err
    assert "limit" in err and "error:" in err


def test_verify_kl_refusal_text(stab_files, capsys):
    assert main(["verify", stab_files["perfect2"], "--kl"]) == 2
    assert capsys.readouterr().err == (
        "error: kl check refused: n=21 needs 2097152 amplitudes per state vector; "
        "the limit is 65536\n"
    )


def test_verify_kl_code13(stab_files, capsys):
    # The paper's [[13,7,3]] code passes the third route at the default limit.
    assert main(["verify", stab_files["code13"], "--kl"]) == 0
    out = capsys.readouterr().out
    assert "kl: pass (C rank 40/40" in out
    assert "result: pass" in out


def test_verify_kl_refusal_builds_no_errors(stab_files, capsys, monkeypatch):
    import qpaste.cli as cli

    built = []

    def spy(n, t):
        built.append((n, t))
        return enumerate_errors(n, t)

    monkeypatch.setattr(cli, "enumerate_errors", spy)
    assert main(["verify", stab_files["perfect2"], "--kl"]) == 2
    assert built == []
    assert main(["verify", stab_files["code5"], "--kl"]) == 0
    assert built == [(5, 1)]
    assert "kl: pass (C rank 16/16" in capsys.readouterr().out


@pytest.mark.parametrize("weight", ["0", "-1"])
def test_verify_distance_below_one_refused(stab_files, capsys, weight):
    assert main(["verify", stab_files["code5"], "--distance", weight]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: max weight {weight} out of range 1..5\n"
    assert "distance:" not in captured.out


def test_verify_invalid_code(tmp_path, capsys):
    bad = tmp_path / "bad.stab"
    bad.write_text("XX\nXX\n")
    assert main(["verify", str(bad)]) == 1
    out = capsys.readouterr().out
    assert "validate: FAIL" in out and "result: fail" in out


def test_verify_failing_distance(tmp_path, capsys):
    bad = tmp_path / "zz.stab"
    bad.write_text("ZZ\n")
    assert main(["verify", str(bad)]) == 1
    out = capsys.readouterr().out
    assert "distance3: FAIL" in out


def test_verify_padded_file_fails_with_hint(tmp_path, capsys):
    padded = tmp_path / "padded.stab"
    padded.write_text(dumps(builtin("code8")) + "IIIIIIII\n")
    assert main(["verify", str(padded)]) == 1
    captured = capsys.readouterr()
    assert "paste --augment" in captured.err
    assert "result: fail" in captured.out


def test_paste_golden_file(stab_files, tmp_path, capsys):
    out_path = tmp_path / "out.stab"
    code = main(
        [
            "paste",
            stab_files["code8"],
            stab_files["code5"],
            "--augment",
            "1",
            "--out",
            str(out_path),
        ]
    )
    assert code == 0
    assert out_path.read_text() == dumps(builtin("code13"))
    assert "pasted: n=13 a=6 k=7" in capsys.readouterr().err


def test_paste_precondition_failure(stab_files, capsys):
    assert main(["paste", stab_files["code13"], stab_files["code5"]]) == 2
    err = capsys.readouterr().err
    assert "error: pasting preconditions failed: xz_rows" in err
    assert "check xz_rows: FAIL" in err


def test_paste_verification_failure_is_internal(stab_files, monkeypatch, capsys):
    fail_distance3_on(monkeypatch, 13)
    assert main(["paste", stab_files["code8"], stab_files["code5"], "--augment", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: internal: pasted code failed the distance check: syndrome "
        "collision between XIIIIIIIIIIII and ZIIIIIIIIIIII\n"
    )


def test_paste_to_stdout(stab_files, capsys):
    assert main(["paste", stab_files["code8"], stab_files["code5"], "--augment", "1"]) == 0
    captured = capsys.readouterr()
    assert captured.out == dumps(builtin("code13"))


def test_paste_padded_file_without_flag(tmp_path, capsys):
    # A placeholder row written in the file replaces --augment.
    padded = tmp_path / "code8pad.stab"
    padded.write_text(dumps(builtin("code8")) + "IIIIIIII\n")
    five = tmp_path / "code5.stab"
    five.write_text(dumps(builtin("code5")))
    assert main(["paste", str(padded), str(five)]) == 0
    assert capsys.readouterr().out == dumps(builtin("code13"))


def test_verify_degenerate_code_reported(tmp_path, capsys):
    from helpers import degenerate_code6

    path = tmp_path / "degenerate.stab"
    path.write_text(dumps(degenerate_code6()))
    assert main(["verify", str(path)]) == 0
    out = capsys.readouterr().out
    assert "degenerate, 1 excused pair(s)" in out
    assert "result: pass" in out


def test_catalog_roundtrip(tmp_path, capsys):
    out_path = tmp_path / "c8.stab"
    assert main(["catalog", "code8", "--out", str(out_path)]) == 0
    assert out_path.read_text() == dumps(builtin("code8"))
    assert main(["verify", str(out_path)]) == 0


def test_family_hamming(capsys):
    assert main(["family", "hamming", "4"]) == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert len(lines) == 6 and lines[0] == "X" * 16


def test_family_perfect_out_of_range(capsys):
    assert main(["family", "perfect", "5"]) == 2
    assert "error:" in capsys.readouterr().err


def test_family_perfect_with_flag(capsys):
    assert main(["family", "perfect", "5", "--max-j", "5"]) == 0
    out = capsys.readouterr().out
    assert len(out.strip().splitlines()) == 12


def test_bound_without_k(capsys):
    assert main(["bound", "13"]) == 0
    assert capsys.readouterr().out == "best k = 7 (not perfect)\n"
    assert main(["bound", "5"]) == 0
    assert capsys.readouterr().out == "best k = 1 (perfect)\n"
    assert main(["bound", "3"]) == 0
    assert "best k = none" in capsys.readouterr().out


def test_bound_with_k(capsys):
    assert main(["bound", "21", "15"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("saturated (perfect)")
    assert "2097152" in out
    assert main(["bound", "13", "7"]) == 0
    assert capsys.readouterr().out.startswith("satisfied (not perfect)")
    assert main(["bound", "5", "2"]) == 0
    assert capsys.readouterr().out.startswith("violated (not perfect)")


def test_bound_prints_decimals_up_to_the_digit_limit(capsys):
    assert main(["bound", "14000", "13980"]) == 0
    lhs, rhs = 42001 << 13980, 1 << 14000
    assert capsys.readouterr().out == (
        f"satisfied (not perfect): (3*14000+1)*2^13980 = {lhs} vs 2^14000 = {rhs}\n"
    )
    assert main(["bound", "20000"]) == 0
    assert capsys.readouterr().out == "best k = 19984 (not perfect)\n"
    assert main(["bound", "20000", "19980"]) == 0
    out = capsys.readouterr().out
    assert out == "satisfied (not perfect): (3*20000+1)*2^19980 vs 2^20000\n"
    # The larger side has 4301 digits here and 4300 one k below.
    assert main(["bound", "14284", "14269"]) == 0
    out = capsys.readouterr().out
    assert out == "violated (not perfect): (3*14284+1)*2^14269 vs 2^14284\n"
    assert main(["bound", "14284", "14268"]) == 0
    lhs, rhs = 42853 << 14268, 1 << 14284
    assert capsys.readouterr().out == (
        f"satisfied (not perfect): (3*14284+1)*2^14268 = {lhs} vs 2^14284 = {rhs}\n"
    )


def test_bound_far_past_the_digit_limit_builds_neither_side(capsys):
    main(["bound", "5"])  # the parser is built before tracing starts
    capsys.readouterr()
    tracemalloc.start()
    try:
        assert main(["bound", "100000000", "99999960"]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert capsys.readouterr().out == (
        "satisfied (not perfect): (3*100000000+1)*2^99999960 vs 2^100000000\n"
    )
    assert peak < 1 << 20


def test_bound_bad_k(capsys):
    assert main(["bound", "5", "9"]) == 2


def test_syndromes_table(stab_files, capsys):
    assert main(["syndromes", stab_files["code5"]]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 16
    assert lines[0] == "IIIII 0000"
    assert lines[1].startswith("XIIII ")
    # perfect code: every nonzero syndrome appears exactly once
    syndromes = [line.split()[1] for line in lines]
    assert len(set(syndromes)) == 16


def test_missing_file(capsys):
    assert main(["verify", "/nonexistent/nowhere.stab"]) == 3
    assert "error:" in capsys.readouterr().err


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.stab"
    bad.write_text("XQX\n")
    assert main(["verify", str(bad)]) == 3


def test_file_with_undecodable_byte_names_its_line(tmp_path, capsys):
    bad = tmp_path / "ff.stab"
    bad.write_bytes(b"XXXX\nZZ\xffZ\n")
    assert main(["verify", str(bad)]) == 3
    assert capsys.readouterr().err == (
        "error: line 2: invalid character '\\udcff' at position 3\n"
    )


def test_strict_stdin_with_undecodable_byte(monkeypatch, capsys):
    stdin = io.TextIOWrapper(io.BytesIO(b"XX\nZ\xffZ\n"), encoding="utf-8", errors="strict")
    monkeypatch.setattr(sys, "stdin", stdin)
    assert main(["verify", "-"]) == 3
    err = capsys.readouterr().err
    assert err == "error: line 2: invalid character '\\udcff' at position 2\n"


def test_strict_stdin_with_undecodable_byte_in_comment(monkeypatch, capsys):
    data = b"# \xff\n" + dumps(builtin("code5")).encode()
    stdin = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", errors="strict")
    monkeypatch.setattr(sys, "stdin", stdin)
    assert main(["verify", "-"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.endswith("result: pass\n")


def test_undecodable_byte_in_comment_is_ignored(tmp_path, capsys):
    path = tmp_path / "commented.stab"
    path.write_bytes(b"# \xff\n" + dumps(builtin("code5")).encode())
    assert main(["verify", str(path)]) == 0
    assert "result: pass" in capsys.readouterr().out


def test_syndromes_refuses_padded_file(tmp_path, capsys):
    padded = tmp_path / "padded.stab"
    padded.write_text("XXXX\nIIII\nZZZZ\n")
    assert main(["syndromes", str(padded)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: placeholder identity rows present; the syndrome table needs a plain code\n"
    )


def test_verify_kl_failure(monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", io.StringIO("XXXX\nZZZZ\n"))
    assert main(["verify", "-", "--kl"]) == 1
    out = capsys.readouterr().out
    assert "\nkl: FAIL (C rank 13/13, max deviation 1.00e+00)\nresult: fail\n" in out


@pytest.mark.parametrize(
    "text, kind, line",
    [
        (dumps(shor_code9()), ", degenerate, ", "22/28, max deviation 0.00e+00)"),
        (dumps(degenerate_code6()), ", degenerate, ", "18/19, max deviation 0.00e+00)"),
        ("XX\nZZ\n", ", degenerate, ", "4/7, max deviation 0.00e+00)"),
        (dumps(builtin("code13")), ", nondegenerate)", "40/40, max deviation 0.00e+00)"),
    ],
    ids=["shor9", "degenerate6", "xx_zz", "code13"],
)
def test_verify_kl_passes_degenerate_codes(text, kind, line, tmp_path, capsys):
    # The KL line agrees with the distance3 line, which excuses the
    # degenerate codes' collisions; a passing code deviates by exactly 0.
    path = tmp_path / "code.stab"
    path.write_text(text)
    assert main(["verify", str(path), "--kl"]) == 0
    out = capsys.readouterr().out
    assert kind in out
    assert f"\nkl: pass (C rank {line}\n" in out
    assert out.endswith("result: pass\n")


def test_family_hamming_without_default_polynomial(capsys):
    assert main(["family", "hamming", "13"]) == 2
    assert capsys.readouterr().err == "error: no default mixing polynomial for degree 13\n"


def test_unknown_subcommand():
    assert main(["frobnicate"]) == 2


def test_stdin_verify(monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", io.StringIO(dumps(builtin("code5"))))
    assert main(["verify", "-"]) == 0
    assert "n=5 a=4 k=1" in capsys.readouterr().out


def test_pipe_family_perfect_into_verify():
    # family perfect 2 | verify -  (through real processes)
    emit = subprocess.run(
        [sys.executable, "-m", "qpaste", "family", "perfect", "2"],
        capture_output=True,
        text=True,
        check=True,
    )
    check = subprocess.run(
        [sys.executable, "-m", "qpaste", "verify", "-"],
        input=emit.stdout,
        capture_output=True,
        text=True,
    )
    assert check.returncode == 0
    assert "n=21 a=6 k=15" in check.stdout
    assert "perfect" in check.stdout
    assert "result: pass" in check.stdout


def test_verify_excuses_collisions_in_minus_group(monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", io.StringIO("XX\nZZ\n"))
    assert main(["verify", "-"]) == 0
    out = capsys.readouterr().out
    assert "distance3: pass (4/7 distinct syndromes, degenerate, 3 excused pair(s))" in out
    assert "result: pass" in out


def test_non_kl_commands_do_not_import_numpy():
    probe = (
        "import sys, qpaste, qpaste.cli; "
        "assert qpaste.cli.main(['bound', '13']) == 0; "
        "assert 'numpy' not in sys.modules, 'numpy was imported'; "
        "loaded = {'dataclasses', 'inspect'} & sys.modules.keys(); "
        "assert not loaded, f'start-up imported {sorted(loaded)}'"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr


def test_parser_reuse_keeps_no_option_from_an_earlier_call(stab_files, capsys):
    assert main(["verify", stab_files["code5"], "--kl"]) == 0
    assert "\nkl: pass" in capsys.readouterr().out
    assert main(["verify", stab_files["code5"]]) == 0
    out = capsys.readouterr().out
    assert "kl:" not in out and "distance:" not in out
    assert out.endswith("result: pass\n")


def test_parser_reuse_after_a_usage_error(stab_files, capsys):
    assert main(["verify", "--distance", "x", stab_files["code5"]]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "invalid int value: 'x'" in captured.err
    assert main(["verify", stab_files["code5"]]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.endswith("result: pass\n")


@pytest.mark.parametrize("argv", [["--help"], ["verify", "--help"], ["family", "perfect", "--help"]])
def test_help_twice_is_identical(argv, capsys):
    assert main(argv) == 0
    first = capsys.readouterr()
    assert main(argv) == 0
    assert capsys.readouterr() == first
    assert first.out.startswith("usage: qpaste") and first.err == ""


def test_each_call_writes_to_the_streams_of_that_call(capsys):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        assert main(["--help"]) == 0
        assert main(["bound"]) == 2
    assert out.getvalue().startswith("usage: qpaste")
    assert "the following arguments are required: n" in err.getvalue()
    assert capsys.readouterr() == ("", "")
    assert main(["bound"]) == 2
    assert main(["bound", "5"]) == 0
    captured = capsys.readouterr()
    assert captured.out == "best k = 1 (perfect)\n"
    assert captured.err == err.getvalue()
