"""End-to-end runs of the command-line driver."""

import json
import shutil

from lockshift.cli import main

from helpers import CORPUS, FIXTURES, fixture_text


def place(tmp_path, name, source_dir=None):
    src = (source_dir or FIXTURES) / name
    dst = tmp_path / name
    shutil.copy(src, dst)
    return dst


def test_analyze_prints_the_summary(capsys):
    code = main(["analyze", str(FIXTURES / "listing1.mc")])
    out = capsys.readouterr().out
    assert code == 0
    assert out == fixture_text("listing1.summary.json")


def test_analyze_can_write_the_summary_to_a_file(tmp_path, capsys):
    target = tmp_path / "out.json"
    code = main(["analyze", str(FIXTURES / "listing1.mc"),
                 "--emit-summary", str(target)])
    assert code == 0
    assert capsys.readouterr().out == ""
    assert target.read_text() == fixture_text("listing1.summary.json")


def test_transform_prints_the_guarded_program(capsys):
    code = main(["transform", str(FIXTURES / "listing1.mc")])
    assert code == 0
    assert capsys.readouterr().out == fixture_text("listing1.gmc")


def test_transform_can_write_to_a_file(tmp_path, capsys):
    target = tmp_path / "out.gmc"
    code = main(["transform", str(FIXTURES / "listing1.mc"), "-o", str(target)])
    assert code == 0
    assert capsys.readouterr().out == ""
    assert target.read_text() == fixture_text("listing1.gmc")


def test_transform_accepts_a_precomputed_summary(tmp_path, capsys):
    summary = tmp_path / "summary.json"
    src = str(FIXTURES / "listing1.mc")
    assert main(["analyze", src, "--emit-summary", str(summary)]) == 0
    code = main(["transform", src, "--use-summary", str(summary)])
    assert code == 0
    assert capsys.readouterr().out == fixture_text("listing1.gmc")


def test_a_summary_for_some_other_program_fails_cleanly(tmp_path, capsys):
    summary = tmp_path / "summary.json"
    summary.write_text('{"global_lock_map": {"ghost": "m"}}')
    code = main(["transform", str(FIXTURES / "listing1.mc"),
                 "--use-summary", str(summary)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert "$.global_lock_map.ghost" in captured.err


def test_check_accepts_the_golden_output(capsys):
    code = main(["check", str(FIXTURES / "listing1.gmc")])
    assert code == 0
    assert capsys.readouterr().out == ""


def test_check_reports_ownership_errors_with_positions(capsys):
    path = str(FIXTURES / "path_divergent.gmc")
    code = main(["check", path])
    assert code == 2
    assert capsys.readouterr().out == (
        "%s:7: ConflictingPaths: m_guard in f\n" % path)


def test_the_check_flag_is_an_alias_for_the_subcommand(capsys):
    path = str(FIXTURES / "path_divergent.gmc")
    assert main(["--check", path]) == 2
    first = capsys.readouterr().out
    assert main(["full", "--check", path]) == 2
    assert capsys.readouterr().out == first


def test_full_rejects_a_conditional_acquisition(tmp_path, capsys):
    src = place(tmp_path, "cond_acq.mc")
    target = tmp_path / "out.gmc"
    code = main(["full", str(src), "-o", str(target)])
    captured = capsys.readouterr()
    assert code == 2
    assert "%s:14: UseOfUninit: m_guard in main\n" % src in captured.out
    assert "m_guard = m.acquire();" in target.read_text()


def test_transform_alone_does_not_judge_the_output(tmp_path, capsys):
    src = place(tmp_path, "cond_acq.mc")
    assert main(["transform", str(src)]) == 0
    capsys.readouterr()


def test_parse_errors_exit_with_one(tmp_path, capsys):
    bad = tmp_path / "bad.mc"
    bad.write_text("void f( {\n")
    code = main(["analyze", str(bad)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("%s:1: error:" % bad)


def test_missing_inputs_exit_with_one(tmp_path, capsys):
    code = main(["analyze", str(tmp_path / "absent.mc")])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("error:")


def test_non_utf8_inputs_exit_with_one(tmp_path, capsys):
    bad = tmp_path / "bad.mc"
    bad.write_bytes(b"int n;\xff\n")
    for mode in ("analyze", "full", "check"):
        assert main([mode, str(bad)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "%s: error: not UTF-8 text (byte 0xff at offset 6)\n" % bad)


def test_a_non_utf8_summary_names_the_summary_file(tmp_path, capsys):
    summary = tmp_path / "summary.json"
    summary.write_bytes(b'{"x": "\xff"}')
    code = main(["transform", str(FIXTURES / "listing1.mc"),
                 "--use-summary", str(summary)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("%s: error: not UTF-8 text" % summary)


def test_an_exhausted_iteration_budget_exits_with_one(capsys):
    code = main(["analyze", str(CORPUS / "recursive_unlock.mc"),
                 "--iteration-budget", "1"])
    captured = capsys.readouterr()
    assert code == 1
    assert "did not converge" in captured.err


def test_dump_flags_write_sidecar_files(tmp_path, capsys):
    src = place(tmp_path, "listing1.mc")
    code = main(["analyze", str(src), "--emit-summary",
                 str(tmp_path / "s.json"), "--dump-cfg", "--dump-callgraph",
                 "--dump-flow"])
    assert code == 0
    capsys.readouterr()
    for fn in ("f", "g", "h", "lock", "unlock", "foo"):
        assert (tmp_path / ("listing1.cfg.%s.dot" % fn)).exists()
    assert (tmp_path / "listing1.callgraph.dot").exists()
    assert (tmp_path / "listing1.callgraph.merged.dot").exists()
    flow = json.loads((tmp_path / "listing1.flow.json").read_text())
    assert flow["unlock"]["mels"] == ["m"]
    assert flow["lock"]["mrls"] == ["m"]


def test_timings_go_to_stderr_and_leave_stdout_alone(capsys):
    src = str(FIXTURES / "listing1.mc")
    assert main(["full", src]) in (0, 2)
    plain = capsys.readouterr()
    assert main(["full", src, "--timings"]) in (0, 2)
    timed = capsys.readouterr()
    assert timed.out == plain.out
    assert "analyze" in timed.err
    assert "transform" in timed.err
    assert "check" in timed.err


def test_repeated_runs_are_byte_identical(capsys):
    src = str(CORPUS / "two_locks_split.mc")
    assert main(["full", src]) == 0
    first = capsys.readouterr().out
    assert main(["full", src]) == 0
    assert capsys.readouterr().out == first
