"""Tests for the pash-compile command line interface."""

import pytest

from repro.cli import build_parser, main


@pytest.fixture()
def script_file(tmp_path):
    path = tmp_path / "script.sh"
    path.write_text("cat a.txt b.txt | grep foo | sort > out.txt\n")
    return path


def test_compiles_script_to_stdout(script_file, capsys):
    assert main([str(script_file), "--width", "2"]) == 0
    out = capsys.readouterr().out
    assert "mkfifo" in out
    assert out.count("grep foo") == 2


def test_report_goes_to_stderr(script_file, capsys):
    main([str(script_file), "--width", "2", "--report"])
    captured = capsys.readouterr()
    assert "# regions:" in captured.err
    assert "# runtime processes:" in captured.err


def test_output_file_option(script_file, tmp_path, capsys):
    target = tmp_path / "parallel.sh"
    main([str(script_file), "--width", "2", "-o", str(target)])
    assert "mkfifo" in target.read_text()
    assert capsys.readouterr().out == ""


def test_reads_from_stdin(monkeypatch, capsys):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO("cat a.txt b.txt | grep x > o.txt\n"))
    assert main(["-", "--width", "2"]) == 0
    assert "mkfifo" in capsys.readouterr().out


def test_no_eager_flag(script_file, capsys):
    main([str(script_file), "--width", "2", "--no-eager"])
    out = capsys.readouterr().out
    assert "eager" not in out


def test_blocking_eager_flag(script_file, capsys):
    main([str(script_file), "--width", "2", "--blocking-eager"])
    out = capsys.readouterr().out
    assert "--mode blocking" in out


def test_split_none_leaves_single_input_sequential(tmp_path, capsys):
    path = tmp_path / "single.sh"
    path.write_text("cat big.txt | grep foo > out.txt\n")
    main([str(path), "--width", "4", "--split", "none"])
    out = capsys.readouterr().out
    assert "mkfifo" not in out  # nothing parallelized, script unchanged
    assert "grep foo" in out


def test_parser_defaults():
    arguments = build_parser().parse_args(["x.sh"])
    assert arguments.width == 2
    assert arguments.split == "general"


def test_fan_in_flag(script_file, capsys):
    main([str(script_file), "--width", "4", "--fan-in", "4"])
    out = capsys.readouterr().out
    assert "sort -m" in out


# ---------------------------------------------------------------------------
# --execute jit
# ---------------------------------------------------------------------------


@pytest.fixture()
def dynamic_workspace(tmp_path, monkeypatch):
    """A cwd with real input files and a dynamic (AOT-untranslatable) script."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "a.txt").write_text("light one\ndark two\nlight three\n")
    (tmp_path / "b.txt").write_text("light four\ndark five\n")
    script = tmp_path / "dyn.sh"
    script.write_text(
        'for f in *.txt; do\n  grep light "$f" | sort\ndone\n'
        "if test 2 -gt 1; then sort b.txt; fi\n"
    )
    return script


def test_execute_jit_runs_dynamic_script(dynamic_workspace, capsys):
    assert main([str(dynamic_workspace), "--width", "2", "--execute", "jit"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == [
        "light one",
        "light three",
        "light four",
        "dark five",
        "light four",
    ]


def test_execute_jit_report_includes_jit_summary(dynamic_workspace, capsys):
    assert (
        main([str(dynamic_workspace), "--width", "2", "--execute", "jit", "--report"])
        == 0
    )
    err = capsys.readouterr().err
    assert "# backend: jit" in err
    assert "jit:" in err and "compiled" in err


def test_execute_jit_with_inner_interpreter(dynamic_workspace, capsys):
    assert (
        main(
            [
                str(dynamic_workspace),
                "--width",
                "2",
                "--execute",
                "jit",
                "--jit-backend",
                "interpreter",
            ]
        )
        == 0
    )
    assert "light one" in capsys.readouterr().out


@pytest.mark.parametrize("backend", ["interpreter", "parallel"])
def test_execute_pinned_engine_runs_dynamic_scripts(dynamic_workspace, capsys, backend):
    # Every backend runs the script through the one driver: the loop, the
    # glob and the `if` execute as the shell would run them.
    assert main([str(dynamic_workspace), "--width", "2", "--execute", backend, "--report"]) == 0
    captured = capsys.readouterr()
    assert captured.out.splitlines() == [
        "light one",
        "light three",
        "light four",
        "dark five",
        "light four",
    ]
    assert f"# backend: {backend}" in captured.err
    assert "# jit: 3 regions seen" in captured.err


@pytest.mark.parametrize(
    "script, message",
    [
        ("cat a.txt | nosuchcmd\n", "nosuchcmd"),
        ("while true; do :; done\n", "while loop exceeded"),
    ],
)
def test_interpreter_path_errors_are_one_typed_line(dynamic_workspace, capsys, script, message):
    dynamic_workspace.write_text(script)
    assert main([str(dynamic_workspace), "--execute", "jit"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("pash-compile: execution failed: ")
    assert message in err and "Traceback" not in err
    assert len(err.splitlines()) == 1


def test_list_backends_includes_jit(capsys):
    assert main(["--list-backends"]) == 0
    assert "jit" in capsys.readouterr().out.split()


# ---------------------------------------------------------------------------
# --execute cluster
# ---------------------------------------------------------------------------


@pytest.fixture()
def static_workspace(tmp_path, monkeypatch):
    """A cwd with real input files and a fully-translatable pipeline."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "a.txt").write_text("banana\napple foo\n")
    (tmp_path / "b.txt").write_text("cherry foo\ndate\n")
    script = tmp_path / "static.sh"
    script.write_text("cat a.txt b.txt | grep foo | sort > out.txt\n")
    return script


def test_list_backends_includes_cluster(capsys):
    assert main(["--list-backends"]) == 0
    assert "cluster" in capsys.readouterr().out.split()


def test_cluster_flags_parse():
    arguments = build_parser().parse_args(
        ["x.sh", "--execute", "cluster", "--cluster-workers", "3",
         "--cluster-connect", "127.0.0.1:7077"]
    )
    assert arguments.cluster_workers == 3
    assert arguments.cluster_connect == "127.0.0.1:7077"


def test_execute_cluster_runs_pipeline(static_workspace, tmp_path, capsys):
    assert main([str(static_workspace), "--width", "2", "--execute", "cluster"]) == 0
    assert (tmp_path / "out.txt").read_text() == "apple foo\ncherry foo\n"


def test_execute_cluster_report_mentions_workers(static_workspace, capsys):
    assert (
        main(
            [
                str(static_workspace),
                "--width",
                "2",
                "--execute",
                "cluster",
                "--cluster-workers",
                "2",
                "--report",
            ]
        )
        == 0
    )
    assert "cluster workers" in capsys.readouterr().err


def test_pash_worker_rejects_malformed_address(capsys):
    from repro.cluster.worker import main as worker_main

    assert worker_main(["--connect", "nonsense"]) == 2
    assert "HOST:PORT" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# --trace / --metrics-json
# ---------------------------------------------------------------------------


@pytest.fixture()
def loop_workspace(tmp_path, monkeypatch):
    """A loop whose body is iteration-invariant, so the JIT cache can hit."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "a.txt").write_text("light one\ndark two\nlight three\n")
    script = tmp_path / "loop.sh"
    script.write_text("for i in 1 2 3; do\n  grep light a.txt | sort\ndone\n")
    return script


def _load_trace(path):
    import json
    import pathlib
    import sys

    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "tools"))
    from check_trace import check_trace

    with open(path) as handle:
        document = json.load(handle)
    return document, check_trace(document)


def test_trace_export_covers_every_layer(loop_workspace, tmp_path, capsys):
    trace = tmp_path / "out.json"
    # Pinned to the pool: "auto" keeps these small regions in-process, and
    # the scheduler and worker layers would have nothing to record.
    assert (
        main(
            [str(loop_workspace), "--width", "2", "--execute", "jit",
             "--jit-backend", "parallel", "--trace", str(trace)]
        )
        == 0
    )
    document, count = _load_trace(trace)
    assert count > 0
    events = [e for e in document["traceEvents"] if e["ph"] == "X"]
    names = {e["name"] for e in events}
    categories = {e["cat"] for e in events}
    assert {"parse", "pass", "jit", "scheduler", "worker"} <= categories
    assert "jit:compile" in names
    assert "jit:cache-hit" in names  # iterations 2 and 3 reuse the region
    assert "engine:run" in names
    # Worker spans run in other processes but still nest under the driver;
    # the one lane per run the driver evaluates itself sits right under its
    # engine:run, in the driver's pid.
    driver_pid = next(e["pid"] for e in events if e["cat"] == "scheduler")
    by_id = {e["args"]["span_id"]: e for e in events}
    worker_events = [e for e in events if e["cat"] == "worker"]
    remote = [e for e in worker_events if e["pid"] != driver_pid]
    inline = [e for e in worker_events if e["pid"] == driver_pid]
    runs = [e for e in events if e["name"] == "engine:run"]
    assert remote and len(inline) == len(runs)
    assert all(e["args"]["parent_id"] for e in worker_events)
    assert all(by_id[e["args"]["parent_id"]]["name"] == "engine:run" for e in inline)


def test_metrics_json_writes_run_report(loop_workspace, tmp_path, capsys):
    import json

    metrics = tmp_path / "metrics.json"
    assert (
        main(
            [str(loop_workspace), "--width", "2", "--execute", "jit",
             "--metrics-json", str(metrics)]
        )
        == 0
    )
    document = json.loads(metrics.read_text())
    assert document["schema"] == 1
    assert document["backend"] == "jit"
    assert document["jit"]["regions_seen"] >= 1
    assert document["jit"]["cache_hits"] >= 1
    assert document["spans"]["spans_total"] > 0
    assert document["config"]["tracing"] is True


def test_report_lines_are_not_duplicated(dynamic_workspace, capsys):
    assert (
        main([str(dynamic_workspace), "--width", "2", "--execute", "jit",
              "--report"])
        == 0
    )
    lines = [
        line for line in capsys.readouterr().err.splitlines() if line.strip()
    ]
    # Per-region detail lines may legitimately repeat ("parallelized: sort"
    # in two regions); the run-level summary lines must appear exactly once.
    for prefix in ("# backend:", "# jit:", "# regions:", "# compile time:"):
        assert sum(line.startswith(prefix) for line in lines) == 1, lines


def test_report_still_emitted_when_execution_fails(dynamic_workspace, capsys):
    # Execution fails on the missing input, but --report must still surface
    # the compilation stats alongside the error.
    dynamic_workspace.write_text("cat a.txt missing.txt | sort\n")
    assert (
        main([str(dynamic_workspace), "--width", "2", "--execute", "parallel",
              "--report"])
        == 1
    )
    err = capsys.readouterr().err
    assert "pash-compile:" in err
    assert "# regions:" in err


# ---------------------------------------------------------------------------
# Input framing: a line ends at "\n" and nowhere else
# ---------------------------------------------------------------------------

#: One line to ``sh`` and to every engine; ``str.splitlines`` made it three.
ODD_LINE = b"a\x0cb\rc\n"


def test_stdin_is_framed_as_the_host_shell_frames_it(tmp_path):
    import os
    import shutil
    import subprocess
    import sys

    import repro

    script = tmp_path / "cat.sh"
    script.write_text("cat\n")
    source = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    ours = subprocess.run(
        [sys.executable, "-m", "repro.cli", str(script), "--execute", "interpreter"],
        input=ODD_LINE + b"second\r\n",
        env=dict(os.environ, PYTHONPATH=source),
        capture_output=True,
        timeout=60,
    )
    assert ours.returncode == 0, ours.stderr
    assert ours.stdout == ODD_LINE + b"second\r\n"
    if shutil.which("sh"):
        host = subprocess.run(
            ["sh", str(script)],
            input=ODD_LINE + b"second\r\n",
            env=dict(os.environ, LC_ALL="C"),
            capture_output=True,
            timeout=60,
        )
        assert ours.stdout == host.stdout


#: A lone ``\351``, a NUL and a CRLF line, printed and written by one script.
NOT_UTF8 = b"caf\xe9\nabc\n\x00nul\r\n"
BYTES_SCRIPT = "cat in.txt | tr a-z A-Z | sort\ncat in.txt | tr a-z A-Z | sort > out.txt\n"


def test_execute_prints_the_host_bytes_through_a_strict_stdout(tmp_path):
    """``--execute`` writes stdout and files through the stream codec, so a
    strict UTF-8 text layer never meets an escaped byte."""
    import os
    import shutil
    import subprocess
    import sys

    import repro

    if not shutil.which("sh"):
        pytest.skip("requires a POSIX shell")
    source = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    runs = {}
    for name, command in (
        ("host", ["sh", "job.sh"]),
        ("pash", [sys.executable, "-m", "repro.cli", "job.sh", "--width", "2", "--execute", "parallel"]),
    ):
        directory = tmp_path / name
        directory.mkdir()
        (directory / "in.txt").write_bytes(NOT_UTF8)
        (directory / "job.sh").write_text(BYTES_SCRIPT)
        completed = subprocess.run(
            command, cwd=directory, capture_output=True, timeout=60,
            env=dict(os.environ, LC_ALL="C", PYTHONPATH=source, PYTHONIOENCODING="utf-8:strict"),
        )
        assert completed.returncode == 0, completed.stderr
        runs[name] = completed.stdout, (directory / "out.txt").read_bytes()
    assert runs["pash"] == runs["host"]
    assert runs["host"][0] == b"\x00NUL\r\nABC\nCAF\xe9\n"
