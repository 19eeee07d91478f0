"""Tests for DFG → parallel shell script emission."""

import os
import shutil
import signal
import subprocess
import time

import pytest

from repro.api import PashConfig, optimize
from repro.backend.shell_emitter import emit_parallel_script
from repro.dfg.builder import DFGBuilder


def emitted(script, width=2, **config_changes):
    config = PashConfig.paper_default(width, fuse_stages=False, **config_changes)
    graph = DFGBuilder().build_from_script(script)
    optimize(graph, config)
    return emit_parallel_script(graph, config)


def test_the_script_is_a_fragment_with_no_shebang_or_header():
    assert emitted("cat a.txt b.txt | grep x > out.txt").startswith("mkfifo ")


def test_mkfifo_created_for_pipe_edges():
    text = emitted("cat a.txt b.txt | grep x > out.txt")
    assert "mkfifo " in text
    assert "/tmp/pash_fifo_" in text


def test_background_jobs_and_wait():
    text = emitted("cat a.txt b.txt | grep x > out.txt")
    assert text.count(" &\n") >= 3
    assert "wait $pash_output_pids" in text


def test_cleanup_signals_every_job_by_pid_and_removes_fifos():
    text = emitted("cat a.txt b.txt | grep x > out.txt")
    # One recorded pid per background job; `jobs -p | ...` sees none under dash.
    assert text.count('pash_pids="$pash_pids $!"') == text.count(" &\n")
    assert "kill -PIPE $pash_pids" in text and "jobs -p" not in text
    assert "rm -f /tmp/pash_fifo_" in text


def test_parallel_copies_appear():
    text = emitted("cat a.txt b.txt | grep foo > out.txt")
    assert text.count("grep foo") == 2


def test_aggregator_uses_sort_m():
    text = emitted("cat a.txt b.txt | sort -rn > out.txt")
    assert "sort -m -rn" in text


def test_custom_aggregator_uses_runtime_cli():
    text = emitted("cat a.txt b.txt | wc -l > out.txt")
    assert "-m repro.runtime.cli agg merge_wc" in text


def test_eager_relays_emitted():
    text = emitted("cat a.txt b.txt | sort > out.txt")
    assert "repro.runtime.cli eager --mode eager" in text


def test_split_emitted_for_single_input():
    text = emitted("cat big.txt | grep x > out.txt", width=4)
    assert "repro.runtime.cli split /tmp/pash_fifo_" in text
    # The helper tells a file from a pipe by itself.
    assert "--strategy" not in text


def test_output_redirection_preserved():
    text = emitted("cat a.txt b.txt | grep x > result.txt")
    assert "> result.txt" in text


def test_arguments_are_quoted():
    text = emitted("cat a.txt b.txt | grep 'a b' > out.txt")
    assert "'a b'" in text


def test_fifo_prefix_and_directory_come_from_the_config():
    script = "cat a.txt b.txt | grep x > out.txt"
    assert "/dev/shm/edge_" in emitted(script, fifo_directory="/dev/shm", fifo_prefix="edge")
    # Without a fixed prefix every emission gets a unique one.
    assert emitted(script).splitlines()[0] != emitted(script).splitlines()[0]


@pytest.mark.skipif(shutil.which("sh") is None, reason="requires a POSIX shell")
def test_emitted_script_runs_under_real_shell(tmp_path):
    """End-to-end: the emitted script runs with real coreutils and matches."""
    for required in ("mkfifo", "grep", "sort", "cat"):
        if shutil.which(required) is None:
            pytest.skip(f"missing {required}")
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    a.write_text("banana\napple foo\n")
    b.write_text("cherry foo\ndate\n")
    script = f"cat {a} {b} | grep foo | sort > {tmp_path}/out.txt"

    graph = DFGBuilder().build_from_script(script)
    optimize(graph, PashConfig.paper_default(2, fuse_stages=False))
    text = emit_parallel_script(graph, PashConfig(fifo_directory=str(tmp_path)))
    completed = subprocess.run(
        ["sh", "-c", text], capture_output=True, text=True, timeout=60, cwd=str(tmp_path)
    )
    assert completed.returncode == 0, completed.stderr
    assert (tmp_path / "out.txt").read_text().splitlines() == ["apple foo", "cherry foo"]


@pytest.mark.skipif(shutil.which("sh") is None, reason="requires a POSIX shell")
def test_no_producer_outlives_a_head_terminated_fan_in(tmp_path):
    """§5.2's zombie producers: `head` leaves, and `tr < b.txt > fifo` is still
    blocked in open(2) behind a `cat` that never got to its second input."""
    for required in ("mkfifo", "tr", "tail", "head", "cat", "ps"):
        if shutil.which(required) is None:
            pytest.skip(f"missing {required}")
    for name in ("a.txt", "b.txt"):
        (tmp_path / name).write_text("some line of text\n" * 200000)
    # Without split-insertion `tail | head` stays one sequential tail behind
    # the two-file fan-in.
    config = PashConfig.paper_default(
        2, disabled_passes=("split-insertion",), fifo_directory=str(tmp_path)
    )
    graph = DFGBuilder().build_from_script("cat a.txt b.txt | tr a-z A-Z | tail -n +1 | head -n 1")
    optimize(graph, config)
    text = emit_parallel_script(graph, config)
    assert "cat " in text and "\nhead -n 1 < " in text

    # Output goes to a file: a surviving producer would hold a pipe open.
    with open(tmp_path / "out", "wb") as out:
        script = subprocess.Popen(
            ["sh", "-c", text], cwd=tmp_path, stdout=out, stderr=out, start_new_session=True
        )
    try:
        assert script.wait(timeout=60) == 0
        assert (tmp_path / "out").read_text() == "SOME LINE OF TEXT\n"
        # The signalled jobs die asynchronously.  The script led its own
        # session, so what is left of it is what `ps -g` still lists
        # (defunct entries only await their reaper).
        deadline = time.monotonic() + 10
        while True:
            listing = subprocess.run(
                ["ps", "-o", "stat=,pid=,args=", "-g", str(script.pid)],
                capture_output=True,
                text=True,
            ).stdout.splitlines()
            alive = [line for line in listing if not line.lstrip().startswith("Z")]
            if not alive:
                break
            assert time.monotonic() < deadline, "processes outlive the script:\n" + "\n".join(alive)
            time.sleep(0.05)
    finally:
        try:
            os.killpg(script.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
