"""Tests for DFG → parallel shell script emission."""

import shutil
import subprocess

import pytest

from repro.api import PashConfig, optimize
from repro.backend.shell_emitter import EmitterOptions, emit_parallel_script
from repro.dfg.builder import DFGBuilder


def emitted(script, width=2, config=None, options=None):
    graph = DFGBuilder().build_from_script(script)
    optimize(graph, config or PashConfig.paper_default(width, fuse_stages=False))
    return emit_parallel_script(graph, options or EmitterOptions())


def test_header_and_shebang():
    text = emitted("cat a.txt b.txt | grep x > out.txt")
    assert text.startswith("#!/bin/sh")


def test_mkfifo_created_for_pipe_edges():
    text = emitted("cat a.txt b.txt | grep x > out.txt")
    assert "mkfifo " in text
    assert "/tmp/pash_fifo_" in text


def test_background_jobs_and_wait():
    text = emitted("cat a.txt b.txt | grep x > out.txt")
    assert text.count(" &\n") >= 3
    assert "wait $pash_output_pids" in text


def test_cleanup_sends_pipe_signal_and_removes_fifos():
    text = emitted("cat a.txt b.txt | grep x > out.txt")
    assert "kill -PIPE" in text
    assert "rm -f /tmp/pash_fifo_" in text


def test_cleanup_can_be_disabled():
    text = emitted(
        "cat a.txt b.txt | grep x > out.txt",
        options=EmitterOptions(cleanup=False, header=False),
    )
    assert "wait" not in text and "rm -f" not in text


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
    assert "repro.runtime.cli split --strategy general" in text


def test_output_redirection_preserved():
    text = emitted("cat a.txt b.txt | grep x > result.txt")
    assert "> result.txt" in text


def test_arguments_are_quoted():
    text = emitted("cat a.txt b.txt | grep 'a b' > out.txt")
    assert "'a b'" in text


def test_fifo_prefix_and_directory_options():
    text = emitted(
        "cat a.txt b.txt | grep x > out.txt",
        options=EmitterOptions(fifo_directory="/dev/shm", fifo_prefix="edge"),
    )
    assert "/dev/shm/edge_" in text


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
    options = EmitterOptions(fifo_directory=str(tmp_path))
    text = emit_parallel_script(graph, options)
    completed = subprocess.run(
        ["sh", "-c", text], capture_output=True, text=True, timeout=60, cwd=str(tmp_path)
    )
    assert completed.returncode == 0, completed.stderr
    assert (tmp_path / "out.txt").read_text().splitlines() == ["apple foo", "cherry foo"]
