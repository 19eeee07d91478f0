"""Tests for the end-to-end compiler."""

import os
import shutil
import subprocess

import pytest

from repro.api import Pash, PashConfig


def test_single_pipeline_is_replaced():
    compiled = Pash.compile(
        "cat a.txt b.txt | grep x > out.txt", PashConfig.paper_default(2, fuse_stages=False)
    )
    assert "mkfifo" in compiled.text
    assert compiled.stats.regions_parallelized == 1
    assert compiled.stats.regions_rejected == 0
    assert compiled.node_count > 3


def test_untouched_fragments_are_preserved():
    source = "cat a.txt b.txt | grep x > f3 && sort f3"
    compiled = Pash.compile(source, PashConfig.paper_default(2, fuse_stages=False))
    # The && structure survives; the right-hand side is also parallelized (via
    # split) or left as plain `sort f3`.
    assert "&&" in compiled.text


def test_rejected_statements_appear_verbatim():
    source = "cat a.txt | awk '{print $1}'\ncat b.txt c.txt | grep x > out.txt"
    compiled = Pash.compile(source, PashConfig.paper_default(2, fuse_stages=False))
    assert "awk" in compiled.text
    assert compiled.stats.regions_rejected == 1
    assert compiled.stats.regions_parallelized == 1


def test_for_loop_with_dynamic_variable_is_preserved():
    source = "for y in 2015 2016; do\ncat $y.txt | grep x\ndone"
    compiled = Pash.compile(source, PashConfig.paper_default(2, fuse_stages=False))
    assert compiled.text.startswith("for y in 2015 2016; do")
    assert "done" in compiled.text


def test_assignments_are_preserved_and_used():
    source = "IN=data_a.txt\ncat $IN | grep x > out.txt"
    compiled = Pash.compile(source, PashConfig.paper_default(2, fuse_stages=False))
    assert compiled.text.splitlines()[0] == "IN=data_a.txt"
    assert "data_a.txt" in compiled.text


def test_width_increases_node_count():
    source = "cat " + " ".join(f"c{i}.txt" for i in range(8)) + " | grep x | sort > out.txt"
    narrow = Pash.compile(source, PashConfig.paper_default(2, fuse_stages=False))
    wide = Pash.compile(source, PashConfig.paper_default(8, fuse_stages=False))
    assert wide.node_count > narrow.node_count


def test_compile_time_recorded():
    compiled = Pash.compile("cat a.txt b.txt | sort > out.txt")
    assert compiled.stats.compile_time_seconds > 0.0


def test_no_parallelization_returns_original_script_text():
    source = "cat a.txt | awk '{print $1}'"
    compiled = Pash.compile(source, PashConfig.paper_default(4, fuse_stages=False))
    assert "mkfifo" not in compiled.text
    assert compiled.stats.regions_parallelized == 0


# ---------------------------------------------------------------------------
# Redirections on compound commands survive the emitted script
# ---------------------------------------------------------------------------

REDIRECTED_COMPOUNDS = [
    ("( echo hi ) > out.txt", "> out.txt", False),
    ("{ cat a.txt b.txt | sort; } > out.txt", "> out.txt", True),
    ("( cat a.txt b.txt | sort ) >> log", ">> log", True),
]


@pytest.mark.parametrize("source, redirection, parallelized", REDIRECTED_COMPOUNDS)
def test_compound_command_redirections_survive_compilation(source, redirection, parallelized):
    """``render_script`` used to re-implement the unparser for compound
    nodes and forgot their redirections: the region ran, its output went to
    the terminal, and ``out.txt`` was never written."""
    compiled = Pash.compile(source, PashConfig.paper_default(2))
    assert ("mkfifo" in compiled.text) == parallelized
    assert compiled.text.rstrip().endswith(redirection)


@pytest.mark.parametrize(
    "source",
    [
        "( echo hi ) > out.txt",
        "{ echo a\necho b; } >> log 2> err",
        "if true; then\n( echo x ) > f\nelse\n{ echo y; } < g\nfi",
        "for f in 1 2; do\n( echo ${f} ) >> all\ndone",
        "while false; do\necho never\ndone",
        "! echo a | cat && echo b || echo c &",
    ],
)
def test_unparallelized_scripts_round_trip_byte_for_byte(source):
    """Sources are in the unparser's canonical form (a sequence is one
    statement per line), so the emitted text must equal them exactly."""
    assert Pash.compile(source, PashConfig.paper_default(2)).text == source


@pytest.mark.skipif(shutil.which("sh") is None, reason="requires a POSIX shell")
@pytest.mark.parametrize("source, redirection, parallelized", REDIRECTED_COMPOUNDS)
def test_emitted_compound_redirection_writes_what_sh_writes(
    tmp_path, source, redirection, parallelized
):
    for required in ("mkfifo", "sort", "cat"):
        if shutil.which(required) is None:
            pytest.skip(f"missing {required}")
    target = redirection.split()[-1]
    environment = dict(os.environ, LC_ALL="C")
    outputs = []
    for name in ("original", "emitted"):
        directory = tmp_path / name
        directory.mkdir()
        (directory / "a.txt").write_text("pear\napple\n")
        (directory / "b.txt").write_text("fig\ncherry\n")
        text = source
        if name == "emitted":
            compiled = Pash.compile(source, PashConfig.paper_default(2))
            text = compiled.emit(fifo_directory=str(directory))
        completed = subprocess.run(
            ["sh", "-c", text],
            capture_output=True,
            text=True,
            timeout=60,
            cwd=str(directory),
            env=environment,
        )
        assert completed.returncode == 0, completed.stderr
        assert completed.stdout == ""
        outputs.append((directory / target).read_text())
    assert outputs[0] == outputs[1] != ""
