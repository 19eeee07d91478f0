"""Dynamic-script corpus: byte-identical across execution modes.

Each corpus script exercises shell dynamism the AOT path cannot compile —
loops with reassignment, conditionals guarding pipelines, command
substitutions feeding loop lists — and must produce byte-identical stdout
and files on:

* the sequential :class:`~repro.runtime.interpreter.ShellInterpreter`
  (the oracle),
* the JIT driver executing compiled regions on the ``interpreter`` engine,
* the JIT driver executing compiled regions on the ``parallel`` engine
  (real processes and OS pipes).
"""

import pytest

from repro.api import PashConfig
from repro.jit import JitDriver
from repro.runtime.executor import ExecutionEnvironment
from repro.runtime.interpreter import ShellInterpreter
from repro.runtime.streams import VirtualFileSystem

WIDTH = 2


def corpus_dataset():
    lines = []
    for i in range(300):
        kind = "light" if i % 3 else "dark"
        lines.append(f"{kind} entry {i:03d} alpha" if i % 2 else f"{kind} entry {i:03d} beta")
    return {
        "logs.txt": lines,
        "extra.txt": ["light tail x", "dark tail y", "light tail z"],
        "patterns.txt": ["light"],
        "files.txt": ["logs.txt", "extra.txt"],
    }


CORPUS = {
    "loop-with-reassignment": (
        "pat=light\n"
        'for f in logs.txt extra.txt; do grep $pat "$f" | sort | head -n 4; done\n'
        "pat=dark\n"
        "grep $pat extra.txt\n"
    ),
    "loop-carried-counter": (
        "seen=none\n"
        "for f in logs.txt extra.txt; do\n"
        '  test $seen = none && grep light "$f" | head -n 2\n'
        "  seen=$f\n"
        "done\n"
        "echo last:$seen\n"
    ),
    "if-guarding-pipeline": (
        "mode=full\n"
        "if test $mode = full; then\n"
        "  grep light logs.txt | sort | head -n 5\n"
        "else\n"
        "  grep dark logs.txt | head -n 1\n"
        "fi\n"
    ),
    "if-else-branch-not-taken": (
        "if test 1 -gt 2; then\n"
        "  grep light logs.txt\n"
        "else\n"
        "  grep dark logs.txt | sort | head -n 3\n"
        "fi\n"
    ),
    "substitution-feeding-loop-list": (
        'for f in $(cat files.txt); do grep light "$f" | wc -l; done\n'
    ),
    "substitution-as-pattern": (
        "grep $(cat patterns.txt) extra.txt | sort\n"
    ),
    "while-countdown": (
        "n=3\n"
        "while test $n != 0; do\n"
        "  grep light extra.txt | head -n $n\n"
        '  n=$(seq $n | head -n 1 | grep -c . | sed "s/1/x/" | sed "s/x//")\n'
        "  test \"$n\" = '' && n=0\n"
        "done\n"
    ),
    "glob-over-files": (
        'for f in *.txt; do grep -c light "$f"; done\n'
    ),
    "redirect-then-reread": (
        "grep light logs.txt | sort > staged.txt\n"
        "head -n 3 staged.txt\n"
        "grep alpha staged.txt | wc -l\n"
    ),
    "status-chain": (
        "grep light extra.txt | head -n 1\n"
        "test -e logs.txt && grep dark extra.txt\n"
        "test -e missing.txt || grep light extra.txt | tail -n 1\n"
        "echo status:$?\n"
    ),
    "default-values": (
        "head -n ${N:-2} extra.txt\n"
        "N=1\n"
        "head -n ${N:-2} extra.txt\n"
    ),
}


def fresh_environment():
    return ExecutionEnvironment(
        filesystem=VirtualFileSystem(
            {name: list(lines) for name, lines in corpus_dataset().items()}
        )
    )


def run_baseline(script):
    environment = fresh_environment()
    shell = ShellInterpreter(filesystem=environment.filesystem)
    stdout = shell.run_script(script)
    return stdout, environment.filesystem


def run_jit(script, inner_backend):
    environment = fresh_environment()
    config = PashConfig.paper_default(WIDTH, jit_inner_backend=inner_backend)
    driver = JitDriver(config=config, environment=environment)
    result = driver.run(script)
    return result, environment.filesystem


def files_snapshot(filesystem):
    return {name: filesystem.read(name) for name in filesystem.names()}


@pytest.mark.parametrize("name", sorted(CORPUS))
@pytest.mark.parametrize("inner_backend", ["interpreter", "parallel", "auto"])
def test_corpus_is_byte_identical(name, inner_backend):
    script = CORPUS[name]
    expected_stdout, expected_fs = run_baseline(script)
    result, jit_fs = run_jit(script, inner_backend)
    assert result.stdout == expected_stdout
    assert files_snapshot(jit_fs) == files_snapshot(expected_fs)


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_corpus_parallelizes_at_least_one_region(name):
    """Every corpus script must exercise the JIT hot path, not just fall back."""
    result, _ = run_jit(CORPUS[name], "interpreter")
    assert result.jit.regions_compiled + result.jit.cache_hits >= 1, (
        result.jit.summary()
    )
