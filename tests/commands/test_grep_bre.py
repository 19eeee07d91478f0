"""``grep`` reads its pattern as a POSIX basic regular expression unless ``-E``.

A row table of patterns whose BRE and ERE readings differ, each run by the
program and (where the host has GNU grep) by ``LC_ALL=C grep`` over the same
lines; and every ``grep`` pattern of the workload corpus, which must compile
to the Python regex it always did — except unix50 #33, ``grep '.{7,}'``,
whose BRE reading (a literal ``{7,}``) is the fix.
"""

import shlex
import shutil
import subprocess

import pytest

from repro.commands import standard_registry, textproc
from repro.commands.base import CommandError
from repro.workloads.oneliners import ONE_LINERS
from repro.workloads.unix50 import UNIX50_PIPELINES

LINES = [
    "abcdefghij", "x.{7,}", "aa", "a{2}", "a+", "aaa", "b", "ab", "a?b", "a|b", "(a)", "aa(a)",
    "*a", "a^b", "a$b", "xa$", "[\\]", "]", "a]", "12", "1x2", "ac", "bc", "A", "B", "{", "", "the end",
    "theme", "a.b", "a\\b", "ba", "b^",
]

#: (arguments, the lines the program must select from LINES)
ROWS = [
    (["a{2}"], ["a{2}"]),
    (["a\\{2\\}"], ["aa", "aaa", "aa(a)"]),
    (["-E", "a{2}"], ["aa", "aaa", "aa(a)"]),
    ([".{7,}"], ["x.{7,}"]),
    (["-E", ".{7,}"], ["abcdefghij", "the end"]),
    (["a+"], ["a+"]),
    (["a\\+"], [line for line in LINES if "a" in line]),
    (["a?b"], ["a?b"]),
    (["^a\\?b"], [line for line in LINES if line.startswith(("ab", "b"))]),
    (["a|b"], ["a|b"]),
    (["^a\\|^b"], [line for line in LINES if line[:1] in ("a", "b")]),
    (["(a)"], ["(a)", "aa(a)"]),
    (["\\(a\\)\\1"], ["aa", "aaa", "aa(a)"]),
    (["-E", "(a|b)c"], ["abcdefghij", "ac", "bc"]),
    (["*a"], ["*a"]),
    (["^*a"], ["*a"]),
    (["\\(*a\\)"], ["*a"]),
    (["a^b"], ["a^b"]),
    (["b^"], ["b^"]),
    (["^a"], [line for line in LINES if line.startswith("a")]),
    (["a$"], [line for line in LINES if line.endswith("a")]),
    (["a$b"], ["a$b"]),
    (["a$\\|^x"], [line for line in LINES if line.endswith("a") or line.startswith("x")]),
    (["[]a]"], [line for line in LINES if "]" in line or "a" in line]),
    (["^[^]a]"], [line for line in LINES if line and line[0] not in "]a"]),
    (["[\\]"], ["[\\]", "a\\b"]),
    (["[[:digit:]]x"], ["1x2"]),
    (["[[:digit:]]\\{2\\}"], ["12"]),
    (["a**"], LINES),
    (["\\<the\\>"], ["the end"]),
    (["a\\.b"], ["a.b"]),
    (["-F", ".{7,}"], ["x.{7,}"]),
    (["-F", "a\\b"], ["a\\b"]),
    (["-w", "a+"], ["a+"]),
    (["-w", "the"], ["the end"]),
    (["-x", "a\\{2\\}"], ["aa"]),
    (["-x", "a|b"], ["a|b"]),
    (["-i", "a\\|B"], [line for line in LINES if set(line) & set("aAbB")]),
    (["-v", "{"], [line for line in LINES if "{" not in line]),
    (["-c", "\\."], ["2"]),
]


def _gnu_grep():
    """The host's grep when it is GNU grep (whose BRE extensions the rows use), else None."""
    path = shutil.which("grep")
    if path is None:
        return None
    version = subprocess.run([path, "--version"], capture_output=True, text=True).stdout
    return path if "GNU" in version else None


GNU_GREP = _gnu_grep()


@pytest.mark.parametrize("arguments, expected", ROWS, ids=[" ".join(args) for args, _ in ROWS])
def test_grep_reads_a_basic_regular_expression(arguments, expected):
    assert textproc.grep(list(arguments), [LINES]) == expected
    kernel = textproc.grep_block(list(arguments))
    if kernel is not None:  # the bytes face reads the same pattern
        blocks = [("\n".join(LINES) + "\n").encode()]
        produced = b"".join(kernel([blocks])[0]).decode().split("\n")[:-1]
        assert produced == expected


@pytest.mark.skipif(not GNU_GREP, reason="needs the host's GNU grep")
@pytest.mark.parametrize("arguments, expected", ROWS, ids=[" ".join(args) for args, _ in ROWS])
def test_grep_rows_agree_with_the_host_grep(arguments, expected):
    host = subprocess.run(
        [GNU_GREP, *arguments], input="".join(line + "\n" for line in LINES),
        capture_output=True, text=True, env={"LC_ALL": "C"},
    )
    assert host.returncode in (0, 1), host.stderr
    assert host.stdout.split("\n")[:-1] == expected


def test_egrep_and_fgrep_are_grep_e_and_grep_f():
    registry = standard_registry()
    assert registry.run("egrep", ["a{2}"], [LINES]) == textproc.grep(["-E", "a{2}"], [LINES])
    assert registry.run("fgrep", ["a.b"], [LINES]) == ["a.b"]


@pytest.mark.parametrize("pattern", ["\\(a", "a\\)", "[a", "[[:nope:]]", "a\\"])
def test_a_malformed_basic_regular_expression_is_a_command_error(pattern):
    with pytest.raises(CommandError, match="bad pattern"):
        textproc.grep([pattern], [["a"]])


def _grep_patterns(script):
    """(flags, pattern) of every ``grep`` stage of a one-line script."""
    words = shlex.split(script)
    for index, word in enumerate(words):
        if word == "grep":
            flags = []
            for operand in words[index + 1 :]:
                if operand.startswith("-") and operand != "-":
                    flags.append(operand)
                else:
                    yield flags, operand
                    break


def corpus_scripts():
    for benchmark in ONE_LINERS:
        yield benchmark.name, benchmark.script_for_width(2)
    for pipeline in UNIX50_PIPELINES:
        yield "unix50-%02d" % pipeline.index, pipeline.script_for_width(2)


def test_every_corpus_pattern_compiles_unchanged():
    seen = 0
    for name, script in corpus_scripts():
        for flags, pattern in _grep_patterns(script):
            seen += 1
            if "-E" in flags or "-F" in flags:
                continue
            if name == "unix50-33":
                assert pattern == ".{7,}" and textproc.bre_to_python(pattern) == ".\\{7,\\}"
                continue
            assert textproc.bre_to_python(pattern) == pattern, (name, pattern)
    assert seen >= 15
