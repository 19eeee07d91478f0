"""Generated tests for the compiled ``awk`` printer and the counting ``sort``.

``awk``'s ``{print …}`` body is compiled once per (program, ``-F``) into one
comprehension; it is held to the per-line loop it replaced
(``_reference_kernels.awk``) on every row but ``-F ' '``, where the loop split
on single blanks and awk splits like no ``-F`` at all — and to the host's
``LC_ALL=C awk`` on every ASCII row, that one included.

A plain ``sort`` whose prefix repeats itself counts its lines and sorts only
the distinct ones; it is held to ``sorted()`` for ``str`` and ``bytes``
lines, with ``-r`` and ``-u``, on both sides of the sample's threshold.

Seeds are fixed; ``PASH_TEST_SEED`` widens coverage and every failure prints
the seed and the arguments that reproduce it.
"""

import os
import random
import shutil
import subprocess
from collections import Counter

import pytest

import _reference_kernels as reference
from repro.commands import sorting, textproc
from repro.annotations.model import CommandInvocation
from repro.commands.base import CommandError
from repro.engine.channels import encode_block

BASE_SEED = int(os.environ.get("PASH_TEST_SEED", "20210426"))
SEEDS = [BASE_SEED, BASE_SEED + 1]

# ---------------------------------------------------------------------------
# awk
# ---------------------------------------------------------------------------

PROGRAMS = [
    "{print}", "{print $0}", " { print } ", "{print $1}", "{print $2}", "{print $3}", "{print $7}",
    "{print $2, $1}", "{print $2, $0}", "{print $0, $2}", "{print $1,$1}", "{ print $3 , $1 }",
    '{print "x", $1}', '{print $1, "a b", $3}', '{print ""}', '{print "lit"}',
]
SEPARATORS = [[], ["-F", ","], ["-F:"], ["-F", "\t"], ["-F", " "]]
AWK_WORDS = ["a", "bb", "c1", "", " ", "  ", "\t", ",", ",,", ":", "x:y", "p,q", "-"]
#: The rows the ``-F ' '`` fix is about: leading, repeated and trailing blanks,
#: empty fields under ``-F ,``, a field past the last one.
AWK_FIXED_LINES = ["  a  b c", "a b c  ", " \t a\t\tb ", "a,,b,", ",a", "", "   ", "one"]


def awk_inputs(seed):
    rng = random.Random(seed)
    lines = AWK_FIXED_LINES + ["".join(rng.choice(AWK_WORDS) for _ in range(rng.randrange(6))) for _ in range(200)]
    return {
        "ascii": lines,
        "multibyte": [line.replace("a", "é").replace("b", "日") for line in lines],
        "empty": [],
    }


@pytest.mark.parametrize("seed", SEEDS)
def test_the_compiled_printer_equals_the_loop_it_replaced(seed):
    for name, lines in awk_inputs(seed).items():
        for separator in SEPARATORS:
            if separator == ["-F", " "]:
                continue  # the fix: the loop split on single blanks
            for program in PROGRAMS:
                arguments = separator + [program]
                context = f"PASH_TEST_SEED={seed} awk {arguments} input={name!r}"
                assert textproc.awk(list(arguments), [list(lines)]) == reference.awk(
                    list(arguments), [list(lines)]
                ), context


def test_a_blank_separator_splits_like_the_default():
    """POSIX: ``FS=" "`` is default field splitting (runs of blanks, leading ones ignored)."""
    assert textproc.awk(["-F", " ", "{print $2}"], [["  a  b c"]]) == ["b"]
    for program in PROGRAMS:
        lines = AWK_FIXED_LINES
        assert textproc.awk(["-F", " ", program], [lines]) == textproc.awk([program], [lines]), program


def test_unsupported_programs_are_refused():
    for program in ["{print $NF}", "{print length($0)}", "/x/ {print}", "BEGIN {print}"]:
        with pytest.raises(CommandError):
            textproc.awk([program], [["a b"]])
    with pytest.raises(CommandError):
        textproc.awk(["-F", ","], [["a"]])


def test_a_program_is_compiled_once():
    textproc._awk_printer.cache_clear()
    for _ in range(3):
        textproc.awk(["{print $2, $0}"], [["a b"]])
    info = textproc._awk_printer.cache_info()
    assert (info.misses, info.hits) == (1, 2)


@pytest.mark.skipif(shutil.which("awk") is None, reason="requires a host awk")
@pytest.mark.parametrize("seed", SEEDS[:1])
def test_the_compiled_printer_equals_the_host_awk_on_ascii(seed):
    lines = awk_inputs(seed)["ascii"]
    text = "".join(line + "\n" for line in lines).encode("ascii")
    for separator in SEPARATORS:
        for program in PROGRAMS:
            arguments = separator + [program]
            host = subprocess.run(
                ["awk"] + arguments, input=text, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                env=dict(os.environ, LC_ALL="C"),
            )
            assert host.returncode == 0, f"awk {arguments}: {host.stderr!r}"
            ours = textproc.awk(list(arguments), [list(lines)])
            assert encode_block(ours) == host.stdout, f"PASH_TEST_SEED={seed} host awk {arguments}"


# ---------------------------------------------------------------------------
# sort: counting before comparing
# ---------------------------------------------------------------------------

SAMPLE = sorting._DISTINCT_SAMPLE


def repeating(rng, distinct, count, prefix="v"):
    """``count`` lines over exactly ``distinct`` values (each at least once, if room)."""
    values = [f"{prefix}{rng.randrange(10**6):06d}-{index}" for index in range(distinct)]
    lines = values[:count] + [rng.choice(values) for _ in range(count - min(distinct, count))]
    rng.shuffle(lines)
    return lines


def sort_inputs(seed):
    """name -> (lines, whether the sample sends them to the counting path)."""
    rng = random.Random(seed)
    distinct = [f"w{index:05d}" for index in range(3 * SAMPLE)]
    rng.shuffle(distinct)
    under, at = SAMPLE // 2 - 1, SAMPLE // 2
    return {
        "empty": ([], False),
        "one line": (["x"], False),
        "all duplicate": (["same"] * (4 * SAMPLE), True),
        "all distinct": (distinct, False),
        "just under the threshold": (repeating(rng, under, SAMPLE) + repeating(rng, 50, 1000, "t"), True),
        "at the threshold": (repeating(rng, at, SAMPLE) + repeating(rng, 50, 1000, "t"), False),
        "duplicates only after the sample": (distinct[:SAMPLE] + ["late"] * 2000 + distinct[:5], False),
        "a short repeating input": (["b", "a", "b", "b", "a"], True),
        "non-ascii": (repeating(rng, 40, 3000, "é日ß") + ["Z", "z", "É", "é", ""] * 30, True),
        "words with empty lines": ((["the", "", "a", "The", "", "zeta", "é"] * 400), True),
    }


@pytest.mark.parametrize("seed", SEEDS)
def test_counting_sort_equals_sorted(seed, monkeypatch):
    counts = []
    monkeypatch.setattr(sorting, "Counter", lambda lines: counts.append(lines) or Counter(lines))
    for name, (lines, counted) in sort_inputs(seed).items():
        for face in ("str", "bytes"):
            data = lines if face == "str" else [line.encode("utf-8") for line in lines]
            for reverse in (False, True):
                for unique in (False, True):
                    context = f"PASH_TEST_SEED={seed} {face} {name!r} reverse={reverse} unique={unique}"
                    counts.clear()
                    expected = sorted(set(data) if unique else data, reverse=reverse)
                    assert sorting._sorted_lines(list(data), None, reverse, unique) == expected, context
                    assert bool(counts) == counted, context + ": took the other path"


def test_the_commands_count_too():
    """``sort``, ``sort -u``, ``sort -r`` and the block kernel all reach the counting path."""
    lines = ["b", "a", "c"] * 200
    for arguments in ([], ["-u"], ["-r"], ["-ru"]):
        expected = reference.sort_command(list(arguments), [list(lines)])
        assert sorting.sort_command(list(arguments), [list(lines)]) == expected, arguments
        produced = sorting.sort_block(list(arguments))([[encode_block(lines)]])
        assert b"".join(produced[0]) == encode_block(expected), arguments


# ---------------------------------------------------------------------------
# sort -m: GNU's k-way merge of the inputs as they are
# ---------------------------------------------------------------------------

#: name -> the inputs of one ``sort -m``; the unsorted rows are where a
#: re-sort and a merge part ways.
MERGE_INPUTS = {
    "unsorted pair": [["b", "a", "c"], ["a", "d", "b"]],
    "sorted pair": [["a", "c", "e"], ["b", "c", "d"]],
    "single unsorted": [["z", "a", "m", "a"]],
    "single sorted": [["a", "b", "b", "c"]],
    "one empty": [[], ["b", "a"]],
    "three with ties": [["a", "b", "b"], ["b", "a"], ["", "b", "c"]],
    "numbers": [["10", "2", "b", "1.5"], ["1", "3 x", "a", "2"], ["-1", "02", "2"]],
    "duplicates across": [["a", "a", "b"], ["a", "b", "c"], ["c", "b"]],
}
MERGE_FLAGS = [[], ["-r"], ["-u"], ["-ru"], ["-n"], ["-rn"]]


@pytest.mark.skipif(shutil.which("sort") is None, reason="requires a host sort")
@pytest.mark.parametrize("flags", MERGE_FLAGS, ids=" ".join)
def test_sort_m_merges_like_the_host(flags, tmp_path):
    for name, streams in MERGE_INPUTS.items():
        if "-n" in "".join(flags) and "-u" in "".join(flags):
            continue  # ``-nu`` keys on the number alone in GNU, on the text here (sort, not merge)
        paths = []
        for index, lines in enumerate(streams):
            path = tmp_path / f"in{index}.txt"
            path.write_text("".join(line + "\n" for line in lines))
            paths.append(str(path))
        host = subprocess.run(
            ["sort", "-m", *flags, *paths], stdout=subprocess.PIPE, check=True,
            env=dict(os.environ, LC_ALL="C"),
        )
        ours = sorting.sort_command(["-m", *flags], [list(lines) for lines in streams])
        assert encode_block(ours) == host.stdout, f"sort -m {flags} over {name!r}"


def test_sort_m_is_not_parallelized():
    """Merging each lane's part is not merging the inputs: ``-m`` gets no copies."""
    from repro.annotations.classes import ParallelizabilityClass
    from repro.annotations.library import standard_library

    library = standard_library()
    for arguments in (["-m", "a", "b"], ["-mr", "a"], ["-r", "-m"]):
        assert library.classify("sort", arguments) is ParallelizabilityClass.NON_PARALLELIZABLE_PURE
    assert library.classify("sort", ["-r", "a"]) is ParallelizabilityClass.PARALLELIZABLE_PURE
    assert library.aggregator_for("sort") == "merge_sort"
    # Built from the DSL, the record now carries sort's value flags: ``2`` is no file.
    assert CommandInvocation("sort", ["-k", "2", "a"]).argv.operands == ("a",)
    assert sorting.sort_block(["-m"]) is None
