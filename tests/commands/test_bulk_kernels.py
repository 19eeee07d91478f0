"""Generated tests pinning the bulk kernels to the loops they replaced.

Every command whose per-character or per-line Python loop became a bulk
operation (``translate``, one compiled ``sub``, ``groupby``, ``zip_longest``,
``filter``) is run, for every flag set below and every adversarial input,
against three oracles:

* the old implementation, kept verbatim in ``_reference_kernels.py``;
* its own block kernel over a random partition of the input into line blocks
  (when the flags have one) — the law the parallel engine relies on;
* the host's ``LC_ALL=C`` coreutils, on the rows of ``HOST_ROWS`` and the
  ASCII inputs, where ``sh`` and the tool exist.

The ratio tests at the end are robust to the box's speed: each compares a
rewritten kernel with a sibling that never looped, over the same lines.

Seeds are fixed; ``PASH_TEST_SEED`` widens coverage and every failure prints
the seed and the arguments that reproduce it.
"""

import os
import random
import shutil
import subprocess
import time

import pytest

import _reference_kernels as reference
from repro.commands import misc, sorting, standard_registry, textproc
from repro.engine.channels import decode_block, encode_block
from repro.workloads.text import text_lines

BASE_SEED = int(os.environ.get("PASH_TEST_SEED", "20210426"))
SEEDS = [BASE_SEED, BASE_SEED + 1]
WORDS = ["apple", "Apple", "APPLE", "b", "B", "10", "9", "-3", "2.5", "x]y", "a^b", "c-d", "e\\f",
         "  ", "!!", "_", "lights", "the"]
UNICODE_WORDS = ["é", "É", "日本", "ÿ", "naïve", "Ünï", "ß"]

TR_FLAGS = (
    [["A-Z", "a-z"], ["a-z", "A-Z"], ["abc", "x"], ["aab", "xyz"], [" ", "\\n"], ["\\n", " "],
     ["-d", "aeiou"], ["-d", "\\n"], ["-d", "a-z\\n"],
     ["-s", " "], ["-s", "\\n"], ["-s", "a-z\\n"], ["-s", "lp"], ["-s", "a-c", "x"], ["-s", " ", "\\n"],
     ["-c", "a-z", "_"], ["-c", "a-z\\n", "_"], ["-cs", "A-Za-z", "\\n"], ["-cs", "a-z", "xy"], ["-cs", "a-z"],
     ["-cd", "a-z"], ["-cd", "a-z\\n"], ["-ds", "a", "p"], ["-ds", "a", "\\n"], ["-c", "-d", "-s", "a-z", "p"],
     ["a-z"], ["-s"], [],
     # sets that hold every character special to a regex class
     ["-d", "]^\\\\-"], ["-s", "]^\\\\-"], ["-cs", "]^\\\\-", "x"], ["-cd", "]^\\\\-"], ["^", "]"], ["\\\\", "-"],
     # non-ASCII sets: no bytes face, same semantics
     ["é", "e"], ["a", "é"], ["-s", "éa"], ["-cs", "é日", "\\n"], ["-d", "日"], ["-cd", "éa-z"]]
    + [flags + [name] + tail for name in textproc._TR_CLASSES
       for flags, tail in ([["-d"], []], [["-s"], []], [["-cs"], ["\\n"]], [["-cd"], []], [[], ["_"]])]
)

#: command -> (new function, reference function, block factory or None, flag sets)
COMMANDS = {
    "tr": (textproc.tr, reference.tr, textproc.tr_block, TR_FLAGS),
    "uniq": (sorting.uniq, reference.uniq, sorting.uniq_block,
             [[], ["-c"], ["-d"], ["-i"], ["-ci"], ["-cd"], ["-di"], ["-c", "-d", "-i"]]),
    "wc": (misc.wc, reference.wc, misc.wc_block,
           [[], ["-l"], ["-w"], ["-c"], ["-m"], ["-lw"], ["-lc"], ["-w", "-c"], ["-lwc"]]),
    "fold": (textproc.fold, reference.fold, None, [[], ["-w", "1"], ["-w", "7"], ["-w40"], ["-w", "80"]]),
    "nl": (sorting.nl, reference.nl, None, [[]]),
    "paste": (sorting.paste, reference.paste, None, [[], ["-d", ","], ["-s"], ["-s", "-d", " "], ["-d", "é"]]),
    # Keys, folding and ``-u`` by key follow GNU now (ties compare whole lines,
    # fields keep their leading blanks): those rows are held to the host below.
    "sort": (sorting.sort_command, reference.sort_command, sorting.sort_block,
             [[], ["-r"], ["-u"], ["-m"], ["-n"], ["-rn"]]),
    "grep": (textproc.grep, reference.grep, textproc.grep_block,
             [["apple"], ["-v", "apple"], ["-i", "apple"], ["-iv", "b"], ["-x", "b"], ["-w", "the"],
              ["-F", "2.5"], ["-F", "x]y"], ["-E", "^(b|B)$"], ["[^a]"], ["^.$"], ["^$"], ["-c", "p"],
              ["-vc", "p"], ["-E", "-o", "p+"], ["-io", "P"], ["\\s"], ["é"], ["-i", "É"]]),
    "cut": (textproc.cut, reference.cut, textproc.cut_block,
            [["-d", " ", "-f", "1"], ["-d", " ", "-f", "2-"], ["-d", " ", "-f", "1,3"], ["-d", " ", "-f", "3,1"],
             ["-f", "1"], ["-d", "p", "-f", "2,3"], ["-d", "é", "-f", "1"], ["-c", "1-3"], ["-c", "2,4-"],
             ["-c1"], ["-d", '" "', "-f1-2"]]),
    "head": (misc.head, reference.head, misc.head_block, [[], ["-n", "1"], ["-n", "0"], ["-n3"], ["-n", "999999"]]),
}

#: (command, arguments) rows whose semantics equal coreutils on ASCII input
#: (our ``tr -c`` keeps newlines and ``wc`` pads several columns: those rows
#: have no host leg).
HOST_ROWS = [
    ("tr", ["A-Z", "a-z"]), ("tr", [" ", "\\n"]), ("tr", ["-d", "aeiou"]), ("tr", ["-s", " "]),
    ("tr", ["-s", "\\n"]), ("tr", ["-s", "lp"]), ("tr", ["-s", "a-c", "x"]), ("tr", ["-cs", "A-Za-z", "\\n"]),
    ("tr", ["-cd", "a-z\\n"]), ("tr", ["-ds", "a", "p"]), ("tr", ["-d", "[:punct:]"]), ("tr", ["-s", "[:space:]"]),
    ("tr", ["-cs", "[:alnum:]", "\\n"]), ("tr", ["-d", "[:digit:]"]), ("tr", ["-s", "[:alpha:]"]),
    ("tr", ["-d", "]^\\\\-"]), ("tr", ["-s", "]^\\\\-"]),
    ("uniq", []), ("uniq", ["-c"]), ("uniq", ["-d"]), ("uniq", ["-i"]), ("uniq", ["-cd"]),
    ("wc", ["-l"]), ("fold", ["-w", "1"]), ("fold", ["-w", "7"]), ("fold", ["-w", "80"]),
    ("uniq", ["-f", "1"]), ("uniq", ["-s", "2"]), ("uniq", ["-w", "3"]), ("uniq", ["-c", "-f", "1", "-s", "1"]),
    ("sort", []), ("sort", ["-r"]), ("sort", ["-n"]), ("sort", ["-rn"]), ("sort", ["-u"]), ("sort", ["-nu"]),
    ("sort", ["-nr", "-u"]), ("sort", ["-k2"]), ("sort", ["-k", "2n"]), ("sort", ["-k2", "-r"]),
    ("sort", ["-k", "2,2nr"]), ("sort", ["-k9"]), ("sort", ["-f"]), ("sort", ["-fu"]), ("sort", ["-d"]),
    ("sort", ["-df"]), ("sort", ["-dfr"]), ("sort", ["-fn", "-k2"]), ("sort", ["-s", "-k2"]),
    ("sort", ["-t", " ", "-k", "2,3"]), ("sort", ["-b", "-k2"]), ("sort", ["-k", "1,1", "-k", "2r"]),
    ("grep", ["apple"]), ("grep", ["-v", "apple"]), ("grep", ["-i", "apple"]), ("grep", ["-x", "b"]),
    ("grep", ["-F", "2.5"]), ("grep", ["-c", "p"]),
    ("cut", ["-d", " ", "-f", "1"]), ("cut", ["-d", " ", "-f", "2-"]), ("cut", ["-d", " ", "-f", "1,3"]),
    ("cut", ["-c", "1-3"]), ("cut", ["-c", "2,4-"]),
    ("head", ["-n", "1"]), ("head", ["-n3"]), ("head", []),
]


def random_lines(rng, count, words):
    return [" ".join(rng.choice(words) for _ in range(rng.choice([0, 1, 1, 2, 3, 5]))) for _ in range(count)]


def inputs_for(seed):
    """name -> lines: the adversarial inputs every command meets."""
    rng = random.Random(seed)
    return {
        "empty": [],
        "one line": ["Hello, World!  the end"],
        "one empty line": [""],
        "no match": ["12345 67890", "0", "31337"],
        "all duplicate": ["same line"] * 40,
        "only squeezable": ["   ", "", "", "  ", "!!", "\t", "", ""],
        "leading and trailing blanks": ["", "", "  a  b", "", "c ", ""],
        "ties": random_lines(rng, 300, WORDS),
        "sorted ties": sorted(random_lines(rng, 300, WORDS)),
        "multibyte": random_lines(rng, 120, WORDS + UNICODE_WORDS),
        "text": text_lines(60, seed=seed),
        "a long line": ["ab  c," * (1 << 12)],
    }


def partitions(rng, lines):
    """The lines as a random sequence of line blocks (some of them empty)."""
    cuts = sorted(rng.randrange(len(lines) + 1) for _ in range(rng.choice([0, 1, 2, 5, 11])))
    return [encode_block(lines[low:high]) for low, high in zip([0] + cuts, cuts + [len(lines)])]


def check_block_kernel(name, factory, function, arguments, lines, rng, context):
    kernel = factory(list(arguments))
    if kernel is None:
        return
    expected = function(list(arguments), [list(lines)])
    produced = kernel([partitions(rng, lines)])
    assert len(produced) == 1, context
    assert decode_block(b"".join(produced[0])) == expected, "block kernel, one stream: " + context
    middle = rng.randrange(len(lines) + 1)
    halves = [lines[:middle], lines[middle:]]
    expected = function(list(arguments), [list(half) for half in halves])
    produced = factory(list(arguments))([partitions(rng, half) for half in halves])
    assert decode_block(b"".join(produced[0])) == expected, "block kernel, two streams: " + context


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_bulk_kernel_equals_the_loop_it_replaced(command, seed):
    function, oracle, factory, flag_sets = COMMANDS[command]
    rng = random.Random(seed * 101 + len(command))
    for name, lines in inputs_for(seed).items():
        for arguments in flag_sets:
            context = f"PASH_TEST_SEED={seed} {command} {arguments} input={name!r}"
            streams = [list(lines)]
            if command == "paste":
                streams = [list(lines), list(lines[: len(lines) // 2]), ["x"]][: rng.choice([1, 2, 3])]
            assert function(list(arguments), [list(s) for s in streams]) == oracle(
                list(arguments), [list(s) for s in streams]
            ), context
            if factory is not None:
                check_block_kernel(command, factory, function, arguments, lines, rng, context)


def test_a_megabyte_line_goes_through_every_rewritten_kernel():
    line = "Ab, c  d!" * (1 << 17)  # 1.1 MiB, one line
    rows = [
        ("tr", ["-cs", "A-Za-z", "\\n"]), ("tr", ["-s", " "]), ("tr", ["-cd", "a-z"]), ("uniq", ["-c"]),
        ("wc", []), ("fold", ["-w", "80"]), ("nl", []), ("paste", ["-s"]), ("sort", ["-n"]), ("grep", ["-v", "x"]),
        ("cut", ["-d", ",", "-f", "2"]), ("cut", ["-c", "5-9"]), ("head", []),
    ]
    rng = random.Random(BASE_SEED)
    for command, arguments in rows:
        function, oracle, factory, _ = COMMANDS[command]
        context = f"{command} {arguments} over one 1 MiB line"
        assert function(list(arguments), [[line, "", line]]) == oracle(list(arguments), [[line, "", line]]), context
        if factory is not None:
            check_block_kernel(command, factory, function, arguments, [line, "", line], rng, context)


def test_every_bulk_command_is_the_registered_one():
    registry = standard_registry()
    for command, (function, _, factory, _) in COMMANDS.items():
        implementation = registry.lookup(command)
        assert implementation.function is function and implementation.block is factory, command


@pytest.mark.skipif(shutil.which("sh") is None, reason="requires a POSIX shell")
@pytest.mark.parametrize("seed", SEEDS[:1])
def test_bulk_kernels_equal_the_host_coreutils_on_ascii(seed):
    checked = 0
    for name, lines in inputs_for(seed).items():
        if name == "multibyte" or not lines:
            continue  # the host leg is LC_ALL=C over ASCII; an empty stream has no host form
        text = "".join(line + "\n" for line in lines).encode("ascii")
        for command, arguments in HOST_ROWS:
            if shutil.which(command) is None:
                continue
            host = subprocess.run(
                [command] + arguments, input=text, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                env=dict(os.environ, LC_ALL="C"),
            )
            if command == "grep" and host.returncode == 1:
                host.returncode = 0  # no line selected
            assert host.returncode == 0, f"{command} {arguments}: {host.stderr!r}"
            ours = COMMANDS[command][0](list(arguments), [list(lines)])
            context = f"PASH_TEST_SEED={seed} host {command} {arguments} input={name!r}"
            assert encode_block(ours) == host.stdout, context
            checked += 1
    assert checked or not shutil.which("tr")


# ---------------------------------------------------------------------------
# No loop comes back: ratios against a sibling that never had one
# ---------------------------------------------------------------------------


def best_seconds(function, arguments, lines, repeats=3):
    samples = []
    for _ in range(repeats):
        started = time.perf_counter()
        function(list(arguments), [lines])
        samples.append(time.perf_counter() - started)
    return min(samples)


@pytest.mark.parametrize(
    "command, arguments, sibling, sibling_arguments, bound",
    [
        # Both make the same ~800 k output lines; the character loop read 6.2x.
        (textproc.tr, ["-cs", "A-Za-z", "\\n"], textproc.tr, [" ", "\\n"], 3.0),
        # One replace pass against one translate pass; the loop read 11x.
        (textproc.tr, ["-s", " "], textproc.tr, ["A-Z", "a-z"], 3.0),
        # Counting lines must not count the words and characters it never prints.
        (misc.wc, ["-l"], misc.wc, [], 0.2),
    ],
)
def test_no_per_character_loop_comes_back(command, arguments, sibling, sibling_arguments, bound):
    lines = text_lines(100_000)
    for attempt in range(3):  # a noisy neighbour can spoil one sample, not three
        ratio = best_seconds(command, arguments, lines) / best_seconds(sibling, sibling_arguments, lines)
        if ratio <= bound:
            return
    pytest.fail(f"{arguments} takes {ratio:.1f}x {sibling_arguments}; the bound is {bound}x")
