"""Generated tests pinning every block kernel to its ``str`` twin.

The rule for adding a block kernel (docs/ARCHITECTURE.md, "Data plane") is
that it ships with its row in ``KERNELS`` below: the flag sets it accepts —
on which it must equal the ``str`` function on adversarial inputs — and the
flag sets it must refuse.  The sort/merge combiner law
``merge_sort(sort(x1), sort(x2)) == sort(x1 ++ x2)`` (KumQuat's oracle) is
what makes the run-merge a legal replacement for the k-way heap merge.

Seeds are fixed; ``PASH_TEST_SEED`` widens coverage and every failure prints
the seed that reproduces it.
"""

import os
import random

import pytest

from repro.commands import misc, sorting, standard_registry, textproc
from repro.commands.base import CommandError, CommandImplementation
from repro.dfg.nodes import AggregatorNode, CommandNode, FusedStage, SplitNode
from repro.engine.channels import decode_block, iter_encoded_chunks
from repro.runtime import aggregators
from repro.runtime.executor import _twin, block_kernel
from repro.runtime.split import split_block, split_stream

BASE_SEED = int(os.environ.get("PASH_TEST_SEED", "20210426"))
SEEDS = [BASE_SEED + offset for offset in range(6)]
WORDS = ["apple", "Apple", "APPLE", "b", "B", "10", "9", "-3", "2.5", "é", "É", "日本", "z z", ""]


def random_lines(rng: random.Random, count: int):
    """Lines with heavy key ties, mixed case, numbers and multibyte text."""
    return [
        " ".join(rng.choice(WORDS) for _ in range(rng.choice([0, 1, 1, 2, 3])))
        for _ in range(count)
    ]


def inputs_for(seed: int):
    rng = random.Random(seed)
    return {
        "empty stream": [],
        "empty lines": ["", "", ""],
        "ties": random_lines(rng, 400),
        "one long line": ["x" * (1 << 20)],
        "multibyte": ["é", "e", "z", "É", "日本", "ÿ", "Ā", "~"],
        # Bytes that are not UTF-8, as the codec escapes them: every kernel's
        # non-ASCII fallback meets them.  No valid multibyte character sits
        # beside one, where ``sort``'s byte order and code-point order part.
        # Block edges: at ``run_kernel``'s 64-byte blocks each 15-character
        # line is a block's first, middle or last line.
        "needle at block edges": [
            "%s %09d" % ("apple" if index % 4 in (0, 3) else "pear.", index) for index in range(40)
        ],
        "needle twice in a line": ["apple apple z", "z apple b apple", "b", "appleapple", "z z apple"] * 9,
        "needle on every line": ["apple", "Apple apple", " apple", "b apple b"] * 30,
        "needle on no line": ["pear z", "b", "z z", "APPL E"] * 30,
        "a block of empty lines": [""] * 200,
        "escaped bytes": decode_block(
            b"caf\xe9\nCAF\xe9 x\ncaf\n\xff\xfe\na\x80b\nab\xe6\x97\n\xe9\nz \xc3\nZ\n\xe9\n b\xa0p p\n"
        ),
    }


def run_kernel(kernel, streams, chunk_size=64):
    """Feed ``str`` streams to a block kernel; decode what it produces."""
    blocks = [list(iter_encoded_chunks(stream, chunk_size)) for stream in streams]
    return [decode_block(b"".join(produced)) for produced in kernel(blocks)]


#: command -> (factory, str function, accepted flag sets, refused flag sets)
KERNELS = {
    "tr": (
        textproc.tr_block,
        textproc.tr,
        [["A-Z", "a-z"], ["a-z", "A-Z"], ["-d", "aeiou"], ["[:upper:]", "[:lower:]"],
         ["abc", "x"], ["aab", "xyz"], ["-d", "[:punct:]"], [" ", "_"], ["a-z"],
         [" ", "\\n"], ["-s", "a"], ["-s", " "], ["-s", "\\n"], ["-s", "a-z\\n"], ["-s", "[:space:]"],
         ["-cs", "A-Za-z", "\\n"], ["-cs", "a-z", "xy"], ["-cd", "a-z"], ["-cd", "[:alnum:]"],
         ["-ds", "a", "\\n"], ["-s", "a-z", "A-Z"], ["-cs", "a-z"], ["-c", "-s", "]^\\\\-", "-"]],
        [["-c", "a", "b"], ["-d", "\\n"], ["\\n", " "], ["é", "e"], ["a", "é"], ["-d", "é"],
         ["-d", "[:space:]"], ["-cs", "é", "\\n"], ["-s", "é"]],
    ),
    "grep": (
        textproc.grep_block,
        textproc.grep,
        [["apple"], ["-v", "apple"], ["-i", "apple"], ["-iv", "b"], ["-x", "b"], ["-w", "z"],
         ["-F", "2.5"], ["-E", "^(b|B)$"], ["[^a]"], ["^.$"], ["-i", "."], ["^$"], ["-v", "^$"],
         ["-c", "apple"], ["-vc", "apple"], ["-ic", "b"], ["-c", "[^a]"], ["-x", "apple"], ["-iw", "apple"],
         ["-F", "z z"], ["p.*e"], ["-v", "p.*e"], ["-E", "a|z"], [""], ["-v", ""], ["-e", "apple"], ["-ve", "p.*e"]],
        [["-o", "p+"], ["-n", "apple"], ["é"], ["\\s"], ["[^\\S]"], ["-A", "1", "x"], []],
    ),
    "cut": (
        textproc.cut_block,
        textproc.cut,
        [["-d", " ", "-f", "1"], ["-d", " ", "-f", "2-"], ["-d", " ", "-f", "1,3"], ["-f", "1"],
         ["-d", "p", "-f", "2,3"], ["-d", "é", "-f", "1"], ["-d", "é", "-f", "1-2"], ["-c", "1-3"], ["-c", "2,4-"], ["-c1"],
         ["-d", " ", "-f", "2"], ["-d", " ", "-f", "3"], ["-d", " ", "-f", "1-2"], ["-d", "p", "-f", "2-3"],
         ["-s", "-d", " ", "-f", "1"], ["-s", "-d", " ", "-f", "2-"], ["-sd", "p", "-f", "1,2"],
         ["--complement", "-d", " ", "-f", "1"], ["--complement", "-c", "2-3"]],
        [],
    ),
    "sort": (
        sorting.sort_block,
        sorting.sort_command,
        [[], ["-r"], ["-u"], ["-ru"], ["-r", "-u"]],
        [["-m"], ["-mr"], ["-n"], ["-k2"], ["-k", "2"], ["-f"], ["-d"], ["-rn"], ["-b"], ["-t", ","], ["file"]],
    ),
    "uniq": (
        sorting.uniq_block,
        sorting.uniq,
        [[], ["-c"], ["-d"], ["-cd"], ["-c", "-d"]],
        [["-i"], ["-ci"], ["-u"], ["-f", "1"], ["file"]],
    ),
    "head": (
        misc.head_block,
        misc.head,
        [[], ["-n", "1"], ["-n", "0"], ["-n3"], ["-n", "100000"]],
        [],
    ),
    "wc": (
        misc.wc_block,
        misc.wc,
        [["-l"]],
        [[], ["-w"], ["-c"], ["-lw"], ["-m"], ["-l", "file"]],
    ),
}


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("command", sorted(KERNELS))
def test_block_kernel_equals_its_str_twin(command, seed):
    factory, function, accepted, refused = KERNELS[command]
    for arguments in refused:
        try:
            kernel = factory(list(arguments))
        except CommandError:  # an option outside the spec: refused on both faces, as the executor reads it
            kernel = None
        assert kernel is None, f"{command} {arguments} must refuse"
    for arguments in accepted:
        kernel = factory(list(arguments))
        assert kernel is not None, f"{command} {arguments} must have a block kernel"
        for name, lines in inputs_for(seed).items():
            context = f"seed={seed} {command} {arguments} input={name}"
            assert run_kernel(kernel, [lines]) == [function(list(arguments), [list(lines)])], context
            halves = [lines[: len(lines) // 2], lines[len(lines) // 2 :]]
            expected = function(list(arguments), [list(half) for half in halves])
            assert run_kernel(kernel, halves) == [expected], context


@pytest.mark.parametrize(
    "arguments", [["apple"], ["-v", "apple"], ["-c", "apple"], ["-i", "APPLE"], ["-v", "p.*e"], ["-F", "-v", "z"]]
)
def test_grep_scan_hands_dense_hits_to_the_line_path(arguments):
    """In one 64 KB block the hits turn dense part way: the block scan finds
    the sparse ones, then hands the rest of the block to the per-line path."""
    lines = ["pear %d" % index for index in range(300)] + ["apple %d z" % index for index in range(300)]
    kernel = textproc.grep_block(arguments)
    for data in (lines, lines[::-1]):
        assert run_kernel(kernel, [data], chunk_size=1 << 16) == [textproc.grep(arguments, [data])]


def test_every_registered_block_kernel_has_a_row():
    registry = standard_registry()
    with_kernel = {
        name for name in registry.names() if registry.lookup(name).block is not None
    }
    assert with_kernel == set(KERNELS)
    assert set(aggregators.BLOCK_AGGREGATORS) == {"merge_sort"}  # covered by the law below


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("parts", [1, 2, 3, 7])
def test_split_block_equals_split_stream(parts, seed):
    for name, lines in inputs_for(seed).items():
        context = f"seed={seed} parts={parts} input={name}"
        assert run_kernel(split_block(parts), [lines]) == split_stream(lines, parts), context


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize(
    "arguments", [[], ["-r"], ["-u"], ["-n"], ["-k2"], ["-f"], ["-rn"], ["-fu"], ["-k2", "-r"]]
)
@pytest.mark.parametrize("runs", [1, 2, 5])
def test_merge_sort_combiner_law(runs, arguments, seed):
    """merge_sort(sort(x1), ..., sort(xk)) == sort(x1 ++ ... ++ xk), stably."""
    rng = random.Random(seed * 31 + runs)
    lines = random_lines(rng, 300)
    cuts = sorted(rng.randrange(len(lines) + 1) for _ in range(runs - 1))
    parts = [lines[low:high] for low, high in zip([0] + cuts, cuts + [len(lines)])]
    context = f"seed={seed} runs={runs} sort {arguments}"

    whole = sorting.sort_command(list(arguments), [list(lines)])
    sorted_parts = [sorting.sort_command(list(arguments), [list(part)]) for part in parts]
    assert aggregators.merge_sort(sorted_parts, list(arguments)) == whole, context
    # A user-written `sort -m` (a k-way merge, not a sort) agrees on sorted runs.
    assert sorting.sort_command(list(arguments) + ["-m"], sorted_parts) == whole, context

    kernel = aggregators.BLOCK_AGGREGATORS["merge_sort"](list(arguments))
    if kernel is not None:
        assert run_kernel(kernel, sorted_parts) == [whole], context
    else:
        assert set("".join(arguments)) & set("nkfd"), context


def test_block_kernel_lookup_follows_the_node_and_the_registry():
    """Every node has a kernel; the twin is the registry's, composed across a fused stage.

    A node without a twin (``_twin`` is None) runs through the ``str`` adapter;
    that the adapter equals ``evaluate_node`` is the law in
    ``tests/engine/test_node_kernels.py``.
    """
    registry = standard_registry()
    tr = CommandNode(name="tr", arguments=["A-Z", "a-z"])
    sed = CommandNode(name="sed", arguments=["s/a/b/"])
    assert _twin(tr, registry) is not None
    assert _twin(sed, registry) is None
    assert _twin(FusedStage(nodes=[tr, tr]), registry) is not None
    assert _twin(FusedStage(nodes=[tr, sed]), registry) is None  # every member
    # pash-bench grep_stream's fused stage never decodes: every member has a kernel.
    grep = CommandNode(name="grep", arguments=["-v", "lights"])
    cut = CommandNode(name="cut", arguments=["-d", " ", "-f", "1-4"])
    assert _twin(FusedStage(nodes=[tr, grep, cut]), registry) is not None
    chain = block_kernel(FusedStage(nodes=[tr, grep, cut]), registry)
    assert run_kernel(chain, [["The LIGHTS are on now ok", "A b C d E f", "É x"]]) == [["a b c d", "É x"]]
    # Arguments a factory cannot take leave the error to the str face, where it is reported.
    for name, arguments in [("grep", ["-E", "("]), ("grep", ["\\("]), ("grep", ["-E", "(?u)x"]), ("cut", [])]:
        assert _twin(CommandNode(name=name, arguments=arguments), registry) is None
    assert _twin(AggregatorNode(aggregator="merge_sort"), registry) is not None
    assert _twin(AggregatorNode(aggregator="merge_sort", command_arguments=["-n"]), registry) is None
    assert _twin(AggregatorNode(aggregator="merge_uniq"), registry) is None
    assert _twin(SplitNode(inputs=[0], outputs=[1, 2]), registry) is not None
    assert _twin(SplitNode(inputs=[0, 3], outputs=[1, 2]), registry) is None  # str path raises

    # A user-registered replacement without ``block`` has no twin and is run as registered.
    custom = registry.copy()
    custom.register(CommandImplementation("tr", lambda arguments, inputs: ["custom"]))
    assert _twin(tr, custom) is None
    assert run_kernel(block_kernel(tr, custom), [["x"]]) == [["custom"]]

    fused = block_kernel(FusedStage(nodes=[tr, CommandNode(name="tr", arguments=["-d", "l"])]), registry)
    assert run_kernel(fused, [["HeLLo", "World"]]) == [["heo", "word"]]
