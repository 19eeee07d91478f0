"""Generated law: every node runs as a block kernel, equal to ``evaluate_node``.

A worker runs each node one way — ``block_kernel(node)`` over its sources'
line blocks, written to its sinks — whether the kernel is a cat, a relay, a
bytes twin or the ``str`` adapter.  This holds :func:`run_node` over stored
inputs to the interpreter's :func:`evaluate_node` (the same bytes out, or the
same error raised) for every distinct node of the pash-bench corpus plans at
width 2, plus the kinds those plans lack: a stateless command without a
twin, a mixed fused stage, a blocking relay, every aggregator, a three-way
split, a replicated command, a refused flag and arguments a twin's
factory refuses (the adapter reports them).  The inputs are the edges a
data plane must survive: an empty stream, no final newline, a lone ``\\351``,
a NUL, CRLF line ends, a 1 MB line and needles across 64-byte block edges,
read in 64-byte chunks.

Seeds are fixed so CI is deterministic; ``PASH_TEST_SEED`` widens coverage
(the ``fuzz-smoke`` CI step passes the run number) and every failure message
carries the seed that reproduces it.
"""

import importlib.util
import os
import random
import shutil
from pathlib import Path

import pytest

from repro import api
from repro.annotations.classes import ParallelizabilityClass
from repro.api import PashConfig, StreamingConfig
from repro.commands import standard_registry
from repro.dfg.nodes import AggregatorNode, CatNode, CommandNode, FusedStage, RelayNode, SplitNode
from repro.engine.channels import StoredStream, decode_block, encode_block
from repro.engine.metrics import NodeMetrics
from repro.engine.workers import InputPort, OutputPort, WorkerPlan, _write_outputs, run_node
from repro.runtime.aggregators import AGGREGATORS
from repro.runtime.executor import block_kernel, evaluate_node

BASE_SEED = int(os.environ.get("PASH_TEST_SEED", "20210426"))
SEEDS = [BASE_SEED + offset for offset in range(2)]
REGISTRY = standard_registry()
ROOT = Path(__file__).resolve().parents[2]

#: Words the corpus patterns look for, and what sorts and counts see.
WORDS = ["light", "lights", "dark", "signal", "kernel", "unix", "Unix", "maximum", "the", "The",
         "999", "5", "10", "-3", "2.5", "/usr/bin/x", "a", "b", "B", "é", "日本", "x,y", "", "  "]
NEEDLES = [b"lights", b"light", b"dark", b"signal", b"the", b"999", b"5"]
S = ParallelizabilityClass.STATELESS


def corpus_scripts():
    spec = importlib.util.spec_from_file_location("corpus", ROOT / "benchmarks" / "e2e" / "corpus.py")
    corpus = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(corpus)
    # ... and the sort_cpu and grep_stream pipelines.
    return [script for _, script in corpus.SCRIPTS] + [
        "cat F0.txt F1.txt | tr A-Z a-z | sort > out.txt",
        "cat F.txt | tr A-Z a-z | grep -v lights | cut -d ' ' -f 1-4 > out.txt",
    ]


def extra_nodes():
    """The node kinds the corpus plans do not hold."""
    tr, sed = ("tr", ["a-z", "A-Z"]), ("sed", ["s/a/b/"])
    nodes = [
        CommandNode(name="sed", arguments=["s/a/b/"], parallelizability_class=S, inputs=[0], outputs=[1]),
        CommandNode(name="fold", arguments=["-w", "3"], parallelizability_class=S, inputs=[0], outputs=[1]),
        CommandNode(name="grep", arguments=["-w", "light"], parallelizability_class=S, inputs=[0], outputs=[1]),
        CommandNode(name="grep", arguments=["-A", "1", "x"], parallelizability_class=S, inputs=[0], outputs=[1]),
        CommandNode(name="grep", arguments=["-E", "("], parallelizability_class=S, inputs=[0], outputs=[1]),
        CommandNode(name="cut", parallelizability_class=S, inputs=[0], outputs=[1]),
        CommandNode(name="sort", arguments=["-n", "-o", "x"], inputs=[0], outputs=[1]),
        CommandNode(name="tr", arguments=["A-Z", "a-z"], parallelizability_class=S, inputs=[0], outputs=[1, 2]),
        CommandNode(name="sort", arguments=["-n"], inputs=[0], outputs=[1, 2]),
        CommandNode(name="md5sum", inputs=[0], outputs=[1]),
        FusedStage(nodes=[CommandNode(name=name, arguments=arguments, parallelizability_class=S)
                          for name, arguments in (tr, sed, tr)], inputs=[0], outputs=[1]),
        RelayNode(blocking=True, inputs=[0], outputs=[1]),
        RelayNode(eager=False, inputs=[0], outputs=[1]),
        CatNode(inputs=[0, 1, 2], outputs=[3]),
        SplitNode(inputs=[0], outputs=[1, 2, 3]),
        SplitNode(inputs=[0, 1], outputs=[2, 3]),
    ]
    arguments = {"merge_head": ["-n", "3"], "merge_tail": ["-n", "2"], "squeeze_concat": ["-s", " "],
                 "merge_wc": ["-l"], "merge_uniq": ["-c"], "merge_sort": ["-r"]}
    for name in sorted(AGGREGATORS):
        nodes.append(AggregatorNode(aggregator=name, command_arguments=arguments.get(name, []),
                                    inputs=[0, 1], outputs=[2]))
    nodes.append(AggregatorNode(aggregator="merge_sort", command_arguments=["-rn"], inputs=[0, 1], outputs=[2]))
    return nodes


def law_nodes():
    nodes = {}
    for script in corpus_scripts():
        for graph in api.compile(script, PashConfig.paper_default(2)).optimized_graphs:
            for node in graph.nodes.values():
                nodes.setdefault((node.kind, node.label(), len(node.inputs), len(node.outputs)), node)
    for node in extra_nodes():
        nodes[(node.kind, node.label(), len(node.inputs), len(node.outputs), "extra")] = node
    return nodes


NODES = law_nodes()


def random_text(rng, lines, ending=b"\n"):
    return b"".join(
        " ".join(rng.choice(WORDS) for _ in range(rng.randint(0, 6))).encode() + ending for _ in range(lines)
    )


def needles_at_block_edges(rng):
    """Lines that put each needle across (or just beside) a 64-byte block edge."""
    out = bytearray()
    for needle in NEEDLES * 3:
        shift = rng.randint(-2, len(needle) + 1)
        pad = (64 - len(out) % 64 - shift - 1) % 64
        out += b"p" * pad + b" " + needle + b" " + rng.choice([b"", b"x", b"dark"]) + b"\n"
    return bytes(out)


def payloads(case, seed):
    """The stream fed to a node's first input, by case name."""
    rng = random.Random(seed)
    body = random_text(rng, 60)
    return {
        "empty": b"",
        "1 MB line": b"light " + b"x" * (1 << 20) + b"\n" + random_text(rng, 5),
        "no final newline": body + b"lights at the end",
        "lone \\351": body + b"caf\xe9 light\n\xe9\n" + random_text(rng, 5),
        "NUL": body + b"a\x00b light\n\x00\n",
        "CRLF": random_text(rng, 40, b"\r\n"),
        "needles at block edges": needles_at_block_edges(rng),
        "random": random_text(rng, 300),
    }[case]


CASES = [("empty", BASE_SEED), ("1 MB line", BASE_SEED)] + [
    (case, seed) for seed in SEEDS
    for case in ("no final newline", "lone \\351", "NUL", "CRLF", "needles at block edges", "random")
]


def evaluated(node, streams):
    """The interpreter's bytes for each output edge, or the error it raised."""
    try:
        outputs = evaluate_node(node, [decode_block(stream) for stream in streams], REGISTRY)
    except Exception as exc:  # noqa: BLE001 - the error is the expected outcome
        return exc
    return [encode_block(output) for output in outputs]


def ran(node, streams, directory):
    """What a worker's one body writes for each output edge, or the error it raised."""
    plan = WorkerPlan(
        node=node,
        inputs=[InputPort(edge, stream=StoredStream(stream)) for edge, stream in zip(node.inputs, streams)],
        outputs=[OutputPort(edge) for edge in node.outputs],
        streaming=StreamingConfig(chunk_size=64, spill_threshold=4096, spill_directory=str(directory)),
    )
    try:
        stored = run_node(plan, NodeMetrics.of(node))
    except Exception as exc:  # noqa: BLE001 - compared with the interpreter's
        return exc
    outputs = [b"".join(stored[edge].blocks()) for edge in node.outputs]
    for stream in stored.values():
        stream.unlink()
    return outputs


@pytest.mark.parametrize("key", sorted(NODES, key=str), ids=lambda key: " ".join(map(str, key)))
def test_run_node_equals_evaluate_node(key, tmp_path):
    node = NODES[key]
    for case, seed in CASES:
        rng, first = random.Random(seed), payloads(case, seed)
        # Each later input begins where the first ends: an aggregator's boundary.
        boundary = first[first.rstrip(b"\n").rfind(b"\n") + 1 :].rstrip(b"\n") + b"\n"
        streams = [first] + [b"" if case == "empty" else boundary + random_text(rng, 50) for _ in node.inputs[1:]]
        context = f"{node.label()} over {case!r} (seed={seed})"
        expected, actual = evaluated(node, streams), ran(node, streams, tmp_path)
        if isinstance(expected, Exception):
            assert type(actual) is type(expected) and str(actual) == str(expected), context
        else:
            assert actual == expected, context
        assert not list(tmp_path.iterdir()), f"{context}: a spill file outlived the node"


def test_the_law_covers_every_node_kind():
    """Not vacuous: each way a node can run is among the rows."""
    nodes = list(NODES.values())
    kinds = {node.kind for node in nodes}
    assert kinds == {"command", "fused", "aggregator", "split", "cat", "relay"}
    assert {node.aggregator for node in nodes if isinstance(node, AggregatorNode)} == set(AGGREGATORS)
    assert any(isinstance(node, RelayNode) and node.blocking for node in nodes)
    assert any(isinstance(node, RelayNode) and node.eager and not node.blocking for node in nodes)
    assert any(isinstance(node, CommandNode) and node.name == "cat" for node in nodes)  # a plain cat


def test_a_replicated_stream_reaches_every_sink_block_by_block():
    """A command's output edges share one stream: each block goes to every sink
    before the next is made, so a stateless node with two outputs holds one block."""
    events = []

    class Sink:
        def __init__(self, name):
            self.name = name

        def write(self, block):
            events.append((self.name, block))

        def finish(self):
            events.append((self.name, "EOF"))

    def blocks():
        for block in (b"A\n", b"B\n"):
            events.append(("made", block))
            yield block

    node = CommandNode(name="tr", arguments=["A-Z", "a-z"], parallelizability_class=S, inputs=[0], outputs=[1, 2])
    streams = block_kernel(node, REGISTRY)([blocks()])
    assert streams[0] is streams[1]
    _write_outputs([Sink("one"), Sink("two")], streams)
    assert events == [("made", b"A\n"), ("one", b"a\n"), ("two", b"a\n"), ("made", b"B\n"),
                      ("one", b"b\n"), ("two", b"b\n"), ("one", "EOF"), ("two", "EOF")]


@pytest.mark.skipif(not all(map(shutil.which, ("sh", "grep"))), reason="missing coreutils")
@pytest.mark.parametrize("name, arguments, error", [
    ("sh", ["-c", "kill -KILL $$"], "exited -9"),  # killed by a signal, nothing on stderr
    ("sh", ["-c", "printf partial; exit 3"], "exited 3"),  # a silent failure
    ("grep", ["-E", "("], "exited 2"),
    ("sh", ["-c", "exit 1"], "exited 1"),  # only grep's 1 means success
])
def test_a_failed_host_binary_fails_the_node(name, arguments, error):
    node = CommandNode(name=name, arguments=arguments, inputs=[0], outputs=[1])
    with pytest.raises(RuntimeError, match=error):
        block_kernel(node, REGISTRY, host=True)([[b"x\n"]])


@pytest.mark.skipif(shutil.which("grep") is None, reason="missing coreutils")
def test_a_host_grep_that_finds_nothing_succeeds():
    node = CommandNode(name="grep", arguments=["light"], inputs=[0], outputs=[1])
    assert [list(stream) for stream in block_kernel(node, REGISTRY, host=True)([[b"dark\n"]])] == [[b""]]
