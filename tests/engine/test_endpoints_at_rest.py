"""Generated tests for the two endpoints at rest: the cut and the gather.

A split over a regular file is byte ranges of it (``file_ranges``) and a tail
``cat`` or aggregator is collection (the scheduler combines the decoded
branches with the interpreter's evaluator); a split that keeps its worker
writes its branches concurrently; a stateless chain closed by one pure command
is one fused stage.  Nothing here looks at a clock: the shape that ran is read
from ``splits_ranged`` / ``cats_gathered`` / ``aggregators_gathered``, the
edge counters and the worker count.

Seeds are fixed so CI is deterministic; ``PASH_TEST_SEED`` widens coverage
(the ``fuzz-smoke`` CI step passes the run number) and every failure message
carries the seed that reproduces it.
"""

import os
import random
import threading

import pytest

from repro import api
from repro.annotations.classes import PARALLELIZABLE_PURE, STATELESS
from repro.annotations.library import KNOWN_AGGREGATORS
from repro.api import PashConfig, ResilienceConfig, StreamingConfig
from repro.dfg.edges import EdgeKind
from repro.dfg.graph import DataflowGraph
from repro.dfg.nodes import AggregatorNode, CatNode, CommandNode, FusedStage, RelayNode, SplitNode
from repro.engine.channels import StoredStream, encode_block, file_ranges
from repro.engine.metrics import NodeMetrics
from repro.engine.scheduler import ParallelScheduler
from repro.engine.workers import INLINE_HANDOFF_BYTES, InputPort, OutputPort, WorkerPlan, run_node
from repro.resilience.fault import SPILL_WRITE, FaultSpec
from repro.runtime.executor import DFGExecutor, ExecutionEnvironment, ExecutionError
from repro.runtime.streams import VirtualFileSystem
from repro.transform.passes import FuseStagesPass, PassContext
from repro.transform.pipeline import OptimizationReport

BASE_SEED = int(os.environ.get("PASH_TEST_SEED", "20210426"))
SEEDS = [BASE_SEED + offset for offset in range(3)]
ALPHABET = ["a", "x", "Z", " ", "é", "ß", "→", "日本", "🙂", "0"]


def random_text(rng: random.Random, lines: int, widths=(0, 1, 3, 12, 40)) -> bytes:
    return "".join(
        "".join(rng.choice(ALPHABET) for _ in range(rng.choice(widths))) + "\n"
        for _ in range(lines)
    ).encode("utf-8")


def adversarial_files(seed: int):
    """Named file contents for one seed: every edge the cut has to survive."""
    rng = random.Random(seed)
    body = random_text(rng, 400)
    return {
        "empty": b"",
        "random": body,
        "no final newline": body + "tail without newline →".encode("utf-8"),
        "one line longer than a part": random_text(rng, 3) + b"x" * 5000 + b"\n" + random_text(rng, 3),
        "fewer lines than parts": b"only\n",
        "all newlines": b"\n" * 37,
        # No ASCII but the newline: nearly every nominal cut lands inside a sequence.
        "multibyte at every cut": ("".join("日本🙂é"[i % 4] * 11 + "\n" for i in range(90))).encode("utf-8"),
        "crlf": b"".join(b"line %d x\r\n" % index for index in range(120)),
    }


@pytest.mark.parametrize("seed", SEEDS)
def test_file_ranges_are_a_line_aligned_partition(seed, tmp_path):
    for name, content in adversarial_files(seed).items():
        path = tmp_path / "F.txt"
        path.write_bytes(content)
        for parts in range(2, 9):
            context = f"seed={seed} file={name} parts={parts}"
            ranges = file_ranges(str(path), parts)
            assert len(ranges) == parts, context
            # The last range is open-ended: it reads to the end of the file,
            # whatever ``stat`` said its size was.
            assert ranges[0].start == 0 and ranges[-1].end is None, context
            ends = [part.end for part in ranges[:-1]] + [len(content)]
            pieces = []
            for index, (part, end) in enumerate(zip(ranges, ends)):
                assert part.path == str(path) and part.start <= end, context
                if index:
                    assert part.start == ends[index - 1], context  # disjoint, ordered, covering
                piece = content[part.start : end]
                piece.decode("utf-8")  # no torn sequence
                if any(later > start for start, later in zip(ends[index:], ends[index + 1 :])):
                    assert not piece or piece.endswith(b"\n"), context  # no torn line
                for chunk_size in (7, 65536):
                    assert b"".join(part.blocks(chunk_size)) == piece, context
                pieces.append(piece)
            assert b"".join(pieces) == content, context


@pytest.mark.parametrize("parts", [2, 3, 8])
def test_a_file_that_grows_after_the_cut_is_read_to_its_end(parts, tmp_path):
    """``stat`` is a hint for where to cut, not a promise of where the file ends."""
    path = tmp_path / "log.txt"
    before = b"".join(b"entry %d\n" % index for index in range(50)) + b"unfinished"
    path.write_bytes(before)
    ranges = file_ranges(str(path), parts)
    appended = b" line \xe2\x86\x92 done\nlater entry\n"
    with open(path, "ab") as handle:
        handle.write(appended)
    assert b"".join(b"".join(part.blocks(16)) for part in ranges) == before + appended


def environment(files=None):
    return ExecutionEnvironment(filesystem=VirtualFileSystem(files, allow_real_files=True))


BACKENDS = {
    "parallel": ("parallel", {}),
    "jit": ("jit", {"jit_inner_backend": "parallel"}),
    "jobs=0": ("parallel", {"jobs": 0}),
}

#: script -> (splits_ranged, cats_gathered, aggregators_gathered, plain cats that go with the split)
SHAPES = {
    "cat F.txt | tr a-z A-Z | grep -v x | cut -c 1-9 > out.txt": (1, 1, 0, 1),
    "cat F.txt | sort > out.txt": (1, 0, 1, 1),
    "cat F.txt | sort | uniq -c": (1, 0, 1, 1),
    "grep x F.txt | wc -l": (1, 0, 1, 0),
    "cat F.txt | tr a-z A-Z >> out.txt": (1, 1, 0, 1),
}


def run(script, backend, width=2, files=None, **overrides):
    name, options = BACKENDS[backend]
    config = PashConfig.paper_default(width, backend=name, **options, **overrides)
    return api.run(script, config=config, backend=name, environment=environment(files))


def outputs_of(result):
    return result.stdout, dict(result.files)


@pytest.mark.parametrize("backend", sorted(BACKENDS))
@pytest.mark.parametrize("seed", SEEDS)
def test_file_backed_scripts_match_the_interpreter_and_report_their_shape(
    seed, backend, tmp_path, monkeypatch
):
    monkeypatch.chdir(tmp_path)
    width = 2 + seed % 2
    for name, content in adversarial_files(seed).items():
        (tmp_path / "F.txt").write_bytes(content)
        for script, (ranged, gathered, merged, cats) in SHAPES.items():
            context = f"seed={seed} backend={backend} width={width} file={name} script={script!r}"
            held = {"out.txt": ["kept"]} if ">>" in script else None
            expected = api.run(script, backend="interpreter", environment=environment(held))
            result = run(script, backend, width, files=held)
            assert outputs_of(result) == outputs_of(expected), context
            metrics = result.metrics
            shape = (metrics.splits_ranged, metrics.cats_gathered, metrics.aggregators_gathered)
            assert shape == (ranged, gathered, merged), context
            # Every node has a worker but the lane the driver runs itself.
            workers = metrics.processes_spawned + metrics.processes_reused
            assert workers + metrics.lanes_inline == len(metrics.nodes), context
            if backend == "parallel":
                compiled = api.Pash(PashConfig.paper_default(width)).compile(script)
                nodes = sum(len(graph.nodes) for graph in compiled.optimized_graphs)
                elided = metrics.relays_elided + ranged + gathered + merged + cats
                assert workers == nodes - elided - metrics.lanes_inline, context


@pytest.mark.parametrize("seed", SEEDS[:1])
def test_shapes_that_are_not_at_rest_keep_their_split_worker(seed, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    content = adversarial_files(seed)["random"]
    lines = content.decode("utf-8").split("\n")[:-1]
    (tmp_path / "F.txt").write_bytes(content)
    (tmp_path / "G.txt").write_bytes("".join(line + "\n" for line in lines[:150]).encode("utf-8"))
    cases = {
        "cat with a flag": ("cat -n F.txt | tr a-z A-Z > out.txt", environment, None),
        "two files": ("cat F.txt G.txt | tr a-z A-Z > out.txt", environment, None),
        "in-memory file": (
            "cat M.txt | tr a-z A-Z > out.txt", lambda: environment({"M.txt": lines}), None,
        ),
        "stdin": ("tr a-z A-Z | grep -v x > out.txt", environment, lines),
        "real files not allowed": (
            "cat F.txt | tr a-z A-Z > out.txt",
            lambda: ExecutionEnvironment(filesystem=VirtualFileSystem({"F.txt": lines[:7]})),
            None,
        ),
    }
    for name, (script, make, stdin) in cases.items():
        context = f"seed={seed} case={name}"

        def prepared():
            made = make()
            if stdin is not None:
                made.stdin = list(stdin)
            return made

        expected = api.run(script, backend="interpreter", environment=prepared())
        config = PashConfig.paper_default(2, backend="parallel")
        result = api.run(script, config=config, backend="parallel", environment=prepared())
        assert outputs_of(result) == outputs_of(expected), context
        labels = [node.label for node in result.metrics.nodes]
        assert result.metrics.splits_ranged == 0, context
        # "two files" is t1: one branch per file and no split at all.
        assert name == "two files" or any(label.startswith("split") for label in labels), context
        if name == "cat with a flag":
            # `cat -n` is class N (its numbers run across the whole file): one
            # copy, reading the file itself, and the split comes after it.
            assert labels.count("cat -n") == 1, context


UNSIZED = "/proc/filesystems"  # a regular file whose st_size is 0; the same to every reader


@pytest.mark.skipif(
    not os.path.isfile(UNSIZED) or os.stat(UNSIZED).st_size != 0, reason="no procfs here"
)
@pytest.mark.parametrize("width", [2, 3])
@pytest.mark.parametrize("backend", sorted(BACKENDS))
def test_a_regular_file_with_no_size_is_still_read_whole(backend, width, tmp_path, monkeypatch):
    """procfs and sysfs say ``st_size == 0``: the ranges may be lopsided, never empty-handed."""
    monkeypatch.chdir(tmp_path)
    with open(UNSIZED, "rb") as handle:
        assert handle.read().count(b"\n") > 3
    for script in (f"cat {UNSIZED} | tr a-z A-Z | grep -v ZZZ > out.txt", f"grep -c dev {UNSIZED}"):
        expected = api.run(script, backend="interpreter", environment=environment())
        assert expected.stdout or expected.files["out.txt"]
        result = run(script, backend, width)
        assert outputs_of(result) == outputs_of(expected), script
        assert result.metrics.splits_ranged == 1, script


def test_a_fifo_is_not_a_file_at_rest(tmp_path, monkeypatch):
    """A named pipe cannot be cut by offsets: it is read once, by whoever read it before."""
    monkeypatch.chdir(tmp_path)
    os.mkfifo("F.txt")
    filesystem = VirtualFileSystem(allow_real_files=True)
    assert filesystem.real_path("F.txt") is None
    graph = api.Pash(PashConfig.paper_default(2)).compile(
        "cat F.txt | tr a-z A-Z > out.txt"
    ).optimized_graphs[0]
    feeder = threading.Thread(target=lambda: open("F.txt", "w").write("a\nb\nc\n"), daemon=True)
    feeder.start()
    scheduler = ParallelScheduler(ExecutionEnvironment(filesystem=filesystem), PashConfig(width=2))
    result, metrics = scheduler.execute(graph)
    feeder.join(timeout=30)
    assert result.files["out.txt"] == ["A", "B", "C"]
    assert (metrics.splits_ranged, metrics.cats_gathered) == (0, 1)


def hand_built(blocking_head=False, blocking_branches=False, free_input=False):
    """``F.txt -> [relay] -> split -> 2 x (tr | relay) -> cat [<- G.txt] -> out.txt``."""
    graph = DataflowGraph()
    split = graph.add_node(SplitNode())
    source = graph.add_edge(kind=EdgeKind.FILE, name="F.txt")
    if blocking_head:
        head = graph.add_node(RelayNode(blocking=True))
        graph.attach_input(head, source)
        graph.connect(head, split)
    else:
        graph.attach_input(split, source)
    cat = graph.add_node(CatNode())
    for _ in range(2):
        branch = graph.add_node(
            RelayNode(blocking=True) if blocking_branches else CommandNode(name="tr", arguments=["a-z", "A-Z"])
        )
        graph.connect(split, branch)
        graph.connect(branch, cat)
    if free_input:
        graph.attach_input(cat, graph.add_edge(kind=EdgeKind.FILE, name="G.txt"))
    graph.attach_output(cat, graph.add_edge(kind=EdgeKind.FILE, name="out.txt"))
    return graph


def test_hand_built_negative_shapes(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "F.txt").write_bytes(b"a\nb\nc\nd\n")
    (tmp_path / "G.txt").write_bytes(b"g\n")
    scheduler = ParallelScheduler(environment(), PashConfig(width=2))

    result, metrics = scheduler.execute(hand_built())
    assert result.files["out.txt"] == ["A", "B", "C", "D"]
    assert (metrics.splits_ranged, metrics.cats_gathered, len(metrics.nodes)) == (1, 1, 2)

    result, metrics = scheduler.execute(hand_built(blocking_head=True))
    assert result.files["out.txt"] == ["A", "B", "C", "D"]
    assert (metrics.splits_ranged, metrics.cats_gathered, len(metrics.nodes)) == (0, 1, 4)

    result, metrics = scheduler.execute(hand_built(free_input=True))
    assert result.files["out.txt"] == ["A", "B", "C", "D", "g"]
    assert (metrics.splits_ranged, metrics.cats_gathered, len(metrics.nodes)) == (1, 0, 3)


def test_invalid_utf8_in_a_gathered_branch_is_the_bytes_the_interpreter_prints(tmp_path, monkeypatch):
    """A pass-through branch never decodes; the scheduler's one decode is total."""
    monkeypatch.chdir(tmp_path)
    payload = b"fine\nalso fine\n\xff\xfe broken\nlast\n"
    (tmp_path / "F.txt").write_bytes(payload)
    scheduler = ParallelScheduler(environment(), PashConfig(width=2))
    result, metrics = scheduler.execute(hand_built(blocking_branches=True))
    expected = DFGExecutor(environment()).execute(hand_built(blocking_branches=True)).files
    assert result.files == expected
    assert encode_block(result.files["out.txt"]) == payload
    assert metrics.cats_gathered == 1


@pytest.mark.parametrize("failing", [False, True])
def test_a_spilled_gathered_branch_leaves_no_file_behind(failing, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    spill = tmp_path / "spill"
    good = b"".join(b"line %d of the file\n" % index for index in range(2000))
    (tmp_path / "F.txt").write_bytes(good + b"tail\n")
    # The failing run's disk fills after its spill files hold 4 KB.
    faults = (FaultSpec(SPILL_WRITE, after_bytes=4096),) if failing else ()
    config = PashConfig.paper_default(
        2, backend="parallel", streaming=StreamingConfig(spill_threshold=64, spill_directory=str(spill)),
        resilience=ResilienceConfig(faults=faults),
    )
    script = "cat F.txt | tr a-z A-Z > out.txt"
    if failing:
        with pytest.raises(ExecutionError, match="spill:write"):
            api.run(script, config=config, backend="parallel", environment=environment())
    else:
        result = api.run(script, config=config, backend="parallel", environment=environment())
        assert result.files["out.txt"] == (good + b"tail\n").decode().upper().split("\n")[:-1]
        assert (result.metrics.cats_gathered, result.metrics.total_spilled_bytes > 0) == (1, True)
    assert os.listdir(spill) == []


def test_same_file_in_and_out_reads_the_old_content(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "F.txt").write_bytes(b"old a\nold b\nold c\n")
    script = "cat F.txt | tr a-z A-Z > F.txt"
    expected = api.run(script, backend="interpreter", environment=environment())
    result = run(script, "parallel")
    assert result.files == expected.files == {"F.txt": ["OLD A", "OLD B", "OLD C"]}
    assert (result.metrics.splits_ranged, result.metrics.cats_gathered) == (1, 1)


def test_the_run_span_and_the_report_say_which_shape_ran(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "F.txt").write_bytes(b"b x\na y\nc z\n")
    result = run("cat F.txt | tr a-z A-Z > out.txt", "parallel", tracing=True)
    (span,) = [span for span in result.spans if span.name == "engine:run"]
    shape = {"relays_elided": 2, "splits_ranged": 1, "cats_gathered": 1, "aggregators_gathered": 0}
    assert {key: span.attributes[key] for key in shape} == shape
    assert "elided 2 relays, 1 splits as file ranges, 1 cats gathered" in result.metrics.summary()
    result = run("cat F.txt | tr a-z A-Z | sort > out.txt", "parallel", tracing=True)
    (span,) = [span for span in result.spans if span.name == "engine:run"]
    assert (span.attributes["cats_gathered"], span.attributes["aggregators_gathered"]) == (0, 1)
    assert "0 cats gathered, 1 aggregators gathered" in result.metrics.summary()
    assert result.metrics.to_dict()["aggregators_gathered"] == 1


# ---------------------------------------------------------------------------
# The tail aggregator is collection
# ---------------------------------------------------------------------------

#: aggregator -> (the pure command whose partial outputs it merges, flag sets
#: to draw from, whether `cat P0.txt P1.txt … | command` compiles to it).
TAILS = {
    "concat": ("cat", [[]], False),
    # ``[:space:]`` holds the newline and needs no quoting in the jit leg's script.
    "squeeze_concat": ("tr", [["-s", "[:space:]"], ["-cs", "[:alnum:]", "[:space:]"], ["-s", "a"]], True),
    "merge_sort": ("sort", [[], ["-r"], ["-u"], ["-rn"]], True),
    "merge_uniq": ("uniq", [[], ["-c"]], True),
    "merge_uniq_count": ("uniq", [["-c"]], False),
    "merge_wc": ("wc", [["-l"], []], True),
    "merge_tac": ("tac", [[]], True),
    "merge_head": ("head", [["-n", "3"]], True),
    "merge_tail": ("tail", [["-n", "3"]], True),
    "merge_comm": ("comm", [["-23"], ["-12"]], False),
    "sum": ("grep", [["-c", "a"]], True),
}


def partitioned_streams(seed: int):
    """Named lists of branch contents: random line-aligned cuts of adversarial streams."""
    rng = random.Random(seed)
    parts = rng.randint(2, 4)

    def cut(content: bytes, parts: int = parts):
        lines = content.splitlines(keepends=True)
        marks = sorted(rng.randint(0, len(lines)) for _ in range(parts - 1))
        return [b"".join(lines[a:b]) for a, b in zip([0] + marks, marks + [len(lines)])]

    body = random_text(rng, 300, widths=(0, 1, 1, 3, 12))  # short lines: plenty of duplicates
    lines = body.splitlines(keepends=True)
    return {
        "empty": [b""] * parts,
        "random": cut(body),
        "one branch empty": [b""] + cut(body, parts - 1),
        "no final newline": cut(body + "tail without newline →".encode("utf-8")),
        "all duplicate": cut(b"same a line\n" * 90),
        "sorted": cut(b"".join(sorted(lines))),
        "reverse sorted": cut(b"".join(sorted(lines, reverse=True))),
    }


def write_branches(branches) -> None:
    for index, content in enumerate(branches):
        with open(f"P{index}.txt", "wb") as handle:
            handle.write(content)
    with open("S.txt", "wb") as handle:  # the static side of `comm`
        handle.write(b"".join(sorted(set(b"".join(branches).splitlines(keepends=True)))[::2]))


def tail_graph(aggregator: str, command: str, arguments, parts: int) -> DataflowGraph:
    """``P0.txt … -> parts x command -> aggregator -> out.txt``, as the passes build it."""
    graph = DataflowGraph()
    merge = graph.add_node(
        AggregatorNode(aggregator=aggregator, command_name=command, command_arguments=list(arguments))
    )
    for index in range(parts):
        copy = graph.add_node(
            CommandNode(name=command, arguments=list(arguments), parallelizability_class=PARALLELIZABLE_PURE)
        )
        graph.attach_input(copy, graph.add_edge(kind=EdgeKind.FILE, name=f"P{index}.txt"))
        if command == "comm":
            graph.attach_input(copy, graph.add_edge(kind=EdgeKind.FILE, name="S.txt"))
        graph.connect(copy, merge)
    graph.attach_output(merge, graph.add_edge(kind=EdgeKind.FILE, name="out.txt"))
    return graph


def run_tail(aggregator: str, command: str, arguments, parts: int, backend: str, oracle=False):
    """``(files, metrics)`` of the hand-built graph on the scheduler or — on the
    jit, which takes scripts — of the script that compiles to that graph.
    ``oracle``: the same on the in-process evaluator and on the interpreter."""
    if backend == "jit":
        files = " ".join(f"P{index}.txt" for index in range(parts))
        script = f"cat {files} | {' '.join([command, *arguments])} > out.txt"
        if oracle:
            return api.run(script, backend="interpreter", environment=environment()).files, None
        result = run(script, backend, parts)
        return result.files, result.metrics
    graph = tail_graph(aggregator, command, arguments, parts)
    if oracle:
        return DFGExecutor(environment()).execute(graph).files, None
    scheduler = ParallelScheduler(environment(), PashConfig(width=parts, **BACKENDS[backend][1]))
    result, metrics = scheduler.execute(graph)
    return result.files, metrics


def test_every_aggregator_the_annotations_name_is_covered():
    assert set(TAILS) == set(KNOWN_AGGREGATORS)


@pytest.mark.parametrize("backend", sorted(BACKENDS))
@pytest.mark.parametrize("aggregator", sorted(TAILS))
@pytest.mark.parametrize("seed", SEEDS)
def test_a_tail_aggregator_is_collected_and_gives_the_interpreters_bytes(
    seed, aggregator, backend, tmp_path, monkeypatch
):
    monkeypatch.chdir(tmp_path)
    command, flag_sets, compiles = TAILS[aggregator]
    if backend == "jit" and not compiles:
        pytest.skip(f"no script compiles to a tail {aggregator}")
    rng = random.Random(f"{seed} {aggregator}")
    for name, branches in partitioned_streams(seed).items():
        arguments = rng.choice(flag_sets)
        context = (
            f"seed={seed} backend={backend} aggregator={aggregator} stream={name} "
            f"script={' '.join([command, *arguments])!r} parts={len(branches)}"
        )
        write_branches(branches)
        shape = (aggregator, command, arguments, len(branches), backend)
        files, metrics = run_tail(*shape)
        assert files == run_tail(*shape, oracle=True)[0], context
        # The shape: one worker per branch and no worker for the last merge,
        # so no channel into it and no pump.  (A compiled plan of more than
        # two branches is a fan-in-2 tree: its lower merges are mid-graph.)
        assert (metrics.aggregators_gathered, metrics.cats_gathered) == (1, 0), context
        labels = [node.label for node in metrics.nodes]
        inner = [label for label in labels if label.startswith("agg[")]
        assert bool(inner) == (backend == "jit" and len(branches) > 2), context
        assert labels[: len(branches)] == [" ".join([command, *arguments])] * len(branches), context
        assert len(labels) == len(branches) + len(inner), context
        assert (metrics.edges_direct, metrics.edges_buffered) == (0, 2 * len(inner)), context


@pytest.mark.parametrize("backend", sorted(BACKENDS))
@pytest.mark.parametrize("aggregator", sorted(TAILS))
def test_invalid_utf8_under_a_tail_aggregator_is_the_bytes_the_interpreter_prints(
    aggregator, backend, tmp_path, monkeypatch
):
    """Bytes that are not UTF-8 reach the gathered merge, and leave it, unchanged."""
    monkeypatch.chdir(tmp_path)
    command, flag_sets, compiles = TAILS[aggregator]
    if backend == "jit" and not compiles:
        pytest.skip(f"no script compiles to a tail {aggregator}")
    rng = random.Random(f"{BASE_SEED} {aggregator}")
    arguments = rng.choice(flag_sets)
    branches = [b"fine\nalso fine\n", b"a\nb\n", b"c\n"]
    branches[rng.randrange(3)] = b"ok\n\xff\xfe broken\nlast\n"
    write_branches(branches)
    (tmp_path / "S.txt").write_bytes(b"a\nfine\n")
    shape = (aggregator, command, arguments, 3, backend)
    files, _ = run_tail(*shape)
    expected, _ = run_tail(*shape, oracle=True)
    assert {name: encode_block(lines) for name, lines in files.items()} == {
        name: encode_block(lines) for name, lines in expected.items()
    }, f"seed={BASE_SEED} backend={backend} aggregator={aggregator} arguments={arguments}"


def test_a_failing_gathered_aggregator_is_reported_like_its_worker_was(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    write_branches([b"1 2\n", b"3\n"])  # `wc -l` and `wc` outputs do not add up
    graph = tail_graph("merge_wc", "cat", [], 2)
    with pytest.raises(ExecutionError) as excinfo:
        ParallelScheduler(environment(), PashConfig(width=2)).execute(graph)
    assert str(excinfo.value) == (
        "1 worker(s) failed: agg[merge_wc] x2: AggregatorError: wc partial outputs have mismatched columns"
    )


@pytest.mark.parametrize("backend", sorted(BACKENDS))
@pytest.mark.parametrize("seed", SEEDS)
def test_a_mid_graph_aggregator_keeps_its_worker_and_its_pumps(seed, backend, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    script = "cat F.txt | sort | uniq -c | sort -rn > out.txt"
    for name in ("random", "no final newline", "empty"):
        (tmp_path / "F.txt").write_bytes(adversarial_files(seed)[name])
        context = f"seed={seed} backend={backend} file={name} script={script!r}"
        expected = api.run(script, backend="interpreter", environment=environment())
        result = run(script, backend)
        assert outputs_of(result) == outputs_of(expected), context
        metrics = result.metrics
        labels = [node.label for node in metrics.nodes]
        # `sort`'s and `uniq -c`'s merges feed workers: each is one, behind
        # two pumped channels.  Only the last `sort -rn`'s merge is the tail.
        assert labels.count("agg[merge_sort] x2") == 1 and labels.count("agg[merge_uniq] x2") == 1, context
        assert (metrics.aggregators_gathered, metrics.edges_buffered) == (1, 4), context
        pumped = [node for node in metrics.nodes if node.label.startswith("agg[")]
        assert all(node.bytes_in == node.bytes_out or "uniq" in node.label for node in pumped), context


def test_a_collected_stream_is_inline_up_to_one_pipe_buffer_and_a_file_above(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    line = b"a line of thirty-two bytes, yes\n"
    assert len(line) == 32
    node = CommandNode(node_id=1, inputs=[0], outputs=[1], name="sort", parallelizability_class=PARALLELIZABLE_PURE)
    for size, inline in ((INLINE_HANDOFF_BYTES, True), (INLINE_HANDOFF_BYTES + 32, False)):
        plan = WorkerPlan(
            node=node,
            inputs=[InputPort(0, stream=StoredStream(line * (size // 32)))],
            outputs=[OutputPort(1)],
            streaming=StreamingConfig(spill_directory=str(tmp_path)),
        )
        metrics = NodeMetrics.of(node)
        stored = run_node(plan, metrics)[1]
        assert (stored.path is None, metrics.spilled_bytes == 0) == (inline, inline), size
        assert stored.lines(piece_size=1000) == [line[:-1].decode()] * (size // 32), size
        stored.unlink()  # the receiver's job; the run directory goes either way
        assert os.listdir(tmp_path) == [], size


# ---------------------------------------------------------------------------
# A stateless chain closed by one pure command is one stage
# ---------------------------------------------------------------------------

STATELESS_STAGES = ["tr a-z A-Z", "grep -v x", "cut -c 1-9", "sed s/a/b/", "tr -d 0"]
PURE_TAILS = ["sort", "sort -r", "sort -u", "uniq", "uniq -c", "wc -l", "head -n 5", "tail -n 4",
              "tac", "grep -c a", "cat -n", "sha1sum"]


@pytest.mark.parametrize("backend", sorted(BACKENDS))
@pytest.mark.parametrize("seed", SEEDS)
def test_a_stateless_chain_with_a_pure_tail_fused_equals_unfused(seed, backend, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    rng = random.Random(seed)
    files = adversarial_files(seed)
    for _ in range(6):
        chain = rng.sample(STATELESS_STAGES, rng.randint(1, 3)) + [rng.choice(PURE_TAILS)]
        script = f"cat F.txt | {' | '.join(chain)} > out.txt"
        name = rng.choice(sorted(files))
        width = rng.randint(1, 3)
        (tmp_path / "F.txt").write_bytes(files[name])
        context = f"seed={seed} backend={backend} width={width} file={name} script={script!r}"
        expected = api.run(script, backend="interpreter", environment=environment())
        fused = run(script, backend, width)
        unfused = run(script, backend, width, fuse_stages=False)
        assert outputs_of(fused) == outputs_of(unfused) == outputs_of(expected), context
        assert unfused.metrics.stages_fused == 0, context
        if width == 1 and backend == "jit":
            continue  # width 1 is the in-process executor: no engine metrics
        if width > 1 and chain[-1] in ("cat -n", "sha1sum"):
            continue  # class N: the stateless copies end in a `cat`, not in the tail
        labels = [node.label for node in fused.metrics.nodes]
        stage = " | ".join(chain if width > 1 else ["cat", *chain])
        stage = stage if len(stage) <= 60 else stage[:57] + "..."
        assert labels.count(stage) == width == fused.metrics.stages_fused, context


def chain_graph(second_data_input=False, config_input=False) -> DataflowGraph:
    """``F.txt -> tr a-z A-Z -> sort [<- G.txt] -> out.txt``."""
    graph = DataflowGraph()
    head = graph.add_node(CommandNode(name="tr", arguments=["a-z", "A-Z"], parallelizability_class=STATELESS))
    tail = graph.add_node(CommandNode(name="sort", parallelizability_class=PARALLELIZABLE_PURE))
    graph.attach_input(head, graph.add_edge(kind=EdgeKind.FILE, name="F.txt"))
    graph.connect(head, tail)
    if second_data_input or config_input:
        graph.attach_input(tail, graph.add_edge(kind=EdgeKind.FILE, name="G.txt"), configuration=config_input)
    graph.attach_output(tail, graph.add_edge(kind=EdgeKind.FILE, name="out.txt"))
    return graph


@pytest.mark.parametrize(
    "shape, fuses",
    [({}, True), ({"second_data_input": True}, False), ({"config_input": True}, False)],
)
def test_only_a_single_input_tail_closes_a_chain(shape, fuses, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "F.txt").write_bytes(b"b\nc\na\n")
    (tmp_path / "G.txt").write_bytes(b"B2\n")
    graph = chain_graph(**shape)
    expected = DFGExecutor(environment()).execute(chain_graph(**shape)).files
    report = OptimizationReport()
    FuseStagesPass().run(PassContext(graph, PashConfig(width=1), report))
    stages = [node for node in graph.nodes.values() if isinstance(node, FusedStage)]
    assert (report.fused_stages, len(stages), len(graph.nodes)) == ((1, 1, 1) if fuses else (0, 0, 2))
    result, metrics = ParallelScheduler(environment(), PashConfig(width=1)).execute(graph)
    assert result.files == expected
    assert [node.label for node in metrics.nodes] == (["tr a-z A-Z | sort"] if fuses else ["tr a-z A-Z", "sort"])


# ---------------------------------------------------------------------------
# A split that keeps its worker writes its branches concurrently
# ---------------------------------------------------------------------------


def split_plan(content: bytes, fds):
    node = SplitNode(node_id=1, inputs=[0], outputs=[1, 2])
    return WorkerPlan(
        node=node,
        inputs=[InputPort(0, stream=StoredStream(content))],
        outputs=[OutputPort(edge_id, fd=fd) for edge_id, fd in zip(node.outputs, fds)],
    )


def read_all(fd: int) -> bytes:
    with os.fdopen(fd, "rb") as handle:
        return handle.read()


def test_a_pipe_fed_split_does_not_make_branch_two_wait_for_branch_one():
    """Branch 0's consumer refuses to read until branch 1's has a block.

    Each branch is larger than a pipe buffer, so a split that writes its
    sinks one after the other wedges here: branch 0 fills its pipe and
    branch 1 never starts.
    """
    content = b"".join(b"line %06d of the stream\n" % index for index in range(40_000))
    (read0, write0), (read1, write1) = os.pipe(), os.pipe()
    second_has_a_block = threading.Event()
    received = {}

    def first():
        if second_has_a_block.wait(timeout=30):
            received[0] = read_all(read0)
        else:
            os.close(read0)  # wedged: let the run fail instead of hanging

    def second():
        block = os.read(read1, 65536)
        second_has_a_block.set()
        received[1] = block + read_all(read1)

    consumers = [threading.Thread(target=body, daemon=True) for body in (first, second)]
    for consumer in consumers:
        consumer.start()
    metrics = NodeMetrics.of(SplitNode(node_id=1))
    run_node(split_plan(content, (write0, write1)), metrics)
    for consumer in consumers:
        consumer.join(timeout=30)
    assert second_has_a_block.is_set(), "branch 1 got nothing while branch 0 was unread"
    assert received[0] + received[1] == content
    assert received[0].count(b"\n") == received[1].count(b"\n") == 20_000
    assert metrics.lines_out == 40_000


def test_a_failing_writer_thread_is_the_nodes_error_and_every_fd_is_closed():
    content = b"".join(b"line %06d\n" % index for index in range(20_000))
    (read0, write0), (wrong_end, spare) = os.pipe(), os.pipe()
    drained = threading.Thread(target=read_all, args=(read0,), daemon=True)
    drained.start()
    with pytest.raises(OSError):
        # Branch 1 is handed a *read* end: its writer thread gets EBADF.
        run_node(split_plan(content, (write0, wrong_end)), NodeMetrics.of(SplitNode(node_id=1)))
    drained.join(timeout=30)
    assert not drained.is_alive(), "branch 0 never saw EOF"
    for fd in (write0, wrong_end):
        with pytest.raises(OSError):
            os.fstat(fd)
    os.close(spare)
