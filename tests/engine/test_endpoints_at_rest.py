"""Generated tests for the two endpoints at rest: the cut and the gather.

A split over a regular file is byte ranges of it (``file_ranges``) and a tail
``cat`` is ordered collection; a split that keeps its worker writes its
branches concurrently.  Nothing here looks at a clock: the shape that ran is
read from ``splits_ranged`` / ``cats_gathered`` and the worker count.

Seeds are fixed so CI is deterministic; ``PASH_TEST_SEED`` widens coverage
(the ``fuzz-smoke`` CI step passes the run number) and every failure message
carries the seed that reproduces it.
"""

import os
import random
import threading

import pytest

from repro import api
from repro.api import PashConfig, StreamingConfig
from repro.dfg.edges import EdgeKind
from repro.dfg.graph import DataflowGraph
from repro.dfg.nodes import CatNode, CommandNode, RelayNode, SplitNode
from repro.engine.channels import StoredStream, file_ranges
from repro.engine.metrics import NodeMetrics
from repro.engine.scheduler import ParallelScheduler
from repro.engine.workers import InputPort, OutputPort, WorkerPlan, run_node
from repro.runtime.executor import ExecutionEnvironment, ExecutionError
from repro.runtime.streams import VirtualFileSystem

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

#: script -> (splits_ranged, cats_gathered, plain cats that go with the split)
SHAPES = {
    "cat F.txt | tr a-z A-Z | grep -v x | cut -c 1-9 > out.txt": (1, 1, 1),
    "cat F.txt | sort > out.txt": (1, 0, 1),
    "cat F.txt | sort | uniq -c": (1, 0, 1),
    "grep x F.txt | wc -l": (1, 0, 0),
    "cat F.txt | tr a-z A-Z >> out.txt": (1, 1, 1),
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
        for script, (ranged, gathered, cats) in SHAPES.items():
            context = f"seed={seed} backend={backend} width={width} file={name} script={script!r}"
            held = {"out.txt": ["kept"]} if ">>" in script else None
            expected = api.run(script, backend="interpreter", environment=environment(held))
            result = run(script, backend, width, files=held)
            assert outputs_of(result) == outputs_of(expected), context
            metrics = result.metrics
            assert (metrics.splits_ranged, metrics.cats_gathered) == (ranged, gathered), context
            workers = metrics.processes_spawned + metrics.processes_reused
            assert workers == len(metrics.nodes), context
            if backend == "parallel":
                compiled = api.Pash(PashConfig.paper_default(width)).compile(script)
                nodes = sum(len(graph.nodes) for graph in compiled.optimized_graphs)
                assert workers == nodes - metrics.relays_elided - ranged - gathered - cats, context


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
        if name == "cat with a flag":
            # `cat -n` is class P with a `concat` aggregator, so each branch
            # numbers from 1 (a known annotation gap, see ROADMAP): compare
            # what the lines carry, not their numbers.
            for outcome in (result, expected):
                outcome.files["out.txt"] = [
                    line.split("\t", 1)[1] for line in outcome.files["out.txt"]
                ]
        assert outputs_of(result) == outputs_of(expected), context
        labels = [node.label for node in result.metrics.nodes]
        if name == "cat with a flag":
            # The split sits on the file, *before* the two `cat -n` copies:
            # it is ranged, and the copies — not plain cats — keep their workers.
            assert result.metrics.splits_ranged == 1 and labels.count("cat -n") == 2, context
        else:
            assert result.metrics.splits_ranged == 0, context
            # "two files" is t1: one branch per file and no split at all.
            assert name == "two files" or any(label.startswith("split") for label in labels), context


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


def test_invalid_utf8_in_a_gathered_branch_names_its_producer(tmp_path, monkeypatch):
    """A pass-through branch never decodes; the scheduler's one decode does."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "F.txt").write_bytes(b"fine\nalso fine\n\xff\xfe broken\nlast\n")
    scheduler = ParallelScheduler(environment(), PashConfig(width=2))
    with pytest.raises(ExecutionError) as excinfo:
        scheduler.execute(hand_built(blocking_branches=True))
    assert "relay[blocking]: UnicodeDecodeError" in str(excinfo.value)


@pytest.mark.parametrize("failing", [False, True])
def test_a_spilled_gathered_branch_leaves_no_file_behind(failing, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    spill = tmp_path / "spill"
    good = b"".join(b"line %d of the file\n" % index for index in range(2000))
    (tmp_path / "F.txt").write_bytes(good + (b"\xff broken\n" if failing else b"tail\n"))
    config = PashConfig.paper_default(
        2, backend="parallel", streaming=StreamingConfig(spill_threshold=64, spill_directory=str(spill))
    )
    script = "cat F.txt | tr a-z A-Z > out.txt"
    if failing:
        with pytest.raises(ExecutionError):
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
    shape = {"relays_elided": 2, "splits_ranged": 1, "cats_gathered": 1}
    assert {key: span.attributes[key] for key in shape} == shape
    assert "elided 2 relays, 1 splits as file ranges, 1 cats gathered" in result.metrics.summary()


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
