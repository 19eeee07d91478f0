"""Streams are read-only once handed over: the ownership contract.

A command, an aggregator and a node evaluation get their input lists as they
are — ``CommandImplementation.run`` copies nothing — so none of them may
change one.  The guard runs every registered command and aggregator over the
row tables of the kernel tests with every input wrapped in a list whose
mutators raise.  The virtual filesystem keeps the list it is given and hands
out the list it holds; it copies a file at most once, on the first append
after the file was shared, and a result shares its output lists with it.
"""

import pytest

from repro import api
from repro.api import PashConfig
from repro.commands import standard_registry
from repro.commands.base import CommandError, CommandImplementation
from repro.dfg.nodes import AggregatorNode, CatNode, CommandNode, RelayNode, SplitNode
from repro.runtime import executor
from repro.runtime.aggregators import AGGREGATORS, AggregatorError, apply_aggregator
from repro.runtime.executor import ExecutionEnvironment, evaluate_node
from repro.runtime.streams import VirtualFileSystem
from test_block_kernels import KERNELS
from test_bulk_kernels import COMMANDS, inputs_for


class Handed(list):
    """A stream someone else holds: reading is fine, changing it is a bug."""

    def _refuse(self, *args, **kwargs):
        raise AssertionError("a stream that was handed over was changed")

    append = extend = insert = pop = remove = clear = sort = reverse = _refuse
    __setitem__ = __delitem__ = __iadd__ = __imul__ = _refuse


#: Argument rows of the commands the kernel tables do not cover.
EXTRA_ROWS = {
    "awk": [["{print $1}"], ["-F", " ", "{print $2}"]],
    "comm": [[], ["-13"], ["-3"]],
    "echo": [["x", "y"]],
    "egrep": [["a|b"], ["^(b|B)$"]],
    "fgrep": [["2.5"]],
    "iconv": [["-f", "utf-8", "-t", "ascii"]],
    "sed": [["s/a/b/"], ["s/a/b/g"], ["s;^a;z;"]],
    "seq": [["3"]],
    "tail": [[], ["-n", "2"], ["-n", "+2"]],
    "xargs": [["echo"], ["-n", "1", "echo"]],
}


def command_rows():
    rows = {name: list(flag_sets) for name, (_, _, _, flag_sets) in COMMANDS.items()}
    for name, (_, _, accepted, refused) in KERNELS.items():
        rows.setdefault(name, []).extend(accepted + refused)
    for name, extra in EXTRA_ROWS.items():
        rows.setdefault(name, []).extend(extra)
    return rows


ROWS = command_rows()
INPUTS = inputs_for(20210426)


@pytest.mark.parametrize("name", standard_registry().names())
def test_no_command_changes_a_stream_it_was_handed(name):
    registry = standard_registry()
    ran = 0
    for arguments in ROWS.get(name, [[]]):
        for lines in INPUTS.values():
            middle = len(lines) // 2
            for inputs in ([lines], [lines[:middle], lines[middle:]]):
                try:
                    registry.run(name, arguments, [Handed(stream) for stream in inputs])
                except (CommandError, ValueError, TypeError, LookupError):
                    continue  # arguments or input the command refuses
                ran += 1
    assert ran, f"{name} refused every row and input"


AGGREGATOR_ROWS = {
    "concat": [[]],
    "squeeze_concat": [["-s", "\\n"], ["-s", " "]],
    "merge_sort": [[], ["-r"], ["-n"], ["-u"], ["-rn"]],
    "merge_uniq": [[], ["-c"]],
    "merge_uniq_count": [[]],
    "merge_wc": [[]],
    "merge_tac": [[]],
    "merge_head": [["-n", "2"]],
    "merge_tail": [["-n", "2"]],
    "merge_comm": [[]],
    "sum": [[]],
}


def partials(name):
    if name == "merge_wc":
        return [["3 4 5"], [], ["1 2 3"]]
    if name == "sum":
        return [["3"], [""], ["4"]]
    if name in ("merge_uniq", "merge_uniq_count"):
        return [["      2 a", "      1 b"], ["      3 b", "      1 c"]]
    return [["", "a", "b"], [], ["", "b", "c", "c"]]


@pytest.mark.parametrize("name", sorted(AGGREGATORS))
def test_no_aggregator_changes_a_partial_output(name):
    for arguments in AGGREGATOR_ROWS[name]:
        streams = partials(name)
        try:
            merged = apply_aggregator(name, [Handed(stream) for stream in streams], arguments)
        except AggregatorError:
            continue
        assert merged == apply_aggregator(name, streams, arguments)


def test_every_node_kind_leaves_its_inputs_alone():
    registry = standard_registry()
    upstream = Handed(["b", "a", "c", "a"])
    nodes = [
        CommandNode(name="sort", outputs=[1, 2]),
        CommandNode(name="uniq", outputs=[1]),
        AggregatorNode(aggregator="merge_sort", outputs=[1]),
        CatNode(outputs=[1]),
        RelayNode(outputs=[1]),
        SplitNode(outputs=[1, 2]),
    ]
    for node in nodes:
        inputs = [upstream, Handed(["d"])] if isinstance(node, (AggregatorNode, CatNode)) else [upstream]
        evaluate_node(node, inputs, registry)
    assert upstream == ["b", "a", "c", "a"]


def test_a_command_gets_its_inputs_uncopied_and_every_edge_the_same_list():
    seen = []
    registry = standard_registry().copy()
    registry.register(CommandImplementation("spy", lambda arguments, inputs: seen.extend(inputs) or ["out"]))
    upstream = ["b", "a"]
    registry.run("spy", [], [upstream])
    assert seen[0] is upstream
    first, second = evaluate_node(CommandNode(name="cat", outputs=[1, 2]), [upstream], registry)
    assert first is second  # nobody changes it, so nobody needs a copy
    (relayed,) = evaluate_node(RelayNode(outputs=[1]), [upstream], registry)
    assert relayed is upstream


# -- the virtual filesystem ---------------------------------------------------


def test_write_keeps_the_list_and_read_hands_it_out():
    lines = ["x", "y"]
    filesystem = VirtualFileSystem({"given.txt": lines})
    assert filesystem.read("given.txt") is lines
    filesystem.write("w.txt", lines)
    assert filesystem.read("w.txt") is lines


def test_an_append_after_a_read_leaves_the_read_unchanged():
    filesystem = VirtualFileSystem({"f.txt": ["a"]})
    earlier = filesystem.read("f.txt")
    filesystem.append("f.txt", ["b"])
    assert earlier == ["a"]
    assert filesystem.read("f.txt") == ["a", "b"]


def test_appends_copy_a_file_at_most_once():
    filesystem = VirtualFileSystem()
    filesystem.append("log.txt", ["0"])
    held = filesystem._files["log.txt"]
    for index in range(1, 100):
        filesystem.append("log.txt", [str(index)])
    assert filesystem._files["log.txt"] is held  # N appends to an unread file: no copy
    shared = filesystem.read("log.txt")
    filesystem.append("log.txt", ["100"])
    copied = filesystem._files["log.txt"]
    assert copied is not shared and len(shared) == 100  # the one copy
    filesystem.append("log.txt", ["101"])
    assert filesystem._files["log.txt"] is copied and len(copied) == 102


def test_a_copied_filesystem_and_its_original_append_apart():
    original = VirtualFileSystem()
    original.append("f.txt", ["a"])
    clone = original.copy()
    original.append("f.txt", ["from original"])
    clone.append("f.txt", ["from clone"])
    assert original.read("f.txt") == ["a", "from original"]
    assert clone.read("f.txt") == ["a", "from clone"]


# -- scripts ---------------------------------------------------------------------

BACKENDS = {
    "interpreter": None,
    "parallel": PashConfig.paper_default(2, backend="parallel"),
    "jit": PashConfig.paper_default(2, backend="jit"),
}


@pytest.mark.parametrize("backend", sorted(BACKENDS))
def test_appending_to_a_copy_leaves_the_source_alone(backend):
    environment = ExecutionEnvironment(filesystem=VirtualFileSystem({"in.txt": ["a", "b"]}))
    result = api.run(
        "cat in.txt > out.txt; echo x >> out.txt",
        config=BACKENDS[backend], backend=backend, environment=environment,
    )
    assert environment.filesystem.read("in.txt") == ["a", "b"]
    assert result.files["out.txt"] == ["a", "b", "x"]


@pytest.mark.parametrize("backend", sorted(BACKENDS))
def test_a_later_run_leaves_an_earlier_result_alone(backend):
    environment = ExecutionEnvironment(filesystem=VirtualFileSystem({"in.txt": ["a", "b"]}))
    config = BACKENDS[backend]
    first = api.run("cat in.txt > out.txt", config=config, backend=backend, environment=environment)
    api.run("echo x >> out.txt", config=config, backend=backend, environment=environment)
    assert first.files["out.txt"] == ["a", "b"]
    assert environment.filesystem.read("out.txt") == ["a", "b", "x"]


def test_the_gathered_merge_is_the_list_the_result_holds(monkeypatch):
    merged = []

    def recording(name, streams, arguments):
        merged.append(apply_aggregator(name, streams, arguments))
        return merged[-1]

    monkeypatch.setattr(executor, "apply_aggregator", recording)
    files = {"in0.txt": ["pear", "apple"], "in1.txt": ["fig", "banana"]}
    environment = ExecutionEnvironment(filesystem=VirtualFileSystem(files))
    result = api.run(
        "cat in0.txt in1.txt | sort > out.txt",
        config=PashConfig.paper_default(2, backend="parallel"), backend="parallel", environment=environment,
    )
    assert result.metrics.aggregators_gathered == 1
    assert result.files["out.txt"] == ["apple", "banana", "fig", "pear"]
    assert result.files["out.txt"] is merged[-1]
    assert environment.filesystem.read("out.txt") is merged[-1]
