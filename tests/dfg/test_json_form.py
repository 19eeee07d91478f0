"""Round-trip law of the one JSON form of a dataflow graph.

``from_json(to_json(g))`` must describe, emit and run as ``g`` does, for
every optimized graph of the pash-bench corpus (plus the ``sort_cpu`` and
``grep_stream`` pipelines) at widths 1, 2 and 4, every node kind the corpus
plans lack, and an argv and file names that are not UTF-8; and its JSON
text must re-serialise to the same bytes.  Bad input — an unknown kind, a
missing field, a dangling edge, a wrong type — raises ``GraphError`` and
nothing else.
"""

import copy
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from repro import api
from repro.api import PashConfig
from repro.backend.shell_emitter import emit_parallel_script
from repro.dfg.edges import EdgeKind
from repro.dfg.graph import DataflowGraph, GraphError
from repro.dfg.json_form import from_json, node_from_json, node_to_json, to_json
from repro.engine.api import ParallelBackend
from repro.runtime.executor import ExecutionEnvironment
from repro.runtime.streams import VirtualFileSystem

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "tests" / "engine"))
from test_node_kernels import corpus_scripts, extra_nodes  # noqa: E402

EMIT = PashConfig(fifo_prefix="pash-json-form")
BACKEND = ParallelBackend(PashConfig.paper_default(2))


def corpus_files():
    spec = importlib.util.spec_from_file_location("inputs", ROOT / "benchmarks" / "e2e" / "inputs.py")
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    files = inputs.small_files(7, 40)
    files.update({name: files["in0.txt"] for name in ("F.txt", "F0.txt", "F1.txt")})
    files["caf\udce9.txt"] = ["caf\udce9 au lait", "tea", "CAF\udce9 noir"]
    return files


FILES = corpus_files()
NON_UTF8 = "cat caf\udce9.txt | tr A-Z a-z | grep 'caf\udce9' > out\udce9.txt"


def outcome(graph, filesystem):
    """What one run on the parallel backend prints and writes, or its error."""
    try:
        result = BACKEND.execute(graph, ExecutionEnvironment(filesystem=filesystem))
    except Exception as exc:  # noqa: BLE001 - the error is the outcome compared
        return type(exc).__name__
    return result.stdout, result.files


def emitted(graph):
    try:
        return emit_parallel_script(graph, EMIT)
    except Exception as exc:  # noqa: BLE001 - an emitter refusal must be the same one
        return type(exc).__name__


def round_trip(graph):
    text = json.dumps(to_json(graph))
    copied = from_json(json.loads(text))
    assert text.isascii() and json.dumps(to_json(copied)) == text
    assert copied.describe() == graph.describe()
    assert emitted(copied) == emitted(graph)
    return copied


@pytest.mark.parametrize("width", [1, 2, 4])
@pytest.mark.parametrize("script", corpus_scripts() + [NON_UTF8])
def test_every_corpus_plan_survives_its_json_form(script, width):
    graphs = api.compile(script, PashConfig.paper_default(width)).optimized_graphs
    copies = [round_trip(graph) for graph in graphs]
    # Region after region on one filesystem each, as a script runs them.
    original, copied = VirtualFileSystem(copy.deepcopy(FILES)), VirtualFileSystem(copy.deepcopy(FILES))
    for graph, twin in zip(graphs, copies):
        assert outcome(twin, copied) == outcome(graph, original), graph.describe()


def single_node_graph(node):
    graph = DataflowGraph()
    node = copy.deepcopy(node)
    inputs, outputs = node.inputs, node.outputs
    node.inputs, node.outputs = [], []
    graph.add_node(node)
    for index, _ in enumerate(inputs):
        graph.attach_input(node, graph.add_edge(kind=EdgeKind.FILE, name=f"in{index % 2}.txt"))
    for index, _ in enumerate(outputs):
        graph.attach_output(node, graph.add_edge(kind=EdgeKind.FILE, name=f"out{index}.txt"))
    return graph


@pytest.mark.parametrize("node", extra_nodes(), ids=lambda node: f"{node.kind}:{node.label()}")
def test_every_node_kind_survives_its_json_form(node):
    payload = json.loads(json.dumps(node_to_json(node)))
    assert node_to_json(node_from_json(payload)) == node_to_json(node)
    graph = single_node_graph(node)
    copied = round_trip(graph)
    assert outcome(copied, VirtualFileSystem(copy.deepcopy(FILES))) == outcome(
        graph, VirtualFileSystem(copy.deepcopy(FILES))
    )


def test_the_round_trip_shares_no_list_with_the_original():
    (graph,) = api.compile("cat in0.txt | grep light | sort", PashConfig.paper_default(2)).optimized_graphs
    payload = to_json(graph)
    copied = from_json(payload)
    for node in copied.nodes.values():
        node.inputs.append(99)
    assert all(99 not in node.inputs for node in graph.nodes.values())
    assert all(99 not in node["inputs"] for node in payload["nodes"])


def sample():
    (graph,) = api.compile("cat in0.txt in1.txt | tr A-Z a-z | sort", PashConfig.paper_default(2)).optimized_graphs
    return to_json(graph)


def broken(mutate):
    payload = sample()
    mutate(payload)
    return payload


BAD = {
    "unknown kind": lambda p: p["nodes"][0].update(kind="exec"),
    "missing field": lambda p: p["nodes"][0].pop("outputs"),
    "extra field": lambda p: p["nodes"][0].update(shell="rm -rf /"),
    "dangling edge": lambda p: p["edges"][0].update(target=99),
    "edge to no node": lambda p: p["nodes"][0]["inputs"].append(999),
    "wrong type": lambda p: p["nodes"][0].update(inputs="0"),
    "bool for an id": lambda p: p["edges"][0].update(edge_id=True),
    "unknown edge kind": lambda p: p["edges"][0].update(kind="socket"),
    "unknown class": lambda p: next(m for n in p["nodes"] for m in [n, *n.get("nodes", ())]
                                    if m["kind"] == "command").update(parallelizability_class="magic"),
    "a fused member of another kind": lambda p: p["nodes"].append(
        dict(node_to_json(extra_nodes()[10]), node_id=50, inputs=[], outputs=[],
             nodes=[node_to_json(extra_nodes()[-3])])),
    "duplicate node id": lambda p: p["nodes"].append(dict(p["nodes"][0])),
    "id past the counter": lambda p: p.update(next_ids=[0, 0]),
    "not a graph": lambda p: p.clear(),
    "a cycle": lambda p: cycle(p),
}


def cycle(payload):
    """Point the last node's output back into the first node."""
    first, last = payload["nodes"][0], payload["nodes"][-1]
    edge = next(e for e in payload["edges"] if e["edge_id"] == last["outputs"][0])
    previous = next(e for e in payload["edges"] if e["edge_id"] == first["inputs"][0])
    previous["target"] = None
    first["inputs"][0] = edge["edge_id"]
    edge["target"] = first["node_id"]


@pytest.mark.parametrize("fault", sorted(BAD))
def test_bad_input_raises_the_one_typed_error(fault):
    with pytest.raises(GraphError):
        from_json(broken(BAD[fault]))


@pytest.mark.parametrize("payload", [None, [], "graph", {"kind": "command"}, {"kind": 3}])
def test_a_node_that_is_not_one_raises_the_one_typed_error(payload):
    with pytest.raises(GraphError):
        node_from_json(payload)
