"""Tests for the unified backend API (`repro.engine.run`)."""

import shutil

import pytest

from repro import api, engine
from repro.api import PashConfig, StreamingConfig
from repro.dfg.builder import DFGBuilder
from repro.runtime.executor import ExecutionEnvironment
from repro.runtime.streams import VirtualFileSystem


FILES = {"a.txt": ["banana", "apple foo"], "b.txt": ["cherry foo", "date"]}
SCRIPT = "cat a.txt b.txt | grep foo | sort > out.txt"


def env():
    return ExecutionEnvironment(
        filesystem=VirtualFileSystem({name: list(lines) for name, lines in FILES.items()})
    )


def test_available_backends():
    names = engine.available_backends()
    assert {"interpreter", "parallel", "shell"} <= set(names)


def test_unknown_backend_raises():
    with pytest.raises(ValueError) as excinfo:
        engine.create_backend("quantum")
    assert "quantum" in str(excinfo.value)
    assert "parallel" in str(excinfo.value)


def test_register_custom_backend():
    class NullBackend(engine.ExecutionBackend):
        name = "null"

        def execute(self, graph, environment):
            return engine.EngineResult(backend=self.name)

    engine.register_backend("null", NullBackend)
    try:
        graph = DFGBuilder().build_from_script(SCRIPT)
        result = engine.run(graph, backend="null", environment=env())
        assert result.backend == "null"
        assert result.stdout == []
    finally:
        engine.api._BACKENDS.pop("null", None)


def test_run_graph_on_interpreter_and_parallel():
    graph = DFGBuilder().build_from_script(SCRIPT)
    interp = engine.run(graph, backend="interpreter", environment=env())
    graph = DFGBuilder().build_from_script(SCRIPT)
    parallel = engine.run(graph, backend="parallel", environment=env())
    assert interp.output_of("out.txt") == ["apple foo", "cherry foo"]
    assert parallel.output_of("out.txt") == interp.output_of("out.txt")
    assert parallel.backend == "parallel"
    assert parallel.metrics.worker_count >= 2
    assert parallel.elapsed_seconds > 0


def test_run_script_optimizes_and_executes():
    result = api.run(
        SCRIPT,
        backend="parallel",
        environment=env(),
        config=PashConfig.paper_default(2, fuse_stages=False),
    )
    assert result.output_of("out.txt") == ["apple foo", "cherry foo"]
    # The optimized graph has parallel grep copies plus runtime helpers.
    assert len(result.metrics.nodes) > 3


def test_run_script_multi_statement_shares_environment():
    script = "cat a.txt b.txt | sort > sorted.txt\ncat sorted.txt | head -n 1 > out.txt"
    result = api.run(script, backend="parallel", environment=env())
    assert result.output_of("sorted.txt") == ["apple foo", "banana", "cherry foo", "date"]
    assert result.output_of("out.txt") == ["apple foo"]
    # One result for the script: both regions' engine metrics folded in.
    assert result.jit.regions_seen == 2
    labels = " ".join(node.label for node in result.metrics.nodes)
    assert "sort" in labels and "head" in labels


def test_run_updates_environment_filesystem():
    environment = env()
    graph = DFGBuilder().build_from_script(SCRIPT)
    engine.run(graph, backend="parallel", environment=environment)
    assert environment.filesystem.read("out.txt") == ["apple foo", "cherry foo"]


def test_parallel_backend_options_forwarded():
    graph = DFGBuilder().build_from_script(SCRIPT)
    config = PashConfig(streaming=StreamingConfig(chunk_size=32))
    result = engine.run(graph, backend="parallel", environment=env(), config=config)
    assert result.output_of("out.txt") == ["apple foo", "cherry foo"]


@pytest.mark.skipif(shutil.which("sh") is None, reason="requires a POSIX shell")
def test_shell_backend_missing_input_raises_instead_of_hanging():
    from repro.runtime.executor import ExecutionError

    with pytest.raises(ExecutionError):
        api.run(
            "cat not-there.txt | sort > out.txt",
            backend="shell",
            environment=ExecutionEnvironment(filesystem=VirtualFileSystem()),
        )


@pytest.mark.skipif(shutil.which("sh") is None, reason="requires a POSIX shell")
def test_shell_backend_round_trip():
    result = api.run(
        SCRIPT,
        backend="shell",
        environment=env(),
        config=PashConfig.paper_default(2, fuse_stages=False),
    )
    assert result.output_of("out.txt") == ["apple foo", "cherry foo"]


@pytest.mark.parametrize(
    "backend",
    ["interpreter", "parallel"]
    + (["shell"] if shutil.which("sh") else []),
)
def test_stdin_fed_pipeline_on_every_backend(backend):
    """Background jobs get /dev/null stdin under sh; the engine must not."""
    environment = ExecutionEnvironment(stdin=["banana foo", "zebra", "apple foo"])
    result = api.run("grep foo | sort", backend=backend, environment=environment)
    assert result.stdout == ["apple foo", "banana foo"]


@pytest.mark.parametrize(
    "backend",
    ["interpreter", "parallel"] + (["shell"] if shutil.which("sh") else []),
)
def test_append_preserves_real_file_content(backend, tmp_path, monkeypatch):
    """`>>` against a file that exists only on disk must extend, not truncate."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "log.txt").write_text("old line\n")
    (tmp_path / "in.txt").write_text("beta\nalpha\n")
    environment = ExecutionEnvironment(filesystem=VirtualFileSystem(allow_real_files=True))
    result = api.run("sort in.txt >> log.txt", backend=backend, environment=environment)
    assert result.output_of("log.txt") == ["old line", "alpha", "beta"]


@pytest.mark.parametrize("backend", ["interpreter", "parallel"])
def test_run_script_runs_partially_translatable_scripts(backend):
    """An unannotated command (`awk`) is one region on the interpreter path,
    not a reason to refuse the script."""
    from repro.runtime.interpreter import ShellInterpreter

    script = "cat a.txt | grep foo > g.txt\ncat a.txt | awk '{print}' > w.txt"
    oracle = ShellInterpreter(
        filesystem=VirtualFileSystem({name: list(lines) for name, lines in FILES.items()})
    )
    oracle.run_script(script)
    result = api.run(script, backend=backend, environment=env())
    assert result.files == {
        name: oracle.state.filesystem.read(name) for name in ("g.txt", "w.txt")
    }
    assert result.files["w.txt"] == FILES["a.txt"]
    assert [outcome.action for outcome in result.jit.outcomes] == ["compiled", "fallback"]


def test_run_script_rejects_an_unknown_backend_up_front():
    with pytest.raises(ValueError, match="quantum"):
        api.run("x=1", backend="quantum", environment=env())


@pytest.mark.skipif(shutil.which("sh") is None, reason="requires a POSIX shell")
def test_shell_backend_refuses_absolute_output_paths(tmp_path):
    from repro.runtime.executor import ExecutionError

    target = tmp_path / "escape.txt"
    environment = ExecutionEnvironment(
        filesystem=VirtualFileSystem({"a.txt": ["apple foo"]})
    )
    with pytest.raises(ExecutionError) as excinfo:
        api.run(
            f"cat a.txt | sort > {target}", backend="shell", environment=environment
        )
    assert "absolute output path" in str(excinfo.value)
    assert not target.exists()


@pytest.mark.skipif(shutil.which("sh") is None, reason="requires a POSIX shell")
def test_shell_backend_never_writes_absolute_vfs_names(tmp_path):
    """Unrelated in-memory files with absolute names must stay in memory."""
    precious = tmp_path / "precious.txt"
    precious.write_text("real content\n")
    environment = ExecutionEnvironment(
        filesystem=VirtualFileSystem(
            {str(precious): ["vfs content"], "a.txt": ["apple foo"], "b.txt": ["banana"]}
        )
    )
    api.run(SCRIPT, backend="shell", environment=environment)
    assert precious.read_text() == "real content\n"
