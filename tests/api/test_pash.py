"""Pash.compile -> CompiledScript: the one front door, and the legacy shims."""

from repro import api
from repro.api import CompiledScript, Pash, PashConfig
from repro.runtime.executor import ExecutionEnvironment
from repro.runtime.interpreter import ShellInterpreter
from repro.runtime.streams import VirtualFileSystem

SCRIPT = "cat a.txt b.txt | grep x | sort > out.txt"
FILES = {"a.txt": ["xb", "ya", "xa"], "b.txt": ["xc", "zz"]}


def env():
    return ExecutionEnvironment(
        filesystem=VirtualFileSystem({name: list(lines) for name, lines in FILES.items()})
    )


def test_compile_returns_inspectable_artifact():
    compiled = Pash.compile(SCRIPT, PashConfig.paper_default(2))
    assert isinstance(compiled, CompiledScript)
    assert compiled.source == SCRIPT
    assert "mkfifo" in compiled.text
    assert compiled.text.count("grep x") == 2
    # The artifact exposes the AST, the regions, and per-region reports.
    assert compiled.ast is compiled.translation.ast
    assert len(compiled.regions) == 1
    assert len(compiled.reports) == 1
    assert compiled.reports[0].parallelized_count >= 1
    assert list(compiled.reports[0].pass_seconds)[0] == "split-insertion"
    assert compiled.stats.regions_parallelized == 1
    assert compiled.node_count == len(compiled.optimized_graphs[0].nodes)
    assert compiled.config == PashConfig.paper_default(2)


def test_compile_works_as_instance_method_with_held_config():
    # Single input: the split decides the copy count, i.e. the config's width.
    script = "cat big.txt | grep x | sort > out.txt"
    pash = Pash(PashConfig.paper_default(4))
    compiled = pash.compile(script)
    assert compiled.text.count("grep x") == 4
    # A per-call config overrides the instance's.
    assert pash.compile(script, PashConfig.paper_default(2)).text.count("grep x") == 2


def test_emit_with_config_changes_rerenders():
    compiled = Pash.compile(SCRIPT, PashConfig.paper_default(2))
    text = compiled.emit(fifo_directory="/dev/shm", fifo_prefix="edge")
    assert "/dev/shm/edge_" in text
    assert compiled.emit() == compiled.text  # no changes -> the cached text
    # Another config stands in for the artifact's own (pash-bench's compile
    # probe passes `config.emitter_options()`, which is the config itself).
    other = PashConfig.paper_default(2, fifo_prefix="probe")
    assert other.emitter_options() is other
    assert "/tmp/probe_" in compiled.emit(other)


def test_execute_on_interpreter_matches_sequential_shell():
    interpreter = ShellInterpreter(
        filesystem=VirtualFileSystem({name: list(lines) for name, lines in FILES.items()})
    )
    interpreter.run_script(SCRIPT)
    expected = interpreter.state.filesystem.read("out.txt")

    environment = env()
    result = Pash.compile(SCRIPT, PashConfig.paper_default(2)).execute(
        backend="interpreter", environment=environment
    )
    assert result.files["out.txt"] == expected
    assert result.backend == "interpreter"


def test_execute_uses_the_config_backend_by_default():
    config = PashConfig.paper_default(2, backend="parallel")
    result = Pash.compile(SCRIPT, config).execute(environment=env())
    assert result.backend == "parallel"
    assert result.metrics.worker_count >= 2


def test_execute_runs_partially_translated_scripts():
    """A loop the AOT compiler rejects runs on the driver: the artifact's
    ``execute`` equals the interpreter instead of refusing."""
    script = "cat a.txt | grep x\nfor f in a.txt b.txt; do cat $f | sort; done"
    compiled = Pash.compile(script, PashConfig.paper_default(2))
    assert compiled.translation.rejected
    expected = ShellInterpreter(
        filesystem=VirtualFileSystem({name: list(lines) for name, lines in FILES.items()})
    ).run_script(script)
    result = compiled.execute(environment=env())
    assert result.stdout == expected == ["xb", "xa", "xa", "xb", "ya", "xc", "zz"]
    assert result.jit.regions_seen == 3


def test_api_run_without_config_runs_sequential_graphs():
    sequential = api.run(SCRIPT, environment=env())
    optimized = api.run(SCRIPT, config=PashConfig.paper_default(2), environment=env())
    assert sequential.files["out.txt"] == optimized.files["out.txt"]
    assert sequential.backend == "interpreter"


def test_api_run_uses_config_backend_and_options():
    result = api.run(SCRIPT, config=PashConfig.paper_default(2, backend="parallel"), environment=env())
    assert result.backend == "parallel"


def test_module_level_compile_convenience():
    compiled = api.compile(SCRIPT, PashConfig.paper_default(2))
    assert compiled.text.count("grep x") == 2


def test_front_door_names_importable_from_package_root():
    import repro

    assert repro.CompiledScript is CompiledScript
    assert repro.PashConfig is PashConfig


def test_importing_the_front_door_does_not_load_the_engine_stack():
    """Compile-only users must not pay for engine/cluster/service imports."""
    import os
    import subprocess
    import sys

    probe = (
        "import sys, repro.api; "
        "loaded = [m for m in sys.modules if m.startswith("
        "('repro.engine', 'repro.cluster', 'repro.service'))]; "
        "assert not loaded, loaded"
    )
    package_dir = os.path.dirname(os.path.dirname(os.path.abspath(api.__file__)))
    completed = subprocess.run(
        [sys.executable, "-c", probe],
        env=dict(os.environ, PYTHONPATH=os.path.dirname(package_dir)),
        capture_output=True,
        text=True,
    )
    assert completed.returncode == 0, completed.stderr
