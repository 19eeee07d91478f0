"""Behavioural tests for the JIT driver: compilation, caching, fallback."""

import pytest

from repro.api import Pash, PashConfig
from repro.jit import JitDriver, PlanCache
from repro.runtime.executor import ExecutionEnvironment
from repro.runtime.interpreter import ShellInterpreter
from repro.runtime.streams import VirtualFileSystem


def dataset():
    return {
        "in.txt": [
            ("light line %d" % i) if i % 3 else ("dark line %d" % i)
            for i in range(120)
        ],
        "other.txt": ["light a", "dark b", "light c"],
    }


def driver(config=None, files=None, **options):
    environment = ExecutionEnvironment(
        filesystem=VirtualFileSystem({k: list(v) for k, v in (files or dataset()).items()})
    )
    config = config or PashConfig.paper_default(2, jit_inner_backend="interpreter")
    return JitDriver(config=config, environment=environment, **options)


def baseline(script, files=None):
    shell = ShellInterpreter(
        filesystem=VirtualFileSystem({k: list(v) for k, v in (files or dataset()).items()})
    )
    return shell.run_script(script)


# ---------------------------------------------------------------------------
# Compilation and caching
# ---------------------------------------------------------------------------


def test_static_pipeline_compiles_and_matches_interpreter():
    script = "grep light in.txt | sort | head -n 5"
    result = driver().run(script)
    assert result.stdout == baseline(script)
    assert result.jit.regions_compiled == 1
    assert result.jit.fallbacks == 0


def test_loop_body_with_stable_bindings_hits_cache():
    script = "for round in 1 2 3 4; do grep light in.txt | sort | head -n 3; done"
    result = driver().run(script)
    assert result.stdout == baseline(script)
    assert result.jit.regions_compiled == 1
    assert result.jit.cache_hits == 3
    # Cache hits must be in iteration order after the first compile.
    assert [outcome.action for outcome in result.jit.outcomes] == [
        "compiled",
        "cached",
        "cached",
        "cached",
    ]


def test_loop_variable_in_body_recompiles_per_value():
    script = 'for f in in.txt other.txt; do grep light "$f" | sort; done'
    result = driver().run(script)
    assert result.stdout == baseline(script)
    # Two distinct binding values -> two compilations, no stale reuse.
    assert result.jit.regions_compiled == 2
    assert result.jit.cache_hits == 0


def test_repeated_loop_values_reuse_cached_plans():
    script = 'for f in in.txt other.txt in.txt other.txt; do grep light "$f"; done'
    result = driver().run(script)
    assert result.stdout == baseline(script)
    assert result.jit.regions_compiled == 2
    assert result.jit.cache_hits == 2


def test_runtime_binding_unlocks_region_the_aot_path_rejects():
    # AOT: $pat is unknown -> the region is rejected.  JIT: by the time the
    # region runs, the assignment has executed, so it compiles.
    script = "pat=light\ngrep $pat in.txt | sort | head -n 4"
    result = driver().run(script)
    assert result.stdout == baseline(script)
    assert result.jit.regions_compiled == 1
    assert result.jit.fallbacks == 0


def test_reassignment_between_regions_is_visible():
    script = "pat=light\ngrep $pat other.txt\npat=dark\ngrep $pat other.txt"
    result = driver().run(script)
    assert result.stdout == baseline(script) == ["light a", "light c", "dark b"]
    assert result.jit.regions_compiled == 2  # different binding values


def test_command_substitution_region_compiles_but_never_caches():
    files = {"pat.txt": ["light"], "in.txt": ["light x", "dark y", "light z"]}
    script = "for i in 1 2; do grep $(cat pat.txt) in.txt; done"
    d = driver(files=files)
    result = d.run(script)
    assert result.stdout == baseline(script, files=files)
    assert result.jit.regions_compiled == 2  # fresh compile per occurrence
    assert result.jit.cache_hits == 0
    assert len(d.cache) == 0


def test_glob_region_compiles_fresh_each_time():
    script = "for i in 1 2; do cat *.txt | wc -l; done"
    d = driver()
    result = d.run(script)
    assert result.stdout == baseline(script)
    assert result.jit.regions_compiled == 2
    assert len(d.cache) == 0  # glob-dependent plans are not cached


def test_glob_region_tracks_filesystem_changes():
    files = {"a.txt": ["one"]}
    script = "cat *.txt | wc -l\nsort a.txt > b.txt\ncat *.txt | wc -l"
    result = driver(files=files).run(script)
    assert result.stdout == baseline(script, files=files) == ["1", "2"]


# ---------------------------------------------------------------------------
# Fallback
# ---------------------------------------------------------------------------


def test_unknown_command_falls_back_with_reason():
    files = {"in.txt": ["b", "a"]}
    script = "sort in.txt\necho done"
    result = driver(files=files).run(script)
    assert result.stdout == baseline(script, files=files)
    assert result.jit.regions_compiled == 1
    assert result.jit.fallbacks == 1
    reasons = result.jit.fallback_reasons()
    assert any("echo" in reason for reason in reasons)


def test_fallback_failure_is_negative_cached_across_iterations():
    files = {"in.txt": ["x"]}
    script = "for i in 1 2 3; do echo fixed; done"
    d = driver(files=files)
    result = d.run(script)
    assert result.stdout == ["fixed"] * 3
    assert result.jit.fallbacks == 3
    # Iterations 2+ must come from the negative cache, not fresh compiles.
    assert [outcome.cached_failure for outcome in result.jit.outcomes] == [
        False,
        True,
        True,
    ]


def test_builtins_and_assignments_are_not_regions():
    result = driver(files={"f.txt": ["x"]}).run("v=1\ntest $v -eq 1\ntrue")
    assert result.jit.regions_seen == 0


def test_fallback_preserves_exit_status_for_control_flow():
    files = {"in.txt": ["hello"]}
    script = "if test 2 -gt 3; then cat in.txt; else sort in.txt; fi"
    result = driver(files=files).run(script)
    assert result.stdout == baseline(script, files=files) == ["hello"]


# ---------------------------------------------------------------------------
# State, files, metrics, sessions
# ---------------------------------------------------------------------------


def test_files_written_by_compiled_regions_are_reported():
    files = {"in.txt": ["b", "c", "a"]}
    result = driver(files=files).run("sort in.txt > out.txt")
    assert result.files == {"out.txt": ["a", "b", "c"]}


def test_regions_communicate_through_files():
    files = {"in.txt": ["b", "light a", "light c"]}
    script = "grep light in.txt > mid.txt\nsort mid.txt | head -n 1"
    result = driver(files=files).run(script)
    assert result.stdout == baseline(script, files=files) == ["light a"]


def test_metrics_aggregate_across_regions():
    config = PashConfig.paper_default(2, jit_inner_backend="parallel")
    script = "grep light in.txt | sort\ngrep dark in.txt | sort"
    result = driver(config=config).run(script)
    assert result.metrics.backend == "jit"
    assert len(result.metrics.nodes) > 0
    assert result.metrics.worker_count >= 2


def test_driver_state_persists_across_runs_and_cache_stays_warm():
    d = driver()
    d.run("pat=light")
    second = d.run("grep $pat in.txt | head -n 2")
    assert second.stdout == baseline("grep light in.txt | head -n 2")
    third = d.run("grep $pat in.txt | head -n 2")
    assert third.jit.cache_hits == 1
    assert third.jit.regions_compiled == 0


def test_shared_cache_across_drivers():
    cache = PlanCache()
    first = driver(cache=cache).run("grep light in.txt | sort")
    second = driver(cache=cache).run("grep light in.txt | sort")
    assert first.jit.regions_compiled == 1
    assert second.jit.cache_hits == 1


def test_pash_session_routes_jit_with_pool():
    files = dataset()
    script = "for r in 1 2 3; do grep light in.txt | sort | head -n 3; done"
    # Pinned to the pool: "auto" keeps a 120-line region in-process.
    config = PashConfig.paper_default(2, backend="jit", jit_inner_backend="parallel")
    with Pash(config) as pash:
        environment = ExecutionEnvironment(
            filesystem=VirtualFileSystem({k: list(v) for k, v in files.items()})
        )
        result = pash.run(script, environment=environment)
    assert result.stdout == baseline(script)
    assert result.jit.regions_compiled == 1
    assert result.jit.cache_hits == 2
    # The session pool persisted workers across regions.
    assert result.metrics.processes_reused > 0


def test_a_loop_on_the_pool_compiles_once_and_runs_on_workers():
    """A loop over four inputs at width 4: iterations 2+ are cache hits, and
    every iteration runs on the worker pool, not in the driver."""
    files = {"in%d.txt" % index: dataset()["in.txt"][index::4] for index in range(4)}
    script = (
        "for round in 1 2 3 4; do\n"
        "  cat in0.txt in1.txt in2.txt in3.txt | grep light | sort | head -n 40\n"
        "done\n"
    )
    config = PashConfig.paper_default(4, jit_inner_backend="parallel")
    result = driver(config=config, files=files).run(script)
    assert result.stdout == baseline(script, files=files)
    assert result.jit.regions_compiled >= 1
    assert result.jit.cache_hits == 3
    assert result.jit.fallbacks == 0
    assert result.metrics.worker_count >= 2


def test_compiled_script_execute_jit_bypasses_rejection():
    files = {"in.txt": ["light a", "dark b"]}
    source = "x=dynamic\ngrep light in.txt\necho $x"
    compiled = Pash.compile(source, PashConfig.paper_default(2))
    environment = ExecutionEnvironment(
        filesystem=VirtualFileSystem({k: list(v) for k, v in files.items()})
    )
    result = compiled.execute(backend="jit", environment=environment)
    assert result.stdout == baseline(source, files=files) == ["light a", "dynamic"]


def test_jit_is_a_script_level_name_only():
    """No engine is registered under ``jit``: it is the driver, sizing regions."""
    from repro import engine
    from repro.api.artifact import SCRIPT_LEVEL_BACKENDS

    assert SCRIPT_LEVEL_BACKENDS == ("jit",)
    assert "jit" not in engine.available_backends()
    with pytest.raises(ValueError, match="unknown execution backend 'jit'"):
        engine.create_backend("jit")


def test_inner_backend_interpreter_and_parallel_agree():
    script = 'for f in in.txt other.txt; do grep light "$f" | sort | head -n 4; done'
    by_interpreter = driver(
        config=PashConfig.paper_default(2, jit_inner_backend="interpreter")
    ).run(script)
    by_parallel = driver(
        config=PashConfig.paper_default(2, jit_inner_backend="parallel")
    ).run(script)
    assert by_interpreter.stdout == by_parallel.stdout == baseline(script)


def test_config_change_misses_cache():
    cache = PlanCache()
    script = "grep light in.txt | sort"
    driver(config=PashConfig.paper_default(2, jit_inner_backend="interpreter"), cache=cache).run(script)
    second = driver(
        config=PashConfig.paper_default(4, jit_inner_backend="interpreter"), cache=cache
    ).run(script)
    assert second.jit.regions_compiled == 1  # width change -> new digest -> miss


def test_report_summary_mentions_counts():
    result = driver().run("for r in 1 2; do grep light in.txt; done")
    summary = result.jit.summary()
    assert "2 regions seen" in summary
    assert "1 compiled" in summary
    assert "1 cache hits" in summary


# ---------------------------------------------------------------------------
# Review regressions: default-value forms, :=, loop-binding order, per-run files
# ---------------------------------------------------------------------------


def test_default_form_with_dynamic_assignment_uses_runtime_value():
    # AOT cannot know X (dynamic assignment); the JIT must resolve the
    # ${X:-fallback} form with the *runtime* value, never the default.
    files = {"real.txt": ["REAL"], "fallback.txt": ["FALLBACK"]}
    script = "X=$(echo real.txt | head -n 1)\nsort ${X:-fallback.txt}"
    result = driver(files=files).run(script)
    assert result.stdout == baseline(script, files=files) == ["REAL"]


def test_aot_refuses_default_form_with_unknown_state():
    # The AOT compiler must refuse the region (conservative), not compile the
    # default in; running the script resolves it with the runtime value on
    # every front door, pinned engines included.
    from repro.api import run as api_run

    files = {"real.txt": ["REAL"], "fallback.txt": ["FALLBACK"]}
    script = "X=$(echo real.txt | head -n 1)\nsort ${X:-fallback.txt}"
    assert Pash.compile(script).translation.rejected
    result = api_run(
        script,
        backend="interpreter",
        environment=ExecutionEnvironment(
            filesystem=VirtualFileSystem({k: list(v) for k, v in files.items()})
        ),
    )
    assert result.stdout == ["REAL"]


def test_assign_default_form_persists_across_regions():
    files = {"in.txt": ["5 match", "6 other"]}
    script = "grep ${N:=5} in.txt\necho $N"
    result = driver(files=files).run(script)
    assert result.stdout == baseline(script, files=files) == ["5 match", "5"]


def test_single_item_loop_variable_not_visible_before_loop():
    # `$i` before the loop must stay unknown at compile time: the region is
    # reached before the loop binds i, and the JIT must match the oracle.
    files = {"x.txt": ["X"], ".txt": ["EMPTYNAME"]}
    script = "cat $i.txt\nfor i in x; do cat x.txt; done"
    result = driver(files=files).run(script)
    assert result.stdout == baseline(script, files=files) == ["EMPTYNAME", "X"]


def test_translate_script_rejects_preloop_use_of_loop_variable():
    from repro.dfg.builder import translate_script

    translation = translate_script("cat $i.txt\nfor i in x; do cat x.txt; done")
    assert len(translation.rejected) == 1
    assert "unknown variable $i" in translation.rejected[0][1]
    # The body region still compiles with the single-item binding.
    assert len(translation.regions) == 1


def test_result_files_are_per_run():
    d = driver(files={"a.txt": ["1"], "b.txt": ["2"]})
    first = d.run("sort a.txt > f1.txt")
    second = d.run("sort b.txt > f2.txt")
    assert sorted(first.files) == ["f1.txt"]
    assert sorted(second.files) == ["f2.txt"]
