"""Short pipelines run back to back on the warm shared pool.

A batch of width-4 ``cat | grep | tr`` runs through one compiled script: the
shape where the persistent pool, stage fusion and the disabled tracing and
fault hooks are what a run costs.  Their wall clocks are pash-bench's
(``script_mix``, and CI's overhead gates on its ``obs.null_hook_ns`` and
``resilience.null_hook_ns``); these are the counts that must hold however
fast the box is.
"""

from repro import api
from repro.api import Pash, PashConfig
from repro.obs.export import span_summary
from repro.runtime.executor import ExecutionEnvironment
from repro.runtime.streams import VirtualFileSystem
from paper.workloads import text

WIDTH = 4
RUNS = 4
SCRIPT = "cat in0.txt in1.txt in2.txt in3.txt | grep the | tr A-Z a-z > out.txt"


def environment():
    files = {f"in{i}.txt": text.text_lines(300, seed=i) for i in range(WIDTH)}
    return ExecutionEnvironment(filesystem=VirtualFileSystem(files))


def run_batch(config):
    compiled = Pash(config).compile(SCRIPT)
    compiled.execute(backend="parallel", environment=environment())  # warm the pool
    return [compiled.execute(backend="parallel", environment=environment()) for _ in range(RUNS)]


def test_a_warm_batch_reuses_the_pool_and_fuses_its_stages():
    expected = api.run(SCRIPT, backend="interpreter", environment=environment())
    results = run_batch(PashConfig.paper_default(WIDTH))

    for result in results:
        assert result.output_of("out.txt") == expected.output_of("out.txt")
        # Unarmed fault hooks touch the retry ladder nowhere.
        assert result.metrics.runs_retried == 0 and result.metrics.degraded_runs == 0
        assert result.spans == []  # tracing off records nothing
    # Stage fusion does real work on this shape (one grep|tr stage per lane)...
    assert results[-1].metrics.stages_fused >= WIDTH
    # ...and the pooled runs do not fork the graph again.
    spawned = sum(result.metrics.processes_spawned for result in results)
    reused = sum(result.metrics.processes_reused for result in results)
    assert spawned == 0 and reused > 0


def test_a_traced_run_covers_the_scheduler_and_every_lane():
    result = run_batch(PashConfig.paper_default(WIDTH, tracing=True))[-1]
    summary = span_summary(result.spans)
    assert summary["spans_total"] > 0
    assert summary.get("span_count_worker", 0) >= WIDTH
    assert summary.get("span_count_scheduler", 0) >= 1
