"""End-to-end integration tests across the whole compilation pipeline."""

import pytest

from repro.api import Pash, PashConfig, optimize
from repro.dfg.builder import translate_script
from repro.evaluation.harness import check_benchmark_correctness
from repro.evaluation.usecases import noaa_correctness, wikipedia_correctness
from repro.runtime.executor import DFGExecutor, ExecutionEnvironment
from repro.runtime.interpreter import ShellInterpreter
from repro.runtime.streams import VirtualFileSystem
from repro.workloads import text
from repro.workloads.oneliners import ONE_LINERS
from repro.workloads.unix50 import UNIX50_PIPELINES


def run_both_ways(script, files, width=4, config=None):
    """Run sequentially (interpreter) and in parallel (optimized DFGs)."""
    config = config or PashConfig.paper_default(width, fuse_stages=False)
    interpreter = ShellInterpreter(filesystem=VirtualFileSystem(dict(files)))
    sequential = interpreter.run_script(script)

    environment = ExecutionEnvironment(filesystem=VirtualFileSystem(dict(files)))
    parallel = []
    for region in translate_script(script).regions:
        optimize(region.dfg, config)
        parallel.extend(DFGExecutor(environment).execute(region.dfg).stdout)
    return sequential, parallel


def test_weather_style_pipeline_matches_sequential():
    files = {
        "2015.txt": text.text_lines(300, seed=1),
        "2016.txt": text.text_lines(300, seed=2),
    }
    script = "cat 2015.txt 2016.txt | tr A-Z a-z | grep -v 999 | sort -rn | head -n1"
    sequential, parallel = run_both_ways(script, files)
    assert sequential == parallel


def test_word_frequency_pipeline_matches_sequential():
    files = {"c0.txt": text.text_lines(400, seed=3), "c1.txt": text.text_lines(400, seed=4)}
    script = (
        "cat c0.txt c1.txt | tr -cs A-Za-z '\\n' | tr A-Z a-z | sort | uniq -c | sort -rn"
        " | head -n 20"
    )
    sequential, parallel = run_both_ways(script, files, width=8)
    assert sequential == parallel


def test_multi_statement_script_with_intermediate_files():
    files = {"a.txt": text.text_lines(200, seed=5), "b.txt": text.text_lines(200, seed=6)}
    script = (
        "cat a.txt | tr A-Z a-z | sort > sa.txt\n"
        "cat b.txt | tr A-Z a-z | sort > sb.txt\n"
        "comm -12 sa.txt sb.txt | wc -l"
    )
    sequential, parallel = run_both_ways(script, files)
    assert sequential == parallel


def test_every_configuration_preserves_output():
    files = {f"x{i}.txt": text.text_lines(150, seed=10 + i) for i in range(4)}
    script = "cat x0.txt x1.txt x2.txt x3.txt | grep the | sort | uniq -c | sort -rn | head -n 5"
    baseline = None
    for name, config in PashConfig.named_configurations(4).items():
        sequential, parallel = run_both_ways(script, files, config=config)
        baseline = baseline or sequential
        assert parallel == baseline, name


def test_compiled_script_text_is_reparseable():
    source = "cat a.txt b.txt | grep x | sort > out.txt"
    compiled = Pash.compile(source, PashConfig.paper_default(2, fuse_stages=False))
    from repro.shell.parser import parse

    parse(compiled.text)  # the emitted script is itself valid input


@pytest.mark.parametrize(
    "pipeline",
    [p for p in UNIX50_PIPELINES if p.expected_group == "speedup"][:12],
    ids=lambda p: f"u{p.index}",
)
def test_unix50_speedup_pipelines_are_output_identical(pipeline):
    files = pipeline.correctness_dataset(4, lines=240)
    script = pipeline.script_for_width(4)
    sequential, parallel = run_both_ways(script, files)
    assert sequential == parallel


def test_all_one_liners_correct_at_width_8():
    for benchmark in ONE_LINERS:
        report = check_benchmark_correctness(benchmark, width=8, lines=320)
        assert report.identical, benchmark.name


def test_use_cases_end_to_end():
    assert noaa_correctness(years=[2015], stations=3)["identical"]
    assert wikipedia_correctness(pages=6, width=3)["identical"]
