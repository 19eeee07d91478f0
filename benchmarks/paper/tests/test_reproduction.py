"""The paper's §6, reproduced: every table and figure beside the paper's numbers.

Each test regenerates one table or figure through the discrete-event
simulator (or, for Table 1, the study's inventory), prints it next to what
the paper reports, and checks its shape.  Everything here is deterministic:
no wall clock is read, so the checks hold on any machine.
``pytest benchmarks/paper -s`` shows the printed rows.

Measured wall clocks are pash-bench's (``benchmarks/e2e``).
"""

import pytest

from repro.annotations.library import AnnotationLibrary, standard_library
from repro.api import PashConfig, SplitMode
from repro.dfg.builder import translate_script
from paper.figures import (
    FIG7_WIDTHS,
    best_configuration_speedups,
    figure7_series,
    figure8_series,
    figure8_summary,
)
from paper.harness import simulate_benchmark
from paper.microbench import gnu_parallel_comparison, parallel_sort_comparison
from paper.study import PAPER_TABLE1_COUNTS, standard_study
from paper.tables import format_table1, format_table2, table1_rows, table2_rows
from paper.usecases import noaa_correctness, noaa_usecase, wikipedia_correctness, wikipedia_usecase
from paper.workloads.oneliners import ONE_LINERS, PAPER_TABLE2, get_one_liner


def print_header(title: str) -> None:
    print()
    print("=" * 78)
    print(title)
    print("=" * 78)


# ---------------------------------------------------------------------------
# Table 1 — parallelizability classes of POSIX and GNU Coreutils (§3)
# ---------------------------------------------------------------------------


def test_table1_study():
    rows = table1_rows()

    print_header("Table 1 — Parallelizability classes (reproduced)")
    print(format_table1())
    print()
    print("Paper-reported counts:")
    study = standard_study()
    for (suite, parallelizability), expected in sorted(
        PAPER_TABLE1_COUNTS.items(), key=lambda item: (item[0][0], item[0][1].rank)
    ):
        measured = study.count(suite, parallelizability)
        print(f"  {suite:<10} {parallelizability.symbol}: paper={expected:<4} measured={measured}")
        assert measured == expected

    assert len(rows) == 4


# ---------------------------------------------------------------------------
# Table 2 — one-liner summary (structure, node counts, compile time)
# ---------------------------------------------------------------------------


def test_table2_oneliners():
    rows = table2_rows(widths=(16, 64))

    print_header("Table 2 — One-liner summary at widths 16 and 64 (reproduced)")
    print(format_table2(rows, widths=(16, 64)))
    print()
    print(f"{'script':<18}{'paper #nodes(16/64)':<24}{'measured #nodes(16/64)'}")
    for row in rows:
        paper = PAPER_TABLE2[row["script"]]
        print(
            f"{row['script']:<18}{paper['nodes_16']}/{paper['nodes_64']:<18}"
            f"{row['nodes_16']}/{row['nodes_64']}"
        )

    assert len(rows) == 12
    # Compilation stays in the milliseconds range reported by the paper.
    assert all(row["compile_time_64"] < 2.0 for row in rows)
    # Node counts grow roughly linearly with the parallelism width.
    assert all(row["nodes_64"] > 2 * row["nodes_16"] for row in rows)


# ---------------------------------------------------------------------------
# Figure 7 — one-liner speedups for 2-64x under five configurations
# ---------------------------------------------------------------------------

#: Paper: average best-configuration speedups for 2..64x parallelism.
PAPER_FIG7_AVERAGE_BEST = {2: 1.97, 4: 3.5, 8: 5.78, 16: 8.83, 32: 10.96, 64: 13.47}


@pytest.mark.parametrize("name", [b.name for b in ONE_LINERS])
def test_fig7_per_script(name):
    series = figure7_series(get_one_liner(name), widths=FIG7_WIDTHS)

    print_header(f"Figure 7 — {name}: speedup vs parallelism")
    for configuration, points in series.items():
        rendered = "  ".join(f"{width}x:{points[width]:6.2f}" for width in FIG7_WIDTHS)
        print(f"  {configuration:<16} {rendered}")

    best = series["Par + Split"]
    lazy = series["No Eager"]
    # Shape checks: speedup never decreases catastrophically with width, the
    # eager configuration is at least as good as the lazy one, and large
    # scripts improve over the sequential baseline.
    assert best[64] >= best[2] * 0.9
    assert all(best[width] >= lazy[width] * 0.95 for width in FIG7_WIDTHS)
    if name not in ("grep-light",):
        assert best[16] > 1.5


def test_fig7_average_best_speedup():
    averages = best_configuration_speedups(widths=FIG7_WIDTHS)
    print_header("Figure 7 — average best-configuration speedup per width")
    print(f"{'width':<8}{'paper':<10}{'measured'}")
    for width in FIG7_WIDTHS:
        print(f"{width:<8}{PAPER_FIG7_AVERAGE_BEST[width]:<10}{averages[width]}")
    # The averages grow monotonically with width and land in the same regime
    # as the paper (single digits at 8x, 10-20x at 64x).
    values = [averages[width] for width in FIG7_WIDTHS]
    assert all(later >= earlier for earlier, later in zip(values, values[1:]))
    assert 1.2 <= averages[2] <= 3.0
    assert 4.0 <= averages[16] <= 16.0
    assert 6.0 <= averages[64] <= 30.0


# ---------------------------------------------------------------------------
# Figure 8 — Unix50 pipeline speedups at 16x
# ---------------------------------------------------------------------------

#: Paper: average 5.49, median 6.07, weighted average 5.75 at 16x.
PAPER_FIG8_SUMMARY = {"average": 5.49, "median": 6.07, "weighted_average": 5.75}


def test_fig8_unix50():
    points = figure8_series(width=16)
    summary = figure8_summary(points)

    print_header("Figure 8 — Unix50 speedups at 16x (reproduced)")
    print(f"{'idx':<5}{'speedup':<10}{'seq (s)':<12}{'group':<12}description")
    for point in points:
        print(
            f"{point['index']:<5}{point['speedup']:<10}{point['sequential_seconds']:<12}"
            f"{point['expected_group']:<12}{point['description']}"
        )
    print()
    print(f"{'metric':<20}{'paper':<10}{'measured'}")
    for key, value in PAPER_FIG8_SUMMARY.items():
        print(f"{key:<20}{value:<10}{summary[key]}")

    assert len(points) == 34
    # Group-level shape: most pipelines accelerate, the awk/sed group stays
    # around 1x, and the tiny head-bound group slows down.
    for point in points:
        if point["expected_group"] == "speedup":
            assert point["speedup"] > 1.5, point
        elif point["expected_group"] == "nospeedup":
            assert 0.7 <= point["speedup"] <= 1.3, point
        else:
            assert point["speedup"] < 1.0, point
    # Aggregate statistics land near the paper's.
    assert 3.0 <= summary["average"] <= 9.0
    assert 3.0 <= summary["median"] <= 9.0


# ---------------------------------------------------------------------------
# §6.3 and §6.4 — the NOAA and Wikipedia use cases
# ---------------------------------------------------------------------------

#: Paper: 1.86x / 2.44x end-to-end at 2x / 10x; the max-temperature phase
#: alone reaches 2.30x / 10.79x.
PAPER_NOAA = {2: 1.86, 10: 2.44}
PAPER_NOAA_MAX_PHASE = {2: 2.30, 10: 10.79}


def test_noaa_usecase():
    results = noaa_usecase(widths=(2, 10), stations_per_year=2000)

    print_header("Use case — NOAA temperature analysis (Fig. 1 pipeline)")
    print(f"{'width':<8}{'paper (end-to-end)':<20}{'paper (max phase)':<20}{'measured'}")
    for width, data in results["widths"].items():
        print(f"{width:<8}{PAPER_NOAA[width]:<20}{PAPER_NOAA_MAX_PHASE[width]:<20}{data['speedup']}")

    two = results["widths"][2]["speedup"]
    ten = results["widths"][10]["speedup"]
    assert 1.5 <= two <= 2.5
    assert two < ten <= 12.0

    correctness = noaa_correctness(years=[2015], stations=4)
    print("parallel output identical to sequential:", correctness["identical"])
    assert correctness["identical"]


#: Paper: 1.97x at 2x and 12.7x at 16x parallelism.
PAPER_WIKIPEDIA = {2: 1.97, 16: 12.7}


def test_wikipedia_usecase():
    results = wikipedia_usecase(widths=(2, 16), url_count=6000)

    print_header("Use case — Wikipedia web indexing")
    print(f"{'width':<8}{'paper':<10}{'measured'}")
    for width, data in results["widths"].items():
        print(f"{width:<8}{PAPER_WIKIPEDIA[width]:<10}{data['speedup']}")

    two = results["widths"][2]["speedup"]
    sixteen = results["widths"][16]["speedup"]
    assert 1.5 <= two <= 2.5
    assert 8.0 <= sixteen <= 16.0

    correctness = wikipedia_correctness(pages=12, width=4)
    print("parallel index identical to sequential:", correctness["identical"])
    assert correctness["identical"]


# ---------------------------------------------------------------------------
# §6.5 — parallel sort and GNU parallel
# ---------------------------------------------------------------------------


def test_micro_parallel_sort():
    rows = parallel_sort_comparison(widths=(4, 8, 16, 32, 64), total_lines=100_000_000)

    print_header("Micro-benchmark — parallel sort (§6.5)")
    print(f"{'width':<8}{'PaSh':<10}{'PaSh no-eager':<15}{'sort --parallel'}")
    for row in rows:
        print(f"{row['width']:<8}{row['pash']:<10}{row['pash_no_eager']:<15}{row['sort_parallel']}")

    final = rows[-1]
    # Paper's qualitative claims: no-eager PaSh is comparable to sort
    # --parallel, eager PaSh outperforms it, and GNU sort's own scalability
    # saturates.
    assert final["pash"] > final["pash_no_eager"]
    assert final["pash"] >= final["sort_parallel"]
    gnu_values = [row["sort_parallel"] for row in rows]
    assert max(gnu_values) - gnu_values[-1] < 2.0  # saturation
    pash_values = [row["pash"] for row in rows]
    assert all(later >= earlier for earlier, later in zip(pash_values, pash_values[1:]))


#: Paper: PaSh 4.3x; parallel on the bottleneck stage 1.8x; naive parallel
#: 3.2x but with 92% of the output differing from the sequential run.
PAPER_GNU_PARALLEL = {"pash": 4.3, "single_stage": 1.8, "naive": 3.2, "naive_differing": 0.92}


def test_micro_gnu_parallel():
    report = gnu_parallel_comparison(total_lines=6_000_000, width=16)
    paper = PAPER_GNU_PARALLEL

    print_header("Micro-benchmark — GNU parallel comparison (§6.5)")
    print(f"{'variant':<28}{'paper':<10}{'measured'}")
    print(f"{'PaSh speedup':<28}{paper['pash']:<10}{report['pash_speedup']}")
    print(f"{'single-stage parallel':<28}{paper['single_stage']:<10}{report['single_stage_speedup']}")
    print(f"{'naive whole-pipeline':<28}{paper['naive']:<10}{report['naive_speedup']}")
    print(f"{'naive differing output':<28}{paper['naive_differing']:<10}{report['naive_differing_fraction']}")
    print(f"{'PaSh output identical':<28}{'yes':<10}{report['pash_output_identical']}")

    # Shape: PaSh accelerates the pipeline and stays correct; the naive GNU
    # parallel strategy breaks most of the output; targeting a single stage
    # yields limited benefit compared to PaSh.
    assert report["pash_speedup"] > 2.0
    assert report["pash_output_identical"]
    assert report["naive_differing_fraction"] > 0.5
    assert report["single_stage_speedup"] < report["pash_speedup"]


# ---------------------------------------------------------------------------
# Ablations — annotation coverage and the aggregation tree's fan-in
# ---------------------------------------------------------------------------


def _region_counts(library):
    accepted = rejected = 0
    for one_liner in ONE_LINERS:
        result = translate_script(one_liner.script_for_width(4), library=library)
        accepted += len(result.regions)
        rejected += len(result.rejected)
    return accepted, rejected


def test_ablation_annotation_coverage():
    """With the full library the one-liners parallelize; with no annotations
    PaSh conservatively touches nothing: the value of the §3 study and DSL."""
    full, empty = _region_counts(standard_library()), _region_counts(AnnotationLibrary())

    print_header("Ablation — annotation library coverage (one-liner corpus)")
    print(f"{'library':<22}{'regions translated':<22}{'regions rejected'}")
    print(f"{'standard library':<22}{full[0]:<22}{full[1]}")
    print(f"{'no annotations':<22}{empty[0]:<22}{empty[1]}")

    assert full[0] >= 12  # every benchmark contributes at least one region
    assert full[1] == 0
    assert empty[0] == 0  # without annotations PaSh conservatively does nothing
    assert empty[1] > 0


def test_ablation_aggregation_fan_in():
    """A binary aggregation tree against a flat n-way merge, on Sort at width 16."""
    one_liner = get_one_liner("sort")
    width = 16
    runs = {
        fan_in: simulate_benchmark(
            one_liner, width, PashConfig(width=width, split=SplitMode.GENERAL, aggregation_fan_in=fan_in)
        )
        for fan_in in (2, 4, 0)
    }

    print_header("Ablation — aggregation tree fan-in (Sort, width 16)")
    print(f"{'fan-in':<10}{'nodes':<10}{'speedup'}")
    for fan_in, run in runs.items():
        label = "flat" if fan_in == 0 else str(fan_in)
        print(f"{label:<10}{run.node_count:<10}{round(run.speedup, 2)}")

    binary = runs[2]
    flat = runs[0]
    # The binary tree uses more processes than the flat merge but keeps the
    # speedup in the same range (merging is pipelined either way).
    assert binary.node_count > flat.node_count
    assert binary.speedup > 1.0 and flat.speedup > 1.0
    assert abs(binary.speedup - flat.speedup) / flat.speedup < 0.6
