"""The twelve classic one-liners of §6.1 (Table 2 and Fig. 7).

Each benchmark reads its corpus from a set of input chunk files (``in0.txt``,
``in1.txt``, ...); the evaluation harness sizes the chunk set to the
parallelism width under test, mirroring how the original evaluation divides
its input data.  Scripts stick to the command and flag subset implemented by
:mod:`repro.commands` so that the correctness check (sequential output ==
parallel output) can run hermetically.

Deviations from the exact scripts used in the paper are deliberate and noted
per benchmark (e.g. Bi-grams-opt uses a per-line bigram helper instead of the
stream-shifting trick, and Shortest-scripts replaces ``file`` — which needs a
real filesystem — with equivalent stateless stages).
"""

from __future__ import annotations

from typing import Dict, List

from paper.workloads import text
from paper.workloads.base import BenchmarkScript


def _cat(chunks: List[str]) -> str:
    return "cat " + " ".join(chunks)


# ---------------------------------------------------------------------------
# Script builders
# ---------------------------------------------------------------------------


def _grep_script(chunks: List[str]) -> str:
    return _cat(chunks) + " | tr A-Z a-z | grep 'light.*dark' | grep -v signal > out.txt"


def _grep_light_script(chunks: List[str]) -> str:
    return _cat(chunks) + " | grep lights | cut -d ' ' -f 1 | grep -v kernel > out.txt"


def _sort_script(chunks: List[str]) -> str:
    return _cat(chunks) + " | tr A-Z a-z | sort > out.txt"


def _topn_script(chunks: List[str]) -> str:
    return (
        _cat(chunks)
        + " | tr -cs A-Za-z '\\n' | tr A-Z a-z | sort | uniq -c | sort -rn | head -n 100 > out.txt"
    )


def _wf_script(chunks: List[str]) -> str:
    return (
        _cat(chunks)
        + " | tr -cs A-Za-z '\\n' | tr A-Z a-z | tr -d '[:punct:]' | sort | uniq -c | sort -rn"
        + " > out.txt"
    )


def _spell_script(chunks: List[str]) -> str:
    return (
        _cat(chunks)
        + " | tr A-Z a-z | tr -d '[:punct:]' | tr ' ' '\\n' | sort | uniq"
        + " | comm -13 dict.txt - > out.txt"
    )


def _shortest_scripts_script(chunks: List[str]) -> str:
    return (
        _cat(chunks)
        + " | tr -s ' ' | cut -d ' ' -f 1 | grep -v '^$' | sed 's;^/usr;/opt;'"
        + " | sort | head -n 15 > out.txt"
    )


def _diff_script(chunks: List[str]) -> str:
    half = max(len(chunks) // 2, 1)
    first, second = chunks[:half], chunks[half:] or chunks[:1]
    return "\n".join(
        [
            _cat(first) + " | tr A-Z a-z | sort > sorted_a.txt",
            _cat(second) + " | tr A-Z a-z | sort > sorted_b.txt",
            "diff sorted_a.txt sorted_b.txt | wc -l > out.txt",
        ]
    )


def _set_diff_script(chunks: List[str]) -> str:
    half = max(len(chunks) // 2, 1)
    first, second = chunks[:half], chunks[half:] or chunks[:1]
    return "\n".join(
        [
            _cat(first) + " | tr A-Z a-z | sort > sorted_a.txt",
            _cat(second) + " | cut -d ' ' -f 1 | tr A-Z a-z | sort > sorted_b.txt",
            "comm -3 sorted_a.txt sorted_b.txt | wc -l > out.txt",
        ]
    )


def _bigrams_script(chunks: List[str]) -> str:
    return "\n".join(
        [
            _cat(chunks) + " | tr -cs A-Za-z '\\n' | tr A-Z a-z > words.txt",
            "tail -n +2 words.txt > next_words.txt",
            "paste words.txt next_words.txt | sort | uniq -c | sort -rn > out.txt",
        ]
    )


def _bigrams_opt_script(chunks: List[str]) -> str:
    # The optimized variant folds the stream shifting into a single annotated
    # helper so the whole pipeline parallelizes without a split barrier.
    return (
        _cat(chunks)
        + " | lowercase | strip-punct | bigrams | sort | uniq -c | sort -rn > out.txt"
    )


def _sort_sort_script(chunks: List[str]) -> str:
    return _cat(chunks) + " | tr A-Z a-z | sort | sort -r > out.txt"


# ---------------------------------------------------------------------------
# Corpus generators
# ---------------------------------------------------------------------------


def _english(count: int, seed: int) -> List[str]:
    return text.text_lines(count, seed=seed)


def _paths(count: int, seed: int) -> List[str]:
    return text.script_paths(count, seed=seed + 100)


def _dictionary() -> Dict[str, List[str]]:
    return {"dict.txt": text.dictionary_words()}


# ---------------------------------------------------------------------------
# Benchmark table
# ---------------------------------------------------------------------------

_GB = 12_000_000  # ~1 GB of ~80-byte lines

ONE_LINERS: List[BenchmarkScript] = [
    BenchmarkScript(
        name="grep",
        build_script=_grep_script,
        structure="3xS",
        simulated_total_lines=1 * _GB,
        paper_input="1 GB",
        paper_seq_time="79m35s",
        highlights="complex NFA regex",
        corpus_generator=_english,
        cost_overrides={"grep": {"seconds_per_line": 2.4e-4, "selectivity": 0.2}},
        paper_speedup_note="near-linear, up to ~60x",
    ),
    BenchmarkScript(
        name="sort",
        build_script=_sort_script,
        structure="S, P",
        simulated_total_lines=10 * _GB,
        paper_input="10 GB",
        paper_seq_time="21m46s",
        highlights="sorting",
        corpus_generator=_english,
        paper_speedup_note="caps around 8x (sort scalability)",
    ),
    BenchmarkScript(
        name="top-n",
        build_script=_topn_script,
        structure="2xS, 4xP",
        simulated_total_lines=10 * _GB,
        paper_input="10 GB",
        paper_seq_time="78m45s",
        highlights="double sort, uniq reduction",
        corpus_generator=_english,
        paper_speedup_note="~10x at high width",
    ),
    BenchmarkScript(
        name="wf",
        build_script=_wf_script,
        structure="3xS, 3xP",
        simulated_total_lines=10 * _GB,
        paper_input="10 GB",
        paper_seq_time="22m30s",
        highlights="double sort, uniq reduction",
        corpus_generator=_english,
        paper_speedup_note="~8x",
    ),
    BenchmarkScript(
        name="grep-light",
        build_script=_grep_light_script,
        structure="3xS",
        simulated_total_lines=100 * _GB,
        paper_input="100 GB",
        paper_seq_time="1m38s",
        highlights="IO-intensive, computation-light",
        corpus_generator=_english,
        cost_overrides={"grep": {"seconds_per_line": 4e-8, "selectivity": 0.15}},
        paper_speedup_note="1.5-2.5x (IO bound)",
    ),
    BenchmarkScript(
        name="spell",
        build_script=_spell_script,
        structure="4xS, 3xP",
        simulated_total_lines=3 * _GB,
        paper_input="3 GB",
        paper_seq_time="25m07s",
        highlights="comparisons (comm)",
        corpus_generator=_english,
        static_files=_dictionary,
        static_line_counts={"dict.txt": 400},
        paper_speedup_note="~8x",
    ),
    BenchmarkScript(
        name="shortest-scripts",
        build_script=_shortest_scripts_script,
        structure="5xS, 2xP",
        simulated_total_lines=1_000_000,
        paper_input="85 MB",
        paper_seq_time="28m45s",
        highlights="long stateless pipeline ending with P",
        corpus_generator=_paths,
        cost_overrides={"sed": {"seconds_per_line": 1.5e-3}},
        paper_speedup_note="~15x",
    ),
    BenchmarkScript(
        name="diff",
        build_script=_diff_script,
        structure="2xS, 3xP",
        simulated_total_lines=10 * _GB,
        paper_input="10 GB",
        paper_seq_time="25m49s",
        highlights="non-parallelizable diffing",
        corpus_generator=_english,
        paper_speedup_note="caps around 3x",
    ),
    BenchmarkScript(
        name="bi-grams",
        build_script=_bigrams_script,
        structure="3xS, 3xP",
        simulated_total_lines=3 * _GB,
        paper_input="3 GB",
        paper_seq_time="38m09s",
        highlights="stream shifting and merging",
        corpus_generator=_english,
        paper_speedup_note="needs split; up to ~30x",
    ),
    BenchmarkScript(
        name="bi-grams-opt",
        build_script=_bigrams_opt_script,
        structure="3xS, P",
        simulated_total_lines=3 * _GB,
        paper_input="3 GB",
        paper_seq_time="38m21s",
        highlights="optimized version of bigrams",
        corpus_generator=_english,
        paper_speedup_note="better than bi-grams",
    ),
    BenchmarkScript(
        name="set-diff",
        build_script=_set_diff_script,
        structure="5xS, 2xP",
        simulated_total_lines=10 * _GB,
        paper_input="10 GB",
        paper_seq_time="51m32s",
        highlights="two pipelines merging to a comm",
        corpus_generator=_english,
        paper_speedup_note="~15x",
    ),
    BenchmarkScript(
        name="sort-sort",
        build_script=_sort_sort_script,
        structure="S, 2xP",
        simulated_total_lines=10 * _GB,
        paper_input="10 GB",
        paper_seq_time="31m26s",
        highlights="parallelizable P after P",
        corpus_generator=_english,
        paper_speedup_note="~6x, degrades at high width",
    ),
]


def get_one_liner(name: str) -> BenchmarkScript:
    """Look up a one-liner benchmark by name."""
    for benchmark in ONE_LINERS:
        if benchmark.name == name:
            return benchmark
    raise KeyError(f"unknown one-liner benchmark {name!r}")


#: Paper-reported Table 2 values for comparison in EXPERIMENTS.md.
PAPER_TABLE2 = {
    "grep": {"nodes_16": 49, "nodes_64": 193},
    "sort": {"nodes_16": 77, "nodes_64": 317},
    "top-n": {"nodes_16": 96, "nodes_64": 384},
    "wf": {"nodes_16": 96, "nodes_64": 384},
    "grep-light": {"nodes_16": 49, "nodes_64": 193},
    "spell": {"nodes_16": 193, "nodes_64": 769},
    "shortest-scripts": {"nodes_16": 142, "nodes_64": 574},
    "diff": {"nodes_16": 125, "nodes_64": 509},
    "bi-grams": {"nodes_16": 185, "nodes_64": 761},
    "bi-grams-opt": {"nodes_16": 63, "nodes_64": 255},
    "set-diff": {"nodes_16": 155, "nodes_64": 635},
    "sort-sort": {"nodes_16": 154, "nodes_64": 634},
}
