"""The Unix50 pipelines (§6.2, Fig. 8).

Bell Labs' Unix50 game poses small text-processing puzzles solved with UNIX
pipelines; the paper benchmarks 34 community solutions written by
non-experts.  The original puzzle inputs and the GitHub solutions are not
redistributable here, so this module recreates a 34-pipeline corpus with the
same character:

* written against the same command set (grep/sed/cut/sort/uniq/awk/...),
* 2-12 stages each (average ~5.6, matching the paper),
* a group of pipelines that PaSh cannot accelerate because they contain
  commands it refuses to parallelize (``awk``, ``sed -n``), and
* a group dominated by ``head`` on tiny inputs, where PaSh's constant setup
  cost causes a slowdown.

Indices are stable so figures reference pipelines the same way the paper
does ("pipeline 13 contains an awk stage", etc.).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List

from paper.workloads import text
from paper.workloads.base import chunk_names, chunked_line_counts

_GB_LINES = 12_000_000
_DEFAULT_LINES = 10 * _GB_LINES  # inputs were grown to ~10 GB in the paper


def _cat(chunks: List[str]) -> str:
    return "cat " + " ".join(chunks)


@dataclass
class Unix50Pipeline:
    """One Unix50 pipeline."""

    index: int
    description: str
    build_script: Callable[[List[str]], str]
    #: "speedup", "nospeedup" (unparallelizable command), or "slowdown" (tiny).
    expected_group: str = "speedup"
    simulated_total_lines: int = _DEFAULT_LINES
    corpus: str = "text"

    def script_for_width(self, width: int, prefix: str = "in") -> str:
        return self.build_script(chunk_names(width, prefix))

    def input_line_counts(self, width: int, prefix: str = "in") -> Dict[str, int]:
        return chunked_line_counts(self.simulated_total_lines, width, prefix)

    def stage_count(self) -> int:
        """Number of pipeline stages (used to sanity-check the corpus shape)."""
        return self.build_script(["in0.txt"]).count("|") + 1

    def correctness_dataset(self, width: int, lines: int = 800) -> Dict[str, List[str]]:
        generator = text.numeric_lines if self.corpus == "numeric" else text.text_lines
        per_chunk, remainder = divmod(lines, width)
        files = {}
        for index, name in enumerate(chunk_names(width)):
            size = per_chunk + (1 if index < remainder else 0)
            files[name] = generator(size, seed=self.index * 101 + index)
        return files


def _pipeline(template: str) -> Callable[[List[str]], str]:
    def build(chunks: List[str]) -> str:
        return template.format(input=_cat(chunks))
    return build


_TINY = 2_000  # the "practically one line of work" group


UNIX50_PIPELINES: List[Unix50Pipeline] = [
    Unix50Pipeline(0, "word frequencies",
                   _pipeline("{input} | tr -cs A-Za-z '\\n' | tr A-Z a-z | sort | uniq -c | sort -rn")),
    Unix50Pipeline(1, "most common first words",
                   _pipeline("{input} | cut -d ' ' -f 1 | sort | uniq -c | sort -rn | head -n 20")),
    Unix50Pipeline(2, "first matching line only",
                   _pipeline("{input} | grep light | head -n 1"),
                   expected_group="slowdown", simulated_total_lines=_TINY),
    Unix50Pipeline(3, "sorted unique lowercase lines",
                   _pipeline("{input} | tr A-Z a-z | sort -u")),
    Unix50Pipeline(4, "count marker lines",
                   _pipeline("{input} | grep lights | wc -l")),
    Unix50Pipeline(5, "strip punctuation then count words",
                   _pipeline("{input} | tr -d '[:punct:]' | tr ' ' '\\n' | grep -v '^$' | wc -l")),
    Unix50Pipeline(6, "longest lines by folding",
                   _pipeline("{input} | fold -w 30 | sort | uniq | wc -l")),
    Unix50Pipeline(7, "reverse every line then sort",
                   _pipeline("{input} | rev | sort | head -n 50")),
    Unix50Pipeline(8, "second field histogram",
                   _pipeline("{input} | tr -s ' ' | cut -d ' ' -f 2 | sort | uniq -c | sort -rn")),
    Unix50Pipeline(9, "deduplicate then count",
                   _pipeline("{input} | sort | uniq | wc -l")),
    Unix50Pipeline(10, "grep chain with negation",
                   _pipeline("{input} | grep light | grep -v dark | tr A-Z a-z | sort | uniq")),
    Unix50Pipeline(11, "numeric extremes",
                   _pipeline("{input} | grep -v 999 | sort -rn | head -n 5"), corpus="numeric"),
    Unix50Pipeline(12, "character histogram",
                   _pipeline("{input} | fold -w 1 | sort | uniq -c | sort -rn | head -n 26")),
    Unix50Pipeline(13, "awk column reorder then sort",
                   _pipeline("{input} | awk '{{print $2, $0}}' | sort -rn | head -n 10"),
                   expected_group="nospeedup"),
    Unix50Pipeline(14, "stemmed vocabulary",
                   _pipeline("{input} | lowercase | word-stem | tr ' ' '\\n' | sort -u | wc -l")),
    Unix50Pipeline(15, "bigram counts",
                   _pipeline("{input} | lowercase | bigrams | sort | uniq -c | sort -rn | head -n 30")),
    Unix50Pipeline(16, "sorted numeric column",
                   _pipeline("{input} | tr -s ' ' | cut -d ' ' -f 3 | sort -n | uniq -c"),
                   corpus="numeric"),
    Unix50Pipeline(17, "reverse complement-ish transform",
                   _pipeline("{input} | tr A-Za-z N-ZA-Mn-za-m | sort | head -n 40")),
    Unix50Pipeline(18, "longest words",
                   _pipeline("{input} | tr ' ' '\\n' | sort | uniq | rev | sort | rev | head -n 25")),
    Unix50Pipeline(19, "single header line",
                   _pipeline("{input} | head -n 1 | tr A-Z a-z"),
                   expected_group="slowdown", simulated_total_lines=_TINY),
    Unix50Pipeline(20, "sort by trailing field",
                   _pipeline("{input} | rev | sort | rev | uniq | wc -l")),
    Unix50Pipeline(21, "filter then squeeze",
                   _pipeline("{input} | grep -i unix | tr -s ' ' | cut -d ' ' -f 1 | sort | uniq -c")),
    Unix50Pipeline(22, "cheap filter over huge input",
                   _pipeline("{input} | grep -v the | wc -l")),
    Unix50Pipeline(23, "punctuation census",
                   _pipeline("{input} | tr -d A-Za-z0-9 | tr -d ' ' | fold -w 1 | sort | uniq -c")),
    Unix50Pipeline(24, "awk projection",
                   _pipeline("{input} | awk '{{print $1}}' | sort | uniq | wc -l"),
                   expected_group="nospeedup"),
    Unix50Pipeline(25, "line numbering with awk",
                   _pipeline("{input} | awk '{{print $0}}' | nl | tail -n 5"),
                   expected_group="nospeedup"),
    Unix50Pipeline(26, "positional selection",
                   _pipeline("{input} | nl | grep '5' | tail -n+2 | wc -l"),
                   expected_group="nospeedup"),
    Unix50Pipeline(27, "double sort pipeline",
                   _pipeline("{input} | tr A-Z a-z | sort | uniq -c | sort -rn | head -n 100")),
    Unix50Pipeline(28, "repeated first words",
                   _pipeline("{input} | cut -d ' ' -f 1 | sort | uniq -d | wc -l")),
    Unix50Pipeline(29, "awk with separator",
                   _pipeline("{input} | awk -F ' ' '{{print $3}}' | sort -n | tail -n 3"),
                   expected_group="nospeedup"),
    Unix50Pipeline(30, "stream editor line selection",
                   _pipeline("{input} | sed -n 1p | wc -c"),
                   expected_group="nospeedup", simulated_total_lines=_GB_LINES),
    Unix50Pipeline(31, "tiny lookup",
                   _pipeline("{input} | grep -i maximum | head -n 2"),
                   expected_group="slowdown", simulated_total_lines=_TINY),
    Unix50Pipeline(32, "vocabulary growth",
                   _pipeline("{input} | tr -cs A-Za-z '\\n' | lowercase | sort -u | wc -l")),
    Unix50Pipeline(33, "frequency of long words",
                   _pipeline("{input} | tr ' ' '\\n' | grep '.{{7,}}' | sort | uniq -c | sort -rn")),
]


def get_pipeline(index: int) -> Unix50Pipeline:
    """Look up a Unix50 pipeline by its stable index."""
    for pipeline in UNIX50_PIPELINES:
        if pipeline.index == index:
            return pipeline
    raise KeyError(f"unknown Unix50 pipeline {index}")


def average_stage_count() -> float:
    """Average pipeline depth of the corpus (paper: 5.58)."""
    return sum(p.stage_count() for p in UNIX50_PIPELINES) / len(UNIX50_PIPELINES)
