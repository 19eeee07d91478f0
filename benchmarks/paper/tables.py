"""Table generators: Table 1 (study) and Table 2 (one-liner summary)."""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.api import Pash, PashConfig
from paper.study import standard_study
from paper.workloads.base import BenchmarkScript
from paper.workloads.oneliners import ONE_LINERS


def table1_rows() -> List[Dict[str, object]]:
    """Rows of Table 1: parallelizability classes of Coreutils and POSIX."""
    return standard_study().table_rows()


def format_table1() -> str:
    """Plain-text rendering of Table 1."""
    return standard_study().format_table()


def table2_row(
    benchmark: BenchmarkScript, widths=(16, 64)
) -> Dict[str, object]:
    """One Table 2 row: structure, input size, node counts, compile times."""
    row: Dict[str, object] = {
        "script": benchmark.name,
        "structure": benchmark.structure,
        "input": benchmark.paper_input,
        "seq_time": benchmark.paper_seq_time,
        "highlights": benchmark.highlights,
    }
    for width in widths:
        # Unfused, as in the harness: Table 2 counts the paper's nodes.
        compiled = Pash.compile(
            benchmark.script_for_width(width),
            PashConfig.paper_default(width, fuse_stages=False),
        )
        row[f"nodes_{width}"] = compiled.node_count
        row[f"compile_time_{width}"] = round(compiled.stats.compile_time_seconds, 4)
    return row


def table2_rows(
    benchmarks: Optional[List[BenchmarkScript]] = None, widths=(16, 64)
) -> List[Dict[str, object]]:
    """All Table 2 rows."""
    return [table2_row(benchmark, widths) for benchmark in benchmarks or ONE_LINERS]


def format_table2(rows: Optional[List[Dict[str, object]]] = None, widths=(16, 64)) -> str:
    """Plain-text rendering of Table 2."""
    rows = rows or table2_rows(widths=widths)
    header = (
        f"{'Script':<18}{'Structure':<14}{'Input':<10}"
        + "".join(f"{'#Nodes(' + str(w) + ')':<12}" for w in widths)
        + "".join(f"{'Compile(' + str(w) + ')':<13}" for w in widths)
        + "Highlights"
    )
    lines = [header, "-" * len(header)]
    for row in rows:
        line = f"{row['script']:<18}{row['structure']:<14}{row['input']:<10}"
        line += "".join(f"{row[f'nodes_{w}']:<12}" for w in widths)
        line += "".join(f"{row[f'compile_time_{w}']:<13}" for w in widths)
        line += str(row["highlights"])
        lines.append(line)
    return "\n".join(lines)
