"""Edges of the dataflow graph: streams connecting nodes.

An edge is either a named file (the graph's external inputs and outputs) or a
FIFO created by PaSh when instantiating the graph (§5.2).  Edges carry at most
one producer and one consumer; fan-out requires explicit relay/tee nodes and
fan-in requires explicit ``cat`` nodes, mirroring the paper's model.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional


class EdgeKind(enum.Enum):
    """What backs the stream."""

    FILE = "file"
    PIPE = "pipe"
    STDIN = "stdin"
    STDOUT = "stdout"


@dataclass
class Edge:
    """A stream edge.

    ``source`` and ``target`` are node identifiers (or None when the edge is a
    graph input/output).  ``name`` is the file name for FILE edges and a
    generated FIFO name for PIPE edges.
    """

    edge_id: int
    kind: EdgeKind = EdgeKind.PIPE
    name: Optional[str] = None
    source: Optional[int] = None
    target: Optional[int] = None
    #: Marks edges appended to the graph output via ``>>`` redirections.
    append: bool = False

    @property
    def is_graph_input(self) -> bool:
        """True when no node in the graph produces this edge."""
        return self.source is None

    @property
    def is_graph_output(self) -> bool:
        """True when no node in the graph consumes this edge."""
        return self.target is None

    def display_name(self) -> str:
        """Human-readable name used by the emitter and in debug dumps."""
        if self.name:
            return self.name
        return f"#{self.edge_id}"

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"Edge({self.edge_id}, {self.kind.value}, {self.display_name()}, "
            f"{self.source}->{self.target})"
        )
