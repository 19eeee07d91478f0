"""PaSh's runtime primitives and the in-process DFG executor (§5.2).

The real PaSh ships small C/Python helper programs (``eager``, ``split``, and
a library of aggregators) that the emitted shell script invokes.  This
package provides the same primitives as Python functions plus:

* :class:`~repro.runtime.streams.VirtualFileSystem` — an in-memory file
  namespace so scripts can be executed hermetically,
* :class:`~repro.runtime.executor.DFGExecutor` — evaluates a dataflow graph
  over line streams, used to check that optimized graphs produce output
  identical to their sequential counterparts, and
* :class:`~repro.runtime.interpreter.ShellInterpreter` — a small interpreter
  for the supported shell subset, used as the sequential baseline for whole
  scripts (loops, sequences) rather than single regions.
"""

from repro.runtime.aggregators import AGGREGATORS, AggregatorError, apply_aggregator
from repro.runtime.executor import DFGExecutor, ExecutionEnvironment, ExecutionError
from repro.runtime.interpreter import InterpreterError, ShellInterpreter
from repro.runtime.split import split_stream
from repro.runtime.streams import VirtualFileSystem

__all__ = [
    "AGGREGATORS",
    "AggregatorError",
    "DFGExecutor",
    "ExecutionEnvironment",
    "ExecutionError",
    "InterpreterError",
    "ShellInterpreter",
    "VirtualFileSystem",
    "apply_aggregator",
    "split_stream",
]
