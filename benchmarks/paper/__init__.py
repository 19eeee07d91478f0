"""The paper's §6 evaluation: it measures ``repro`` and is not part of it.

* :mod:`paper.workloads` — the benchmark scripts and their synthetic inputs,
* :mod:`paper.study` — the parallelizability study behind Table 1,
* :mod:`paper.harness` — shared plumbing (compile, simulate, correctness
  check) used by all experiments,
* :mod:`paper.tables` — Table 1 (parallelizability study) and Table 2
  (one-liner summary),
* :mod:`paper.figures` — Fig. 7 (one-liner speedups across runtime
  configurations) and Fig. 8 (Unix50 speedups at 16x),
* :mod:`paper.usecases` — §6.3 (NOAA weather) and §6.4 (Wikipedia indexing),
* :mod:`paper.microbench` — §6.5 (parallel sort and GNU parallel).

``tests/`` holds each module's unit tests; ``tests/test_reproduction.py``
regenerates every table and figure and prints it beside the paper's numbers
(``pytest benchmarks/paper -s``).  Import it as ``paper`` with ``benchmarks``
on the path: ``pytest.ini`` puts it there, and a script needs
``PYTHONPATH=src:benchmarks``.
"""
