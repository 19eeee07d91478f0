"""Workload definitions: synthetic inputs plus the benchmark script corpus.

Every experiment in the paper's evaluation is backed by a workload defined
here:

* :mod:`paper.workloads.text` — deterministic synthetic text corpora,
* :mod:`paper.workloads.oneliners` — the twelve classic one-liners of §6.1
  (Table 2 / Fig. 7),
* :mod:`paper.workloads.unix50` — the 34 Unix50 pipelines of §6.2 (Fig. 8),
* :mod:`paper.workloads.noaa` — the temperature-analysis use case of §6.3,
* :mod:`paper.workloads.wikipedia` — the web-indexing use case of §6.4.
"""
