"""The Wikipedia web-indexing use case (§6.4).

The paper's script reads a list of Wikipedia URLs, downloads each page,
strips the HTML, and applies a chain of natural-language-processing stages
(written in several languages) to build an index.  Offline, the downloads
are replaced by a deterministic page generator (``fetch-page``), and the
non-POSIX stages (``url-extract``, ``word-stem``, ``html-to-text``) are the
annotated custom commands shipped with :mod:`repro.commands` — exactly the
situation the paper describes: commands outside POSIX/GNU whose
parallelizability is captured with one-line annotations.
"""

from __future__ import annotations

from typing import Dict, List


def url_list(pages: int = 64) -> List[str]:
    """The input file of the use case: one page URL per line."""
    return [f"https://example.org/wiki/page-{index:05d}" for index in range(pages)]


def dataset(pages: int = 64) -> Dict[str, List[str]]:
    """Materialize the URL list (page bodies are generated by ``fetch-page``)."""
    return {"urls.txt": url_list(pages)}


def indexing_script(pages_file: str = "urls.txt") -> str:
    """The indexing pipeline over the URL list.

    Structure mirrors the paper's description: fetch pages, convert HTML to
    text, normalize, stem, compute term frequencies.  All custom stages carry
    stateless annotations, so PaSh can parallelize the bulk of the work even
    though the commands are not POSIX utilities.
    """
    return (
        f"cat {pages_file} | xargs -n 1 fetch-page | html-to-text | lowercase"
        " | strip-punct | tr -s ' ' | tr ' ' '\\n' | grep -v '^$' | word-stem"
        " | sort | uniq -c | sort -rn > index.txt"
    )
