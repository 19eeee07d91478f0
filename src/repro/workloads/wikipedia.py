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

import random
from typing import Dict, List


_TOPICS = [
    "operating systems", "dataflow", "parallel computing", "shell scripting",
    "compilers", "databases", "networking", "file systems", "scheduling",
    "distributed systems", "stream processing", "text indexing",
]

_SENTENCES = [
    "The {topic} article discusses the history and design of {topic}.",
    "Researchers studying {topic} have published extensively at systems venues.",
    "A common technique in {topic} is pipeline composition and parallel execution.",
    "See also the related article on <a href='https://example.org/wiki/{slug}'>{topic}</a>.",
    "Performance of {topic} improved dramatically with data parallelism.",
]


def url_list(pages: int = 64) -> List[str]:
    """The input file of the use case: one page URL per line."""
    return [f"https://example.org/wiki/page-{index:05d}" for index in range(pages)]


def page_html(identifier: str, paragraphs: int = 30) -> List[str]:
    """Deterministic HTML for one page identifier (or URL)."""
    rng = random.Random(hash(identifier) & 0xFFFFFFFF)
    slug = identifier.rsplit("/", 1)[-1]
    lines = [f"<html><head><title>{slug}</title></head><body>"]
    for _ in range(paragraphs):
        topic = rng.choice(_TOPICS)
        sentence = rng.choice(_SENTENCES).format(topic=topic, slug=slug.replace(" ", "-"))
        lines.append(f"<p>{sentence}</p>")
    lines.append("</body></html>")
    return lines


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
