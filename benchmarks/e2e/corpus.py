"""The frozen ``script_mix`` / ``service_closed`` script corpus.

These are the paper's Table-2 one-liners and the repository's unix50
pipelines at width 2, copied here as literals so that a later change to
``repro.workloads`` cannot silently change what the benchmark runs.  A script
is in ``SCRIPTS`` when its ``jit`` output is byte-identical to the host's
``LC_ALL=C sh -c`` on the generated inputs for every seed tried while sizing
(seeds 0-500 and 400 random 31-bit ones); the rest are in ``EXCLUDED`` with
the reason and are never run.

Input files (see ``inputs.small_files``): ``in0/in1.txt`` text, ``num0/num1.txt``
integers, ``paths0/paths1.txt`` path rows, ``dict.txt`` a sorted dictionary.
"""

SCRIPTS = [
    ("grep", "cat in0.txt in1.txt | tr A-Z a-z | grep 'light.*dark' | grep -v signal > out.txt"),
    ("sort", "cat in0.txt in1.txt | tr A-Z a-z | sort > out.txt"),
    ("top-n", "cat in0.txt in1.txt | tr -cs A-Za-z '\\n' | tr A-Z a-z | sort | uniq -c | sort -rn | head -n 100 > out.txt"),
    ("wf", "cat in0.txt in1.txt | tr -cs A-Za-z '\\n' | tr A-Z a-z | tr -d '[:punct:]' | sort | uniq -c | sort -rn > out.txt"),
    ("grep-light", "cat in0.txt in1.txt | grep lights | cut -d ' ' -f 1 | grep -v kernel > out.txt"),
    ("spell", "cat in0.txt in1.txt | tr A-Z a-z | tr -d '[:punct:]' | tr ' ' '\\n' | sort | uniq | comm -13 dict.txt - > out.txt"),
    ("shortest-scripts", "cat paths0.txt paths1.txt | tr -s ' ' | cut -d ' ' -f 1 | grep -v '^$' | sed 's;^/usr;/opt;' | sort | head -n 15 > out.txt"),
    ("bi-grams", "cat in0.txt in1.txt | tr -cs A-Za-z '\\n' | tr A-Z a-z > words.txt\ntail -n +2 words.txt > next_words.txt\npaste words.txt next_words.txt | sort | uniq -c | sort -rn > out.txt"),
    ("set-diff", "cat in0.txt | tr A-Z a-z | sort > sorted_a.txt\ncat in1.txt | cut -d ' ' -f 1 | tr A-Z a-z | sort > sorted_b.txt\ncomm -3 sorted_a.txt sorted_b.txt | wc -l > out.txt"),
    ("sort-sort", "cat in0.txt in1.txt | tr A-Z a-z | sort | sort -r > out.txt"),
    ("unix50-00", "cat in0.txt in1.txt | tr -cs A-Za-z '\\n' | tr A-Z a-z | sort | uniq -c | sort -rn"),
    ("unix50-01", "cat in0.txt in1.txt | cut -d ' ' -f 1 | sort | uniq -c | sort -rn | head -n 20"),
    ("unix50-02", "cat in0.txt in1.txt | grep light | head -n 1"),
    ("unix50-03", "cat in0.txt in1.txt | tr A-Z a-z | sort -u"),
    ("unix50-04", "cat in0.txt in1.txt | grep lights | wc -l"),
    ("unix50-05", "cat in0.txt in1.txt | tr -d '[:punct:]' | tr ' ' '\\n' | grep -v '^$' | wc -l"),
    ("unix50-06", "cat in0.txt in1.txt | fold -w 30 | sort | uniq | wc -l"),
    ("unix50-07", "cat in0.txt in1.txt | rev | sort | head -n 50"),
    ("unix50-08", "cat in0.txt in1.txt | tr -s ' ' | cut -d ' ' -f 2 | sort | uniq -c | sort -rn"),
    ("unix50-09", "cat in0.txt in1.txt | sort | uniq | wc -l"),
    ("unix50-10", "cat in0.txt in1.txt | grep light | grep -v dark | tr A-Z a-z | sort | uniq"),
    ("unix50-11", "cat num0.txt num1.txt | grep -v 999 | sort -rn | head -n 5"),
    ("unix50-12", "cat in0.txt in1.txt | fold -w 1 | sort | uniq -c | sort -rn | head -n 26"),
    ("unix50-13", "cat in0.txt in1.txt | awk '{print $2, $0}' | sort -rn | head -n 10"),
    ("unix50-16", "cat num0.txt num1.txt | tr -s ' ' | cut -d ' ' -f 3 | sort -n | uniq -c"),
    ("unix50-17", "cat in0.txt in1.txt | tr A-Za-z N-ZA-Mn-za-m | sort | head -n 40"),
    ("unix50-18", "cat in0.txt in1.txt | tr ' ' '\\n' | sort | uniq | rev | sort | rev | head -n 25"),
    ("unix50-19", "cat in0.txt in1.txt | head -n 1 | tr A-Z a-z"),
    ("unix50-20", "cat in0.txt in1.txt | rev | sort | rev | uniq | wc -l"),
    ("unix50-21", "cat in0.txt in1.txt | grep -i unix | tr -s ' ' | cut -d ' ' -f 1 | sort | uniq -c"),
    ("unix50-22", "cat in0.txt in1.txt | grep -v the | wc -l"),
    ("unix50-23", "cat in0.txt in1.txt | tr -d A-Za-z0-9 | tr -d ' ' | fold -w 1 | sort | uniq -c"),
    ("unix50-24", "cat in0.txt in1.txt | awk '{print $1}' | sort | uniq | wc -l"),
    ("unix50-25", "cat in0.txt in1.txt | awk '{print $0}' | nl | tail -n 5"),
    ("unix50-26", "cat in0.txt in1.txt | nl | grep '5' | tail -n+2 | wc -l"),
    ("unix50-27", "cat in0.txt in1.txt | tr A-Z a-z | sort | uniq -c | sort -rn | head -n 100"),
    ("unix50-29", "cat in0.txt in1.txt | awk -F ' ' '{print $3}' | sort -n | tail -n 3"),
    ("unix50-31", "cat in0.txt in1.txt | grep -i maximum | head -n 2"),
]

EXCLUDED = [
    ("diff", "the program's `diff` prints different hunks than GNU diff, so `| wc -l` differs"),
    ("bi-grams-opt", "uses the repository's custom commands (lowercase, strip-punct, bigrams); no host binary"),
    ("unix50-14", "custom commands (lowercase, word-stem); no host binary"),
    ("unix50-15", "custom commands (lowercase, bigrams); no host binary"),
    ("unix50-28", "`uniq -d` is split like plain `uniq`: a line occurring once on each side of the split is lost (3 seeds of 900 tried)"),
    ("unix50-30", "`sed -n` is refused by the program (CommandError), by design"),
    ("unix50-32", "custom command (lowercase); no host binary"),
    ("unix50-33", "`grep '.{7,}'`: the program reads the pattern as an ERE, GNU grep as a BRE (no match)"),
]

#: The cold-CLI probe launches this one (Table-2 ``grep-light``).
CLI_SCRIPT = dict(SCRIPTS)["grep-light"]


def input_names(script):
    """The input files a script reads (what a service job must upload)."""
    names = ["in0.txt", "in1.txt", "num0.txt", "num1.txt", "paths0.txt", "paths1.txt", "dict.txt"]
    return [name for name in names if name in script]
