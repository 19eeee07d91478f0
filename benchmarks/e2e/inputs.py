"""Seeded input generation and references that never touch ``repro``.

Inputs come from ``random.Random(seed)`` alone, so one seed always gives the
same bytes.  References come from the host's own tools under ``LC_ALL=C sh
-c`` on the same files (the paper's baseline *and* an implementation that
shares no code with the program under test); outputs are compared by SHA-256.
"""

import hashlib
import os
import random
import shutil
import subprocess
import time

_VOCABULARY = (
    "the of and a to in is you that it he was for on are as with his they I "
    "unix shell pipeline stream process signal kernel buffer socket thread "
    "parallel data graph node edge merge split relay eager lazy light dark "
    "maximum minimum temperature weather station record apple banana cherry "
    "grape lemon melon orange system research paper figure table result speedup"
).split()
# Zipf-ish: word frequency falls with rank, like English text.
_CUMULATIVE = []
_total = 0.0
for _rank in range(len(_VOCABULARY)):
    _total += 1.0 / (_rank + 2)
    _CUMULATIVE.append(_total)
_PUNCTUATION = [",", ".", ";", ":", "!", "?"]
MARKER = "lights"


def text_lines(rng, count, words_per_line=8):
    """Pseudo-English lines: mixed case, some punctuation, ``MARKER`` in ~12%.

    No line ends in punctuation: the program's ``tr -cs A-Za-z '\\n'`` emits
    an extra empty line when a stream (or a split chunk) ends in a squeezed
    character, where GNU ``tr`` does not, and the benchmark must choose inputs
    on which no operation fails (README, "Known divergences").
    """
    words = rng.choices(_VOCABULARY, cum_weights=_CUMULATIVE, k=count * words_per_line)
    lines = []
    for index in range(count):
        row = words[index * words_per_line : (index + 1) * words_per_line]
        roll = rng.random()
        if roll < 0.45:
            slot = rng.randrange(words_per_line)
            row[slot] = row[slot].capitalize()
        if roll < 0.30:
            slot = rng.randrange(words_per_line - 1)
            row[slot] = row[slot] + rng.choice(_PUNCTUATION)
        if rng.random() < 0.12:
            row[rng.randrange(words_per_line)] = MARKER
        lines.append(" ".join(row))
    return lines


def numeric_lines(rng, count, maximum=10_000):
    return [str(rng.randrange(maximum)) for _ in range(count)]


def path_lines(rng, count):
    """Colon-free path-like rows for the shortest-scripts one-liner."""
    directories = ["/usr/bin", "/usr/local/bin", "/opt/tools", "/home/user/bin"]
    suffixes = [".sh", ".py", ".pl", ".rb", ""]
    return [
        "%s/tool%d%s %d script executable text %d"
        % (
            rng.choice(directories),
            index % 97,
            rng.choice(suffixes),
            rng.randrange(10, 90_000),
            index,
        )
        for index in range(count)
    ]


def dictionary_words(rng, count=400):
    """A dictionary for ``comm``: lower-case, unique, sorted in C order."""
    words = set(word.lower() for word in _VOCABULARY)
    alphabet = "abcdefghijklmnopqrstuvwxyz"
    while len(words) < count:
        words.add("".join(rng.choice(alphabet) for _ in range(rng.randrange(3, 9))))
    return sorted(words)


def small_files(seed, lines_per_file):
    """The in-memory file set every ``script_mix`` script reads from."""
    rng = random.Random(seed)
    return {
        "in0.txt": text_lines(rng, lines_per_file),
        "in1.txt": text_lines(rng, lines_per_file),
        "num0.txt": numeric_lines(rng, lines_per_file),
        "num1.txt": numeric_lines(rng, lines_per_file),
        "paths0.txt": path_lines(rng, lines_per_file),
        "paths1.txt": path_lines(rng, lines_per_file),
        "dict.txt": dictionary_words(rng),
    }


def write_big_text(path, target_bytes, seed):
    """Write ~``target_bytes`` of distinct text lines; returns the byte count.

    A pool of line bodies is drawn once and each line appends a random hex
    tag, which keeps lines distinct and generation fast enough to be repeated
    in every set-up (a per-word draw would cost seconds per file).
    """
    rng = random.Random(seed)
    pool = text_lines(rng, 4096)
    written = 0
    with open(path, "w", encoding="ascii") as handle:
        while written < target_bytes:
            block = "".join(
                "%s %08x\n" % (body, rng.getrandbits(32))
                for body in rng.choices(pool, k=2000)
            )
            handle.write(block)
            written += len(block)
    return written


def write_lines(directory, files):
    for name, lines in files.items():
        with open(os.path.join(directory, name), "w", encoding="ascii") as handle:
            handle.write("".join(line + "\n" for line in lines))


# ---------------------------------------------------------------------------
# References and digests
# ---------------------------------------------------------------------------


def lines_to_bytes(lines):
    """The byte stream a list of lines stands for (each line newline-ended)."""
    return ("\n".join(lines) + "\n").encode("utf-8") if lines else b""


def digest(payload):
    return hashlib.sha256(payload).hexdigest()


def host_shell_available():
    return shutil.which("sh") is not None


def host_reference(script, directory):
    """Run ``script`` under the host's ``LC_ALL=C sh -c`` in ``directory``.

    Returns ``(stdout + out.txt bytes, seconds)``; every file the script
    created is removed again, so the next script sees the pristine input set.
    """
    before = set(os.listdir(directory))
    started = time.perf_counter()
    completed = subprocess.run(
        ["sh", "-c", script],
        cwd=directory,
        env=dict(os.environ, LC_ALL="C"),
        stdin=subprocess.DEVNULL,
        capture_output=True,
        timeout=120,
    )
    elapsed = time.perf_counter() - started
    # A pipeline whose last ``grep`` selects no line exits 1 with nothing on
    # stderr; its (empty) output is still the reference.  Some seeds do that.
    if completed.returncode > 1 or (completed.returncode == 1 and completed.stderr):
        raise RuntimeError(
            "host reference failed (exit %d) for %r: %s"
            % (completed.returncode, script, completed.stderr.decode("utf-8", "replace")[:200])
        )
    payload = completed.stdout
    out_path = os.path.join(directory, "out.txt")
    if os.path.exists(out_path):
        with open(out_path, "rb") as handle:
            payload += handle.read()
    for name in set(os.listdir(directory)) - before:
        os.remove(os.path.join(directory, name))
    return payload, elapsed


def python_reference_sort(paths):
    """``cat F.. | tr A-Z a-z | sort`` without coreutils (C-locale byte order)."""
    lines = []
    for path in paths:
        with open(path, "rb") as handle:
            lines.extend(handle.read().lower().split(b"\n")[:-1])
    lines.sort()
    return b"".join(line + b"\n" for line in lines)


def python_reference_grep(paths, marker=MARKER.encode("ascii")):
    """``cat F.. | tr A-Z a-z | grep -v MARKER | cut -d ' ' -f 1-4`` without coreutils."""
    kept = []
    for path in paths:
        with open(path, "rb") as handle:
            for line in handle.read().lower().split(b"\n")[:-1]:
                if marker not in line:
                    kept.append(b" ".join(line.split(b" ")[:4]) + b"\n")
    return b"".join(kept)
