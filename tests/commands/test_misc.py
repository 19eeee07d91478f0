"""Tests for cat/head/tail/tac/wc/seq/hashing and the custom use-case commands."""

import os
import subprocess
import sys

import pytest

from repro.commands import misc
from repro.commands.base import CommandError, decode_block


def test_cat_concatenates_in_order():
    assert misc.cat([], [["a"], ["b", "c"]]) == ["a", "b", "c"]


def test_cat_numbering():
    out = misc.cat(["-n"], [["x", "y"]])
    assert out[0].strip().startswith("1") and out[0].endswith("x")


def test_head_default_and_explicit():
    data = [[str(i) for i in range(20)]]
    assert misc.head([], data) == [str(i) for i in range(10)]
    assert misc.head(["-n", "3"], data) == ["0", "1", "2"]
    assert misc.head(["-n3"], data) == ["0", "1", "2"]


def test_tail_default_and_skip_form():
    data = [[str(i) for i in range(20)]]
    assert misc.tail(["-n", "2"], data) == ["18", "19"]
    assert misc.tail(["-n", "+19"], data) == ["18", "19"]
    assert misc.tail(["-n+2"], [["a", "b", "c"]]) == ["b", "c"]


def test_tac_reverses_lines():
    assert misc.tac([], [["a", "b", "c"]]) == ["c", "b", "a"]


def test_wc_counts():
    assert misc.wc(["-l"], [["a b", "c"]]) == ["2"]
    assert misc.wc(["-w"], [["a b", "c"]]) == ["3"]
    assert misc.wc(["-lw"], [["a b", "c"]]) == ["2 3"]
    lines, words, chars = misc.wc([], [["ab", "c"]])[0].split()
    assert (lines, words) == ("2", "2")
    assert int(chars) == 5  # "ab\n" + "c\n"


def test_wc_c_and_m_count_bytes_as_under_lc_all_c():
    lines = decode_block(b"caf\xc3\xa9\nabc\xe9\n")  # a valid and an escaped non-ASCII byte
    assert misc.wc(["-c"], [lines]) == misc.wc(["-m"], [lines]) == ["11"]
    assert misc.wc([], [lines]) == ["2 2 11"]


def test_digests_hash_the_stream_bytes():
    import hashlib

    lines = decode_block(b"caf\xe9\nabc\n")
    for command, algorithm in ((misc.sha1sum, hashlib.sha1), (misc.md5sum, hashlib.md5)):
        assert command([], [lines]) == [algorithm(b"caf\xe9\nabc\n").hexdigest() + "  -"]


def test_seq_forms():
    assert misc.seq(["3"], []) == ["1", "2", "3"]
    assert misc.seq(["2", "4"], []) == ["2", "3", "4"]
    assert misc.seq(["1", "2", "5"], []) == ["1", "3", "5"]
    assert misc.seq(["3", "-1", "1"], []) == ["3", "2", "1"]


def test_seq_invalid_arity():
    with pytest.raises(CommandError):
        misc.seq([], [])


def test_echo_joins_operands():
    assert misc.echo(["hello", "world"], []) == ["hello world"]


def test_basename_and_dirname():
    assert misc.basename(["/usr/bin/sort"], []) == ["sort"]
    assert misc.basename(["/x/y/file.txt", ".txt"], []) == ["file"]
    assert misc.dirname(["/usr/bin/sort"], []) == ["/usr/bin"]
    assert misc.dirname(["plain"], []) == ["."]
    assert misc.basename([], [["/a/b", "/c/d/"]]) == ["b", "d"]


def test_sha1sum_is_deterministic_and_input_sensitive():
    first = misc.sha1sum([], [["hello"]])
    second = misc.sha1sum([], [["hello"]])
    different = misc.sha1sum([], [["goodbye"]])
    assert first == second
    assert first != different
    assert first[0].endswith("  -")


def test_md5sum_format():
    digest = misc.md5sum([], [["x"]])[0]
    assert len(digest.split()[0]) == 32


def test_diff_reports_changes():
    out = misc.diff_command([], [["a", "b"], ["a", "c"]])
    assert "-b" in out and "+c" in out


def test_diff_identical_inputs_is_empty():
    assert misc.diff_command([], [["a"], ["a"]]) == []


def test_diff_requires_two_inputs():
    with pytest.raises(CommandError):
        misc.diff_command([], [["a"]])


# ---------------------------------------------------------------------------
# Custom annotated commands
# ---------------------------------------------------------------------------


def test_html_to_text_strips_tags():
    out = misc.html_to_text([], [["<p>Hello <b>world</b></p>", "<br/>"]])
    assert out == ["Hello world"]


def test_url_extract():
    out = misc.url_extract([], [["see https://example.org/x and http://a.b/c."]])
    assert out[0].startswith("https://example.org/x")
    assert len(out) == 2


def test_word_stem_lowercases_and_strips_suffixes():
    assert misc.word_stem([], [["Running dogs walked"]]) == ["runn dog walk"]


def test_strip_punct():
    assert misc.strip_punct([], [["a,b.c!"]]) == ["abc"]


def test_lowercase():
    assert misc.lowercase([], [["MiXeD"]]) == ["mixed"]


def test_bigrams_per_line():
    assert misc.bigrams([], [["a b c", "x y"]]) == ["a b", "b c", "x y"]


def test_trigrams_cross_lines():
    assert misc.trigrams([], [["a b", "c d"]]) == ["a b c", "b c d"]


def test_fetch_station_is_deterministic():
    first = misc.fetch_station(["2015/station-1"], [])
    second = misc.fetch_station(["2015/station-1"], [])
    assert first == second
    assert len(first) > 0


def test_fetch_station_reads_identifiers_from_stream():
    out = misc.fetch_station([], [["2015/a", "2015/b"]])
    assert len(out) == 2 * len(misc.fetch_station(["2015/a"], []))


def test_fetch_page_produces_html():
    lines = misc.fetch_page(["https://example.org/wiki/page-1"], [])
    assert lines[0].startswith("<html>")
    assert lines[-1].endswith("</html>")


def test_station_records_fixed_width_temperature_field():
    records = misc.station_records("2015/station", records=10)
    assert len(records) == 10
    for record in records:
        assert record[87:91].isdigit()
    assert misc.station_records("x") != misc.station_records("y")


def test_fetched_data_is_the_same_in_every_process():
    """A cluster worker is another interpreter: its ``str`` hashes are salted
    differently, so what it fetches must not depend on them."""
    station, page = "2015/x", "https://example.org/wiki/p"
    probe = f"from repro.commands import misc; print(misc.station_records({station!r}), misc.page_html({page!r}))"
    source = os.path.join(os.path.dirname(misc.__file__), os.pardir, os.pardir)
    printed = {
        subprocess.run(
            [sys.executable, "-c", probe],
            env={**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": os.path.abspath(source)},
            capture_output=True, text=True, check=True,
        ).stdout
        for seed in ("1", "2")
    }
    assert printed == {f"{misc.station_records(station)} {misc.page_html(page)}\n"}
