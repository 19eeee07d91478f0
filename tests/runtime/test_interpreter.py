"""Tests for the sequential shell interpreter."""

import pytest

from repro.runtime.interpreter import InterpreterError, ShellInterpreter
from repro.runtime.streams import VirtualFileSystem


def interpreter(files=None, variables=None):
    return ShellInterpreter(filesystem=VirtualFileSystem(files or {}), variables=variables)


def test_simple_pipeline():
    shell = interpreter({"a.txt": ["xb", "xa", "c"]})
    assert shell.run_script("cat a.txt | grep x | sort") == ["xa", "xb"]


def test_redirection_writes_file_and_suppresses_stdout():
    shell = interpreter({"a.txt": ["b", "a"]})
    out = shell.run_script("cat a.txt | sort > out.txt")
    assert out == []
    assert shell.state.filesystem.read("out.txt") == ["a", "b"]


def test_append_redirection():
    shell = interpreter({"a.txt": ["x"]})
    shell.run_script("cat a.txt > log.txt\ncat a.txt >> log.txt")
    assert shell.state.filesystem.read("log.txt") == ["x", "x"]


def test_sequence_concatenates_outputs():
    shell = interpreter({"a.txt": ["1"], "b.txt": ["2"]})
    assert shell.run_script("cat a.txt; cat b.txt") == ["1", "2"]


def test_variable_assignment_and_expansion():
    shell = interpreter({"data.txt": ["v"]})
    assert shell.run_script("IN=data.txt\ncat $IN") == ["v"]


def test_for_loop_iterates_in_order():
    shell = interpreter({"1.txt": ["one"], "2.txt": ["two"]})
    assert shell.run_script("for i in 1 2; do cat $i.txt; done") == ["one", "two"]


def test_for_loop_with_brace_range():
    shell = interpreter({f"{year}.txt": [str(year)] for year in (2015, 2016, 2017)})
    out = shell.run_script("for y in {2015..2017}; do cat $y.txt; done")
    assert out == ["2015", "2016", "2017"]


def test_andor_runs_left_to_right():
    shell = interpreter({"a.txt": ["1"]})
    assert shell.run_script("cat a.txt && echo done") == ["1", "done"]


def test_or_skips_right_side():
    shell = interpreter({"a.txt": ["1"]})
    assert shell.run_script("cat a.txt || echo fallback") == ["1"]


def test_input_redirection():
    shell = interpreter({"in.txt": ["b", "a"]})
    assert shell.run_script("sort < in.txt") == ["a", "b"]


def test_dash_operand_reads_pipe():
    shell = interpreter({"dict.txt": ["apple", "zebra"], "w.txt": ["apple", "banana"]})
    out = shell.run_script("cat w.txt | sort | comm -13 dict.txt -")
    assert out == ["banana"]


def test_subshell_and_background():
    shell = interpreter({"a.txt": ["x"]})
    assert shell.run_script("( cat a.txt | wc -l ) &") == ["1"]


def test_command_operating_on_missing_file_raises():
    with pytest.raises(InterpreterError):
        interpreter().run_script("cat missing.txt")


def test_while_loop_runs_until_condition_fails():
    shell = interpreter()
    out = shell.run_script(
        "flag=go\nwhile test $flag = go; do echo once; flag=stop; done"
    )
    assert out == ["once"]


def test_until_loop_inverts_condition():
    shell = interpreter()
    out = shell.run_script(
        "flag=wait\nuntil test $flag = done; do echo step; flag=done; done"
    )
    assert out == ["step"]


def test_while_loop_with_test_counter():
    shell = interpreter({"seq.txt": ["1", "2", "3"]})
    out = shell.run_script(
        "n=$(cat seq.txt | wc -l)\nwhile test $n -gt 0; do echo tick; n=$(echo $n | head -n 1 | sed s/3/0/ | sed s/2/0/ | sed s/1/0/); done"
    )
    assert out == ["tick"]


def test_runaway_while_loop_hits_iteration_cap():
    shell = ShellInterpreter(max_loop_iterations=10)
    with pytest.raises(InterpreterError):
        shell.run_script("while true; do echo x; done")


def test_if_clause_branches_on_test():
    shell = interpreter()
    assert shell.run_script("if test a = a; then echo yes; else echo no; fi") == ["yes"]
    assert shell.run_script("if test a = b; then echo yes; else echo no; fi") == ["no"]


def test_if_without_else_when_false_is_empty():
    assert interpreter().run_script("if false; then echo yes; fi") == []


def test_if_condition_output_is_script_output():
    shell = interpreter({"in.txt": ["hay", "needle"]})
    out = shell.run_script("if grep needle in.txt; then echo found; fi")
    assert out == ["needle", "found"]


def test_last_status_special_parameter():
    shell = interpreter()
    assert shell.run_script("false; echo $?") == ["1"]
    assert shell.run_script("true; echo $?") == ["0"]


def test_andor_branches_on_builtin_status():
    shell = interpreter()
    assert shell.run_script("false && echo a") == []
    assert shell.run_script("false || echo b") == ["b"]
    assert shell.run_script("true && echo c") == ["c"]


def test_command_substitution_expands():
    shell = interpreter({"names.txt": ["alpha", "beta"]})
    assert shell.run_script("echo got $(cat names.txt | wc -l)") == ["got 2"]


def test_command_substitution_feeds_for_loop():
    shell = interpreter()
    out = shell.run_script("for i in $(seq 3); do echo item$i; done")
    assert out == ["item1", "item2", "item3"]


def test_command_substitution_is_a_subshell_for_variables():
    shell = interpreter({"x.txt": ["1"]})
    out = shell.run_script("v=outer\nignored=$(cat x.txt)\necho $v")
    assert out == ["outer"]


def test_glob_expansion_over_virtual_files():
    shell = interpreter({"b.txt": ["B"], "a.txt": ["A"], "c.md": ["C"]})
    assert shell.run_script("cat *.txt") == ["A", "B"]


def test_glob_in_for_loop_items():
    shell = interpreter({"b.txt": ["B"], "a.txt": ["A"]})
    out = shell.run_script('for f in *.txt; do cat "$f"; done')
    assert out == ["A", "B"]


def test_unmatched_glob_stays_literal():
    shell = interpreter({"a.txt": ["A"]})
    with pytest.raises(InterpreterError):
        # *.zip matches nothing -> literal filename that does not exist.
        shell.run_script("cat *.zip")


def test_positional_parameters():
    shell = ShellInterpreter(positional=["one", "two"])
    assert shell.run_script("echo $# $1 $2") == ["2 one two"]
    assert shell.run_script('for a in "$@"; do echo arg:$a; done') == [
        "arg:one",
        "arg:two",
    ]


def test_default_value_expansion_in_script():
    shell = interpreter()
    assert shell.run_script("echo ${WIDTH:-4}") == ["4"]
    assert shell.run_script("WIDTH=8\necho ${WIDTH:-4}") == ["8"]


def test_subshell_isolates_variables():
    shell = interpreter()
    assert shell.run_script("v=outer\n( v=inner; echo $v )\necho $v") == [
        "inner",
        "outer",
    ]


def test_unknown_variable_expands_empty():
    shell = interpreter({"x.txt": ["ok"]})
    assert shell.run_script("cat x.txt$SUFFIX") == ["ok"]


def test_xargs_with_custom_command():
    shell = interpreter({"ids.txt": ["2015/a"]})
    out = shell.run_script("cat ids.txt | xargs -n 1 fetch-station | wc -l")
    assert int(out[0]) > 0


def test_fig1_style_noaa_loop_runs():
    from paper.workloads import noaa

    dataset = noaa.yearly_dataset(years=[2015], stations=4)
    shell = ShellInterpreter(filesystem=VirtualFileSystem(dataset))
    out = shell.run_script(noaa.per_year_pipeline(2015, 4))
    assert len(out) == 1
    assert out[0].startswith("Maximum temperature for 2015 is: ")
