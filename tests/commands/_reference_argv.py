"""The argument readers the frozen reference kernels were written against.

The program reads every argv through ``repro.commands.argv.parse_argv``; the
reference kernels (``_reference_kernels.py``) keep the readers they were
frozen with, so the oracle does not move when the program's parser does.
"""

from __future__ import annotations

from typing import List, Optional, Sequence


def split_flags(arguments: Sequence[str]) -> (List[str], List[str]):  # type: ignore[valid-type]
    """Split an argument vector into (options, operands)."""
    options: List[str] = []
    operands: List[str] = []
    for argument in arguments:
        if argument.startswith("-") and argument != "-":
            options.append(argument)
        else:
            operands.append(argument)
    return options, operands


def flag_value(arguments: Sequence[str], flag: str, default: Optional[str] = None) -> Optional[str]:
    """Return the value following ``flag`` (``-n 5`` or ``-n5`` or ``--n=5``)."""
    args = list(arguments)
    for index, argument in enumerate(args):
        if argument == flag:
            if index + 1 < len(args):
                return args[index + 1]
            return default
        if argument.startswith(flag) and len(argument) > len(flag) and not flag.startswith("--"):
            return argument[len(flag):]
        if argument.startswith(flag + "="):
            return argument[len(flag) + 1:]
    return default


def has_flag(arguments: Sequence[str], *flags: str) -> bool:
    """True when any of ``flags`` appears (including combined short options)."""
    short_letters = {flag[1] for flag in flags if len(flag) == 2 and flag[1] != "-"}
    for argument in arguments:
        if argument in flags:
            return True
        if (
            argument.startswith("-")
            and not argument.startswith("--")
            and argument != "-"
            and short_letters.intersection(argument[1:])
        ):
            return True
    return False
