#!/usr/bin/env python3
"""Track the size of the system as first-class numbers (ROADMAP aim 2).

Measures, from the source tree alone (``ast``, nothing is imported):

* ``src_lines`` — total lines of every ``*.py`` under ``src/``;
* ``public_names`` — the length of ``__all__`` in ``repro``, ``repro.api``,
  ``repro.engine``, ``repro.transform`` and ``repro.backend``;
* ``option_fields`` — the number of fields of every dataclass under
  ``src/repro`` whose name ends in ``Config`` or ``Options``;
* ``cli_flags`` — the ``add_argument`` calls of every module that builds a
  command line (the six entry points), so a new flag is a reviewed decision
  like a new field.

One layering rule rides along (:func:`registry_importers`): only modules
under ``repro/obs/`` and ``repro/service/`` may import ``repro.obs.metrics``
— the daemon owns the one registry and everything below it counts on its own
objects, so an import anywhere else is a second count of something.

The numbers are compared with the committed baseline ``tools/surface.json``:
the check fails when any of them *grows* (or a new options class or
flag-parsing module appears) without the baseline being updated in the same
commit, so growth is always a reviewed decision.  Shrinking passes; refresh the baseline with ``--update``,
which is a ratchet for ``src_lines``: it lowers the number and refuses to
raise it — a change that grows ``src/`` says so by editing the baseline by
hand.

Usage: ``python tools/check_surface.py [--update]`` (exit 0 = within baseline).
"""

from __future__ import annotations

import ast
import json
import sys
from pathlib import Path
from typing import Any, Dict, List

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src"
BASELINE = Path(__file__).resolve().with_name("surface.json")
PUBLIC_PACKAGES = ("repro", "repro.api", "repro.engine", "repro.transform", "repro.backend")


def _is_dataclass(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", "")
        if name == "dataclass":
            return True
    return False


def _all_names(package: str) -> int:
    init = SOURCE.joinpath(*package.split("."), "__init__.py")
    for node in ast.parse(init.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            return len(ast.literal_eval(node.value))
    raise SystemExit(f"{init}: no literal __all__")


def measure() -> Dict[str, Any]:
    src_lines = 0
    option_fields: Dict[str, int] = {}
    cli_flags: Dict[str, int] = {}
    for path in sorted(SOURCE.rglob("*.py")):
        text = path.read_text()
        src_lines += len(text.splitlines())
        module = ".".join(path.relative_to(SOURCE).with_suffix("").parts)
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Call) and getattr(node.func, "attr", "") == "add_argument":
                cli_flags[module] = cli_flags.get(module, 0) + 1
            if (
                isinstance(node, ast.ClassDef)
                and node.name.endswith(("Config", "Options"))
                and _is_dataclass(node)
            ):
                fields = sum(isinstance(statement, ast.AnnAssign) for statement in node.body)
                if fields:  # field-less name matches (a `NoOptions` predicate) are not options
                    option_fields[node.name] = fields
    return {
        "src_lines": src_lines,
        "public_names": {package: _all_names(package) for package in PUBLIC_PACKAGES},
        "option_fields": dict(sorted(option_fields.items())),
        "cli_flags": cli_flags,
    }


def imports_registry(tree: ast.AST) -> bool:
    """Whether a module's AST imports ``repro.obs.metrics`` in any spelling."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            if any(alias.name == "repro.obs.metrics" for alias in node.names):
                return True
        elif isinstance(node, ast.ImportFrom):
            if node.module == "repro.obs.metrics":
                return True
            if node.module == "repro.obs" and any(a.name == "metrics" for a in node.names):
                return True
    return False


def registry_importers() -> List[str]:
    """Modules outside ``repro/obs`` and ``repro/service`` importing the registry."""
    package = SOURCE / "repro"
    return [
        str(path.relative_to(SOURCE))
        for path in sorted(package.rglob("*.py"))
        if path.relative_to(package).parts[0] not in ("obs", "service")
        and imports_registry(ast.parse(path.read_text()))
    ]


def growth(current: Dict[str, Any], baseline: Dict[str, Any]) -> List[str]:
    """Every number that exceeds its baseline (missing baseline entries count)."""
    problems = []
    if current["src_lines"] > baseline.get("src_lines", 0):
        problems.append(f"src_lines: {baseline.get('src_lines', 0)} -> {current['src_lines']}")
    for section in ("public_names", "option_fields", "cli_flags"):
        allowed = baseline.get(section, {})
        for name, count in current[section].items():
            if count > allowed.get(name, 0):
                problems.append(f"{section}[{name}]: {allowed.get(name, 0)} -> {count}")
    return problems


def main(argv: List[str]) -> int:
    current = measure()
    print(json.dumps(current, indent=2))
    if argv[1:] == ["--update"]:
        allowed = json.loads(BASELINE.read_text()).get("src_lines", current["src_lines"])
        if current["src_lines"] > allowed:
            print(
                f"--update only lowers src_lines ({allowed} -> {current['src_lines']}): "
                "edit tools/surface.json by hand and say what the lines buy",
                file=sys.stderr,
            )
            return 1
        BASELINE.write_text(json.dumps(current, indent=2) + "\n")
        return 0
    if argv[1:]:
        print(__doc__, file=sys.stderr)
        return 2
    problems = growth(current, json.loads(BASELINE.read_text()))
    for problem in problems:
        print(f"surface grew past tools/surface.json: {problem}", file=sys.stderr)
    importers = registry_importers()
    for module in importers:
        print(f"{module} imports repro.obs.metrics: only the daemon views it", file=sys.stderr)
    return 1 if problems or importers else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
