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

Two layering rules ride along:

* :func:`registry_importers` — only modules under ``repro/obs/`` and
  ``repro/service/`` may import ``repro.obs.metrics``: the daemon owns the
  one registry and everything below it counts on its own objects, so an
  import anywhere else is a second count of something;
* :func:`harness_importers` — no module under ``src/`` imports the paper's
  §6 harness (``paper``, in ``benchmarks/``) or the names it had while it
  lived in ``src/``: the evaluation measures the system and is not part of
  it, so ``src_lines`` counts the system alone.

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
from typing import Any, Dict, List, Sequence

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src"
BASELINE = Path(__file__).resolve().with_name("surface.json")
PUBLIC_PACKAGES = ("repro", "repro.api", "repro.engine", "repro.transform", "repro.backend")
REGISTRY = ("repro.obs.metrics",)
HARNESS = ("paper", "repro.evaluation", "repro.workloads", "repro.annotations.study")


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


def imports(tree: ast.AST, modules: Sequence[str], package: str = "") -> bool:
    """Whether a module's AST imports one of ``modules`` or a submodule of
    one, in any spelling; ``package`` resolves relative imports."""

    def named(name: str) -> bool:
        return any(name == module or name.startswith(module + ".") for module in modules)

    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            if any(named(alias.name) for alias in node.names):
                return True
        elif isinstance(node, ast.ImportFrom):
            parent = package.rsplit(".", node.level - 1)[0] if node.level else ""
            module = ".".join(filter(None, (parent, node.module)))
            if named(module) or any(named(f"{module}.{alias.name}") for alias in node.names):
                return True
    return False


def _importers(modules: Sequence[str], allowed: Sequence[str] = ()) -> List[str]:
    package = SOURCE / "repro"
    found = []
    for path in sorted(package.rglob("*.py")):
        parts = path.relative_to(SOURCE).with_suffix("").parts
        if parts[1] in allowed:
            continue
        if imports(ast.parse(path.read_text()), modules, ".".join(parts[:-1])):
            found.append(str(path.relative_to(SOURCE)))
    return found


def registry_importers() -> List[str]:
    """Modules outside ``repro/obs`` and ``repro/service`` importing the registry."""
    return _importers(REGISTRY, allowed=("obs", "service"))


def harness_importers() -> List[str]:
    """Modules under ``src/`` importing the paper harness."""
    return _importers(HARNESS)


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
    harness = harness_importers()
    for module in harness:
        print(f"{module} imports the paper harness: src/ is the system alone", file=sys.stderr)
    return 1 if problems or importers or harness else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
