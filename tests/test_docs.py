"""The docs name what the code has: README's module map lists every module,
and every backticked dotted reference to the package resolves."""

import ast
import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import iovslice
from iovslice import config

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"
MODULES = [info.name for info in pkgutil.walk_packages(iovslice.__path__, "iovslice.")]
# a dotted reference in single backticks, a call's arguments allowed after it
REFERENCE = re.compile(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)(?:\([^`\n]*\))?`")
CONFIG_KEYS = {f"{section}.{key}" for section, keys in config._KEYS.items() for key in keys}


def module_map(text: str) -> list[tuple[str, str]]:
    """(module, text) per line of README's `## Modules` section."""
    section = text.split("\n## Modules\n", 1)[1].split("\n## ", 1)[0]
    lines = [line for line in section.splitlines() if line.startswith("- ")]
    return [re.fullmatch(r"- `(iovslice(?:\.\w+)*)`: (.+)", line).groups() for line in lines]


# what a reference may call a module: the package, or a module by its full
# name, its path below the package (`dqn.kernels`) or its last part (`kernels`)
MODULE_NAMES = {"iovslice": "iovslice"}
for _name in MODULES:
    MODULE_NAMES[_name] = MODULE_NAMES[_name.removeprefix("iovslice.")] = _name
    MODULE_NAMES.setdefault(_name.rsplit(".", 1)[1], _name)


def references(text: str) -> list[str]:
    """The dotted references outside fenced code whose head is the package,
    one of its modules or a config section."""
    text = re.sub(r"```.*?```", "", text, flags=re.S)
    return [
        ref
        for ref in REFERENCE.findall(text)
        if ref.split(".")[0] in MODULE_NAMES or ref.split(".")[0] in config._KEYS
    ]


def resolves(ref: str) -> bool:
    """A config `section.key`, or a module (its longest dotted prefix that is
    one) followed by attributes."""
    if ref in CONFIG_KEYS:
        return True
    parts = ref.split(".")
    for cut in range(len(parts), 0, -1):
        if (name := MODULE_NAMES.get(".".join(parts[:cut]))) is not None:
            return hasattr_path(importlib.import_module(name), ".".join(parts[cut:]))
    return False


def hasattr_path(obj: object, dotted: str) -> bool:
    """Whether `obj` has the attribute chain `dotted` (empty: itself)."""
    for attr in filter(None, dotted.split(".")):
        if not hasattr(obj, attr):
            return False
        obj = getattr(obj, attr)
    return True


SOURCES = sorted(str(path.relative_to(ROOT)) for path in (ROOT / "src").rglob("*.py"))


def docstrings(path: str) -> str:
    """Every module, class and function docstring of one file under src/."""
    nodes = ast.walk(ast.parse((ROOT / path).read_text(encoding="utf-8")))
    kinds = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
    return "\n".join(ast.get_docstring(node, clean=False) or "" for node in nodes if isinstance(node, kinds))


def test_readme_maps_every_module_once():
    assert sorted(name for name, _ in module_map(README.read_text(encoding="utf-8"))) == sorted(MODULES)


def test_readme_map_lines_name_what_their_module_has():
    """A name on a module's line is that module's, unless it names a module."""
    for name, text in module_map(README.read_text(encoding="utf-8")):
        module = importlib.import_module(name)
        for ref in re.findall(r"`([A-Za-z_][\w.]*)(?:\([^`]*\))?`", text):
            found = resolves(ref) if ref.split(".")[0] in MODULE_NAMES else hasattr_path(module, ref)
            assert found, (name, ref)


# names a module's map line must carry: the entry points a reader of the
# timings looks for
MAP_LINE_NAMES = {
    "iovslice.dqn.mlp": ["DuelingQNetwork.greedy_action", "Adam"],
    "iovslice.dqn.kernels": ["library", "blas", "CACHE_DIR", "cache_key"],
}


@pytest.mark.parametrize("module", sorted(MAP_LINE_NAMES))
def test_readme_map_line_names_the_entry_points(module):
    text = dict(module_map(README.read_text(encoding="utf-8")))[module]
    assert [name for name in MAP_LINE_NAMES[module] if f"`{name}`" not in text] == []


def test_readme_references_resolve():
    refs = references(README.read_text(encoding="utf-8"))
    assert refs
    assert [ref for ref in refs if not resolves(ref)] == []


@pytest.mark.parametrize("path", SOURCES)
def test_docstring_references_resolve(path):
    assert [ref for ref in references(docstrings(path)) if not resolves(ref)] == []


def test_resolver_refuses_what_does_not_exist():
    assert resolves("phy.reach") and resolves("dqn.kernels.library") and resolves("kernels.library")
    assert resolves("iovslice.dqn.replay.SumTree.set_many") and resolves("env.T") and resolves("run.seed")
    assert not resolves("phy.reachable") and not resolves("env.bogus") and not resolves("iovslice.nothing")
    assert references("`phy.reach` `link.group` `env.T = 4` `kernels.library()`\n```\n`phy.x`\n```") == [
        "phy.reach",
        "kernels.library",
    ]
