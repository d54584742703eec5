"""Integration/deploy prefix trees and modulefile generation.

Installations land at ``<root>/<arch>/<os>/<site>/<name>/<version>`` and each
gets a Tcl-dialect modulefile under ``<root>/modulefiles/...`` so a shell (or
the site client's small interpreter) can activate it.
"""
from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path

from .depgraph import DependencyGraph, build_order
from .errors import EmptyInstallation, InvariantViolation, MissingDependencyInstallation
from .targets import Target

INTEGRATION = "integration"
DEPLOY = "deploy"

MODULEFILES_DIR = "modulefiles"


@dataclass(frozen=True)
class EnvTree:
    kind: str
    root: Path

    def __post_init__(self):
        if self.kind not in (INTEGRATION, DEPLOY):
            raise InvariantViolation(f"unknown tree kind {self.kind!r}")
        object.__setattr__(self, "root", Path(self.root))


def prefix_rel(target: Target, name: str, version: str) -> str:
    """Repository/tree-relative prefix path for one installation."""
    return f"{target.arch}/{target.os}/{target.site}/{name}/{version}"


def prefix_for(tree: EnvTree, target: Target, name: str, version: str) -> Path:
    return tree.root / prefix_rel(target, name, version)


def modulefile_rel(target: Target, name: str, version: str) -> str:
    return f"{MODULEFILES_DIR}/{prefix_rel(target, name, version)}"


def modulefile_path(tree: EnvTree, target: Target, name: str, version: str) -> Path:
    return tree.root / modulefile_rel(target, name, version)


def env_var_name(recipe_name: str) -> str:
    return recipe_name.upper().replace("-", "_").replace(".", "_")


@dataclass(frozen=True)
class Modulefile:
    recipe: tuple[str, str]
    target: Target
    prefix: Path
    text: str


def render_modulefile(recipe, target: Target, prefix: Path) -> Modulefile:
    """Render the modulefile for an installed prefix.

    Deterministic: identical inputs yield byte-identical text. The path lines
    are emitted only for subdirectories that actually exist.
    """
    prefix = Path(prefix)
    has_bin = (prefix / "bin").is_dir()
    has_lib = (prefix / "lib").is_dir()
    if not has_bin and not has_lib:
        raise EmptyInstallation(f"{prefix} contains neither bin/ nor lib/")
    name, version = recipe.name, recipe.version
    lines = [
        "#%Module1.0",
        f'module-whatis "{name}/{version} for {target.arch}-{target.os}-{target.site}'
        ' (CODE-RADE pipeline)"',
    ]
    if has_bin:
        lines.append(f"prepend-path PATH {prefix}/bin")
    if has_lib:
        lines.append(f"prepend-path LD_LIBRARY_PATH {prefix}/lib")
    lines.append(f"setenv {env_var_name(name)}_DIR {prefix}")
    return Modulefile(
        recipe=(name, version),
        target=target,
        prefix=prefix,
        text="\n".join(lines) + "\n",
    )


def write_modulefile(tree: EnvTree, recipe, target: Target) -> Path:
    """Render and write the modulefile for an installation in ``tree``."""
    prefix = prefix_for(tree, target, recipe.name, recipe.version)
    rendered = render_modulefile(recipe, target, prefix)
    path = modulefile_path(tree, target, recipe.name, recipe.version)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(rendered.text, encoding="utf-8")
    return path


def module_path_for_dependencies(
    graph: DependencyGraph, recipe, tree: EnvTree, target: Target
) -> list[Path]:
    """Modulefile paths of the recipe's resolved direct dependencies, in build
    order. Every dependency must already be installed in ``tree`` for this
    target."""
    deps = set(graph.deps.get((recipe.name, recipe.version), ()))
    paths = []
    for name, version in build_order(graph, deps):
        path = modulefile_path(tree, target, name, version)
        if not path.is_file():
            raise MissingDependencyInstallation(
                f"{name}/{version} not installed in {tree.kind} tree for "
                f"{target.arch}-{target.os}-{target.site}"
            )
        paths.append(path)
    return paths


# The three directive forms the rendered template can contain; the site client
# interprets exactly these, nothing else.


def parse_directives(text: str) -> list[tuple[str, ...]]:
    directives = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#") or line.startswith("module-whatis"):
            continue
        parts = line.split(None, 2)
        if parts[0] == "prepend-path" and len(parts) == 3:
            directives.append(("prepend-path", parts[1], parts[2]))
        elif parts[0] == "setenv" and len(parts) == 3:
            directives.append(("setenv", parts[1], parts[2]))
        else:
            raise InvariantViolation(f"unsupported modulefile directive {line!r}")
    return directives


def apply_directives(env: dict[str, str], directives) -> dict[str, str]:
    """Apply modulefile directives to an environment mapping (returns a copy)."""
    result = dict(env)
    for directive in directives:
        if directive[0] == "prepend-path":
            _, var, value = directive
            old = result.get(var, "")
            result[var] = value + (os.pathsep + old if old else "")
        else:
            _, var, value = directive
            result[var] = value
    return result
