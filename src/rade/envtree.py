"""Integration/deploy prefix trees and modulefile generation.

Installations land at ``<root>/<arch>/<os>/<site>/<name>/<version>`` and each
gets a Tcl-dialect modulefile under ``<root>/modulefiles/...`` so a shell (or
the site client's small interpreter) can activate it.
"""
from __future__ import annotations

import os
import select
import signal
import subprocess
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

from .depgraph import DependencyGraph, build_order
from .errors import (
    EmptyInstallation,
    InvariantViolation,
    MissingDependencyInstallation,
    ScriptsStopped,
)
from .targets import Target

INTEGRATION = "integration"
DEPLOY = "deploy"

MODULEFILES_DIR = "modulefiles"

SAFE_PATH = "/usr/bin:/bin"  # the PATH a phase script or researcher test starts from


@dataclass(frozen=True)
class EnvTree:
    kind: str
    root: Path

    def __post_init__(self):
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


def render_modulefile(recipe, target: Target, prefix: Path) -> str:
    """The text of the modulefile for an installed prefix.

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
    return "\n".join(lines) + "\n"


def write_modulefile(tree: EnvTree, recipe, target: Target) -> Path:
    """Render and write the modulefile for an installation in ``tree``."""
    prefix = prefix_for(tree, target, recipe.name, recipe.version)
    text = render_modulefile(recipe, target, prefix)
    path = modulefile_path(tree, target, recipe.name, recipe.version)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")
    return path


def module_path_for_dependencies(
    graph: DependencyGraph, recipe, tree: EnvTree, target: Target
) -> list[Path]:
    """The modulefile paths of the recipe's resolved direct dependencies, in
    build order. Every dependency must already be installed in ``tree`` for
    this target."""
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


def script_argv(script: Path) -> list[str]:
    """Start a phase script or researcher test itself when it has an exec
    bit, else through ``/bin/sh``."""
    return [str(script)] if os.access(script, os.X_OK) else ["/bin/sh", str(script)]


# The pids of the scripts running now, kept for the whole process because an
# interrupt is delivered to the whole process. Until a script is reaped its
# pid names its process group, and no other, so a pid leaves the set before
# its reap.
_live: set[int] = set()
_live_lock = threading.Lock()
_stopping = False  # while set, no script starts


def _refuse_if_stopping() -> None:
    if _stopping:
        raise ScriptsStopped("not started: the run is being stopped")


def run_script(argv, env, cwd, timeout_s, stdout, stderr) -> int | None:
    """Run ``argv`` and return its exit status, or kill it and return None
    once it has run for ``timeout_s`` seconds.

    The wait is a ``poll`` on the child's pidfd (Linux >= 5.3), so the exit
    is seen as it happens; ``subprocess.run(timeout=...)`` would see it only
    at its next ``waitpid`` after a growing sleep. The child starts a session
    of its own, so a timeout, an error from ``pidfd_open`` or from the wait,
    or :func:`scripts_stopped` kills every process the script started with
    it; the child is reaped on every path. Inside :func:`scripts_stopped` no
    script starts: ScriptsStopped is raised instead.
    """
    _refuse_if_stopping()
    proc = subprocess.Popen(
        argv, stdout=stdout, stderr=stderr, env=env, cwd=cwd, start_new_session=True
    )
    exited = False
    try:
        with _live_lock:
            _refuse_if_stopping()  # a stop that came while it started
            _live.add(proc.pid)
        pidfd = os.pidfd_open(proc.pid)
        try:
            poller = select.poll()
            poller.register(pidfd, select.POLLIN)
            exited = bool(poller.poll(timeout_s * 1000))
        finally:
            os.close(pidfd)
    finally:
        with _live_lock:
            _live.discard(proc.pid)
        if not exited:
            os.killpg(proc.pid, signal.SIGKILL)
        returncode = proc.wait()
    return returncode if exited else None


@contextmanager
def scripts_stopped():
    """Kill the process group of every running script, and start no script
    until the body ends."""
    global _stopping
    with _live_lock:
        _stopping = True
        for pid in _live:
            os.killpg(pid, signal.SIGKILL)
    try:
        yield
    finally:
        _stopping = False


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
