"""Builders for the shell-based toy corpus used across the test suite.

Recipes "compile" by template substitution so the pipeline can run anywhere a
POSIX shell exists: hello is standalone, libdemo installs a sourceable shell
library, and app bakes libdemo's output into its binary at build time (the
static-linking analogue), so the delivered app runs with no dependency on the
tree it was built against.
"""
from __future__ import annotations

import hashlib
import io
import json
import tarfile
import time
from dataclasses import dataclass, field
from pathlib import Path

HELLO_IN = """\
#!/bin/sh
if [ "${1:-}" = "--version" ]; then
  echo "@VERSION@"
else
  echo "hello @VERSION@"
fi
"""

LIBDEMO_IN = """\
demo_message() {
  echo "libdemo @VERSION@"
}
"""

APP_IN = """\
#!/bin/sh
if [ "${1:-}" = "--version" ]; then
  echo "@VERSION@"
else
  echo "app @VERSION@ linked against: @DEMO@"
fi
"""


def make_bundle(dest_dir: Path, bundle_name: str, files: dict[str, str]) -> tuple[Path, str]:
    """Write a tar.gz of ``files`` and return (path, sha256)."""
    dest_dir.mkdir(parents=True, exist_ok=True)
    path = dest_dir / bundle_name
    with tarfile.open(path, "w:gz") as tar:
        for name, content in sorted(files.items()):
            data = content.encode("utf-8")
            info = tarfile.TarInfo(name)
            info.size = len(data)
            info.mtime = 0
            tar.addfile(info, io.BytesIO(data))
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    return path, digest


def write_recipe(
    corpus_root: Path,
    name: str,
    version: str,
    *,
    source_url: str,
    sha256: str,
    build_script: str,
    check_script: str,
    deploy_script: str,
    dependencies: list[dict] | None = None,
    researcher_tests: dict[str, str] | None = None,
    targets: dict | None = None,
) -> Path:
    """Write one recipe directory (manifest plus scripts) and return it."""
    recipe_dir = corpus_root / name / version
    recipe_dir.mkdir(parents=True, exist_ok=True)
    (recipe_dir / "build.sh").write_text(build_script, encoding="utf-8")
    (recipe_dir / "check-build").write_text(check_script, encoding="utf-8")
    (recipe_dir / "deploy.sh").write_text(deploy_script, encoding="utf-8")
    manifest = {
        "name": name,
        "version": version,
        "source": {"url": source_url, "sha256": sha256},
        "scripts": {"build": "build.sh", "check": "check-build", "deploy": "deploy.sh"},
    }
    if dependencies:
        manifest["dependencies"] = dependencies
    if researcher_tests:
        manifest["researcher_tests"] = sorted(researcher_tests)
        for rel, content in researcher_tests.items():
            test_path = recipe_dir / rel
            test_path.parent.mkdir(parents=True, exist_ok=True)
            test_path.write_text(content, encoding="utf-8")
    if targets:
        manifest["targets"] = targets
    (recipe_dir / "rade.json").write_text(
        json.dumps(manifest, indent=2) + "\n", encoding="utf-8"
    )
    return recipe_dir


def _substitute_build(bundle: str, src: str, out: str, extra: str = "") -> str:
    return f"""\
#!/bin/sh
set -eu
tar -xzf "$SOURCE_DIR/{bundle}" -C "$BUILD_DIR"
{extra}sed "s/@VERSION@/1.0/" "$BUILD_DIR/{src}" > "$BUILD_DIR/{out}"
"""


def add_hello(corpus_root: Path, sources_dir: Path) -> None:
    _, digest = make_bundle(sources_dir, "hello-1.0.tar.gz", {"hello.in": HELLO_IN})
    build = _substitute_build("hello-1.0.tar.gz", "hello.in", "hello")
    build += 'chmod +x "$BUILD_DIR/hello"\n'
    check = """\
#!/bin/sh
set -eu
test -x "$BUILD_DIR/hello"
[ "$("$BUILD_DIR/hello" --version)" = "1.0" ]
"""
    deploy = """\
#!/bin/sh
set -eu
PREFIX="${DEPLOY_PREFIX:-$INSTALL_PREFIX}"
mkdir -p "$PREFIX/bin"
cp "$BUILD_DIR/hello" "$PREFIX/bin/hello"
"""
    mve = """\
#!/bin/sh
set -eu
[ "$(hello --version)" = "1.0" ]
"""
    write_recipe(
        corpus_root,
        "hello",
        "1.0",
        source_url=f"file://{sources_dir}/hello-1.0.tar.gz",
        sha256=digest,
        build_script=build,
        check_script=check,
        deploy_script=deploy,
        researcher_tests={"tests/mve.sh": mve},
    )


def add_libdemo(corpus_root: Path, sources_dir: Path) -> None:
    _, digest = make_bundle(
        sources_dir, "libdemo-1.0.tar.gz", {"libdemo.sh.in": LIBDEMO_IN}
    )
    build = _substitute_build("libdemo-1.0.tar.gz", "libdemo.sh.in", "libdemo.sh")
    check = """\
#!/bin/sh
set -eu
. "$BUILD_DIR/libdemo.sh"
[ "$(demo_message)" = "libdemo 1.0" ]
"""
    deploy = """\
#!/bin/sh
set -eu
PREFIX="${DEPLOY_PREFIX:-$INSTALL_PREFIX}"
mkdir -p "$PREFIX/lib"
cp "$BUILD_DIR/libdemo.sh" "$PREFIX/lib/libdemo.sh"
"""
    mve = """\
#!/bin/sh
set -eu
. "$LIBDEMO_DIR/lib/libdemo.sh"
[ "$(demo_message)" = "libdemo 1.0" ]
"""
    write_recipe(
        corpus_root,
        "libdemo",
        "1.0",
        source_url=f"file://{sources_dir}/libdemo-1.0.tar.gz",
        sha256=digest,
        build_script=build,
        check_script=check,
        deploy_script=deploy,
        researcher_tests={"tests/mve.sh": mve},
    )


def add_app(corpus_root: Path, sources_dir: Path) -> None:
    _, digest = make_bundle(sources_dir, "app-1.0.tar.gz", {"app.in": APP_IN})
    build = """\
#!/bin/sh
set -eu
tar -xzf "$SOURCE_DIR/app-1.0.tar.gz" -C "$BUILD_DIR"
. "$LIBDEMO_DIR/lib/libdemo.sh"
demo="$(demo_message)"
sed -e "s/@VERSION@/1.0/" -e "s/@DEMO@/$demo/" "$BUILD_DIR/app.in" > "$BUILD_DIR/app"
chmod +x "$BUILD_DIR/app"
"""
    check = """\
#!/bin/sh
set -eu
[ "$("$BUILD_DIR/app" --version)" = "1.0" ]
"""
    deploy = """\
#!/bin/sh
set -eu
PREFIX="${DEPLOY_PREFIX:-$INSTALL_PREFIX}"
mkdir -p "$PREFIX/bin"
cp "$BUILD_DIR/app" "$PREFIX/bin/app"
"""
    mve = """\
#!/bin/sh
set -eu
[ "$(app --version)" = "1.0" ]
app | grep -q "libdemo 1.0"
"""
    write_recipe(
        corpus_root,
        "app",
        "1.0",
        source_url=f"file://{sources_dir}/app-1.0.tar.gz",
        sha256=digest,
        build_script=build,
        check_script=check,
        deploy_script=deploy,
        dependencies=[{"name": "libdemo", "constraint": ">=1.0"}],
        researcher_tests={"tests/mve.sh": mve},
    )


def build_default_corpus(corpus_root: Path, sources_dir: Path) -> None:
    add_hello(corpus_root, sources_dir)
    add_libdemo(corpus_root, sources_dir)
    add_app(corpus_root, sources_dir)


OPS_PASS = """\
#!/bin/sh
exit 0
"""

OPS_FAIL = """\
#!/bin/sh
echo "injected ops failure"
exit 1
"""

OPS_NO_WORLD_WRITABLE = """\
#!/bin/sh
set -eu
if find "$BUILD_DIR" -type f -perm -0002 | grep -q .; then
  echo "world-writable files found"
  exit 1
fi
exit 0
"""


@dataclass
class Workspace:
    root: Path
    corpus_root: Path
    sources_dir: Path
    config_path: Path
    repo_path: Path
    workdir: Path
    integration_root: Path
    deploy_root: Path
    spool_dir: Path
    ops_dir: Path
    matrix: dict = field(default_factory=dict)


def make_workspace(
    root: Path,
    *,
    arches=("x86_64",),
    oses=("linux",),
    sites=("sitea",),
    site_env: dict | None = None,
    ops_tests: dict[str, str] | None = None,
    width: int = 2,
    phase_timeout_s: int = 60,
    corpus: bool = True,
) -> Workspace:
    """Create a full on-disk workspace: corpus, config, spool, ops checks."""
    ws = Workspace(
        root=root,
        corpus_root=root / "corpus",
        sources_dir=root / "srcbundles",
        config_path=root / "rade.config.json",
        repo_path=root / "repo",
        workdir=root / "work",
        integration_root=root / "integration",
        deploy_root=root / "deploy",
        spool_dir=root / "spool",
        ops_dir=root / "ops",
        matrix={
            "arches": list(arches),
            "oses": list(oses),
            "sites": list(sites),
            "site_env": site_env or {},
        },
    )
    ws.corpus_root.mkdir(parents=True, exist_ok=True)
    ws.spool_dir.mkdir(parents=True, exist_ok=True)
    ws.ops_dir.mkdir(parents=True, exist_ok=True)
    if corpus:
        build_default_corpus(ws.corpus_root, ws.sources_dir)
    ops_entries = []
    for name, content in (ops_tests or {}).items():
        script = ws.ops_dir / f"{name}.sh"
        script.write_text(content, encoding="utf-8")
        script.chmod(0o755)
        ops_entries.append({"name": name, "command": str(script)})
    config = {
        "corpus_root": str(ws.corpus_root),
        "workdir": str(ws.workdir),
        "integration_root": str(ws.integration_root),
        "deploy_root": str(ws.deploy_root),
        "repo_path": str(ws.repo_path),
        "matrix": ws.matrix,
        "ops_tests": ops_entries,
        "width": width,
        "phase_timeout_s": phase_timeout_s,
    }
    ws.config_path.write_text(json.dumps(config, indent=2) + "\n", encoding="utf-8")
    return ws


def make_runner(ws: Workspace):
    """Load the workspace config and assemble a ready JobRunner."""
    from rade.config import load_config
    from rade.depgraph import build_graph
    from rade.envtree import DEPLOY, INTEGRATION, EnvTree
    from rade.pipeline import JobRunner
    from rade.recipes import load_corpus

    config = load_config(ws.config_path)
    corpus = load_corpus(config.corpus_root)
    graph = build_graph(corpus)
    runner = JobRunner(
        corpus=corpus,
        graph=graph,
        matrix=config.matrix,
        integration=EnvTree(INTEGRATION, config.integration_root),
        deploy=EnvTree(DEPLOY, config.deploy_root),
        workdir=config.workdir,
        ops_tests=config.ops_tests,
        phase_timeout_s=config.phase_timeout_s,
    )
    return config, corpus, graph, runner


def deliver_and_publish(ws: Workspace, changed_paths, event_id="evt-pub"):
    """Run one event through the pipeline and publish the result."""
    from rade.pipeline import plan
    from rade.recipes import CommitEvent
    from rade.repo import Repository

    config, corpus, graph, runner = make_runner(ws)
    event = CommitEvent(event_id, tuple(changed_paths), 1700000000)
    build_plan = plan(event, corpus, graph, config.matrix)
    report = runner.run_plan(build_plan, config.width)
    assert report.ok, report.render()
    repo = Repository.init(config.repo_path)
    tx = repo.begin_transaction()
    for source, repo_prefix in report.publication.stages:
        repo.stage(tx, source, repo_prefix)
    head = repo.publish(tx, report.publication.job_id)
    return config, corpus, graph, head


def write_event(
    path: Path, event_id: str, changed_paths: list[str], timestamp: int = 1700000000
) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps(
            {
                "event_id": event_id,
                "changed_paths": changed_paths,
                "timestamp": timestamp,
            }
        )
        + "\n",
        encoding="utf-8",
    )
    return path


def tick(directory: Path) -> None:
    """Wait until the file system stamps a new file in ``directory`` later
    than any file written before the call, so everything that exists now is
    older than a corpus index written after it."""
    probe = directory / ".tick"
    probe.write_text("0")
    before = probe.stat().st_mtime_ns
    deadline = time.monotonic() + 10
    while probe.stat().st_mtime_ns == before:
        assert time.monotonic() < deadline, "the file system clock does not advance"
        time.sleep(0.002)
        probe.write_text(str(time.monotonic_ns()))
    probe.unlink()
