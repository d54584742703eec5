"""Seeded synthetic corpora for the rade benchmark, and the benchmark's own
model of what every delivered file must contain.

The program under test sees only the files :func:`write_corpus` writes. The
expectations (planned recipe sets, delivered bytes, modulefile text) are
derived here from the same seeded description, never read back from rade.
"""
from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path

VERSION = "1.0"
ARCHES = ("aarch64", "x86_64")
OS = "linux"
SITE = "sitea"
TARGETS = tuple(f"{arch}-{OS}-{SITE}" for arch in sorted(ARCHES))
MVE_TARGET = f"x86_64-{OS}-{SITE}"
CHUNK = 1 << 16


@dataclass(frozen=True)
class Shape:
    """Make-up of one workload's corpus and commit stream."""

    recipes: int
    deps: int  # dependencies drawn per recipe, from lower-indexed recipes
    payload_bytes: int  # 0: a one-line text deliverable that bakes in its deps
    changed_per_commit: int
    commit_kind: str  # "leaf" | "toolchain" | "any"
    independent: int = 0  # recipes kept out of the toolchain's reach
    min_commits: int = 1  # the byte metrics are taken over this many commits
    max_commits: int | None = None  # bounds the workspace, which lives in memory


SHAPES = {
    "trickle": Shape(recipes=200, deps=2, payload_bytes=0, changed_per_commit=1,
                     commit_kind="leaf", min_commits=12),
    "toolchain_bump": Shape(recipes=64, deps=2, payload_bytes=0, changed_per_commit=1,
                            commit_kind="toolchain", independent=8, min_commits=3),
    "bulk_payload": Shape(recipes=20, deps=0, payload_bytes=2 << 20, changed_per_commit=2,
                          commit_kind="any", min_commits=4, max_commits=48),
}


@dataclass(frozen=True)
class Spec:
    """One seeded corpus: recipe names, edges, source tokens, first stamps."""

    shape: Shape
    seed: int
    names: tuple[str, ...]
    deps: dict[str, tuple[str, ...]]
    tokens: dict[str, str]
    stamps: dict[str, str]

    @property
    def text(self) -> bool:
        return self.shape.payload_bytes == 0


def make_spec(workload: str, seed: int) -> Spec:
    shape = SHAPES[workload]
    names = tuple(f"r{i:03d}" for i in range(shape.recipes))
    if shape.commit_kind == "toolchain":
        names = ("toolchain",) + names[1:]
    # The DAG is drawn once per workload, not per seed: every seed then asks
    # rade for the same amount of work (job counts, critical path), and the
    # seed varies content, stamps and which recipes each commit changes.
    dag = random.Random(f"dag:{workload}")
    deps: dict[str, tuple[str, ...]] = {}
    # Dependencies are drawn from lower-indexed recipes, so every recipe below
    # `reached` depends on names[0], directly or not. The last `independent`
    # recipes only depend on each other, out of names[0]'s reach.
    reached = shape.recipes - shape.independent
    for i, name in enumerate(names):
        pool = names[reached if i >= reached else 0:i]
        deps[name] = tuple(sorted(dag.sample(pool, min(shape.deps, len(pool)))))
    rng = random.Random(f"corpus:{workload}:{seed}")
    tokens = {n: f"{rng.getrandbits(32):08x}" for n in names}
    stamps = {n: f"{rng.getrandbits(32):08x}" for n in names}
    return Spec(shape, seed, names, deps, tokens, stamps)


def dependents(spec: Spec) -> dict[str, set[str]]:
    out: dict[str, set[str]] = {n: set() for n in spec.names}
    for name, ds in spec.deps.items():
        for d in ds:
            out[d].add(name)
    return out


def rebuild_set(spec: Spec, changed) -> set[str]:
    """Changed recipes plus everything that reaches them (reverse reachability)."""
    rdeps = dependents(spec)
    seen = set(changed)
    stack = list(changed)
    while stack:
        for up in rdeps[stack.pop()]:
            if up not in seen:
                seen.add(up)
                stack.append(up)
    return seen


def commits(spec: Spec):
    """Endless seeded stream of commits: (changed recipe names, new stamps)."""
    rng = random.Random(f"commits:{spec.seed}:{spec.shape.commit_kind}")
    shape = spec.shape
    if shape.commit_kind == "leaf":
        rdeps = dependents(spec)
        pool = [n for n in spec.names if not rdeps[n]]
    elif shape.commit_kind == "toolchain":
        pool = [spec.names[0]]
    else:
        pool = list(spec.names)
    while True:
        changed = sorted(rng.sample(pool, shape.changed_per_commit))
        yield changed, {n: f"{rng.getrandbits(32):08x}" for n in changed}


# -- files the program sees --------------------------------------------------

def env_dir_var(name: str) -> str:
    return name.upper().replace("-", "_").replace(".", "_") + "_DIR"


def _payload_chunks(spec: Spec, name: str):
    rng = random.Random(f"payload:{spec.seed}:{name}")
    left = spec.shape.payload_bytes
    while left:
        n = min(CHUNK, left)
        yield rng.randbytes(n)
        left -= n


def source_name(name: str) -> str:
    return f"{name}-{VERSION}.src"


def _build_script(spec: Spec, name: str) -> str:
    src = f'"$SOURCE_DIR/{source_name(name)}"'
    lines = ["set -eu", 'read stamp < "${0%/*}/stamp"']
    if spec.text:
        lines += [
            f"read src < {src}",
            "{",
            f'printf "%s\\n" "{name}/{VERSION} $ARCH-$OS-$SITE stamp $stamp src $src"',
        ]
        for dep in spec.deps[name]:
            lines += [
                f'set -- $(sha256sum < "${env_dir_var(dep)}/bin/{dep}")',
                f'printf "dep {dep} %s\\n" "$1"',
            ]
        lines.append('} > "$BUILD_DIR/out"')
    else:
        lines += [
            f'cat {src} > "$BUILD_DIR/out"',
            f'printf "%s\\n" "{name}/{VERSION} stamp $stamp" >> "$BUILD_DIR/out"',
        ]
    return "\n".join(lines) + "\n"


def _mve_script(spec: Spec, name: str) -> str:
    path = f'"${env_dir_var(name)}/bin/{name}"'
    if not spec.text:
        return f"test -s {path}\n"
    return (
        f"read line < {path}\n"
        f'case "$line" in "{name}/{VERSION} "*) exit 0 ;; esac\n'
        "exit 1\n"
    )


DEPLOY_SCRIPT = """\
set -eu
P="${DEPLOY_PREFIX:-$INSTALL_PREFIX}"
mkdir "$P/bin"
cp "$BUILD_DIR/out" "$P/bin/@NAME@"
"""


def write_corpus(spec: Spec, corpus_root: Path, sources_dir: Path) -> None:
    sources_dir.mkdir(parents=True, exist_ok=True)
    for name in spec.names:
        src_path = sources_dir / source_name(name)
        digest = hashlib.sha256()
        with open(src_path, "wb") as fh:
            if spec.text:
                data = f"{spec.tokens[name]}\n".encode()
                fh.write(data)
                digest.update(data)
            else:
                for chunk in _payload_chunks(spec, name):
                    fh.write(chunk)
                    digest.update(chunk)
        recipe_dir = corpus_root / name / VERSION
        (recipe_dir / "tests").mkdir(parents=True)
        (recipe_dir / "build.sh").write_text(_build_script(spec, name))
        (recipe_dir / "check-build").write_text('test -s "$BUILD_DIR/out"\n')
        (recipe_dir / "deploy.sh").write_text(DEPLOY_SCRIPT.replace("@NAME@", name))
        (recipe_dir / "tests" / "mve.sh").write_text(_mve_script(spec, name))
        (recipe_dir / "stamp").write_text(spec.stamps[name] + "\n")
        manifest = {
            "name": name,
            "version": VERSION,
            "source": {"url": f"file://{src_path}", "sha256": digest.hexdigest()},
            "scripts": {"build": "build.sh", "check": "check-build", "deploy": "deploy.sh"},
            "researcher_tests": ["tests/mve.sh"],
        }
        if spec.deps[name]:
            manifest["dependencies"] = [
                {"name": d, "constraint": f">={VERSION}"} for d in spec.deps[name]
            ]
        (recipe_dir / "rade.json").write_text(json.dumps(manifest, indent=2) + "\n")


def write_stamps(corpus_root: Path, stamps: dict[str, str]) -> list[str]:
    """Commit new stamps; returns the changed corpus-relative paths."""
    paths = []
    for name, stamp in sorted(stamps.items()):
        rel = f"{name}/{VERSION}/stamp"
        (corpus_root / rel).write_text(stamp + "\n")
        paths.append(rel)
    return paths


# -- what the site must hold ---------------------------------------------------

class Expected:
    """Delivered content the benchmark derives from the recipes, the targets
    and the current stamps."""

    def __init__(self, spec: Spec):
        self.spec = spec
        self.stamps = dict(spec.stamps)
        self._payload_prefix = {}
        if not spec.text:
            for name in spec.names:
                h = hashlib.sha256()
                for chunk in _payload_chunks(spec, name):
                    h.update(chunk)
                self._payload_prefix[name] = h

    def text(self, name: str, target: str, memo: dict) -> bytes:
        key = (name, target)
        if key not in memo:
            lines = [f"{name}/{VERSION} {target} stamp {self.stamps[name]} "
                     f"src {self.spec.tokens[name]}\n"]
            for dep in self.spec.deps[name]:
                digest = hashlib.sha256(self.text(dep, target, memo)).hexdigest()
                lines.append(f"dep {dep} {digest}\n")
            memo[key] = "".join(lines).encode()
        return memo[key]

    def digest(self, name: str, target: str, memo: dict) -> str:
        """sha256 of the file delivered at ``bin/<name>`` for ``target``."""
        if self.spec.text:
            return hashlib.sha256(self.text(name, target, memo)).hexdigest()
        h = self._payload_prefix[name].copy()
        h.update(f"{name}/{VERSION} stamp {self.stamps[name]}\n".encode())
        return h.hexdigest()

    def site_files(self, deploy_root: Path, revision: int) -> dict[str, str]:
        """Every file the site tree must hold, as repo path -> sha256."""
        memo: dict = {}
        files = {".revision": hashlib.sha256(f"{revision}\n".encode()).hexdigest()}
        for name in self.spec.names:
            for target in TARGETS:
                arch, os_, site = target.split("-")
                rel = f"{arch}/{os_}/{site}/{name}/{VERSION}"
                files[f"{rel}/bin/{name}"] = self.digest(name, target, memo)
                files[f"modulefiles/{rel}"] = hashlib.sha256(
                    modulefile(deploy_root / rel, name, target).encode()
                ).hexdigest()
        return files


def modulefile(prefix: Path, name: str, target: str) -> str:
    return (
        "#%Module1.0\n"
        f'module-whatis "{name}/{VERSION} for {target} (CODE-RADE pipeline)"\n'
        f"prepend-path PATH {prefix}/bin\n"
        f"setenv {env_dir_var(name)} {prefix}\n"
    )
