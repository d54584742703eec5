"""Recipe manifests, the version-controlled corpus, and commit events.

A corpus is a directory tree ``<root>/<name>/<version>/rade.json`` with the
three phase scripts (and any researcher tests) stored alongside the manifest.
Commit events arrive as JSON documents naming changed corpus-relative paths.
"""
from __future__ import annotations

import json
import logging
import os
import re
import stat
from dataclasses import dataclass, field
from pathlib import Path, PurePosixPath

from .errors import (
    DuplicateRecipe,
    InvariantViolation,
    MalformedManifest,
    RadeError,
    SchemaViolation,
)
from .targets import TargetPattern
from .versions import VersionConstraint

log = logging.getLogger(__name__)

MANIFEST_NAME = "rade.json"

_NAME_RE = re.compile(r"[a-z0-9][a-z0-9._-]*\Z")
# a version names a directory in every prefix, build, source and log path
_VERSION_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9._+-]*\Z")
_SHA256_RE = re.compile(r"[0-9a-f]{64}\Z")


@dataclass(frozen=True)
class SourceSpec:
    url: str
    sha256: str


@dataclass(frozen=True)
class Dependency:
    name: str
    constraint: VersionConstraint


@dataclass(frozen=True)
class ScriptSet:
    build: str
    check: str
    deploy: str


@dataclass(frozen=True)
class TargetFilter:
    include: tuple[TargetPattern, ...] = ()
    exclude: tuple[TargetPattern, ...] = ()


@dataclass(frozen=True)
class Recipe:
    name: str
    version: str
    source: SourceSpec
    scripts: ScriptSet
    dependencies: tuple[Dependency, ...] = ()
    researcher_tests: tuple[str, ...] = ()
    target_filter: TargetFilter | None = None

    @property
    def key(self) -> tuple[str, str]:
        return (self.name, self.version)


@dataclass(frozen=True)
class CommitEvent:
    event_id: str
    changed_paths: tuple[str, ...]
    timestamp: int

    def __post_init__(self):
        if not self.event_id:
            raise SchemaViolation("event_id must be non-empty")
        if not self.changed_paths:
            raise SchemaViolation("changed_paths must be non-empty")


def _require(mapping: dict, key: str, kind, where: str):
    if key not in mapping:
        raise SchemaViolation(f"missing required field {where}{key}")
    value = mapping[key]
    if not isinstance(value, kind):
        raise SchemaViolation(f"field {where}{key} has wrong type")
    return value


def _string_list(value, where: str) -> list[str]:
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise SchemaViolation(f"field {where} must be a list of strings")
    return value


def parse_manifest(text: str) -> Recipe:
    """Parse one ``rade.json`` document into a Recipe.

    Optional fields default to an empty dependency list, no researcher tests
    and no target filter. Purely textual: script existence is checked when the
    corpus is loaded, not here.
    """
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:
        # ValueError covers JSONDecodeError and over-long integer literals;
        # RecursionError comes from arrays or objects nested too deep.
        raise MalformedManifest(str(exc)) from exc
    if not isinstance(doc, dict):
        raise MalformedManifest("manifest must be a JSON object")

    name = _require(doc, "name", str, "")
    version = _require(doc, "version", str, "")
    source_doc = _require(doc, "source", dict, "")
    scripts_doc = _require(doc, "scripts", dict, "")

    if not _NAME_RE.match(name):
        raise InvariantViolation(f"bad recipe name {name!r}")
    if not _VERSION_RE.match(version):
        raise InvariantViolation(f"bad recipe version {version!r}")

    source = SourceSpec(
        url=_require(source_doc, "url", str, "source."),
        sha256=_require(source_doc, "sha256", str, "source."),
    )
    if not _SHA256_RE.match(source.sha256):
        raise InvariantViolation(
            "source.sha256 must be 64 lowercase hex characters"
        )

    scripts = ScriptSet(
        build=_require(scripts_doc, "build", str, "scripts."),
        check=_require(scripts_doc, "check", str, "scripts."),
        deploy=_require(scripts_doc, "deploy", str, "scripts."),
    )

    deps_doc = doc.get("dependencies", [])
    if not isinstance(deps_doc, list):
        raise SchemaViolation("field dependencies must be a list")
    dependencies = []
    for i, dep_doc in enumerate(deps_doc):
        if not isinstance(dep_doc, dict):
            raise SchemaViolation(f"dependencies[{i}] must be an object")
        dep_name = _require(dep_doc, "name", str, f"dependencies[{i}].")
        raw = _require(dep_doc, "constraint", str, f"dependencies[{i}].")
        if dep_name == name:
            raise InvariantViolation(f"recipe {name} depends on itself")
        dependencies.append(Dependency(dep_name, VersionConstraint.parse(raw)))

    researcher_tests = tuple(
        _string_list(doc.get("researcher_tests", []), "researcher_tests")
    )

    target_filter = None
    if "targets" in doc:
        tf_doc = doc["targets"]
        if not isinstance(tf_doc, dict):
            raise SchemaViolation("targets must be an object")
        include = tuple(
            TargetPattern.parse(p)
            for p in _string_list(tf_doc.get("include", []), "targets.include")
        )
        exclude = tuple(
            TargetPattern.parse(p)
            for p in _string_list(tf_doc.get("exclude", []), "targets.exclude")
        )
        target_filter = TargetFilter(include, exclude)

    return Recipe(
        name=name,
        version=version,
        source=source,
        scripts=scripts,
        dependencies=tuple(dependencies),
        researcher_tests=researcher_tests,
        target_filter=target_filter,
    )


def canonical_manifest(recipe: Recipe) -> str:
    """Serialize a Recipe back to its canonical manifest text.

    Round-trips: ``parse_manifest(canonical_manifest(r)) == r``.
    """
    doc = {
        "name": recipe.name,
        "version": recipe.version,
        "source": {"url": recipe.source.url, "sha256": recipe.source.sha256},
        "scripts": {
            "build": recipe.scripts.build,
            "check": recipe.scripts.check,
            "deploy": recipe.scripts.deploy,
        },
    }
    if recipe.dependencies:
        doc["dependencies"] = [
            {"name": d.name, "constraint": str(d.constraint)}
            for d in recipe.dependencies
        ]
    if recipe.researcher_tests:
        doc["researcher_tests"] = list(recipe.researcher_tests)
    if recipe.target_filter is not None:
        doc["targets"] = {
            "include": [str(p) for p in recipe.target_filter.include],
            "exclude": [str(p) for p in recipe.target_filter.exclude],
        }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


@dataclass
class Corpus:
    """Immutable index of parsed recipes keyed by (name, version)."""

    root: Path
    recipes: dict[tuple[str, str], Recipe] = field(default_factory=dict)
    dirs: dict[tuple[str, str], str] = field(default_factory=dict)
    _versions: dict[str, list[str]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    _indexed: int = field(default=0, init=False, repr=False, compare=False)

    def __contains__(self, key) -> bool:
        return key in self.recipes

    def __len__(self) -> int:
        return len(self.recipes)

    def recipe_dir(self, key: tuple[str, str]) -> Path:
        return self.root / self.dirs[key]

    def versions_of(self, name: str) -> list[str]:
        if self._indexed != len(self.recipes):  # recipes are only ever added
            self._versions = {}
            for n, v in self.recipes:
                self._versions.setdefault(n, []).append(v)
            self._indexed = len(self.recipes)
        return list(self._versions.get(name, ()))


def _find_manifests(root: Path) -> list[tuple[tuple[str, ...], str]]:
    """Every manifest below ``root`` as ``(directory parts, path)``.

    Finds what ``root.rglob(MANIFEST_NAME)`` finds: symlinked directories are
    not descended, a directory that cannot be listed is skipped, and a
    manifest name whose target does not exist (a dangling symlink) is left
    out. One ``scandir`` per directory; its entry types stand in for stat
    calls. The order is that of ``sorted()`` over the manifests' ``Path``s,
    i.e. by path components, so ``a/b`` comes before ``a-b``.
    """
    found = []
    if not root.is_dir():
        return found
    pending = [((), str(root))]
    while pending:
        parts, path = pending.pop()
        try:
            with os.scandir(path) as listing:
                entries = list(listing)
        except PermissionError:
            continue
        for entry in entries:
            name = entry.name
            if name == MANIFEST_NAME and (
                not entry.is_symlink() or os.path.exists(entry.path)
            ):
                found.append((parts, entry.path))
            if entry.is_dir(follow_symlinks=False):
                pending.append((parts + (name,), entry.path))
    found.sort(key=lambda item: item[0] + (MANIFEST_NAME,))
    return found


def _read_manifest(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as f:
            return f.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise MalformedManifest(str(exc)) from exc


def scan_corpus(root: Path):
    """Walk the corpus yielding ``(relative_dir, recipe_or_None, error_or_None)``
    for every directory holding a manifest file.

    ``relative_dir`` is ``"."`` for a manifest at the corpus root. A manifest
    that cannot be read, decoded as UTF-8 or parsed is a
    :class:`MalformedManifest`.
    """
    root = Path(root)
    for parts, manifest_path in _find_manifests(root):
        rel_dir = "/".join(parts) or "."
        try:
            recipe = parse_manifest(_read_manifest(manifest_path))
            _check_recipe_files(recipe, root, rel_dir)
        except Exception as exc:  # noqa: BLE001 - reported per manifest
            yield rel_dir, None, exc
        else:
            yield rel_dir, recipe, None


def _check_recipe_files(recipe: Recipe, root: Path, rel_dir: str) -> None:
    """Each phase script must be a non-empty regular file, after symlinks."""
    for label, rel in (
        ("build", recipe.scripts.build),
        ("check", recipe.scripts.check),
        ("deploy", recipe.scripts.deploy),
    ):
        try:
            st = os.stat(os.path.join(root, rel_dir, rel))
            usable = stat.S_ISREG(st.st_mode) and st.st_size > 0
        except (OSError, ValueError):  # ValueError: an embedded NUL byte
            usable = False
        if not usable:
            raise InvariantViolation(
                f"{label} script {rel!r} missing or empty in {root / rel_dir}"
            )


def index_corpus(root: Path, scanned) -> Corpus:
    """Index the ``scan_corpus`` results of ``root``.

    Raises the first scan error, a :class:`RadeError` annotated with its
    manifest path (anything else is a bug and is re-raised as it is), and
    rejects duplicate (name, version) declarations.
    """
    corpus = Corpus(root=Path(root))
    for rel_dir, recipe, error in scanned:
        if isinstance(error, RadeError):
            raise type(error)(f"{rel_dir}/{MANIFEST_NAME}: {error}") from error
        if error is not None:
            raise error
        if recipe.key in corpus.recipes:
            raise DuplicateRecipe(
                f"{recipe.name}/{recipe.version} declared in both "
                f"{corpus.dirs[recipe.key]} and {rel_dir}"
            )
        corpus.recipes[recipe.key] = recipe
        corpus.dirs[recipe.key] = rel_dir
    return corpus


def load_corpus(root: Path) -> Corpus:
    """Load and index every recipe below ``root`` (see :func:`index_corpus`)."""
    return index_corpus(root, scan_corpus(root))


def changed_recipes(event: CommitEvent, corpus: Corpus) -> set[tuple[str, str]]:
    """Recipes whose directory contains at least one changed path.

    A path belongs to the deepest recipe directory that contains it, so a
    recipe nested in another's directory owns its own files, and a manifest at
    the corpus root (``rel_dir`` ``.``) owns every path no deeper recipe does.
    Paths outside every recipe directory are ignored with a warning.
    """
    by_dir = {rel_dir: key for key, rel_dir in corpus.dirs.items()}
    changed = set()
    for raw in event.changed_paths:
        path = PurePosixPath(raw)
        dirs = (str(d) for d in (path, *path.parents))
        hit = next((by_dir[d] for d in dirs if d in by_dir), None)
        if hit is None:
            log.warning("event %s: path %r is outside any recipe", event.event_id, raw)
        else:
            changed.add(hit)
    return changed


def load_event(path: Path) -> CommitEvent:
    """Read one commit event document from the spool.

    An event that cannot be read, decoded as UTF-8 or parsed is a
    :class:`MalformedManifest`.
    """
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError, RecursionError) as exc:
        # ValueError covers UnicodeDecodeError and JSONDecodeError
        raise MalformedManifest(f"{path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise MalformedManifest(f"{path}: event must be a JSON object")
    event_id = _require(doc, "event_id", str, "")
    changed = tuple(_string_list(_require(doc, "changed_paths", list, ""), "changed_paths"))
    timestamp = _require(doc, "timestamp", int, "")
    return CommitEvent(event_id=event_id, changed_paths=changed, timestamp=timestamp)


def pending_events(spool_dir: Path) -> list[Path]:
    """Unprocessed spool files, oldest name first. ``.done`` files are skipped."""
    return sorted(
        p for p in Path(spool_dir).iterdir()
        if p.is_file() and not p.name.endswith(".done")
    )


def mark_event_done(path: Path) -> Path:
    done = Path(str(path) + ".done")
    Path(path).rename(done)
    return done
