"""Recipe manifests, the version-controlled corpus, and commit events.

A corpus is a directory tree ``<root>/<name>/<version>/rade.json`` with the
three phase scripts (and any researcher tests) stored alongside the manifest.
A :class:`CorpusIndex` lets a load skip the directories and recipes whose
files have not changed since the last load. Commit events arrive as JSON
documents naming changed corpus-relative paths.
"""
from __future__ import annotations

import hashlib
import json
import logging
import os
import re
import stat
import tempfile
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
INDEX_NAME = "corpus-index.json"  # kept in the orchestrator's workdir
INDEX_FORMAT = "rade-corpus-index/1"

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


def _list_dir(path: str) -> tuple[list[str] | None, str | None]:
    """``(subdirectories, manifest)`` of one directory.

    ``subdirectories`` names the entries that are directories and not
    symlinks, and is None when the directory cannot be listed. ``manifest`` is
    None, ``"entry"`` or ``"symlink"``: how an entry named ``rade.json``
    appears in the listing.
    """
    try:
        with os.scandir(path) as listing:
            entries = list(listing)
    except PermissionError:
        return None, None
    subdirs, manifest = [], None
    for entry in entries:
        if entry.name == MANIFEST_NAME:
            manifest = "symlink" if entry.is_symlink() else "entry"
        if entry.is_dir(follow_symlinks=False):
            subdirs.append(entry.name)
    return subdirs, manifest


def _find_manifests(root: Path, index: CorpusIndex | None = None) -> list[tuple[str, str]]:
    """Every manifest below ``root`` as ``(relative directory, path)``.

    Finds what ``root.rglob(MANIFEST_NAME)`` finds: symlinked directories are
    not descended, a directory that cannot be listed is skipped, and a
    manifest name whose target does not exist (a dangling symlink) is left
    out. One ``scandir`` per directory, none where ``index`` vouches for the
    listing; entry types stand in for stat calls. The order is that of
    ``sorted()`` over the manifests' ``Path``s, i.e. by path components, so
    ``a/b`` comes before ``a-b``. The relative directory is ``"."`` for a
    manifest at the root.
    """
    found = []
    if not root.is_dir():
        return found
    top = os.path.join(root, "")  # directory paths end in a separator
    listing = _list_dir if index is None else index.listing
    pending = [top]
    while pending:
        path = pending.pop()
        subdirs, manifest = listing(path)
        if subdirs is None:
            continue
        if manifest is not None:
            manifest_path = path + MANIFEST_NAME
            # a symlink's target may come and go while its directory stays the same
            if manifest == "entry" or os.path.exists(manifest_path):
                found.append((path[len(top):-1] or ".", manifest_path))
        pending += [path + name + "/" for name in subdirs]
    # NUL sorts below any character a name can hold, so the joined strings
    # sort as their component tuples do
    found.sort(key=lambda item: item[1].replace("/", "\0"))
    return found


def _signature(st: os.stat_result) -> list[int]:
    """What the index compares: a list, the shape JSON gives back."""
    return [st.st_mtime_ns, st.st_ctime_ns, st.st_size, st.st_ino]


def _stat_signature(path: str) -> list[int] | None:
    try:
        return _signature(os.stat(path))
    except OSError:
        return None


def _read_manifest(path: str) -> tuple[str, list[int]]:
    """The manifest's text and the signature of the file it was read from."""
    try:
        with open(path, encoding="utf-8") as f:
            signature = _signature(os.fstat(f.fileno()))
            return f.read(), signature
    except (OSError, UnicodeDecodeError) as exc:
        raise MalformedManifest(str(exc)) from exc


def scan_corpus(root: Path, index: CorpusIndex | None = None):
    """Walk the corpus yielding ``(relative_dir, recipe_or_None, error_or_None)``
    for every directory holding a manifest file.

    ``relative_dir`` is ``"."`` for a manifest at the corpus root. A manifest
    that cannot be read, decoded as UTF-8 or parsed is a
    :class:`MalformedManifest`. With an ``index``, a recipe it vouches for is
    taken from it, and every recipe read afresh is recorded in it.
    """
    root = Path(root)
    for rel_dir, manifest_path in _find_manifests(root, index):
        if index is not None:
            recipe = index.unchanged(rel_dir, manifest_path)
            if recipe is not None:
                yield rel_dir, recipe, None
                continue
        try:
            text, signature = _read_manifest(manifest_path)
            recipe = parse_manifest(text)
            signatures = _check_recipe_files(recipe, root, rel_dir, manifest_path)
        except Exception as exc:  # noqa: BLE001 - reported per manifest
            yield rel_dir, None, exc
        else:
            if index is not None:
                index.record(rel_dir, signature + signatures, recipe)
            yield rel_dir, recipe, None


def _script_paths(recipe: Recipe, manifest_path: str) -> list[str]:
    recipe_dir = manifest_path[: -len(MANIFEST_NAME)]
    scripts = recipe.scripts
    # os.path.join(recipe_dir, rel), as recipe_dir ends in a separator
    return [
        rel if rel.startswith("/") else recipe_dir + rel
        for rel in (scripts.build, scripts.check, scripts.deploy)
    ]


def _check_recipe_files(
    recipe: Recipe, root: Path, rel_dir: str, manifest_path: str
) -> list[int]:
    """Each phase script must be a non-empty regular file, after symlinks.

    Returns the three scripts' signatures, one after the other.
    """
    signatures = []
    for label, path in zip(("build", "check", "deploy"), _script_paths(recipe, manifest_path)):
        try:
            st = os.stat(path)
            usable = stat.S_ISREG(st.st_mode) and st.st_size > 0
        except (OSError, ValueError):  # ValueError: an embedded NUL byte
            usable = False
        if not usable:
            rel = getattr(recipe.scripts, label)
            raise InvariantViolation(
                f"{label} script {rel!r} missing or empty in {root / rel_dir}"
            )
        signatures += _signature(st)
    return signatures


def _recipe_fields(recipe: Recipe, shared: dict[tuple, int]) -> list:
    """A Recipe as plain JSON values; :func:`_recipe_from_fields` inverts it.

    Its scripts and dependencies, which many recipes have in common, are
    numbers into ``shared``: each distinct one, numbered as first seen.
    """
    tf = recipe.target_filter
    scripts = ("scripts", recipe.scripts.build, recipe.scripts.check, recipe.scripts.deploy)
    return [
        recipe.name,
        recipe.version,
        recipe.source.url,
        recipe.source.sha256,
        shared.setdefault(scripts, len(shared)),
        [
            shared.setdefault(
                ("dependency", d.name, d.constraint.kind, d.constraint.low, d.constraint.high),
                len(shared),
            )
            for d in recipe.dependencies
        ],
        list(recipe.researcher_tests),
        None if tf is None else [
            [[p.arch, p.os, p.site] for p in patterns]
            for patterns in (tf.include, tf.exclude)
        ],
    ]


def _shared_parts(rows: list[list]) -> list[ScriptSet | Dependency]:
    """The objects the ``shared`` numbers of :func:`_recipe_fields` stand for."""
    return [
        ScriptSet(*row[1:]) if row[0] == "scripts"
        else Dependency(row[1], VersionConstraint(*row[2:]))
        for row in rows
    ]


def _recipe_from_fields(fields: list, parts: list) -> Recipe:
    name, version, url, sha256, scripts, deps, tests, targets = fields
    return Recipe(
        name=name,
        version=version,
        source=SourceSpec(url, sha256),
        scripts=parts[scripts],
        dependencies=tuple([parts[dep] for dep in deps]),
        researcher_tests=tuple(tests),
        target_filter=None if targets is None else TargetFilter(
            *(tuple(TargetPattern(*p) for p in patterns) for patterns in targets)
        ),
    )


class CorpusIndex:
    """A stat-validated record of one corpus walk, kept as a JSON file.

    As git's index does, it trusts a cached result while the files it came
    from keep their signature ``(st_mtime_ns, st_ctime_ns, st_size, st_ino)``:
    a directory whose signature is unchanged has the same entries, and a
    recipe whose manifest and three phase scripts (after symlinks) keep theirs
    parses to the same :class:`Recipe` and passes the same file checks.

    The file's mtime is its write time: that of its temporary file when it
    was created, before anything it records afresh was stat-ed. A signature
    whose mtime or ctime is not older than that may hide an edit made in the
    same clock tick ("racy"), so it is left out and read again next time.

    The file's first line is the sha256 of the JSON payload that follows it.
    A missing, unreadable, corrupt or foreign index (another format or corpus
    root) vouches for nothing, and one that cannot be written is not kept.
    """

    def __init__(self, path: Path, root: Path):
        self.path = Path(path)
        self.root = os.path.abspath(root)
        self._top = len(os.path.join(root, ""))  # see _find_manifests
        self._known_dirs, self._known_recipes = self._read()
        self.dirs: dict[str, list] = {}  # what this walk saw, as the file holds it
        self.recipes: dict[str, tuple[list, Recipe]] = {}
        self._tmp: tuple[int, str, int] | None = None  # fd, name, mtime_ns
        self._writable = True

    def _read(self) -> tuple[dict, dict]:
        try:
            with open(self.path, "rb") as f:
                digest, _, payload = f.read().partition(b"\n")
            if hashlib.sha256(payload).hexdigest().encode() != digest:
                return {}, {}
            doc = json.loads(payload)
            if doc["format"] != INDEX_FORMAT or doc["root"] != self.root:
                return {}, {}
            parts = _shared_parts(doc["shared"])
            recipes = {
                rel: (signatures, _recipe_from_fields(fields, parts))
                for rel, (signatures, fields) in doc["recipes"].items()
            }
            return doc["dirs"], recipes
        except (OSError, ValueError, LookupError, TypeError, RadeError):
            return {}, {}

    def _begin(self) -> None:
        """Create the new index's temporary file before any fresh ``stat``."""
        if self._tmp is not None or not self._writable:
            return
        try:
            fd, name = tempfile.mkstemp(
                prefix=f".{self.path.name}.", suffix=".tmp", dir=self.path.parent
            )
        except OSError:
            self._writable = False
            return
        self._tmp = (fd, name, os.fstat(fd).st_mtime_ns)

    def listing(self, path: str) -> tuple[list[str] | None, str | None]:
        """:func:`_list_dir` of ``path``, from the index while it is unchanged."""
        rel = path[self._top:]  # "" for the root, else ends in a separator
        known = self._known_dirs.get(rel)
        if known is not None and _stat_signature(path) == known[0]:
            self.dirs[rel] = known
            return known[1], known[2]
        self._begin()
        signature = _stat_signature(path)
        subdirs, manifest = _list_dir(path)
        if signature is not None:
            self.dirs[rel] = [signature, subdirs, manifest]
        return subdirs, manifest

    def unchanged(self, rel_dir: str, manifest_path: str) -> Recipe | None:
        """The recorded recipe of ``rel_dir`` if none of its files changed."""
        known = self._known_recipes.get(rel_dir)
        if known is not None:
            signatures, recipe = known
            current = []
            for path in (manifest_path, *_script_paths(recipe, manifest_path)):
                signature = _stat_signature(path)
                if signature is None:  # gone: read afresh, which reports why
                    break
                current += signature
            if current == signatures:
                self.recipes[rel_dir] = known
                return recipe
        self._begin()
        return None

    def record(self, rel_dir: str, signatures: list, recipe: Recipe) -> None:
        self.recipes[rel_dir] = (signatures, recipe)

    def save(self) -> None:
        """Replace the index file with this walk's record if it read anything
        afresh. A failure to write leaves no file behind and is ignored."""
        if self._tmp is None:
            return
        fd, name, written = self._tmp
        self._tmp = None
        try:
            with open(fd, "wb") as f:
                f.write(self._serialize(written))
            os.utime(name, ns=(written, written))
            os.replace(name, self.path)
        except OSError:
            pass  # the index only saves work; the load's result stands
        finally:
            _remove(name)  # already gone once replaced

    def _serialize(self, written: int) -> bytes:
        def settled(signatures):  # one or more, one after the other
            return max(signatures[0::4] + signatures[1::4]) < written

        shared: dict[tuple, int] = {}
        doc = {
            "format": INDEX_FORMAT,
            "root": self.root,
            "dirs": {rel: d for rel, d in self.dirs.items() if settled(d[0])},
            "recipes": {
                rel: [signatures, _recipe_fields(recipe, shared)]
                for rel, (signatures, recipe) in self.recipes.items()
                if settled(signatures)
            },
        }
        doc["shared"] = list(shared)
        payload = json.dumps(doc, separators=(",", ":")).encode()
        return hashlib.sha256(payload).hexdigest().encode() + b"\n" + payload

    def discard(self) -> None:
        """Drop the temporary file of an index that will not be saved."""
        if self._tmp is not None:
            fd, name, _ = self._tmp
            self._tmp = None
            os.close(fd)
            _remove(name)


def _remove(path: str) -> None:
    try:
        os.unlink(path)
    except OSError:
        pass


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


def load_corpus(root: Path, index_path: Path | None = None) -> Corpus:
    """Load and index every recipe below ``root`` (see :func:`index_corpus`).

    With ``index_path``, the walk is checked against the :class:`CorpusIndex`
    kept there, and the index is rewritten when the load succeeded and had to
    re-read anything. The result is that of a load without it.
    """
    if index_path is None:
        return index_corpus(root, scan_corpus(root))
    index = CorpusIndex(index_path, root)
    try:
        corpus = index_corpus(root, scan_corpus(root, index))
        index.save()
    finally:
        index.discard()
    return corpus


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
    :class:`MalformedManifest`. Every error names the event's path.
    """
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError, RecursionError) as exc:
        # ValueError covers UnicodeDecodeError and JSONDecodeError
        raise MalformedManifest(f"{path}: {exc}") from exc
    try:
        if not isinstance(doc, dict):
            raise MalformedManifest("event must be a JSON object")
        event_id = _require(doc, "event_id", str, "")
        changed = tuple(
            _string_list(_require(doc, "changed_paths", list, ""), "changed_paths")
        )
        timestamp = _require(doc, "timestamp", int, "")
        return CommitEvent(event_id=event_id, changed_paths=changed, timestamp=timestamp)
    except RadeError as exc:
        raise type(exc)(f"{path}: {exc}") from exc


def pending_events(spool_dir: Path) -> list[Path]:
    """Unprocessed spool files, oldest name first. ``.done`` and ``.rejected``
    files are skipped."""
    return sorted(
        p for p in Path(spool_dir).iterdir()
        if p.is_file() and not p.name.endswith((".done", ".rejected"))
    )


def _mark_event(path: Path, suffix: str) -> Path:
    marked = Path(str(path) + suffix)
    Path(path).rename(marked)
    return marked


def mark_event_done(path: Path) -> Path:
    return _mark_event(path, ".done")


def mark_event_rejected(path: Path) -> Path:
    """Set aside an event that :func:`load_event` rejected."""
    return _mark_event(path, ".rejected")
