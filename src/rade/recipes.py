"""Recipe manifests, the version-controlled corpus, and commit events.

A corpus is a directory tree ``<root>/<name>/<version>/rade.json`` with the
three phase scripts (and any researcher tests) stored alongside the manifest.
A :class:`CorpusIndex` lets a load skip reading and parsing the recipes
whose files have not changed since the last load, and listing the
directories that have not changed; it lets ``rade mve`` look up one recipe
without a load (:func:`find_recipe`), and keeps the resolved dependency
edges of the recipes it records. A load only reads the index;
``depgraph.build_graph`` writes it. Commit events arrive as JSON documents
naming changed corpus-relative paths.
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
from .repo import write_atomic
from .targets import TargetPattern
from .versions import VersionConstraint

log = logging.getLogger(__name__)

MANIFEST_NAME = "rade.json"
INDEX_NAME = "corpus-index.json"  # kept in the orchestrator's workdir
INDEX_FORMAT = "rade-corpus-index/5"

_NAME_RE = re.compile(r"[a-z0-9][a-z0-9._-]*\Z")
# a version names a directory in every prefix, build, source and log path;
# an event id, which ends the HEAD line, has the same grammar
_VERSION_RE = EVENT_ID_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9._+-]*\Z")
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


Edge = tuple[tuple[str, str], tuple[str, str]]  # dependent -> dependency


@dataclass
class Corpus:
    """Parsed recipes and their corpus-relative directories, keyed by
    (name, version).

    A corpus from an indexed load (see :func:`load_corpus`) also carries its
    :class:`CorpusIndex`, set after the walk, which ``depgraph.build_graph``
    takes the resolved dependency edges from, or records them in.
    """

    root: Path
    recipes: dict[tuple[str, str], Recipe] = field(default_factory=dict)
    dirs: dict[tuple[str, str], str] = field(default_factory=dict)
    index: CorpusIndex | None = field(default=None, repr=False, compare=False)

    def __contains__(self, key) -> bool:
        return key in self.recipes

    def __len__(self) -> int:
        return len(self.recipes)

    def recipe_dir(self, key: tuple[str, str]) -> Path:
        return self.root / self.dirs[key]


def _find_manifests(root: Path, index: CorpusIndex | None = None) -> list[tuple[str, str]]:
    """Every manifest below ``root`` as ``(relative directory, path)``.

    Finds what ``root.rglob(MANIFEST_NAME)`` finds: symlinked directories are
    not descended, a directory that cannot be listed is skipped, and a
    manifest name whose target does not exist (a dangling symlink) is left
    out. One ``scandir`` per directory; entry types stand in for stat calls.
    The order is that of ``sorted()`` over the manifests' ``Path``s, i.e. by
    path components, so ``a/b`` comes before ``a-b``. The relative directory
    is ``"."`` for a manifest at the root.

    With an ``index``, each directory the index records is stat-ed first, and
    one that keeps its recorded signature is not listed: whether it holds a
    manifest, and which subdirectories, is taken from the record, and only a
    manifest that is a symlink is looked at again. Each other directory is
    listed; a subdirectory it holds that the record lacks is walked, and one
    it no longer holds drops its recorded subtree. The walk's own record goes
    to ``index.dirs`` (see :class:`CorpusIndex`).
    """
    found: list[tuple[str, str]] = []
    if not root.is_dir():
        return found
    top = os.path.join(root, "")  # directory paths end in a separator
    if index is None:
        paths, signatures, kinds, clock = [], [], [], None
    else:
        (paths, signatures, kinds), clock = index._dirs, index._written
    listed: list[tuple[str, str | None, int]] = []  # the record of each listed directory

    def note(rel: str, kind: int) -> None:
        manifest = top + rel + MANIFEST_NAME
        if kind == _MANIFEST or (kind == _MANIFEST_LINK and os.path.exists(manifest)):
            found.append((rel[:-1] or ".", manifest))

    def listing(rel: str, st: os.stat_result | None = None) -> list[str]:
        """List directory ``rel`` (stat-ed first, before its entries are
        read), note its manifest, record it, and return its subdirectories."""
        kind, subdirs = _NO_MANIFEST, []
        try:
            if st is None and index is not None:
                st = os.stat(top + rel)
            with os.scandir(top + rel) as entries:
                for entry in entries:
                    if entry.name == MANIFEST_NAME:
                        kind = _MANIFEST_LINK if entry.is_symlink() else _MANIFEST
                    if entry.is_dir(follow_symlinks=False):
                        subdirs.append(rel + entry.name + "/")
        except PermissionError:
            st = None  # skipped, and never vouched for
        signature = None
        if st is not None and _settled([st], clock):
            signature = _signature(st)
            index.relisted = True
        listed.append((rel, signature, kind))
        note(rel, kind)
        return subdirs

    def walk(rel: str) -> None:
        """List ``rel`` and every directory below it."""
        pending = [rel]
        while pending:
            pending += listing(pending.pop())

    def subtree_end(i: int) -> int:
        """The record number after recorded directory ``i``'s subtree."""
        end = i + 1
        while end < n and paths[end].startswith(paths[i]):
            end += 1
        return end

    if not paths:
        walk("")
    # The record lists each directory before those below it, so one pass
    # checks parents first. A changed directory is listed, and what it gained
    # or lost changes which of the recorded directories below it are kept.
    dropped: set[int] = set()  # record numbers not kept, as they are
    gone: set[str] = set()  # directories no longer held by their parent
    stat = os.stat
    i, n = 0, len(paths)
    while i < n:
        rel = paths[i]
        if gone and rel in gone:
            end = subtree_end(i)
            dropped.update(range(i, end))
            i = end
            continue
        try:
            st = stat(top + rel)
        except OSError:  # listed, which skips or reports it as a full walk would
            st = None
        else:
            if _signature(st) == signatures[i]:
                if kinds[i]:
                    note(rel, kinds[i])
                i += 1
                continue
        dropped.add(i)
        subdirs = listing(rel, st)
        depth = rel.count("/") + 1
        recorded = {sub for sub in paths[i + 1:subtree_end(i)] if sub.count("/") == depth}
        for sub in subdirs:
            if sub not in recorded:
                walk(sub)
        gone |= recorded.difference(subdirs)
        i += 1
    if index is not None:
        if dropped or listed:
            rows = [row for j, row in enumerate(zip(paths, signatures, kinds)) if j not in dropped]
            rows += listed
            rows.sort(key=lambda row: row[0].replace("/", "\0"))  # as found is, below
            index.dirs = tuple(map(list, zip(*rows)))
        else:
            index.dirs = index._dirs
    # NUL sorts below any character a name can hold, so the joined strings
    # sort as their component tuples do
    found.sort(key=lambda item: item[1].replace("/", "\0"))
    return found


def _signature(st: os.stat_result) -> str:
    """What the index compares of a file or directory, as one string."""
    return f"{st.st_mtime_ns} {st.st_ctime_ns} {st.st_size} {st.st_ino}"


def _read_manifest(path: str) -> tuple[str, os.stat_result]:
    """The manifest's text and the stat of the file it was read from."""
    try:
        with open(path, encoding="utf-8") as f:
            st = os.fstat(f.fileno())
            return f.read(), st
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
    found = _find_manifests(root, index)
    vouched = [None] * len(found) if index is None else index.vouched(found)
    for (rel_dir, manifest_path), recipe in zip(found, vouched):
        if recipe is not None:
            yield rel_dir, recipe, None
            continue
        try:
            text, st = _read_manifest(manifest_path)
            recipe = parse_manifest(text)
            stats = _check_recipe_files(recipe, root, rel_dir, manifest_path)
        except Exception as exc:  # noqa: BLE001 - reported per manifest
            yield rel_dir, None, exc
        else:
            if index is not None:
                index.record(rel_dir, [st, *stats], recipe)
            yield rel_dir, recipe, None


def _script_paths(scripts: ScriptSet, manifest_path: str) -> list[str]:
    recipe_dir = manifest_path[: -len(MANIFEST_NAME)]
    # os.path.join(recipe_dir, rel), as recipe_dir ends in a separator
    return [
        rel if rel.startswith("/") else recipe_dir + rel
        for rel in (scripts.build, scripts.check, scripts.deploy)
    ]


def _check_recipe_files(
    recipe: Recipe, root: Path, rel_dir: str, manifest_path: str
) -> list[os.stat_result]:
    """Each phase script must be a non-empty regular file, after symlinks.

    Returns the three scripts' stat results, one after the other.
    """
    stats = []
    paths = _script_paths(recipe.scripts, manifest_path)
    for label, path in zip(("build", "check", "deploy"), paths):
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
        stats.append(st)
    return stats


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


def _recipe_from_fields(fields: list, parts) -> Recipe:
    """The Recipe of an index entry; ``parts`` maps the entry's ``shared``
    numbers to :func:`_shared_parts` objects."""
    name, version, url, sha256, scripts, deps, tests, targets = fields[:_REL_DIR]
    return Recipe(  # by position, which is quicker: name, version, source, ...
        name,
        version,
        SourceSpec(url, sha256),
        parts[scripts],
        tuple([parts[dep] for dep in deps]),
        tuple(tests),
        None if targets is None else TargetFilter(
            *(tuple(TargetPattern(*p) for p in patterns) for patterns in targets)
        ),
    )


# in an index entry: a recipe's fields, of which these two name shared parts,
# then its directory and the signatures of its four files
_SCRIPTS, _DEPENDENCIES, _REL_DIR, _SIGNATURE = 4, 5, 8, 9
# what a directory record says of a directory's manifest name
_NO_MANIFEST, _MANIFEST, _MANIFEST_LINK = 0, 1, 2
# the payload's lines before the shared parts: header, edges, directories
_HEAD_LINES = 3


def _vouched(entry: list, parts, manifest_path: str) -> Recipe | None:
    """The Recipe of index ``entry`` if the manifest at ``manifest_path`` and
    its three phase scripts keep the signatures the entry records."""
    build, check, deploy = _script_paths(parts[entry[_SCRIPTS]], manifest_path)
    stat, signature = os.stat, _signature
    try:
        current = (
            f"{signature(stat(manifest_path))} {signature(stat(build))} "
            f"{signature(stat(check))} {signature(stat(deploy))}"
        )
    except OSError:  # gone: read afresh, which reports why
        return None
    return _recipe_from_fields(entry, parts) if current == entry[_SIGNATURE] else None


def _index_payload(path: Path, root: str) -> tuple[dict, bytes] | None:
    """The header and payload of the index file at ``path``, if its first
    line is the payload's sha256 and its header names this format and
    ``root``."""
    try:
        with open(path, "rb") as f:
            digest, _, payload = f.read().partition(b"\n")
        if hashlib.sha256(payload).hexdigest().encode() != digest:
            return None
        header = json.loads(payload.partition(b"\n")[0])
        if header["format"] != INDEX_FORMAT or header["root"] != root:
            return None
        return header, payload
    except (OSError, ValueError, LookupError, TypeError):
        return None


class CorpusIndex:
    """A stat-validated record of the recipes and directories one load
    found, kept as a file of JSON lines.

    As git's index does, it trusts a cached result while the files it came
    from keep their signature ``(st_mtime_ns, st_ctime_ns, st_size, st_ino)``
    (:func:`_signature`): a recipe whose manifest and three phase scripts
    (after symlinks) keep theirs parses to the same :class:`Recipe` and
    passes the same file checks.

    It also records every corpus directory, as git's untracked cache does:
    its signature and whether it holds an entry named ``rade.json`` (and
    whether that is a symlink). :func:`_find_manifests` stats each recorded
    directory instead of listing it, takes the listing of one that keeps its
    signature from the record, and lists only the others; a manifest that is
    a symlink still has its target looked at on every load. The record
    (:attr:`dirs`) is three lists, one item per directory: its path relative
    to the corpus root (``""`` for the root, else ending in ``/``), its
    signature and its manifest kind. The paths are sorted by their
    components, so each directory's subtree is the run of paths after it
    that start with its own, and its subdirectories are the ones of that run
    with one more component.

    It also keeps the resolved dependency edges of the recipes it records.
    ``depgraph.build_graph`` is the file's only writer (:meth:`write`), and
    writes only after a graph build on exactly those recipes succeeded. A
    walk that re-read no recipe and found every recipe the index holds has
    that recipe set, so its graph has those edges (:attr:`edges` once
    :meth:`end_walk` ran). The graph build also writes when the walk listed
    a directory afresh and recorded it (:attr:`relisted`).

    An entry is decoded into a :class:`Recipe` only when it is vouched for,
    and :func:`find_recipe` decodes no other line than the header, the one
    recipe entry it looks for and the shared parts that entry names.

    A load reads the file system's clock when it starts (:func:`_clock`),
    before it stats anything afresh. A signature whose mtime or ctime is not
    older than that reading may hide an edit made in the same clock tick
    ("racy"): a recipe with one is left out of the file and read again next
    time, and a record that leaves one out holds no edges; a directory with
    one is recorded without its signature, so it is listed again next time.
    Without a reading, nothing is written.

    The file's first line is the sha256 of the payload that follows it: one
    JSON value per line, namely the header (format tag, corpus root, number
    of shared parts), the edges, the directory record, the shared parts (see
    :func:`_recipe_fields`), then one entry per recipe. A missing,
    unreadable, corrupt or foreign index (another format or corpus root)
    vouches for nothing, and one that cannot be written is not kept.
    """

    def __init__(self, path: Path, root: Path):
        self.path = Path(path)
        self.root = os.path.abspath(root)
        # entries by relative directory, as the file holds them
        self._known, self._parts, self.edges, self._dirs = self._read()
        self.recipes: dict[str, tuple[str | None, Recipe]] = {}  # what this walk saw
        self.dirs: tuple[list, ...] = ([], [], [])  # and its directories
        self.relisted = False  # whether the walk recorded a directory it listed
        self._fresh = False  # whether this walk read a recipe afresh
        self._written: int | None = None  # the clock reading of the racy rule

    def _read(self):
        empty = {}, [], None, ([], [], [])
        read = _index_payload(self.path, self.root)
        if read is None:
            return empty
        header, payload = read
        try:
            # one JSON value per line, so the lines decode as one array
            _, edges, dirs, *rest = json.loads(b"[" + payload.replace(b"\n", b",") + b"]")
            shared = header["shared"]
            parts, entries = _shared_parts(rest[:shared]), rest[shared:]
            known = {entry[_REL_DIR]: entry for entry in entries}
            if edges is not None:
                keys = [(entry[0], entry[1]) for entry in entries]
                edges = frozenset((keys[src], keys[dep]) for src, dep in edges)
            paths, signatures, kinds = dirs
            return known, parts, edges, (paths, signatures, kinds)
        except (ValueError, LookupError, TypeError, RadeError):
            return empty

    def vouched(self, found: list[tuple[str, str]]) -> list[Recipe | None]:
        """For each ``(relative directory, manifest path)`` a walk found, the
        recipe recorded there if none of its files changed, else None."""
        known, parts, walked = self._known, self._parts, self.recipes
        result = [None] * len(found)
        for k, (rel_dir, manifest_path) in enumerate(found):
            entry = known.get(rel_dir)
            if entry is not None:
                recipe = result[k] = _vouched(entry, parts, manifest_path)
                if recipe is not None:
                    walked[rel_dir] = (entry[_SIGNATURE], recipe)
        return result

    def record(self, rel_dir: str, stats: list[os.stat_result], recipe: Recipe) -> None:
        """Record a recipe read afresh, from files of the stat results
        ``stats``; it is written only if they are settled."""
        signature = " ".join(map(_signature, stats)) if _settled(stats, self._written) else None
        self.recipes[rel_dir] = (signature, recipe)
        self._fresh = True

    def end_walk(self) -> None:
        """End the walk. If a recipe was read afresh, or one the file holds
        is gone, the file's edges are not those of this walk's recipes, so
        :attr:`edges` becomes None."""
        if self._fresh or len(self.recipes) < len(self._known):
            self.edges = None
        self._known, self._dirs = {}, ()  # the walk's own record is in recipes and dirs

    def write(self, edges: frozenset[Edge]) -> None:
        """Replace the index file with this walk's record and ``edges``: the
        resolved dependency edges of its recipes. Without a clock reading,
        nothing is written, and a failure to write is ignored."""
        if self._written is None:
            return
        try:
            write_atomic(self.path, self._serialize(edges))
        except OSError:
            pass  # the index only saves work; the load's result stands

    def _serialize(self, edges: frozenset[Edge]) -> bytes:
        kept = [
            (rel, signature, recipe)
            for rel, (signature, recipe) in self.recipes.items()
            if signature is not None
        ]
        position = {recipe.key: i for i, (_, _, recipe) in enumerate(kept)}
        shared: dict[tuple, int] = {}
        entries = [_recipe_fields(recipe, shared) + [rel, sig] for rel, sig, recipe in kept]
        lines = [
            {"format": INDEX_FORMAT, "root": self.root, "shared": len(shared)},
            # edges of a record that left a recipe out would never be trusted
            None if len(kept) < len(self.recipes) else [
                [position[src], position[dep]] for src, dep in sorted(edges)
            ],
            self.dirs,
            *shared,
            *entries,
        ]
        payload = b"\n".join(map(_json_line, lines))
        return hashlib.sha256(payload).hexdigest().encode() + b"\n" + payload


def _json_line(value) -> bytes:
    """``value`` as compact JSON, which holds no newline."""
    return json.dumps(value, separators=(",", ":")).encode()


def _clock(directory: Path) -> int | None:
    """The file system's time now: the mtime of a throwaway file made and
    removed in ``directory``. None if no file can be made there."""
    try:
        with tempfile.TemporaryFile(dir=directory) as f:
            return os.fstat(f.fileno()).st_mtime_ns
    except OSError:
        return None


def _settled(stats: list[os.stat_result], clock: int | None) -> bool:
    """Whether the files of the stat results ``stats`` are all stamped
    older than the :func:`_clock` reading ``clock``, so that any later
    change to them shows in their signatures (git's racy rule)."""
    return clock is not None and all(
        st.st_mtime_ns < clock and st.st_ctime_ns < clock for st in stats
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
        key = recipe.key
        if key in corpus.recipes:
            raise DuplicateRecipe(
                f"{recipe.name}/{recipe.version} declared in both "
                f"{corpus.dirs[key]} and {rel_dir}"
            )
        corpus.recipes[key] = recipe
        corpus.dirs[key] = rel_dir
    return corpus


def load_corpus(root: Path, index_path: Path | None = None) -> Corpus:
    """Load and index every recipe below ``root`` (see :func:`index_corpus`).

    With ``index_path``, the walk is checked against the :class:`CorpusIndex`
    kept there. The recipes and directories are those of a load without it.
    The load writes nothing: the corpus carries the index, whose ``edges``
    ``depgraph.build_graph`` takes, or which it rewrites with the edges it
    resolves.
    """
    if index_path is None:
        return index_corpus(root, scan_corpus(root))
    index = CorpusIndex(index_path, root)
    index._written = _clock(index.path.parent)  # before any fresh stat
    corpus = index_corpus(root, scan_corpus(root, index))
    index.end_walk()
    corpus.index = index
    return corpus


def find_recipe(
    root: Path, index_path: Path, key: tuple[str, str]
) -> tuple[Recipe, Path] | None:
    """The recipe ``key`` and its directory as the index at ``index_path``
    recorded them, if none of its four files changed since; else None.

    After the whole file's digest is checked, only its header, the one entry
    of ``key`` and the shared parts that entry names are decoded. No other
    recipe is looked at, so unlike :func:`load_corpus` this sees neither a
    broken or duplicate manifest elsewhere nor a directory above the recipe
    that became a symlink.
    """
    top = os.path.abspath(root)
    read = _index_payload(Path(index_path), top)
    if read is None:
        return None
    header, payload = read
    lines = payload.split(b"\n")
    # an entry's line starts with its name and version
    prefix = _json_line(list(key))[:-1] + b","
    try:
        first = _HEAD_LINES + header["shared"]
        line = next((line for line in lines[first:] if line.startswith(prefix)), None)
        if line is None:
            return None
        entry = json.loads(line)
        wanted = [entry[_SCRIPTS], *entry[_DEPENDENCIES]]
        rows = [json.loads(lines[_HEAD_LINES + n]) for n in wanted]
        parts = dict(zip(wanted, _shared_parts(rows)))
        rel_dir = entry[_REL_DIR]
        recipe = _vouched(entry, parts, os.path.join(top, rel_dir, MANIFEST_NAME))
    except (ValueError, LookupError, TypeError, RadeError):
        return None
    return None if recipe is None else (recipe, Path(root) / rel_dir)


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
    :class:`MalformedManifest`, and an ``event_id`` outside the version
    grammar a :class:`SchemaViolation`. Every error names the event's path.
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
        if not EVENT_ID_RE.match(event_id):
            raise SchemaViolation(f"bad event_id {event_id!r}")
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
