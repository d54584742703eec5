"""Oracle tests for line-level catalogs.

Publish splices catalog lines and sync diffs them as sets. Here random
stage/publish sequences are checked against the entry-level model: every
catalog blob must equal ``serialize()`` here, a reference written from the
format's definition, of the entries a dict-based publish builds, and after
every sync the live site tree must equal a from-scratch materialization of
the head's catalog.
"""
from __future__ import annotations

import hashlib
import os
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from rade.errors import PathCollision
from rade.repo import (
    DIRECTORY,
    EXECUTABLE,
    FILE,
    REVISION_FILE,
    CatalogEntry,
    ObjectRef,
    Repository,
)
from rade.siteclient import SiteCache
from toycorpus import catalog_entries

# Nested prefixes and their neighbours in path order: "a" < "a\x01" <
# "a\x1c" < "a-b" < "a/..." < "a0" < "b". A line sorts "a\x01..." before
# "a\t...", and str.splitlines would split at "\x1c". Few enough that
# publishes often restage a prefix or one nested in it; "a/e/a" nests under
# the empty directory "e" that a tree staged at "a" may hold.
PREFIXES = ("a", "a\x01", "a\x1c", "a-b", "a/b", "a/b/a", "a/e/a", "a0", "b")
# Paths inside a staged tree, each a file or an empty directory. None of their
# components is one of a prefix, so no path is a file and a parent at once.
INNER = ("f", "f\x01", "g/h", "g-h", "g\x01", "g/e")
CONTENTS = (b"x", b"y", b"x" * 70000)  # the last spans two hashing chunks

prefix_st = st.sampled_from(PREFIXES)
file_st = st.tuples(st.sampled_from(CONTENTS), st.booleans())  # (content, executable)
# inner path -> file, or None for an empty directory
tree_st = st.builds(
    lambda items, nest: {**items, **({"e": None} if nest else {})},
    st.dictionaries(st.sampled_from(INNER), st.none() | file_st, max_size=4),
    st.booleans(),
)


def publish_st(single_files: bool):
    """One publish: a dict prefix -> staged content. A single file staged at
    a prefix can make a file the parent of another path, which publish
    rejects, so only the catalog oracle stages them."""
    return st.dictionaries(
        prefix_st, (tree_st | file_st) if single_files else tree_st, min_size=1, max_size=3
    )


ORACLE = settings(
    derandomize=True,
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def under(path: str, prefixes) -> bool:
    """The reference test: ``path`` is one of ``prefixes`` or below one."""
    while path not in prefixes:
        cut = path.rfind("/")
        if cut < 0:
            return False
        path = path[:cut]
    return True


def file_parent(entries: dict[str, CatalogEntry]) -> bool:
    """The reference rule: some entry's proper ancestor is a file entry."""
    ancestors = {path[:at] for path in entries for at, c in enumerate(path) if c == "/"}
    return any(entries[a].mode != DIRECTORY for a in ancestors if a in entries)


def serialize(entries) -> bytes:
    """The reference catalog: one ``path<TAB>mode<TAB>sha256<TAB>size`` line
    per entry, a directory's as ``-`` and 0, sorted by UTF-8 path bytes."""
    lines = []
    for e in sorted(entries, key=lambda e: e.path.encode("utf-8")):
        sha, size = ("-", 0) if e.mode == DIRECTORY else (e.object.sha256, e.object.size)
        lines.append(f"{e.path}\t{e.mode}\t{sha}\t{size}\n")
    return "".join(lines).encode("utf-8")


def entry(path: str, content) -> CatalogEntry:
    if content is None:
        return CatalogEntry(path, DIRECTORY, None)
    data, executable = content
    ref = ObjectRef(hashlib.sha256(data).hexdigest(), len(data))
    return CatalogEntry(path, EXECUTABLE if executable else FILE, ref)


def write(path: Path, content) -> None:
    if content is None:
        path.mkdir(parents=True, exist_ok=True)
        return
    data, executable = content
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(data)
    path.chmod(0o755 if executable else 0o644)


def publish(repo, model, staged, src: Path, job: str):
    """Publish ``staged`` through the repository and through the model;
    returns the new head, or the old one if the model makes a file the
    parent of another path and publish must reject it."""
    tx = repo.begin_transaction()
    entries = {}
    for i, (prefix, content) in enumerate(sorted(staged.items())):
        root = src / job / str(i)
        if isinstance(content, dict):
            root.mkdir(parents=True)
            for rel, item in content.items():
                write(root / rel, item)
                entries[f"{prefix}/{rel}"] = entry(f"{prefix}/{rel}", item)
        else:
            write(root, content)
            entries[prefix] = entry(prefix, content)
        repo.stage(tx, root, prefix, src)

    kept = {p: e for p, e in model.items() if not under(p, staged)}
    kept.update(entries)
    if file_parent(kept):
        before = repo.read_head()
        with pytest.raises(PathCollision):
            repo.publish(tx, job)
        repo.abort(tx)
        assert repo.read_head() == before
        return before
    head = repo.publish(tx, job)
    rev = f"{head.revision}\n".encode("ascii")
    kept[REVISION_FILE] = entry(REVISION_FILE, (rev, False))
    model.clear()
    model.update(kept)
    return head


def materialize(repo, head) -> dict:
    """path -> (bytes, executable) or None for a directory, as a site tree
    built from nothing would hold the head's catalog."""
    state = {}
    for e in catalog_entries(repo, head).values():
        parts = e.path.split("/")
        state.update(("/".join(parts[:i]), None) for i in range(1, len(parts)))
        if e.mode == DIRECTORY:
            state[e.path] = None
        elif e.path == REVISION_FILE:
            state[e.path] = (f"{head.revision}\n".encode(), False)
        else:
            data = repo.object_path(e.object.sha256).read_bytes()
            state[e.path] = (data, e.mode == EXECUTABLE)
    return state


def tree_state(root: Path) -> dict:
    return {
        p.relative_to(root).as_posix(): (p.read_bytes(), os.access(p, os.X_OK))
        if p.is_file()
        else None
        for p in root.rglob("*")
    }


@ORACLE
@given(st.lists(publish_st(single_files=True), min_size=2, max_size=6))
def test_published_catalog_equals_the_entry_model(steps):
    with tempfile.TemporaryDirectory() as scratch:
        scratch = Path(scratch)
        repo = Repository.init(scratch / "repo")
        model: dict[str, CatalogEntry] = {}
        for n, staged in enumerate(steps):
            head = publish(repo, model, staged, scratch / "src", f"job-{n}")
            blob = repo.catalogs.path(head.root_catalog.sha256).read_bytes()
            assert blob == serialize(model.values())
            assert catalog_entries(repo, head) == model


@ORACLE
@given(st.lists(st.tuples(publish_st(single_files=False), st.booleans()), min_size=2, max_size=6))
def test_every_sync_leaves_a_from_scratch_tree(steps):
    with tempfile.TemporaryDirectory() as scratch:
        scratch = Path(scratch)
        repo = Repository.init(scratch / "repo")
        cache = SiteCache(repo.path, scratch / "cache")
        model: dict[str, CatalogEntry] = {}
        for n, (staged, sync) in enumerate(steps):
            head = publish(repo, model, staged, scratch / "src", f"job-{n}")
            if sync or n == len(steps) - 1:
                cache.sync(head)
                assert tree_state(cache.tree_root) == materialize(repo, head)
        assert repo.verify().ok
