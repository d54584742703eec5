from __future__ import annotations

import hashlib
import json
import logging
import os
import shutil
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rade import recipes
from rade.depgraph import build_graph
from rade.errors import (
    DuplicateRecipe,
    InvariantViolation,
    MalformedManifest,
    RadeError,
    SchemaViolation,
    UnknownDependency,
)
from rade.recipes import (
    INDEX_NAME,
    MANIFEST_NAME,
    CommitEvent,
    changed_recipes,
    load_corpus,
    load_event,
    mark_event_done,
    mark_event_rejected,
    parse_manifest,
    pending_events,
    scan_corpus,
)
from toycorpus import build_default_corpus, tick, write_event, write_recipe

ZEROS = "0" * 64


def minimal_manifest(**overrides):
    doc = {
        "name": "hello",
        "version": "1.0",
        "source": {"url": "file:///srv/src/hello-1.0.tar.gz", "sha256": ZEROS},
        "scripts": {"build": "build.sh", "check": "check-build", "deploy": "deploy.sh"},
    }
    doc.update(overrides)
    return json.dumps(doc)


class TestParseManifest:
    def test_minimal_manifest_defaults(self):
        recipe = parse_manifest(minimal_manifest())
        assert recipe.name == "hello"
        assert recipe.version == "1.0"
        assert recipe.dependencies == ()
        assert recipe.researcher_tests == ()
        assert recipe.target_filter is None

    def test_dependency_constraint_parsed(self):
        recipe = parse_manifest(
            minimal_manifest(dependencies=[{"name": "zlib", "constraint": ">=1.2"}])
        )
        (dep,) = recipe.dependencies
        assert dep.name == "zlib"
        assert dep.constraint.kind == "at-least"
        assert dep.constraint.low == "1.2"
        assert dep.constraint.high is None

    def test_range_bound_longer_than_int_conversion_limit(self):
        high = "9" * 5000
        recipe = parse_manifest(
            minimal_manifest(dependencies=[{"name": "zlib", "constraint": f">=1 <{high}"}])
        )
        (dep,) = recipe.dependencies
        assert dep.constraint.high == high
        assert dep.constraint.accepts("2.0")
        assert not dep.constraint.accepts(high)

    def test_missing_check_script_names_field(self):
        doc = json.loads(minimal_manifest())
        del doc["scripts"]["check"]
        with pytest.raises(SchemaViolation, match="scripts.check"):
            parse_manifest(json.dumps(doc))

    def test_syntax_error_is_malformed(self):
        with pytest.raises(MalformedManifest):
            parse_manifest("{not json")

    @pytest.mark.parametrize(
        "text",
        ["[" * 100_000, '{"name": ' + "1" * 5000 + "}"],
        ids=["deep", "long-int"],
    )
    def test_unparseable_json_is_malformed(self, text):
        with pytest.raises(MalformedManifest):
            parse_manifest(text)

    def test_dependencies_must_be_a_list(self):
        with pytest.raises(SchemaViolation, match="dependencies must be a list"):
            parse_manifest(minimal_manifest(dependencies=5))

    def test_bad_name_rejected(self):
        with pytest.raises(InvariantViolation):
            parse_manifest(minimal_manifest(name="Hello"))

    def test_bad_checksum_rejected(self):
        with pytest.raises(InvariantViolation):
            parse_manifest(
                minimal_manifest(source={"url": "file:///x", "sha256": "abc"})
            )

    def test_self_dependency_rejected(self):
        with pytest.raises(InvariantViolation):
            parse_manifest(
                minimal_manifest(dependencies=[{"name": "hello", "constraint": "=1.0"}])
            )

    def test_pure_function(self):
        text = minimal_manifest(
            dependencies=[{"name": "zlib", "constraint": ">=1.2 <2.0"}],
            researcher_tests=["t/a.sh"],
            targets={"include": ["*-*-sitea"], "exclude": []},
        )
        assert parse_manifest(text) == parse_manifest(text)


class TestLoadCorpus:
    def test_empty_directory(self, tmp_path):
        assert len(load_corpus(tmp_path)) == 0

    def test_counts_recipes(self, tmp_path):
        build_default_corpus(tmp_path / "corpus", tmp_path / "src")
        corpus = load_corpus(tmp_path / "corpus")
        assert len(corpus) == 3
        assert ("hello", "1.0") in corpus
        assert [v for n, v in corpus.recipes if n == "libdemo"] == ["1.0"]

    def test_duplicate_name_version_rejected(self, tmp_path):
        corpus_root = tmp_path / "corpus"
        kwargs = dict(
            source_url="file:///srv/x.tar.gz",
            sha256=ZEROS,
            build_script="x\n",
            check_script="x\n",
            deploy_script="x\n",
        )
        write_recipe(corpus_root, "dup", "1.0", **kwargs)
        other = corpus_root / "other" / "1.0"
        other.mkdir(parents=True)
        for script in ("build.sh", "check-build", "deploy.sh"):
            (other / script).write_text("x\n")
        (other / "rade.json").write_text(minimal_manifest(name="dup"))
        with pytest.raises(DuplicateRecipe):
            load_corpus(corpus_root)

    def test_missing_script_file_rejected(self, tmp_path):
        corpus_root = tmp_path / "corpus"
        recipe_dir = corpus_root / "broken" / "1.0"
        recipe_dir.mkdir(parents=True)
        (recipe_dir / "rade.json").write_text(minimal_manifest(name="broken"))
        (recipe_dir / "build.sh").write_text("x\n")
        (recipe_dir / "deploy.sh").write_text("x\n")
        # check-build absent
        with pytest.raises(InvariantViolation, match="broken/1.0"):
            load_corpus(corpus_root)

    def test_empty_script_file_rejected(self, tmp_path):
        corpus_root = tmp_path / "corpus"
        recipe_dir = corpus_root / "empty" / "1.0"
        recipe_dir.mkdir(parents=True)
        (recipe_dir / "rade.json").write_text(minimal_manifest(name="empty"))
        for script in ("build.sh", "check-build", "deploy.sh"):
            (recipe_dir / script).write_text("x\n")
        (recipe_dir / "build.sh").write_text("")
        with pytest.raises(InvariantViolation):
            load_corpus(corpus_root)


def write_manifest_dir(recipe_dir, name, version="1.0"):
    """A recipe directory holding a valid manifest and its three scripts."""
    recipe_dir.mkdir(parents=True, exist_ok=True)
    for script in ("build.sh", "check-build", "deploy.sh"):
        (recipe_dir / script).write_text("x\n")
    (recipe_dir / "rade.json").write_text(minimal_manifest(name=name, version=version))
    return recipe_dir


def scanned_dirs(root):
    return [rel_dir for rel_dir, _, _ in scan_corpus(root)]


class TestScanCorpus:
    """Which manifests the scan finds, in which order, under which names."""

    def test_manifest_at_root_and_three_levels_deep(self, tmp_path):
        write_manifest_dir(tmp_path, "top")
        write_manifest_dir(tmp_path / "a" / "b" / "c", "deep")
        assert scanned_dirs(tmp_path) == ["a/b/c", "."]
        corpus = load_corpus(tmp_path)
        assert corpus.dirs == {("deep", "1.0"): "a/b/c", ("top", "1.0"): "."}
        assert corpus.recipe_dir(("top", "1.0")) == tmp_path

    def test_manifest_under_hidden_directory_is_found(self, tmp_path):
        write_manifest_dir(tmp_path / ".hidden" / "1.0", "hidden")
        assert scanned_dirs(tmp_path) == [".hidden/1.0"]

    def test_symlinked_directory_is_not_descended(self, tmp_path):
        write_manifest_dir(tmp_path / "real" / "1.0", "real")
        (tmp_path / "alias").symlink_to(tmp_path / "real")
        (tmp_path / "alias10").symlink_to(tmp_path / "real" / "1.0")
        assert scanned_dirs(tmp_path) == ["real/1.0"]

    def test_dangling_manifest_symlink_is_skipped(self, tmp_path):
        write_manifest_dir(tmp_path / "real" / "1.0", "real")
        ghost = tmp_path / "ghost" / "1.0"
        ghost.mkdir(parents=True)
        (ghost / "rade.json").symlink_to(ghost / "nowhere.json")
        linked = write_manifest_dir(tmp_path / "linked" / "1.0", "linked")
        (linked / "rade.json").unlink()
        (linked / "rade.json").symlink_to(tmp_path / "real" / "1.0" / "rade.json")
        assert scanned_dirs(tmp_path) == ["linked/1.0", "real/1.0"]

    def test_order_is_by_path_components(self, tmp_path):
        # As a string "a-b/..." sorts before "a/b/...", as components it does not.
        write_manifest_dir(tmp_path / "a-b", "dup")
        write_manifest_dir(tmp_path / "a" / "b", "dup")
        write_manifest_dir(tmp_path / "a" / "b" / "c", "other")
        assert scanned_dirs(tmp_path) == ["a/b/c", "a/b", "a-b"]
        with pytest.raises(DuplicateRecipe) as info:
            load_corpus(tmp_path)
        assert str(info.value) == "dup/1.0 declared in both a/b and a-b"

    def test_first_error_in_scan_order_is_raised(self, tmp_path):
        for rel in ("a-b", "a/b"):
            (tmp_path / rel).mkdir(parents=True)
            (tmp_path / rel / "rade.json").write_text("{broken")
        with pytest.raises(MalformedManifest, match=r"\Aa/b/rade.json: "):
            load_corpus(tmp_path)

    @pytest.mark.parametrize("shape", ["directory", "empty", "dangling"])
    def test_script_that_is_not_a_nonempty_file_is_rejected(self, tmp_path, shape):
        recipe_dir = write_manifest_dir(tmp_path / "odd" / "1.0", "odd")
        script = recipe_dir / "check-build"
        script.unlink()
        if shape == "directory":
            script.mkdir()
            (script / "inner").write_text("x\n")
        elif shape == "empty":
            script.write_text("")
        else:
            script.symlink_to(recipe_dir / "nowhere")
        with pytest.raises(InvariantViolation) as info:
            load_corpus(tmp_path)
        assert str(info.value) == (
            f"odd/1.0/rade.json: check script 'check-build' missing or empty "
            f"in {recipe_dir}"
        )

    def test_script_symlinked_to_a_nonempty_file_is_accepted(self, tmp_path):
        recipe_dir = write_manifest_dir(tmp_path / "ok" / "1.0", "ok")
        shared = tmp_path / "shared.sh"
        shared.write_text("#!/bin/sh\n")
        (recipe_dir / "deploy.sh").unlink()
        (recipe_dir / "deploy.sh").symlink_to(shared)
        assert list(load_corpus(tmp_path).recipes) == [("ok", "1.0")]


@pytest.fixture
def corpus(tmp_path):
    build_default_corpus(tmp_path / "corpus", tmp_path / "src")
    return load_corpus(tmp_path / "corpus")


class TestChangedRecipes:
    def test_path_inside_recipe_dir(self, corpus):
        event = CommitEvent("e1", ("hello/1.0/build.sh",), 1)
        assert changed_recipes(event, corpus) == {("hello", "1.0")}

    def test_non_recipe_path_warns(self, corpus, caplog):
        event = CommitEvent("e2", ("README.md",), 1)
        with caplog.at_level(logging.WARNING, logger="rade.recipes"):
            assert changed_recipes(event, corpus) == set()
        assert len(caplog.records) == 1

    def test_two_recipe_dirs(self, corpus):
        event = CommitEvent(
            "e3",
            ("hello/1.0/build.sh", "hello/1.0/rade.json", "libdemo/1.0/deploy.sh"),
            1,
        )
        assert changed_recipes(event, corpus) == {("hello", "1.0"), ("libdemo", "1.0")}

    def test_result_is_subset_of_corpus(self, corpus):
        event = CommitEvent("e4", ("app/1.0/x", "zzz/9.9/x"), 1)
        result = changed_recipes(event, corpus)
        assert result <= set(corpus.recipes)

    def test_manifest_at_corpus_root_owns_its_paths(self, tmp_path):
        write_manifest_dir(tmp_path, "top")
        corpus = load_corpus(tmp_path)
        for path in ("build.sh", "rade.json", "docs/notes.txt"):
            event = CommitEvent("e7", (path,), 1)
            assert changed_recipes(event, corpus) == {("top", "1.0")}

    def test_nested_recipe_owns_its_own_files(self, tmp_path):
        # "rade.json" sorts after "sub", so scan order lists the outer recipe first
        write_manifest_dir(tmp_path / "a", "outer")
        write_manifest_dir(tmp_path / "a" / "sub", "inner")
        corpus = load_corpus(tmp_path)
        inner = CommitEvent("e8", ("a/sub/build.sh",), 1)
        outer = CommitEvent("e9", ("a/build.sh",), 1)
        assert changed_recipes(inner, corpus) == {("inner", "1.0")}
        assert changed_recipes(outer, corpus) == {("outer", "1.0")}

    def test_monotone_in_changed_paths(self, corpus):
        small = CommitEvent("e5", ("hello/1.0/build.sh",), 1)
        big = CommitEvent("e6", ("hello/1.0/build.sh", "app/1.0/build.sh"), 1)
        assert changed_recipes(small, corpus) <= changed_recipes(big, corpus)


class TestEventSpool:
    def test_load_event(self, tmp_path):
        path = write_event(tmp_path / "spool" / "e1.json", "evt-1", ["hello/1.0/x"])
        event = load_event(path)
        assert event.event_id == "evt-1"
        assert event.changed_paths == ("hello/1.0/x",)
        assert event.timestamp == 1700000000

    def test_empty_changed_paths_rejected(self, tmp_path):
        path = tmp_path / "e.json"
        path.write_text('{"event_id": "e", "changed_paths": [], "timestamp": 1}')
        with pytest.raises(SchemaViolation):
            load_event(path)

    def test_pending_skips_done(self, tmp_path):
        spool = tmp_path / "spool"
        a = write_event(spool / "a.json", "a", ["x"])
        b = write_event(spool / "b.json", "b", ["x"])
        mark_event_done(a)
        assert pending_events(spool) == [b]
        assert (spool / "a.json.done").is_file()

    def test_pending_skips_rejected(self, tmp_path):
        spool = tmp_path / "spool"
        a = write_event(spool / "a.json", "a", ["x"])
        b = write_event(spool / "b.json", "b", ["x"])
        mark_event_rejected(a)
        assert pending_events(spool) == [b]
        assert (spool / "a.json.rejected").is_file()

    @pytest.mark.parametrize("event_id", ["évt-1", "", "-x", "a b", "a\nb", "a/b", "a:b"])
    def test_event_id_outside_the_version_grammar_rejected(self, tmp_path, event_id):
        path = write_event(tmp_path / "e.json", event_id, ["x"])
        with pytest.raises(SchemaViolation, match="bad event_id"):
            load_event(path)

    def test_schema_error_names_the_event(self, tmp_path):
        path = tmp_path / "e.json"
        path.write_text('{"changed_paths": ["x"], "timestamp": 1}')
        with pytest.raises(SchemaViolation) as info:
            load_event(path)
        assert str(info.value) == f"{path}: missing required field event_id"


# -- the stat-validated corpus index ------------------------------------------


def outcome(load):
    """What a load returns, in scan order, or the error it raises."""
    try:
        corpus = load()
    except RadeError as exc:
        return type(exc), str(exc)
    return list(corpus.recipes.items()), list(corpus.dirs.items())


def retagged(data: bytes) -> bytes:
    """An index under the first format's tag, with a digest that fits."""
    header, _, rest = data.partition(b"\n")[2].partition(b"\n")
    doc = json.loads(header)
    doc["format"] = "rade-corpus-index/1"
    payload = json.dumps(doc).encode() + b"\n" + rest
    return hashlib.sha256(payload).hexdigest().encode() + b"\n" + payload


def index_lines(index: Path) -> list:
    """The JSON values of the index file's payload, one per line."""
    return [json.loads(line) for line in index.read_bytes().partition(b"\n")[2].split(b"\n")]


def index_entries(index: Path) -> list[list]:
    """The recipe entries of the index file, which follow the header, the
    edges, the directory record and the shared parts."""
    lines = index_lines(index)
    return lines[3 + lines[0]["shared"]:]


def indexed_keys(index: Path) -> list[tuple[str, str]]:
    """The (name, version) of every recipe the index file holds."""
    return sorted((entry[0], entry[1]) for entry in index_entries(index))


@pytest.fixture
def parses(monkeypatch):
    """The name of every recipe parsed from here on."""
    seen = []
    parse = recipes.parse_manifest

    def counting_parse(text):
        recipe = parse(text)
        seen.append(recipe.name)
        return recipe

    monkeypatch.setattr(recipes, "parse_manifest", counting_parse)
    return seen


class TestCorpusIndex:
    """``load_corpus(root, index_path)`` returns what ``load_corpus(root)``
    returns, and re-parses only what changed."""

    @pytest.fixture
    def layout(self, tmp_path):
        root = tmp_path / "corpus"
        for name in ("alpha", "beta", "gamma"):
            write_manifest_dir(root / name / "1.0", name)
        (tmp_path / "work").mkdir()
        return root, tmp_path / "work" / INDEX_NAME

    def settled_load(self, root, index):
        """Write the index when every file of the corpus is older than it,
        so that it vouches for all of them: a load, then the graph build
        that writes the index."""
        tick(root.parent)
        build_graph(load_corpus(root, index))

    def test_unchanged_corpus_parses_nothing(self, layout, parses):
        root, index = layout
        self.settled_load(root, index)
        expected = outcome(lambda: load_corpus(root))
        parses.clear()
        before = index.stat()
        assert outcome(lambda: load_corpus(root, index)) == expected
        assert parses == []
        build_graph(load_corpus(root, index))
        after = index.stat()  # and neither the load nor the graph build rewrites it
        assert (after.st_ino, after.st_mtime_ns) == (before.st_ino, before.st_mtime_ns)

    def test_settled_load_lists_no_directory_and_opens_no_manifest(self, layout, monkeypatch):
        root, index = layout
        self.settled_load(root, index)
        expected = outcome(lambda: load_corpus(root))
        listed, opened = [], []
        scandir = os.scandir
        monkeypatch.setattr(os, "scandir", lambda path: listed.append(path) or scandir(path))
        monkeypatch.setattr(
            recipes, "open",
            lambda file, *args, **kwargs: opened.append(os.fspath(file)) or open(file, *args, **kwargs),
            raising=False,
        )
        assert outcome(lambda: load_corpus(root, index)) == expected
        assert listed == []
        assert opened == [str(index)]

    def test_lookup_decodes_one_entry(self, layout, monkeypatch):
        root, index = layout
        self.settled_load(root, index)
        lines = index.read_bytes().partition(b"\n")[2].split(b"\n")
        entries = lines[3 + json.loads(lines[0])["shared"]:]
        decoded = []
        loads = json.loads
        monkeypatch.setattr(json, "loads", lambda text: decoded.append(text) or loads(text))
        recipe, recipe_dir = recipes.find_recipe(root, index, ("beta", "1.0"))
        assert (recipe.name, recipe_dir) == ("beta", root / "beta" / "1.0")
        assert [text for text in decoded if text in entries] == [
            next(line for line in entries if line.startswith(b'["beta","1.0",'))
        ]
        assert all(b"\n" not in text for text in decoded)  # one line at a time

    def test_changed_directory_is_listed_once(self, layout, monkeypatch):
        """A directory that changed is listed, and once the index records its
        settled listing, no longer: the graph build rewrites the index."""
        root, index = layout
        self.settled_load(root, index)
        (root / "beta" / "notes").mkdir()  # no recipe file changes
        tick(root.parent)
        listed = []
        scandir = os.scandir
        monkeypatch.setattr(os, "scandir", lambda path: listed.append(path) or scandir(path))
        before = index.stat()
        build_graph(load_corpus(root, index))
        assert listed == [f"{root}/beta/", f"{root}/beta/notes/"]
        after = index.stat()
        assert (after.st_ino, after.st_mtime_ns) != (before.st_ino, before.st_mtime_ns)
        listed.clear()
        build_graph(load_corpus(root, index))
        assert listed == []
        assert index.stat().st_mtime_ns == after.st_mtime_ns

    def test_racy_directory_is_listed_again(self, layout, monkeypatch):
        root, index = layout
        # not older than any index written now: its listing is never trusted
        future = time.time_ns() + 3600 * 10**9
        os.utime(root / "beta", ns=(future, future))
        self.settled_load(root, index)
        before = index.stat()
        listed = []
        scandir = os.scandir
        monkeypatch.setattr(os, "scandir", lambda path: listed.append(path) or scandir(path))
        for _ in range(2):
            listed.clear()
            build_graph(load_corpus(root, index))
            assert listed == [f"{root}/beta/"]
        after = index.stat()  # and listing it again writes nothing
        assert (after.st_ino, after.st_mtime_ns) == (before.st_ino, before.st_mtime_ns)

    def test_same_size_edit_with_new_mtime_is_seen(self, layout, parses):
        root, index = layout
        self.settled_load(root, index)
        manifest = root / "beta" / "1.0" / MANIFEST_NAME
        text = manifest.read_text()
        edited = text.replace("hello-1.0", "hello-2.0")
        assert len(edited) == len(text) and edited != text
        manifest.write_text(edited)
        parses.clear()
        corpus = load_corpus(root, index)
        assert parses == ["beta"]
        assert corpus.recipes[("beta", "1.0")].source.url.endswith("hello-2.0.tar.gz")

    def test_edit_that_restores_the_mtime_is_seen_by_its_ctime(self, layout, parses):
        root, index = layout
        self.settled_load(root, index)
        manifest = root / "beta" / "1.0" / MANIFEST_NAME
        old = manifest.stat()
        manifest.write_text(manifest.read_text().replace("hello-1.0", "hello-2.0"))
        os.utime(manifest, ns=(old.st_atime_ns, old.st_mtime_ns))
        new = manifest.stat()
        assert (new.st_mtime_ns, new.st_size, new.st_ino) == (
            old.st_mtime_ns, old.st_size, old.st_ino
        )
        parses.clear()
        corpus = load_corpus(root, index)
        assert parses == ["beta"]
        assert corpus.recipes[("beta", "1.0")].source.url.endswith("hello-2.0.tar.gz")

    def test_emptied_script_is_seen(self, layout):
        root, index = layout
        self.settled_load(root, index)
        (root / "gamma" / "1.0" / "deploy.sh").write_text("")
        with pytest.raises(InvariantViolation, match=r"\Agamma/1.0/rade.json: deploy script"):
            load_corpus(root, index)

    def test_manifest_added_in_new_directory_then_removed(self, layout, parses):
        root, index = layout
        self.settled_load(root, index)
        write_manifest_dir(root / "beta" / "1.0" / "sub" / "deep", "delta")
        parses.clear()
        corpus = load_corpus(root, index)
        assert parses == ["delta"]
        assert corpus.dirs[("delta", "1.0")] == "beta/1.0/sub/deep"
        tick(root.parent)  # delta may have been too new to record
        build_graph(load_corpus(root, index))
        assert outcome(lambda: load_corpus(root, index)) == outcome(lambda: load_corpus(root))
        shutil.rmtree(root / "alpha")
        parses.clear()
        corpus = load_corpus(root, index)
        assert parses == []
        assert sorted(corpus.recipes) == [("beta", "1.0"), ("delta", "1.0"), ("gamma", "1.0")]
        assert outcome(lambda: load_corpus(root, index)) == outcome(lambda: load_corpus(root))

    def test_removed_recipe_leaves_the_index(self, tmp_path, parses):
        root, index = tmp_path / "corpus", tmp_path / INDEX_NAME
        build_default_corpus(root, tmp_path / "src")
        self.settled_load(root, index)
        shutil.rmtree(root / "hello")
        parses.clear()
        corpus = load_corpus(root, index)
        assert sorted(corpus.recipes) == [("app", "1.0"), ("libdemo", "1.0")]
        assert parses == []
        build_graph(corpus)
        assert indexed_keys(index) == [("app", "1.0"), ("libdemo", "1.0")]

    def test_dangling_manifest_symlink_whose_target_appears(self, layout):
        root, index = layout
        ghost = root / "ghost" / "1.0"
        write_manifest_dir(ghost, "ghost")
        (ghost / MANIFEST_NAME).unlink()
        elsewhere = root.parent / "elsewhere"
        elsewhere.mkdir()
        (ghost / MANIFEST_NAME).symlink_to(elsewhere / "ghost.json")
        self.settled_load(root, index)
        assert ("ghost", "1.0") not in load_corpus(root, index)
        directory = ghost.stat().st_mtime_ns
        (elsewhere / "ghost.json").write_text(minimal_manifest(name="ghost"))
        assert ghost.stat().st_mtime_ns == directory
        corpus = load_corpus(root, index)
        assert corpus.dirs[("ghost", "1.0")] == "ghost/1.0"
        (elsewhere / "ghost.json").unlink()
        assert ("ghost", "1.0") not in load_corpus(root, index)

    @pytest.mark.parametrize(
        "damage",
        [
            lambda data: b"garbage",
            lambda data: b"",
            lambda data: data[: len(data) // 2],
            lambda data: data.replace(b'"gamma"', b'"gamm4"'),  # the digest no longer fits
            retagged,
        ],
        ids=["garbage", "empty", "truncated", "flipped", "foreign_format"],
    )
    def test_corrupt_index_means_a_full_scan(self, layout, parses, damage):
        root, index = layout
        self.settled_load(root, index)
        index.write_bytes(damage(index.read_bytes()))
        expected = outcome(lambda: load_corpus(root))
        parses.clear()
        assert outcome(lambda: load_corpus(root, index)) == expected
        assert parses == ["alpha", "beta", "gamma"]
        build_graph(load_corpus(root, index))
        parses.clear()  # and the index is whole again
        assert outcome(lambda: load_corpus(root, index)) == expected
        assert parses == []

    def test_index_of_the_previous_format_is_replaced(self, layout, parses):
        root, index = layout
        self.settled_load(root, index)
        # an index as the previous format laid it out: one JSON document
        doc = {"format": "rade-corpus-index/4", "root": str(root), "recipes": {},
               "edges": [], "shared": []}
        payload = json.dumps(doc).encode()
        index.write_bytes(hashlib.sha256(payload).hexdigest().encode() + b"\n" + payload)
        parses.clear()
        build_graph(load_corpus(root, index))
        assert parses == ["alpha", "beta", "gamma"]
        assert index_lines(index)[0]["format"] == "rade-corpus-index/5"
        parses.clear()
        load_corpus(root, index)
        assert parses == []

    def test_index_of_another_corpus_root_means_a_full_scan(self, layout, parses):
        root, index = layout
        self.settled_load(root, index)
        alias = root.parent / "alias"  # the same files under another root
        alias.symlink_to(root)
        expected = outcome(lambda: load_corpus(alias))
        parses.clear()
        assert outcome(lambda: load_corpus(alias, index)) == expected
        assert parses == ["alpha", "beta", "gamma"]

    def test_racy_entry_is_parsed_again(self, layout, parses):
        root, index = layout
        manifest = root / "beta" / "1.0" / MANIFEST_NAME
        # not older than any index written now, so a later edit could keep
        # its signature: the index never vouches for it
        future = time.time_ns() + 3600 * 10**9
        os.utime(manifest, ns=(future, future))
        self.settled_load(root, index)
        expected = outcome(lambda: load_corpus(root))
        parses.clear()
        assert outcome(lambda: load_corpus(root, index)) == expected
        assert parses == ["beta"]

    @pytest.mark.parametrize("blocker", ["missing", "file", "directory"])
    def test_index_that_cannot_be_written_is_ignored(self, tmp_path, blocker):
        root = tmp_path / "corpus"
        write_manifest_dir(root / "alpha" / "1.0", "alpha")
        index = tmp_path / "work" / INDEX_NAME
        if blocker == "file":
            (tmp_path / "work").write_text("not a directory")
        elif blocker == "directory":
            (index / "inner").mkdir(parents=True)
        for _ in range(2):
            assert outcome(lambda: load_corpus(root, index)) == outcome(lambda: load_corpus(root))
            build_graph(load_corpus(root, index))  # tries to write the index
        if blocker == "missing":
            assert not (tmp_path / "work").exists()
        elif blocker == "directory":
            assert sorted(p.name for p in index.parent.iterdir()) == [INDEX_NAME]

    def test_failed_load_writes_no_index(self, layout):
        root, index = layout
        (root / "beta" / "1.0" / MANIFEST_NAME).write_text("{broken")
        with pytest.raises(MalformedManifest):
            load_corpus(root, index)
        assert list(index.parent.iterdir()) == []

    def test_failed_graph_writes_no_index(self, layout):
        root, index = layout
        (root / "alpha" / "1.0" / MANIFEST_NAME).write_text(minimal_manifest(
            name="alpha", dependencies=[{"name": "absent", "constraint": ">=1.0"}]
        ))
        corpus = load_corpus(root, index)
        with pytest.raises(UnknownDependency):
            build_graph(corpus)
        assert list(index.parent.iterdir()) == []


INDEX_MUTATIONS = (
    "edit", "add", "remove", "nest", "drop_script", "empty_script", "duplicate", "break",
    "depend", "cycle",
    # these change directories, and no file a recipe is read from
    "empty_dir", "stray_file", "rename_dir", "remove_tree", "dir_symlink", "link_manifest",
    "racy",
)


def manifest_doc(recipe_dir: Path) -> dict | None:
    try:
        doc = json.loads((recipe_dir / MANIFEST_NAME).read_text())
    except ValueError:
        return None
    return doc if isinstance(doc, dict) else None


def depend(recipe_dir: Path, on: Path) -> None:
    """Make the recipe in ``recipe_dir`` depend on the one in ``on`` alone;
    a manifest that is not a JSON object is left as it is."""
    doc = manifest_doc(recipe_dir)
    if doc is None:
        return
    name = (manifest_doc(on) or {}).get("name")
    doc["dependencies"] = [
        {"name": name if isinstance(name, str) else "absent", "constraint": ">=1.0"}
    ]
    (recipe_dir / MANIFEST_NAME).write_text(json.dumps(doc))


def indexed_load(root: Path) -> None:
    """A load and graph build through the test's index, which they may write."""
    try:
        build_graph(load_corpus(root, root.parent / "work" / INDEX_NAME))
    except RadeError:
        pass


def mutate(root: Path, op: str, pick: int, serial: int) -> None:
    """Apply one corpus mutation to the recipe ``pick`` selects. What leaves
    the corpus goes to ``elsewhere``, beside it."""
    dirs = sorted(p.parent for p in root.rglob(MANIFEST_NAME))
    target = dirs[pick % len(dirs)] if dirs else None
    elsewhere = root.parent / "elsewhere"
    elsewhere.mkdir(exist_ok=True)
    if op == "add" or target is None:
        write_manifest_dir(root / f"new{serial}" / "1.0", f"new{serial}")
    elif op == "edit":  # same length every time: only the stat stamps differ
        try:
            name = json.loads((target / MANIFEST_NAME).read_text())["name"]
        except (ValueError, KeyError, TypeError):
            name = f"fixed{serial}"
        (target / MANIFEST_NAME).write_text(
            minimal_manifest(name=name, source={"url": f"file:///e{serial % 10}", "sha256": ZEROS})
        )
    elif op == "remove":
        (target / MANIFEST_NAME).unlink()
    elif op == "nest":
        write_manifest_dir(target / f"nested{serial}", f"nested{serial}")
    elif op == "drop_script":
        (target / "check-build").unlink(missing_ok=True)
    elif op == "empty_script":
        (target / "build.sh").write_text("")
    elif op == "duplicate":
        twin = write_manifest_dir(root / f"dup{serial}", "placeholder")
        shutil.copy(target / MANIFEST_NAME, twin / MANIFEST_NAME)
    elif op in ("depend", "cycle"):  # on the next recipe, and it on this one
        after = dirs[(pick + 1) % len(dirs)]
        depend(target, after)
        if op == "cycle":
            depend(after, target)
    elif op == "empty_dir":
        (target / f"empty{serial}").mkdir()
    elif op == "stray_file":
        (target / f"notes{serial}.txt").write_text("not a recipe file\n")
    elif op == "rename_dir":
        target.rename(target.parent / f"renamed{serial}")
    elif op == "remove_tree":  # the recipe's top directory, with all it holds
        shutil.rmtree(root / target.relative_to(root).parts[0])
    elif op == "dir_symlink":  # the walk does not descend the link
        moved = elsewhere / f"moved{serial}"
        target.rename(moved)
        target.symlink_to(moved, target_is_directory=True)
    elif op == "link_manifest":  # a link to a file that is deleted once an index trusts it
        manifest = target / MANIFEST_NAME
        if manifest.is_symlink():
            linked = Path(os.readlink(manifest))
        else:
            linked = elsewhere / f"manifest{serial}.json"
            manifest.rename(linked)
            manifest.symlink_to(linked)
        tick(root.parent)
        indexed_load(root)
        linked.unlink(missing_ok=True)
    elif op == "racy":  # a load records a directory, which changes in the same clock tick
        fresh = target / f"racy{serial}"
        fresh.mkdir()
        indexed_load(root)
        write_manifest_dir(fresh, f"racy{serial}")
    else:
        (target / MANIFEST_NAME).write_text("{broken")


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(st.sampled_from(INDEX_MUTATIONS), st.integers(0, 7), st.booleans()),
        min_size=1,
        max_size=8,
    )
)
def test_indexed_load_equals_full_scan(steps):
    """After every mutation, loads through the index agree with a full scan:
    the same recipes and directories in the same order, or the same error.
    The graph of an indexed load equals a fresh ``build_graph``'s: the same
    nodes and edges, or the same error."""
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp) / "corpus"
        work = Path(tmp) / "work"
        work.mkdir()
        index = work / INDEX_NAME

        def outcomes(index_path):
            """A load's outcome, then its graph's: nodes and edges, or the
            error; None if the load failed."""
            try:
                corpus = load_corpus(root, index_path)
            except RadeError as exc:
                return (type(exc), str(exc)), None
            loaded = list(corpus.recipes.items()), list(corpus.dirs.items())
            try:
                graph = build_graph(corpus)
            except RadeError as exc:
                return loaded, (type(exc), str(exc))
            return loaded, (graph.nodes, graph.edges)

        def check(settled):
            expected = outcomes(None)
            for _ in range(2):  # the second round trusts what the first recorded
                assert outcomes(index) == expected
            graph = expected[1]
            if settled and graph is not None and isinstance(graph[1], frozenset):
                assert load_corpus(root, index).index.edges == graph[1]
            assert [p.name for p in work.iterdir()] in ([], [INDEX_NAME])

        for i in range(4):
            write_manifest_dir(root / f"r{i}" / "1.0", f"r{i}")
            if i:
                depend(root / f"r{i}" / "1.0", root / f"r{i - 1}" / "1.0")
        tick(Path(tmp))
        check(True)
        for serial, (op, pick, settle) in enumerate(steps):
            mutate(root, op, pick, serial)
            if settle:  # else what changed is too new for the index to vouch for
                tick(Path(tmp))
            check(settle)
