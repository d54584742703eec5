from __future__ import annotations

import errno
import os
import shutil
from pathlib import Path

import pytest

from rade import repo as repo_mod, siteclient
from rade.errors import IntegrityError, InvariantViolation, NotDelivered
from rade.repo import DIRECTORY, EXECUTABLE, Repository
from rade.siteclient import CHANGED, GENERATIONS, UNCHANGED, SiteCache
from rade.targets import Target
from toycorpus import Faulty, catalog_entries, deliver_and_publish, make_workspace

TARGET = Target("x86_64", "linux", "sitea")


@pytest.fixture
def published_ws(small_ws):
    config, corpus, graph, head = deliver_and_publish(
        small_ws, ["hello/1.0/build.sh", "libdemo/1.0/build.sh"]
    )
    return small_ws, config, corpus, head


def fresh_cache(ws, name="cache"):
    return SiteCache(ws.repo_path, ws.root / name)


class TestPoll:
    def test_first_poll_is_changed(self, published_ws):
        ws, *_ = published_ws
        status, head = fresh_cache(ws).poll()
        assert status == CHANGED
        assert head.revision == 1

    def test_poll_without_publish_unchanged(self, published_ws):
        ws, *_ = published_ws
        cache = fresh_cache(ws)
        cache.sync()
        status, _ = cache.poll()
        assert status == UNCHANGED

    def test_poll_after_publish_increments(self, published_ws):
        ws, config, corpus, first = published_ws
        cache = fresh_cache(ws)
        cache.sync()
        deliver_and_publish(ws, ["hello/1.0/build.sh"], event_id="evt-2")
        status, head = cache.poll()
        assert status == CHANGED
        assert head.revision == cache.last_head.revision + 1


class TestSync:
    def test_fetches_only_missing_objects(self, published_ws):
        ws, *_ = published_ws
        cache = fresh_cache(ws)
        first = cache.sync()
        assert first.fetched_objects > 0
        again = cache.sync()
        assert again.fetched_objects == 0  # idempotent re-sync

    def test_materializes_catalog_tree(self, published_ws):
        ws, *_ = published_ws
        cache = fresh_cache(ws)
        report = cache.sync()
        tree = cache.tree_root
        assert (tree / "x86_64/linux/sitea/hello/1.0/bin/hello").is_file()
        assert (tree / "modulefiles/x86_64/linux/sitea/hello/1.0").is_file()
        assert (tree / ".revision").read_text() == f"{report.revision}\n"

    def test_executable_bit_restored(self, published_ws):
        ws, *_ = published_ws
        cache = fresh_cache(ws)
        cache.sync()
        import os

        binary = cache.tree_root / "x86_64/linux/sitea/hello/1.0/bin/hello"
        assert os.access(binary, os.X_OK)

    def test_incremental_sync_transfers_only_delta(self, published_ws):
        ws, config, corpus, _ = published_ws
        cache = fresh_cache(ws)
        baseline = cache.sync()
        deliver_and_publish(ws, ["hello/1.0/build.sh"], event_id="evt-next")
        second = cache.sync()
        assert 0 < second.fetched_objects < baseline.fetched_objects

    def test_corrupt_object_leaves_cache_at_previous_head(self, published_ws):
        ws, config, corpus, head = published_ws
        cache = fresh_cache(ws)
        cache.sync()
        previous = cache.last_head

        # rebuild app with changed output so the publish adds a fresh object,
        # then corrupt that object in the repository
        build = ws.corpus_root / "app" / "1.0" / "build.sh"
        build.write_text(
            build.read_text() + 'echo "# new-bytes" >> "$BUILD_DIR/app"\n'
        )
        deliver_and_publish(ws, ["app/1.0/build.sh"], event_id="evt-corrupt")
        repo = Repository.open(ws.repo_path)
        new_head = repo.read_head()
        entries = catalog_entries(repo, new_head)
        victim = entries["x86_64/linux/sitea/app/1.0/bin/app"].object.sha256
        blob = repo.object_path(victim)
        data = bytearray(blob.read_bytes())
        data[0] ^= 0xFF
        blob.write_bytes(bytes(data))

        with pytest.raises(IntegrityError):
            cache.sync()
        assert cache.last_head == previous
        assert (cache.tree_root / ".revision").read_text() == f"{previous.revision}\n"

    def test_fresh_cache_sync_of_corrupt_repo_fails(self, published_ws):
        ws, *_ = published_ws
        repo = Repository.open(ws.repo_path)
        head = repo.read_head()
        entries = catalog_entries(repo, head)
        victim = entries["x86_64/linux/sitea/hello/1.0/bin/hello"].object.sha256
        blob = repo.object_path(victim)
        blob.write_bytes(b"corrupted")
        cache = fresh_cache(ws, "fresh")
        with pytest.raises(IntegrityError):
            cache.sync()
        assert cache.last_head is None
        assert not cache.tree_root.exists()


class TestMve:
    def test_delivered_recipe_passes(self, published_ws):
        ws, config, corpus, head = published_ws
        cache = fresh_cache(ws)
        cache.sync()
        recipe = corpus.recipes[("hello", "1.0")]
        report = cache.run_mve(
            recipe, TARGET, corpus.recipe_dir(("hello", "1.0"))
        )
        assert report.passed
        assert report.revision == head.revision
        assert report.tests_run == 1

    def test_modulefile_with_foreign_prefix_rejected(self, published_ws):
        ws, config, corpus, _ = published_ws
        cache = fresh_cache(ws)
        cache.sync()
        module = cache.tree_root / "modulefiles/x86_64/linux/sitea/hello/1.0"
        module.chmod(0o644)
        module.write_text("#%Module1.0\nsetenv HELLO_DIR /srv/elsewhere\n")
        recipe = corpus.recipes[("hello", "1.0")]
        with pytest.raises(InvariantViolation):
            cache.run_mve(recipe, TARGET, corpus.recipe_dir(("hello", "1.0")))

    def test_not_delivered(self, tmp_path):
        # publish only hello; app never reaches the repository
        ws = make_workspace(tmp_path)
        _, corpus, _, _ = deliver_and_publish(ws, ["hello/1.0/build.sh"])
        cache = fresh_cache(ws)
        cache.sync()
        recipe = corpus.recipes[("app", "1.0")]
        with pytest.raises(NotDelivered):
            cache.run_mve(recipe, TARGET, corpus.recipe_dir(("app", "1.0")))

    def test_failing_mve_reports_output(self, published_ws):
        ws, config, corpus, _ = published_ws
        mve = ws.corpus_root / "hello" / "1.0" / "tests" / "mve.sh"
        mve.write_text("#!/bin/sh\necho mve exploded\nexit 2\n")
        cache = fresh_cache(ws)
        cache.sync()
        recipe = corpus.recipes[("hello", "1.0")]
        report = cache.run_mve(recipe, TARGET, corpus.recipe_dir(("hello", "1.0")))
        assert not report.passed
        assert "mve exploded" in report.output
        assert "exited 2" in report.output

    def test_mve_timeout_fails_the_report(self, published_ws):
        ws, config, corpus, _ = published_ws
        mve = ws.corpus_root / "hello" / "1.0" / "tests" / "mve.sh"
        mve.write_text("#!/bin/sh\necho started\nsleep 3\n")
        cache = fresh_cache(ws)
        cache.sync()
        recipe = corpus.recipes[("hello", "1.0")]
        report = cache.run_mve(recipe, TARGET, corpus.recipe_dir(("hello", "1.0")), 1)
        assert not report.passed
        assert report.tests_run == 1
        assert report.output == "$ tests/mve.sh\nstarted\ntimeout after 1s\n"

    def test_undecodable_output_is_replaced(self, published_ws):
        ws, config, corpus, _ = published_ws
        mve = ws.corpus_root / "hello" / "1.0" / "tests" / "mve.sh"
        mve.write_text(
            "#!/bin/sh\nprintf 'out\\377\\376\\r\\n\\303\\251\\n'\n"
            "printf 'err\\r' >&2\n"
        )
        cache = fresh_cache(ws)
        cache.sync()
        recipe = corpus.recipes[("hello", "1.0")]
        report = cache.run_mve(recipe, TARGET, corpus.recipe_dir(("hello", "1.0")))
        assert report.passed
        assert report.output == "$ tests/mve.sh\nout\ufffd\ufffd\n\u00e9\nerr\n"

    def test_mve_independent_of_skipped_revisions(self, published_ws):
        ws, config, corpus, _ = published_ws
        late = fresh_cache(ws, "late")
        for i in range(3):
            deliver_and_publish(ws, ["libdemo/1.0/build.sh"], event_id=f"evt-{i}")
        late.sync()  # jumps straight to the final revision
        recipe = corpus.recipes[("hello", "1.0")]
        report = late.run_mve(recipe, TARGET, corpus.recipe_dir(("hello", "1.0")))
        assert report.passed


def test_each_object_transferred_at_most_once(published_ws):
    ws, *_ = published_ws
    cache = fresh_cache(ws)
    total_fetched = cache.sync().fetched_objects
    for i in range(3):
        deliver_and_publish(ws, ["hello/1.0/build.sh"], event_id=f"evt-d{i}")
        total_fetched += cache.sync().fetched_objects
    cached = sum(1 for p in cache.objects.root.rglob("*") if p.is_file())
    assert total_fetched == cached  # no object ever fetched twice


def test_monotone_revisions_across_syncs(published_ws):
    ws, *_ = published_ws
    cache = fresh_cache(ws)
    seen = [cache.sync().revision]
    for i in range(3):
        deliver_and_publish(ws, ["hello/1.0/build.sh"], event_id=f"evt-m{i}")
        seen.append(cache.sync().revision)
    assert seen == sorted(seen)
    assert len(set(seen)) == len(seen)


def test_relocate_moves_values_under_the_build_prefix():
    rel = "x86_64/linux/sitea/hello/1.0"
    built = f"/srv/deploy/{rel}"
    directives = [
        ("prepend-path", "PATH", f"{built}/bin"),
        ("prepend-path", "MANPATH", "/usr/share/man"),
        ("setenv", "HELLO_DIR", built),
    ]
    assert siteclient._relocate(directives, "hello", rel, "/site/tree/" + rel) == [
        ("prepend-path", "PATH", f"/site/tree/{rel}/bin"),
        ("prepend-path", "MANPATH", "/usr/share/man"),
        ("setenv", "HELLO_DIR", f"/site/tree/{rel}"),
    ]


def test_delta_sync_touches_only_changed_paths(published_ws):
    ws, config, corpus, first = published_ws
    repo = Repository.open(ws.repo_path)

    def republish_changed(recipe, event_id):
        build = ws.corpus_root / recipe / "1.0" / "build.sh"
        build.write_text(build.read_text() + f'echo "# {event_id}" >> "$BUILD_DIR/{recipe}"\n')
        return deliver_and_publish(ws, [f"{recipe}/1.0/build.sh"], event_id=event_id)[-1]

    cache = fresh_cache(ws)
    cache.sync()
    republish_changed("hello", "evt-2")
    cache.sync()  # both generations now exist
    head = republish_changed("app", "evt-3")

    spare = cache.cache_root / next(
        g for g in GENERATIONS if g != os.readlink(cache.tree_root)
    )
    have = catalog_entries(repo, first)
    wanted = catalog_entries(repo, head)
    before = {
        path: os.stat(spare / path) for path, e in have.items() if e.mode != DIRECTORY
    }
    report = cache.sync()
    assert cache.tree_root.resolve() == spare.resolve()
    changed = {p for p, e in wanted.items() if have.get(p) != e}
    assert changed == {
        ".revision",
        "x86_64/linux/sitea/hello/1.0/bin/hello",
        "x86_64/linux/sitea/app/1.0/bin/app",
    }
    # hello is the live tree's copy and .revision its object; app is copied
    assert (report.linked, report.copied, report.removed) == (2, 1, 0)
    retired = cache.cache_root / next(g for g in GENERATIONS if g != spare.name)
    inode = {
        path: (os.stat(spare / path).st_ino, os.stat(retired / path).st_ino,
               os.stat(cache.objects.path(wanted[path].object.sha256)).st_ino)
        for path in changed
    }
    spare_ino, retired_ino, object_ino = inode[".revision"]
    assert spare_ino == object_ino != retired_ino
    spare_ino, retired_ino, object_ino = inode["x86_64/linux/sitea/hello/1.0/bin/hello"]
    assert spare_ino == retired_ino != object_ino
    spare_ino, retired_ino, object_ino = inode["x86_64/linux/sitea/app/1.0/bin/app"]
    assert len({spare_ino, retired_ino, object_ino}) == 3
    for path, st in before.items():
        if path not in changed:
            now = os.stat(spare / path)
            assert (now.st_ino, now.st_mtime_ns) == (st.st_ino, st.st_mtime_ns)


# -- a tree-level model of what a sync must produce ---------------------------------


def publish_files(repo, src, files, executables=(), empty_dirs=(), job="job"):
    """Publish ``files`` as the whole content of the prefix ``apps/demo``."""
    shutil.rmtree(src, ignore_errors=True)
    for rel in empty_dirs:
        (src / rel).mkdir(parents=True)
    for rel, content in files.items():
        path = src / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(content)
        if rel in executables:
            path.chmod(0o755)
    tx = repo.begin_transaction()
    repo.stage(tx, src, "apps/demo")
    return repo.publish(tx, job)


def tree_state(root):
    """path -> (bytes, executable) for files, None for directories."""
    return {
        p.relative_to(root).as_posix(): (p.read_bytes(), os.access(p, os.X_OK))
        if p.is_file()
        else None
        for p in root.rglob("*")
    }


def catalog_state(repo, head):
    """The tree_state a head's catalog describes."""
    state = {}
    for e in catalog_entries(repo, head).values():
        parts = e.path.split("/")
        state.update(("/".join(parts[:i]), None) for i in range(1, len(parts)))
        if e.mode == DIRECTORY:
            state[e.path] = None
        elif e.path == ".revision":
            state[e.path] = (f"{head.revision}\n".encode(), False)
        else:
            data = repo.object_path(e.object.sha256).read_bytes()
            state[e.path] = (data, e.mode == EXECUTABLE)
    return state


@pytest.fixture
def three_heads(tmp_path):
    """Three revisions of one prefix: files change, appear, and disappear."""
    repo = Repository.init(tmp_path / "repo")
    src = tmp_path / "src"
    v1 = {"bin/a": "a1", "bin/b": "b1", "lib/c": "c1", "share/doc/d": "d1"}
    v2 = {**v1, "bin/a": "a2", "etc/e": "e2"}
    v3 = {"bin/a": "a2", "lib/c": "c3", "etc/e": "e2", "new/deep/f": "f3"}
    heads = [
        publish_files(repo, src, v1, executables=("bin/a", "bin/b"), job="job-1"),
        publish_files(repo, src, v2, executables=("bin/a", "bin/b"), job="job-2"),
        publish_files(repo, src, v3, executables=("bin/a",), empty_dirs=("var/empty",), job="job-3"),
    ]
    return repo, heads


def assert_read_only_tree(repo, cache, head, linked=True):
    """Every file of the live tree is mode 0444, or 0555 for an executable. A
    plain file is a hard link to its object in ``objects/``, or, if ``linked``
    is false, no file is."""
    for e in catalog_entries(repo, head).values():
        if e.mode != DIRECTORY:
            st = os.stat(cache.tree_root / e.path)
            assert st.st_mode & 0o777 == (0o555 if e.mode == EXECUTABLE else 0o444), e.path
            blob = os.stat(cache.objects.path(e.object.sha256))
            assert (st.st_ino == blob.st_ino) == (linked and e.mode != EXECUTABLE), e.path


def test_tree_files_are_read_only(three_heads, tmp_path):
    repo, (h1, h2, h3) = three_heads
    cache = SiteCache(repo.path, tmp_path / "cache")
    for head in (h1, h2, h3):
        cache.sync(head)  # the third sync links and copies into a spare
        assert_read_only_tree(repo, cache, head)


def test_objects_written_writable_become_read_only(three_heads, tmp_path):
    repo, (h1, h2, h3) = three_heads
    cache = SiteCache(repo.path, tmp_path / "cache")
    cache.sync(h1)
    # The state a cache whose objects were fetched at 0644 is in: objects of
    # their own, writable, beside read-only tree files.
    for blob in cache.objects.root.glob("??/*"):
        data = blob.read_bytes()
        blob.unlink()
        blob.write_bytes(data)
        blob.chmod(0o644)
    for head in (h2, h3):
        cache.sync(head)
        assert_read_only_tree(repo, cache, head)
        assert tree_state(cache.tree_root) == catalog_state(repo, head)
    assert not (cache.tree_root / ".revision").stat().st_mode & 0o222


class RefusedLinks:
    """The ``os`` module with every hard link to a path under ``root``
    refused, as a file system refuses the link past an inode's limit."""

    def __init__(self, root):
        self.root = root

    def link(self, source, dest):
        if Path(source).is_relative_to(self.root):
            raise OSError(errno.EMLINK, os.strerror(errno.EMLINK), str(source))
        return os.link(source, dest)

    def __getattr__(self, name):
        return getattr(os, name)


def test_refused_link_to_an_object_falls_back_to_a_copy(tmp_path, monkeypatch):
    repo = Repository.init(tmp_path / "repo")
    files = {"a": "same", "b": "same", "c": "same", "d": "other"}
    head = publish_files(repo, tmp_path / "src", files, executables=("c",))
    cache = SiteCache(repo.path, tmp_path / "cache")
    monkeypatch.setattr(siteclient, "os", RefusedLinks(cache.objects.root))
    report = cache.sync(head)
    assert tree_state(cache.tree_root) == catalog_state(repo, head)
    assert_read_only_tree(repo, cache, head, linked=False)
    tree = cache.tree_root / "apps/demo"
    assert os.stat(tree / "a").st_ino == os.stat(tree / "b").st_ino
    assert (report.copied, report.linked) == (4, 1)  # .revision, a, c, d; b


def test_payload_names_do_not_collide_with_sync_temporaries(tmp_path):
    repo = Repository.init(tmp_path / "repo")
    src = tmp_path / "src"
    heads = [
        publish_files(repo, src, {"d/x": x, "d/.x.sync": "s", "d/.x.tmp": "t"}, job=x)
        for x in ("x1", "x2", "x3")
    ]
    cache = SiteCache(repo.path, tmp_path / "cache")
    for old, new in zip([None] + heads, heads):
        cache.sync(new)
        assert tree_state(cache.tree_root) == catalog_state(repo, new)
        if old is not None:  # the retired generation is left as it was
            retired = next(g for g in GENERATIONS if g != os.readlink(cache.tree_root))
            assert tree_state(cache.cache_root / retired) == catalog_state(repo, old)


def test_removed_files_and_emptied_directories_leave_the_site(three_heads, tmp_path):
    repo, (h1, h2, h3) = three_heads
    entries = catalog_entries(repo, h3)
    assert "apps/demo/bin/b" not in entries
    assert entries["apps/demo/var/empty"].mode == DIRECTORY
    cache = SiteCache(repo.path, tmp_path / "cache")
    for head in (h1, h2, h3):
        cache.sync(head)
        assert tree_state(cache.tree_root) == catalog_state(repo, head)
    tree = cache.tree_root / "apps/demo"
    assert not (tree / "bin/b").exists()
    assert not (tree / "share").exists()


def sync_with_fault(monkeypatch, cache, head, k):
    """Sync with the k-th os.replace / os.link / shutil.copyfile call failing,
    counting the os.replace calls of the write path in rade.repo too; returns
    the calls made and whether the sync raised."""
    calls = []
    with monkeypatch.context() as m:
        m.setattr(siteclient, "os", Faulty(os, ("replace", "link"), calls, k))
        m.setattr(siteclient, "shutil", Faulty(shutil, ("copyfile",), calls, k))
        m.setattr(repo_mod, "os", Faulty(os, ("replace",), calls, k))
        try:
            cache.sync(head)
        except OSError:
            return calls, True
    return calls, False


def test_fault_at_every_call_of_a_delta_sync(three_heads, tmp_path, monkeypatch):
    repo, heads = three_heads
    seen = set()
    crash_points = []
    # h1 -> h2 builds a fresh spare and copies the changed executable bin/a;
    # h2 -> h3 changes the spare that holds h1.
    for n in (1, 2):
        old, new = catalog_state(repo, heads[n - 1]), catalog_state(repo, heads[n])
        k = 0
        while True:
            k += 1
            cache = SiteCache(repo.path, tmp_path / f"cache-{n}-{k}")
            for head in heads[:n]:
                cache.sync(head)
            calls, failed = sync_with_fault(monkeypatch, cache, heads[n], k)
            seen.update(calls)
            if len(calls) < k:
                break  # the sync made fewer than k calls: every call has been failed once
            state = tree_state(cache.tree_root)
            assert state in (old, new), f"call {k} ({calls[k - 1]}) left a mixed tree"
            tree_revision = int((cache.tree_root / ".revision").read_text())
            assert cache.last_head.revision <= tree_revision
            assert failed or calls[k - 1] == "link"  # a failed link falls back to a copy

            assert cache.sync(heads[n]).revision == heads[n].revision
            assert tree_state(cache.tree_root) == new
            assert cache.last_head == heads[n]
            assert_read_only_tree(repo, cache, heads[n])
            assert sorted(p.name for p in cache.cache_root.iterdir()) == [
                ".tree.a", ".tree.a.catalog", ".tree.b", ".tree.b.catalog",
                "head", "objects", "tree",
            ]
        crash_points.append(k - 1)
    # each fetch, link, copy and rename of the two delta syncs: 3 fetches, 5
    # links and 1 copy into a fresh spare, then 3 fetches, 5 links and 3
    # renames into the spare; each ends with the marker, tree and head renames
    assert crash_points == [12, 14]
    assert {"replace", "link", "copyfile"} <= seen


def test_single_tree_cache_upgrades_on_next_sync(three_heads, tmp_path):
    repo, (h1, h2, h3) = three_heads
    cache = SiteCache(repo.path, tmp_path / "cache")
    cache.sync(h1)
    # Recreate the single-tree layout: a real tree/ directory, no markers, and
    # a staging directory left by a crashed sync.
    live = cache.tree_root.resolve()
    cache.tree_root.unlink()
    live.rename(cache.tree_root)
    for marker in cache.cache_root.glob(".tree.*.catalog"):
        marker.unlink()
    (cache.cache_root / ".tree.12345.tmp" / "apps").mkdir(parents=True)

    cache.sync(h2)
    assert cache.tree_root.is_symlink()
    assert tree_state(cache.tree_root) == catalog_state(repo, h2)
    assert sorted(p.name for p in cache.cache_root.iterdir()) == [
        ".tree.a", ".tree.a.catalog", "head", "objects", "tree",
    ]


def test_emptied_directory_that_stays_in_the_catalog_is_kept(tmp_path):
    repo = Repository.init(tmp_path / "repo")
    publish_files(repo, tmp_path / "src", {"bin/a": "a"}, empty_dirs=("var/empty",))
    sub = tmp_path / "sub"

    def publish_sub(files, job):
        """Restage only a prefix below the empty-directory entry."""
        shutil.rmtree(sub, ignore_errors=True)
        sub.mkdir()
        for rel, content in files.items():
            (sub / rel).write_text(content)
        tx = repo.begin_transaction()
        repo.stage(tx, sub, "apps/demo/var/empty/sub")
        return repo.publish(tx, job)

    heads = [publish_sub({"f": "f"}, "job-2"), publish_sub({"f": "f", "g": "g"}, "job-3")]
    heads.append(publish_sub({}, "job-4"))
    cache = SiteCache(repo.path, tmp_path / "cache")
    for head in heads:  # the last sync takes the spare from job-2 to job-4
        cache.sync(head)
        assert tree_state(cache.tree_root) == catalog_state(repo, head)
    assert (cache.tree_root / "apps/demo/var/empty").is_dir()


def test_paths_with_one_object_and_mode_share_one_copy(tmp_path):
    repo = Repository.init(tmp_path / "repo")
    files = {"a": "same", "b": "same", "c": "same", "d": "other"}
    head = publish_files(repo, tmp_path / "src", files, executables=("c",))
    cache = SiteCache(repo.path, tmp_path / "cache")
    report = cache.sync(head)
    tree = cache.tree_root / "apps/demo"
    inode = {name: os.stat(tree / name).st_ino for name in files}
    entries = catalog_entries(repo, head)
    blob = {
        name: os.stat(cache.objects.path(entries[f"apps/demo/{name}"].object.sha256)).st_ino
        for name in files
    }
    assert inode["a"] == inode["b"] == blob["a"]
    assert inode["d"] == blob["d"]
    assert inode["c"] != blob["c"]
    assert len({inode["a"], inode["c"], inode["d"]}) == 3
    assert os.access(tree / "c", os.X_OK) and not os.access(tree / "a", os.X_OK)
    assert (report.copied, report.linked) == (1, 4)  # c; .revision, a, b, d
    assert tree_state(cache.tree_root) == catalog_state(repo, head)


def test_failed_fetch_leaves_no_temporary(three_heads, tmp_path):
    repo, (h1, h2, h3) = three_heads
    sha = catalog_entries(repo, h3)["apps/demo/new/deep/f"].object.sha256
    repo.object_path(sha).write_bytes(b"not f3")
    cache = SiteCache(repo.path, tmp_path / "cache")
    cache.sync(h2)
    with pytest.raises(IntegrityError):
        cache.sync(h3)
    assert cache.last_head == h2
    assert [p for p in cache.objects.root.rglob("*") if p.name.endswith(".tmp")] == []


@pytest.mark.parametrize("text", ["garbage\n", "", "a b c\n", "sha 12 x job\n"])
def test_unreadable_head_file_means_never_synced(published_ws, text):
    ws, *_ = published_ws
    cache = fresh_cache(ws)
    cache.sync()
    cache.head_path.write_text(text)
    assert cache.last_head is None
    assert cache.poll()[0] == CHANGED
    head = cache.sync().revision
    assert cache.last_head.revision == head


def proc_wchar():
    """Bytes this process has passed to write calls, sendfile included."""
    with open("/proc/self/io", encoding="ascii") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith("wchar:"))


@pytest.mark.skipif(not os.path.exists("/proc/self/io"), reason="no /proc/self/io")
def test_sync_writes_each_delivered_byte_once(tmp_path):
    repo = Repository.init(tmp_path / "repo")
    payload = os.urandom(1 << 20)
    src = tmp_path / "src"
    for rel in ("lib/data", "bin/tool"):
        (src / rel).parent.mkdir(parents=True)
        (src / rel).write_bytes(payload)
    (src / "bin/tool").chmod(0o755)
    tx = repo.begin_transaction()
    repo.stage(tx, src, "apps/demo")
    head = repo.publish(tx, "job")
    cache = SiteCache(repo.path, tmp_path / "cache")
    before = proc_wchar()
    report = cache.sync(head)
    wrote = proc_wchar() - before
    # the fetch, and the one copy an executable needs for its own mode
    assert report.fetched_bytes > len(payload)
    assert wrote < 1.1 * (report.fetched_bytes + len(payload))
    assert tree_state(cache.tree_root) == catalog_state(repo, head)


def synced_cache(repo, heads, path):
    cache = SiteCache(repo.path, path)
    for head in heads:
        cache.sync(head)
    return cache


def test_verify_clean_cache_reads_each_byte_once(three_heads, tmp_path, monkeypatch):
    repo, heads = three_heads
    cache = synced_cache(repo, heads, tmp_path / "cache")
    live = cache.cache_root / os.readlink(cache.tree_root)
    hashed = []

    def hash_file(path):
        hashed.append(Path(path).relative_to(live).as_posix())
        return repo_mod.hash_file(path)

    monkeypatch.setattr(siteclient, "hash_file", hash_file)
    report = cache.verify()
    assert report.ok, report.problems()
    assert report.checked == sum(1 for _ in cache.objects.root.glob("??/*"))
    assert report.paths == len(tree_state(cache.tree_root))
    assert hashed == ["apps/demo/bin/a"]  # the one executable, an inode of its own


def test_verify_names_each_damaged_path(three_heads, tmp_path):
    repo, heads = three_heads
    cache = synced_cache(repo, heads, tmp_path / "cache")
    tree = cache.tree_root / "apps/demo"
    sha = catalog_entries(repo, heads[-1])["apps/demo/lib/c"].object.sha256
    (tree / "lib/c").chmod(0o644)
    (tree / "lib/c").write_text("c4")  # through the link, into objects/ too
    (tree / "bin/a").unlink()
    (tree / "stray").write_text("x")
    (tree / "var/empty").rmdir()
    (tree / "var/empty").write_text("not a directory")
    shutil.copytree(tree / "new/deep", tmp_path / "deep")  # a directory no entry names
    shutil.rmtree(tree / "new/deep")
    (tree / "new/deep").symlink_to(tmp_path / "deep")
    assert cache.verify().problems() == [
        f"object {sha} fails its digest",
        "unexpected tree path apps/demo/stray",
        "missing tree path apps/demo/bin/a",
        "tree path apps/demo/lib/c has mode 644, not 444",
        f"tree file apps/demo/lib/c does not match object {sha}",
        "tree path apps/demo/new/deep is not a directory",
        "tree path apps/demo/var/empty is not a directory",
    ]


def test_verify_finds_a_tree_behind_its_head(three_heads, tmp_path):
    repo, heads = three_heads
    cache = synced_cache(repo, heads, tmp_path / "cache")
    sha, size, _, job = cache.head_path.read_text().split(" ")
    cache.head_path.write_text(" ".join([sha, size, "4", job]))
    assert cache.verify().problems() == ["tree .revision disagrees with head revision 4"]
