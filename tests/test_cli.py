from __future__ import annotations

import json
import shutil

import pytest

from rade import recipes
from rade.cli import main
from rade.repo import Repository
from toycorpus import make_workspace, tick, write_event, write_recipe


def run_cli(*argv):
    return main([str(a) for a in argv])


def snapshot(root):
    return sorted(
        (str(p.relative_to(root)), p.stat().st_size)
        for p in root.rglob("*")
        if p.is_file()
    )


@pytest.fixture
def ws(tmp_path):
    return make_workspace(tmp_path)


class TestRun:
    def test_successful_run_increments_revision(self, ws, capsys):
        event = write_event(ws.spool_dir / "e1.json", "evt-1", ["libdemo/1.0/build.sh"])
        rc = run_cli("run", "--config", ws.config_path, "--event", event)
        assert rc == 0
        out = capsys.readouterr().out
        assert "RESULT ok" in out
        assert "published revision 1" in out
        assert Repository.open(ws.repo_path).read_head().revision == 1
        assert (ws.spool_dir / "e1.json.done").is_file()

    def test_build_failure_exits_one_and_keeps_revision(self, ws, capsys):
        run_cli(
            "run",
            "--config",
            ws.config_path,
            "--event",
            write_event(ws.spool_dir / "e0.json", "evt-0", ["hello/1.0/build.sh"]),
        )
        (ws.corpus_root / "hello" / "1.0" / "build.sh").write_text("#!/bin/sh\nexit 1\n")
        event = write_event(ws.spool_dir / "e1.json", "evt-1", ["hello/1.0/build.sh"])
        rc = run_cli("run", "--config", ws.config_path, "--event", event)
        assert rc == 1
        assert Repository.open(ws.repo_path).read_head().revision == 1
        assert "RESULT fail" in capsys.readouterr().out

    def test_missing_event_file_exits_two(self, ws, capsys):
        rc = run_cli("run", "--config", ws.config_path, "--event", ws.root / "no.json")
        assert rc == 2

    def test_missing_corpus_root_exits_two(self, tmp_path, capsys):
        ws = make_workspace(tmp_path)
        config = json.loads(ws.config_path.read_text())
        config["corpus_root"] = str(tmp_path / "nowhere")
        ws.config_path.write_text(json.dumps(config))
        event = write_event(ws.spool_dir / "e.json", "e", ["x"])
        rc = run_cli("run", "--config", ws.config_path, "--event", event)
        assert rc == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("binding", ["ARCH=ppc", "INSTALL_PREFIX=/x"])
    def test_reserved_site_binding_exits_two_and_runs_no_job(self, ws, capsys, binding):
        config = json.loads(ws.config_path.read_text())
        config["matrix"]["site_env"] = {"sitea": [binding]}
        ws.config_path.write_text(json.dumps(config))
        event = write_event(ws.spool_dir / "e.json", "evt-1", ["hello/1.0/build.sh"])
        rc = run_cli("run", "--config", ws.config_path, "--event", event)
        assert rc == 2
        assert "reserved name" in capsys.readouterr().err
        assert not ws.workdir.exists()
        assert not ws.repo_path.exists()
        assert event.is_file()

    def test_spool_directory_processes_all_events(self, ws, capsys):
        write_event(ws.spool_dir / "a.json", "evt-a", ["hello/1.0/build.sh"])
        write_event(ws.spool_dir / "b.json", "evt-b", ["libdemo/1.0/build.sh"])
        rc = run_cli("run", "--config", ws.config_path, "--event", ws.spool_dir)
        assert rc == 0
        assert Repository.open(ws.repo_path).read_head().revision == 2
        assert sorted(p.name for p in ws.spool_dir.iterdir()) == [
            "a.json.done",
            "b.json.done",
        ]

    @pytest.mark.parametrize(
        "rejected",
        ["{broken", '{"changed_paths": ["hello/1.0/build.sh"], "timestamp": 1}'],
        ids=["malformed", "no_event_id"],
    )
    def test_rejected_spool_event_is_set_aside(self, ws, capsys, rejected):
        (ws.spool_dir / "a.json").write_text(rejected)
        write_event(ws.spool_dir / "b.json", "evt-b", ["hello/1.0/build.sh"])
        assert run_cli("run", "--config", ws.config_path, "--event", ws.spool_dir) == 1
        out, err = capsys.readouterr()
        assert err.startswith(f"error: {ws.spool_dir / 'a.json'}: ")
        assert err.count("\n") == 1
        assert "published revision 1" in out
        assert sorted(p.name for p in ws.spool_dir.iterdir()) == [
            "a.json.rejected",
            "b.json.done",
        ]
        assert (ws.spool_dir / "a.json.rejected").read_text() == rejected
        assert run_cli("run", "--config", ws.config_path, "--event", ws.spool_dir) == 0
        assert capsys.readouterr().out == "event spool is empty\n"

    def test_second_identical_run_adds_no_objects(self, ws, capsys):
        e1 = write_event(ws.spool_dir / "e1.json", "evt-1", ["hello/1.0/build.sh"])
        run_cli("run", "--config", ws.config_path, "--event", e1)
        repo = Repository.open(ws.repo_path)
        before = sorted(p for p in repo.objects_dir.rglob("*") if p.is_file())
        e2 = write_event(ws.spool_dir / "e2.json", "evt-2", ["hello/1.0/build.sh"])
        rc = run_cli("run", "--config", ws.config_path, "--event", e2)
        assert rc == 0
        after = sorted(p for p in repo.objects_dir.rglob("*") if p.is_file())
        assert before == after
        assert repo.read_head().revision == 2


class TestValidate:
    def test_clean_corpus(self, ws, capsys):
        assert run_cli("validate", "--config", ws.config_path) == 0
        assert capsys.readouterr().out.strip() == "OK 3 recipes"

    def test_cycle_reported_with_witness(self, tmp_path, capsys):
        ws = make_workspace(tmp_path, corpus=False)
        kwargs = dict(
            source_url="file:///srv/x.tar.gz",
            sha256="0" * 64,
            build_script="x\n",
            check_script="x\n",
            deploy_script="x\n",
        )
        write_recipe(
            ws.corpus_root, "a", "1.0",
            dependencies=[{"name": "b", "constraint": "=1.0"}], **kwargs,
        )
        write_recipe(
            ws.corpus_root, "b", "1.0",
            dependencies=[{"name": "a", "constraint": "=1.0"}], **kwargs,
        )
        assert run_cli("validate", "--config", ws.config_path) == 1
        err = capsys.readouterr().err
        assert "a/1.0" in err and "b/1.0" in err

    def test_deep_chain_with_and_without_cycle(self, tmp_path, capsys):
        ws = make_workspace(tmp_path, corpus=False)
        kwargs = dict(
            source_url="file:///srv/x.tar.gz",
            sha256="0" * 64,
            build_script="x\n",
            check_script="x\n",
            deploy_script="x\n",
        )
        names = [f"r{i:04d}" for i in range(5000)]
        for name, dep in zip(names, names[1:]):
            deps = [{"name": dep, "constraint": "=1.0"}]
            write_recipe(ws.corpus_root, name, "1.0", dependencies=deps, **kwargs)
        write_recipe(ws.corpus_root, names[-1], "1.0", **kwargs)
        assert run_cli("validate", "--config", ws.config_path) == 0
        assert capsys.readouterr().out.strip() == "OK 5000 recipes"

        closing = [{"name": names[0], "constraint": "=1.0"}]
        write_recipe(ws.corpus_root, names[-1], "1.0", dependencies=closing, **kwargs)
        assert run_cli("validate", "--config", ws.config_path) == 1
        assert capsys.readouterr().err.startswith("graph error: ")

    def test_every_offending_manifest_listed(self, tmp_path, capsys):
        ws = make_workspace(tmp_path, corpus=False)
        for name in ("bad1", "bad2"):
            recipe_dir = ws.corpus_root / name / "1.0"
            recipe_dir.mkdir(parents=True)
            (recipe_dir / "rade.json").write_text("{broken")
        assert run_cli("validate", "--config", ws.config_path) == 1
        err = capsys.readouterr().err
        assert "bad1/1.0" in err and "bad2/1.0" in err

    def test_each_manifest_parsed_once(self, ws, capsys, monkeypatch):
        parsed = []
        parse = recipes.parse_manifest

        def counting_parse(text):
            parsed.append(text)
            return parse(text)

        monkeypatch.setattr(recipes, "parse_manifest", counting_parse)
        assert run_cli("validate", "--config", ws.config_path) == 0
        assert capsys.readouterr().out == "OK 3 recipes\n"
        assert len(parsed) == 3

    def test_validate_mutates_nothing(self, ws):
        before = snapshot(ws.root)
        run_cli("validate", "--config", ws.config_path)
        assert snapshot(ws.root) == before


UNREADABLE_MANIFESTS = {
    "not_utf8": lambda path: path.write_bytes(b"\xff\xfe{}"),
    "nested_too_deep": lambda path: path.write_text("[" * 100_000),
    "directory": lambda path: path.mkdir(),
}


@pytest.mark.parametrize("case", sorted(UNREADABLE_MANIFESTS))
def test_unreadable_manifest_fails_with_its_path(ws, capsys, case):
    broken = ws.corpus_root / "hello" / "broken"
    broken.mkdir()
    UNREADABLE_MANIFESTS[case](broken / "rade.json")
    event = write_event(ws.spool_dir / "e.json", "evt", ["hello/1.0/build.sh"])
    mve = ("hello/1.0", "--target", "x86_64-linux-sitea", "--cache", ws.root / "c")
    for command, extra in (
        ("run", ("--event", event)),
        ("resolve", ("--event", event)),
        ("mve", mve),
    ):
        assert run_cli(command, "--config", ws.config_path, *extra) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: hello/broken/rade.json: ")
        assert err.count("\n") == 1
    assert run_cli("validate", "--config", ws.config_path) == 1
    assert capsys.readouterr().err.startswith("hello/broken/rade.json: ")


@pytest.mark.parametrize("version", ["..", "1/../x"])
def test_path_unsafe_version_is_rejected_before_any_job(ws, capsys, version):
    first = write_event(ws.spool_dir / "e0.json", "evt-0", ["libdemo/1.0/build.sh"])
    assert run_cli("run", "--config", ws.config_path, "--event", first) == 0
    evil = ws.corpus_root / "evil" / "bad"
    shutil.copytree(ws.corpus_root / "hello" / "1.0", evil)
    manifest = json.loads((evil / "rade.json").read_text())
    manifest.update(name="evil", version=version)
    (evil / "rade.json").write_text(json.dumps(manifest))
    trees = (snapshot(ws.integration_root), snapshot(ws.deploy_root))
    capsys.readouterr()
    expected = f"error: evil/bad/rade.json: bad recipe version {version!r}\n"
    mve = ("hello/1.0", "--target", "x86_64-linux-sitea", "--cache", ws.root / "c")
    for i in (1, 2):  # a second run is the one that would remove <site>/evil/..
        event = write_event(ws.spool_dir / f"e{i}.json", f"evt-{i}", ["evil/bad/build.sh"])
        for command, extra in (
            ("run", ("--event", event)),
            ("resolve", ("--event", event)),
            ("mve", mve),
        ):
            assert run_cli(command, "--config", ws.config_path, *extra) == 1
            assert capsys.readouterr().err == expected
    assert (snapshot(ws.integration_root), snapshot(ws.deploy_root)) == trees
    assert sorted(p.name for p in (ws.integration_root / "x86_64/linux/sitea").iterdir()) == [
        "app", "libdemo"
    ]
    assert run_cli("validate", "--config", ws.config_path) == 1
    assert capsys.readouterr().err == expected[len("error: "):]


UNREADABLE_EVENTS = {
    "missing": (None, 2, "config error: event path not found: "),
    "not_utf8": (lambda path: path.write_bytes(b"\xff\xfe{}"), 1, "error: "),
    "nested_too_deep": (lambda path: path.write_text("[" * 100_000), 1, "error: "),
}


@pytest.mark.parametrize("case", sorted(UNREADABLE_EVENTS))
@pytest.mark.parametrize("command", ["run", "resolve"])
def test_unreadable_event_fails_without_traceback(ws, capsys, command, case):
    event = ws.spool_dir / "e.json"
    write, code, prefix = UNREADABLE_EVENTS[case]
    if write is not None:
        write(event)
    assert run_cli(command, "--config", ws.config_path, "--event", event) == code
    err = capsys.readouterr().err
    assert err.startswith(f"{prefix}{event}")
    assert err.count("\n") == 1
    assert not ws.workdir.exists()


class TestResolve:
    def test_chain_order_per_target(self, ws, capsys):
        event = write_event(ws.spool_dir / "e.json", "evt", ["libdemo/1.0/build.sh"])
        assert run_cli("resolve", "--config", ws.config_path, "--event", event) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines == [
            "libdemo/1.0 x86_64-linux-sitea changed",
            "app/1.0 x86_64-linux-sitea dependent-of-changed",
        ]

    def test_resolve_is_read_only(self, ws, capsys):
        event = write_event(ws.spool_dir / "e.json", "evt", ["libdemo/1.0/build.sh"])
        before = snapshot(ws.root)
        run_cli("resolve", "--config", ws.config_path, "--event", event)
        assert snapshot(ws.root) == before


class TestStatusAndPublish:
    def test_status_before_any_run(self, ws, capsys):
        assert run_cli("status", "--config", ws.config_path) == 0
        out = capsys.readouterr().out
        assert "no run recorded" in out
        assert "repo not initialized" in out

    def test_status_after_run(self, ws, capsys):
        event = write_event(ws.spool_dir / "e.json", "evt-s", ["hello/1.0/build.sh"])
        run_cli("run", "--config", ws.config_path, "--event", event)
        capsys.readouterr()
        assert run_cli("status", "--config", ws.config_path) == 0
        out = capsys.readouterr().out
        assert "RESULT ok" in out
        assert "repo revision 1 job evt-s" in out

    def test_publish_republishes_last_run(self, ws, capsys):
        event = write_event(ws.spool_dir / "e.json", "evt-p", ["hello/1.0/build.sh"])
        run_cli("run", "--config", ws.config_path, "--event", event)
        assert run_cli("publish", "--config", ws.config_path) == 0
        assert Repository.open(ws.repo_path).read_head().revision == 2

    def test_publish_without_run_is_config_error(self, ws, capsys):
        assert run_cli("publish", "--config", ws.config_path) == 2

    @pytest.mark.parametrize(
        "record",
        ["{broken", '{"job_id": "x"}', '{"job_id": 7, "stages": []}', '[]'],
        ids=["malformed", "no_stages", "job_id_not_a_string", "not_an_object"],
    )
    def test_bad_publication_record_is_config_error(self, ws, capsys, record):
        ws.workdir.mkdir()
        (ws.workdir / "publication.json").write_text(record)
        assert run_cli("publish", "--config", ws.config_path) == 2
        err = capsys.readouterr().err
        assert err.startswith(
            f"config error: bad publication record {ws.workdir / 'publication.json'}: "
        )
        assert err.count("\n") == 1
        assert not ws.repo_path.exists()

    def test_failed_run_leaves_nothing_to_publish(self, ws, capsys):
        a = write_event(ws.spool_dir / "a.json", "evt-a", ["hello/1.0/build.sh"])
        assert run_cli("run", "--config", ws.config_path, "--event", a) == 0
        # an empty plan keeps the last run's publication
        doc = write_event(ws.spool_dir / "doc.json", "evt-doc", ["README.md"])
        assert run_cli("run", "--config", ws.config_path, "--event", doc) == 0
        assert (ws.workdir / "publication.json").is_file()
        # the deploy script now fails only in the deploy environment
        (ws.corpus_root / "hello" / "1.0" / "deploy.sh").write_text(
            "#!/bin/sh\nset -eu\n"
            'if [ -n "${DEPLOY_PREFIX:-}" ]; then exit 1; fi\n'
            'mkdir -p "$INSTALL_PREFIX/bin"\n'
            'cp "$BUILD_DIR/hello" "$INSTALL_PREFIX/bin/hello"\n'
        )
        b = write_event(ws.spool_dir / "b.json", "evt-b", ["hello/1.0/deploy.sh"])
        assert run_cli("run", "--config", ws.config_path, "--event", b) == 1
        capsys.readouterr()
        assert run_cli("publish", "--config", ws.config_path) == 2
        assert "no publication recorded" in capsys.readouterr().err
        head = Repository.open(ws.repo_path).read_head()
        assert (head.revision, head.job_id) == (1, "evt-a")


class TestSyncAndMve:
    def test_sync_then_mve(self, ws, capsys):
        event = write_event(ws.spool_dir / "e.json", "evt", ["libdemo/1.0/build.sh"])
        run_cli("run", "--config", ws.config_path, "--event", event)
        cache = ws.root / "cache"
        assert run_cli("sync", "--repo", ws.repo_path, "--cache", cache) == 0
        out = capsys.readouterr().out
        assert "revision 1: fetched" in out
        rc = run_cli(
            "mve",
            "app/1.0",
            "--config",
            ws.config_path,
            "--target",
            "x86_64-linux-sitea",
            "--cache",
            cache,
        )
        assert rc == 0
        assert "MVE pass" in capsys.readouterr().out

    def test_sync_then_mve_with_relative_cache(self, ws, capsys, monkeypatch):
        event = write_event(ws.spool_dir / "e.json", "evt", ["hello/1.0/build.sh"])
        run_cli("run", "--config", ws.config_path, "--event", event)
        monkeypatch.chdir(ws.root)
        assert run_cli("sync", "--repo", ws.repo_path, "--cache", "cache") == 0
        rc = run_cli(
            "mve", "hello/1.0", "--config", ws.config_path,
            "--target", "x86_64-linux-sitea", "--cache", "cache",
        )
        assert rc == 0
        assert "MVE pass" in capsys.readouterr().out

    def test_mve_fails_when_the_site_copy_is_damaged(self, ws, capsys):
        event = write_event(ws.spool_dir / "e.json", "evt", ["hello/1.0/build.sh"])
        run_cli("run", "--config", ws.config_path, "--event", event)

        def mve(cache):
            return run_cli(
                "mve", "hello/1.0", "--config", ws.config_path,
                "--target", "x86_64-linux-sitea", "--cache", cache,
            )

        cache = ws.root / "cache"
        run_cli("sync", "--repo", ws.repo_path, "--cache", cache)
        binary = cache / "tree/x86_64/linux/sitea/hello/1.0/bin/hello"
        binary.chmod(0o755)  # tree files are delivered read-only
        binary.write_text("#!/bin/sh\necho garbage\n")
        assert mve(cache) == 1
        binary.unlink()
        assert mve(cache) == 1
        fresh = ws.root / "fresh-cache"
        assert run_cli("sync", "--repo", ws.repo_path, "--cache", fresh) == 0
        assert mve(fresh) == 0
        assert "MVE pass" in capsys.readouterr().out

    def test_unreadable_site_head_is_never_synced(self, ws, capsys):
        event = write_event(ws.spool_dir / "e.json", "evt", ["hello/1.0/build.sh"])
        run_cli("run", "--config", ws.config_path, "--event", event)
        cache = ws.root / "cache"
        run_cli("sync", "--repo", ws.repo_path, "--cache", cache)
        (cache / "head").write_text("garbage\n")
        capsys.readouterr()
        rc = run_cli(
            "mve", "hello/1.0", "--config", ws.config_path,
            "--target", "x86_64-linux-sitea", "--cache", cache,
        )
        assert rc == 1
        assert "never synced" in capsys.readouterr().err
        assert run_cli("sync", "--repo", ws.repo_path, "--cache", cache) == 0
        assert capsys.readouterr().out.startswith("revision 1: fetched 0 objects")
        assert (cache / "head").read_text().split(" ")[2] == "1"

    def test_sync_unchanged(self, ws, capsys):
        event = write_event(ws.spool_dir / "e.json", "evt", ["hello/1.0/build.sh"])
        run_cli("run", "--config", ws.config_path, "--event", event)
        cache = ws.root / "cache"
        run_cli("sync", "--repo", ws.repo_path, "--cache", cache)
        capsys.readouterr()
        assert run_cli("sync", "--repo", ws.repo_path, "--cache", cache) == 0
        assert "unchanged" in capsys.readouterr().out

    def test_mve_for_unknown_recipe_is_config_error(self, ws):
        assert (
            run_cli(
                "mve",
                "ghost/9.9",
                "--config",
                ws.config_path,
                "--target",
                "x86_64-linux-sitea",
                "--cache",
                ws.root / "cache",
            )
            == 2
        )

    def test_mve_with_malformed_target_is_config_error(self, ws):
        assert (
            run_cli(
                "mve",
                "hello/1.0",
                "--config",
                ws.config_path,
                "--target",
                "not-a-valid-target-id-at-all",
                "--cache",
                ws.root / "cache",
            )
            == 2
        )


class TestVerify:
    def test_clean_repository(self, ws, capsys):
        event = write_event(ws.spool_dir / "e.json", "evt", ["hello/1.0/build.sh"])
        run_cli("run", "--config", ws.config_path, "--event", event)
        capsys.readouterr()
        assert run_cli("verify", "--config", ws.config_path) == 0
        checked = len([p for p in ws.repo_path.glob("*/??/*")])
        assert capsys.readouterr().out == f"checked {checked} objects, problems: 0\n"

    def test_corrupted_object(self, ws, capsys):
        event = write_event(ws.spool_dir / "e.json", "evt", ["hello/1.0/build.sh"])
        run_cli("run", "--config", ws.config_path, "--event", event)
        repo = Repository.open(ws.repo_path)
        entries = repo.read_catalog(repo.read_head().root_catalog).by_path()
        sha = entries["x86_64/linux/sitea/hello/1.0/bin/hello"].object.sha256
        repo.object_path(sha).write_bytes(b"corrupted")
        capsys.readouterr()
        assert run_cli("verify", "--config", ws.config_path) == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == f"object {sha} fails its digest"
        assert lines[1].endswith("objects, problems: 1")

    def test_missing_repository(self, ws, capsys):
        assert run_cli("verify", "--config", ws.config_path) == 1
        assert "no repository" in capsys.readouterr().err


def test_config_env_var_fallback(ws, monkeypatch, capsys):
    monkeypatch.setenv("RADE_CONFIG", str(ws.config_path))
    assert run_cli("validate") == 0
    assert "OK 3 recipes" in capsys.readouterr().out


class TestCorpusIndex:
    def test_run_and_mve_reuse_the_index(self, ws, capsys, monkeypatch):
        for i in (0, 1):  # the first run makes the workdir, the second the index
            tick(ws.root)  # so that the index trusts every file that exists now
            event = write_event(ws.spool_dir / f"e{i}.json", f"evt-{i}", ["hello/1.0/build.sh"])
            assert run_cli("run", "--config", ws.config_path, "--event", event) == 0
        assert (ws.workdir / recipes.INDEX_NAME).is_file()
        parsed = []
        parse = recipes.parse_manifest
        monkeypatch.setattr(recipes, "parse_manifest", lambda text: parsed.append(text) or parse(text))
        event = write_event(ws.spool_dir / "e2.json", "evt-2", ["hello/1.0/build.sh"])
        assert run_cli("run", "--config", ws.config_path, "--event", event) == 0
        assert run_cli("sync", "--repo", ws.repo_path, "--cache", ws.root / "c") == 0
        mve = ("hello/1.0", "--target", "x86_64-linux-sitea", "--cache", ws.root / "c")
        assert run_cli("mve", "--config", ws.config_path, *mve) == 0
        event = write_event(ws.spool_dir / "e3.json", "evt-3", ["hello/1.0/build.sh"])
        assert run_cli("resolve", "--config", ws.config_path, "--event", event) == 0
        assert parsed == []
        assert run_cli("validate", "--config", ws.config_path) == 0
        assert len(parsed) == 3  # validate always parses everything

    def test_workdir_that_cannot_hold_the_index(self, ws, capsys):
        (ws.workdir / recipes.INDEX_NAME / "inner").mkdir(parents=True)
        event = write_event(ws.spool_dir / "e.json", "evt", ["hello/1.0/build.sh"])
        assert run_cli("run", "--config", ws.config_path, "--event", event) == 0
        event = write_event(ws.spool_dir / "e1.json", "evt-1", ["hello/1.0/build.sh"])
        assert run_cli("resolve", "--config", ws.config_path, "--event", event) == 0
        assert run_cli("sync", "--repo", ws.repo_path, "--cache", ws.root / "c") == 0
        mve = ("hello/1.0", "--target", "x86_64-linux-sitea", "--cache", ws.root / "c")
        assert run_cli("mve", "--config", ws.config_path, *mve) == 0
        assert (ws.workdir / recipes.INDEX_NAME).is_dir()
        assert not [p for p in ws.workdir.iterdir() if p.name.endswith(".tmp")]
