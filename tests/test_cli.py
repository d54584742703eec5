from __future__ import annotations

import errno
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rade import cli, depgraph, pipeline, recipes
from rade import repo as repo_mod
from rade.cli import main
from rade.errors import StoreWriteFailure
from rade.repo import Repository
from toycorpus import catalog_entries, make_workspace, tick, write_event, write_recipe


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
        [
            "{broken",
            '{"changed_paths": ["hello/1.0/build.sh"], "timestamp": 1}',
            '{"event_id": "\\u00e9vt-1", "changed_paths": ["hello/1.0/build.sh"], "timestamp": 1}',
        ],
        ids=["malformed", "no_event_id", "non_ascii_event_id"],
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

    def test_duplicate_event_id_is_set_aside(self, ws, capsys):
        write_event(ws.spool_dir / "a.json", "evt-a", ["hello/1.0/build.sh"])
        write_event(ws.spool_dir / "a2.json", "evt-a", ["libdemo/1.0/build.sh"])
        write_event(ws.spool_dir / "b.json", "evt-b", ["libdemo/1.0/build.sh"])
        assert run_cli("run", "--config", ws.config_path, "--event", ws.spool_dir) == 1
        out, err = capsys.readouterr()
        assert err == f"error: {ws.spool_dir / 'a2.json'}: duplicate event_id 'evt-a' in spool\n"
        assert out.count("published revision") == 2
        assert Repository.open(ws.repo_path).read_head().job_id == "evt-b"
        assert sorted(p.name for p in ws.spool_dir.iterdir()) == [
            "a.json.done",
            "a2.json.rejected",
            "b.json.done",
        ]

    def test_already_published_event_is_marked_done(self, ws, capsys):
        """A run that stopped between publishing an event and marking it done
        left the event pending: the next run marks it done and runs nothing."""
        write_event(ws.spool_dir / "e1.json", "evt-1", ["hello/1.0/build.sh"])
        assert run_cli("run", "--config", ws.config_path, "--event", ws.spool_dir) == 0
        head = Repository.open(ws.repo_path).read_head()
        report = (ws.workdir / "last-run.txt").read_text()
        (ws.spool_dir / "e1.json.done").rename(ws.spool_dir / "e1.json")
        capsys.readouterr()
        assert run_cli("run", "--config", ws.config_path, "--event", ws.spool_dir) == 0
        assert capsys.readouterr().out == "event evt-1 already published as revision 1\n"
        assert Repository.open(ws.repo_path).read_head() == head
        assert (ws.workdir / "last-run.txt").read_text() == report
        assert sorted(p.name for p in ws.spool_dir.iterdir()) == ["e1.json.done"]

    def test_event_named_like_the_initial_head_runs(self, ws, capsys):
        Repository.init(ws.repo_path)  # revision 0, whose job is "init"
        event = write_event(ws.spool_dir / "e.json", "init", ["hello/1.0/build.sh"])
        assert run_cli("run", "--config", ws.config_path, "--event", event) == 0
        assert Repository.open(ws.repo_path).read_head().revision == 1

    def test_second_identical_run_adds_no_objects(self, ws, capsys):
        e1 = write_event(ws.spool_dir / "e1.json", "evt-1", ["hello/1.0/build.sh"])
        run_cli("run", "--config", ws.config_path, "--event", e1)
        repo = Repository.open(ws.repo_path)
        before = sorted(p for p in repo.objects.root.rglob("*") if p.is_file())
        e2 = write_event(ws.spool_dir / "e2.json", "evt-2", ["hello/1.0/build.sh"])
        rc = run_cli("run", "--config", ws.config_path, "--event", e2)
        assert rc == 0
        after = sorted(p for p in repo.objects.root.rglob("*") if p.is_file())
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


RUN_RECORDS = (cli.LAST_RUN_REPORT, cli.PUBLICATION_MANIFEST)


def records(ws):
    """The run record files in the workdir, by name."""
    return {name: (ws.workdir / name).read_bytes() for name in RUN_RECORDS
            if (ws.workdir / name).is_file()}


def deploy_hello_with(ws, line):
    """Make hello's deploy script also run ``line`` in its delivered prefix."""
    (ws.corpus_root / "hello" / "1.0" / "deploy.sh").write_text(
        "#!/bin/sh\nset -eu\n"
        'PREFIX="${DEPLOY_PREFIX:-$INSTALL_PREFIX}"\n'
        'mkdir -p "$PREFIX/bin"\n'
        'cp "$BUILD_DIR/hello" "$PREFIX/bin/hello"\n'
        f"{line}\n"
    )


HELLO_PREFIX = "x86_64/linux/sitea/hello/1.0"


@pytest.mark.parametrize(
    "target, reason",
    [("missing", "No such file or directory"), ("bad", "Too many levels of symbolic links")],
)
def test_unreadable_payload_file_fails_without_traceback(ws, capsys, target, reason):
    a = write_event(ws.spool_dir / "a.json", "evt-a", ["hello/1.0/build.sh"])
    assert run_cli("run", "--config", ws.config_path, "--event", a) == 0
    before = (ws.repo_path / "HEAD").read_bytes()
    # a dangling link, or a link to itself, inside the delivered prefix
    deploy_hello_with(ws, f'ln -s {target} "$PREFIX/bin/bad"')
    b = write_event(ws.spool_dir / "b.json", "evt-b", ["hello/1.0/deploy.sh"])
    capsys.readouterr()
    assert run_cli("run", "--config", ws.config_path, "--event", b) == 1
    error = f"error: cannot stage {HELLO_PREFIX}/bin/bad: {reason}\n"
    assert capsys.readouterr().err == error
    # the run is recorded before its publication is refused, and a
    # republication of the record meets the same check
    assert json.loads(records(ws)[cli.PUBLICATION_MANIFEST])["job_id"] == "evt-b"
    assert run_cli("publish", "--config", ws.config_path) == 1
    assert capsys.readouterr().err == error
    assert (ws.repo_path / "HEAD").read_bytes() == before
    assert run_cli("verify", "--config", ws.config_path) == 0


# kind -> (link in hello's prefix, its target below the workspace root)
OUTSIDE_LINKS = {"file": ("bin/leak", "outside/s"), "directory": ("lib", "outside")}


@pytest.mark.parametrize("kind", sorted(OUTSIDE_LINKS))
def test_payload_link_out_of_the_deploy_tree_fails_the_run(ws, capsys, kind):
    a = write_event(ws.spool_dir / "a.json", "evt-a", ["hello/1.0/build.sh"])
    assert run_cli("run", "--config", ws.config_path, "--event", a) == 0
    before = (ws.repo_path / "HEAD").read_bytes()
    secret = b"secret\n"
    (ws.root / "outside").mkdir()
    (ws.root / "outside" / "s").write_bytes(secret)
    name, target = OUTSIDE_LINKS[kind]
    deploy_hello_with(ws, f'ln -s {ws.root / target} "$PREFIX/{name}"')
    b = write_event(ws.spool_dir / "b.json", "evt-b", ["hello/1.0/deploy.sh"])
    capsys.readouterr()
    assert run_cli("run", "--config", ws.config_path, "--event", b) == 1
    error = f"error: cannot stage {HELLO_PREFIX}/{name}: resolves outside {ws.deploy_root}\n"
    assert capsys.readouterr().err == error
    assert run_cli("publish", "--config", ws.config_path) == 1
    assert capsys.readouterr().err == error
    assert (ws.repo_path / "HEAD").read_bytes() == before
    assert not [p for p in ws.repo_path.rglob("*") if p.is_file() and p.read_bytes() == secret]


def test_payload_link_inside_the_deploy_tree_publishes_its_target(ws, capsys):
    deploy_hello_with(ws, 'ln -s hello "$PREFIX/bin/alias"')
    a = write_event(ws.spool_dir / "a.json", "evt-a", ["hello/1.0/build.sh"])
    assert run_cli("run", "--config", ws.config_path, "--event", a) == 0
    repo = Repository.open(ws.repo_path)
    entries = catalog_entries(repo, repo.read_head())
    hello, alias = (entries[f"{HELLO_PREFIX}/bin/{n}"] for n in ("hello", "alias"))
    assert alias.object == hello.object
    assert repo.object_path(alias.object.sha256).read_bytes() == (
        ws.deploy_root / HELLO_PREFIX / "bin" / "hello"
    ).read_bytes()


def test_escaping_payload_fails_its_own_event_only(ws, capsys):
    deploy_hello_with(ws, f'ln -s {ws.root} "$PREFIX/bin/up"')
    write_event(ws.spool_dir / "b.json", "evt-b", ["hello/1.0/deploy.sh"])
    write_event(ws.spool_dir / "c.json", "evt-c", ["libdemo/1.0/build.sh"])
    assert run_cli("run", "--config", ws.config_path, "--event", ws.spool_dir) == 1
    assert capsys.readouterr().err == (
        f"error: cannot stage {HELLO_PREFIX}/bin/up: resolves outside {ws.deploy_root}\n"
    )
    assert Repository.open(ws.repo_path).read_head().job_id == "evt-c"
    assert sorted(p.name for p in ws.spool_dir.iterdir()) == ["b.json.done", "c.json.done"]


def test_unstageable_payload_fails_its_own_event_only(ws, capsys):
    deploy_hello_with(ws, 'ln -s missing "$PREFIX/bin/bad"')
    write_event(ws.spool_dir / "b.json", "evt-b", ["hello/1.0/deploy.sh"])
    write_event(ws.spool_dir / "c.json", "evt-c", ["libdemo/1.0/build.sh"])
    assert run_cli("run", "--config", ws.config_path, "--event", ws.spool_dir) == 1
    assert capsys.readouterr().err == (
        f"error: cannot stage {HELLO_PREFIX}/bin/bad: No such file or directory\n"
    )
    assert Repository.open(ws.repo_path).read_head().job_id == "evt-c"
    assert sorted(p.name for p in ws.spool_dir.iterdir()) == ["b.json.done", "c.json.done"]
    assert not [p for p in ws.repo_path.rglob("*") if p.name.endswith(".tmp")]


def link_out_of_the_prefix(ws, outside):
    (ws.deploy_root / HELLO_PREFIX / "bin" / "leak").symlink_to(outside)
    return f"{HELLO_PREFIX}/bin/leak: resolves outside {ws.deploy_root}"


def stage_outside_the_deploy_tree(ws, outside):
    manifest = ws.workdir / cli.PUBLICATION_MANIFEST
    doc = json.loads(manifest.read_text())
    doc["stages"].append([str(outside), "x86_64/linux/sitea/leak"])
    manifest.write_text(json.dumps(doc))
    return f"x86_64/linux/sitea/leak: resolves outside {ws.deploy_root}"


def delete_the_prefix(ws, outside):
    shutil.rmtree(ws.deploy_root / HELLO_PREFIX)
    return f"{HELLO_PREFIX}: No such file or directory"


@pytest.mark.parametrize(
    "damage", [link_out_of_the_prefix, stage_outside_the_deploy_tree, delete_the_prefix]
)
def test_publish_checks_the_payload_as_a_run_does(ws, capsys, damage):
    a = write_event(ws.spool_dir / "a.json", "evt-a", ["hello/1.0/build.sh"])
    assert run_cli("run", "--config", ws.config_path, "--event", a) == 0
    before = (ws.repo_path / "HEAD").read_bytes()
    outside = ws.root / "outside"
    outside.write_bytes(b"secret\n")
    expected = damage(ws, outside)
    capsys.readouterr()
    assert run_cli("publish", "--config", ws.config_path) == 1
    assert capsys.readouterr().err == f"error: cannot stage {expected}\n"
    assert (ws.repo_path / "HEAD").read_bytes() == before
    assert run_cli("verify", "--config", ws.config_path) == 0


def test_full_disk_at_staging_leaves_the_event_pending(ws, capsys, monkeypatch):
    a = write_event(ws.spool_dir / "a.json", "evt-a", ["hello/1.0/build.sh"])
    assert run_cli("run", "--config", ws.config_path, "--event", a) == 0
    before = (ws.repo_path / "HEAD").read_bytes()
    deploy_hello_with(ws, 'echo new > "$PREFIX/bin/note"')  # a new object to store
    write_event(ws.spool_dir / "b.json", "evt-b", ["hello/1.0/deploy.sh"])

    def open_then_fail(file, mode="r", *args, **kwargs):
        fh = open(file, mode, *args, **kwargs)
        if "w" in mode and str(file).endswith(".tmp"):  # a pending object, then the disk fills
            fh.close()
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return fh

    monkeypatch.setattr(repo_mod, "open", open_then_fail, raising=False)
    capsys.readouterr()
    assert run_cli("run", "--config", ws.config_path, "--event", ws.spool_dir) == 1
    monkeypatch.undo()
    assert capsys.readouterr().err.startswith("error: cannot store ")
    assert recipes.pending_events(ws.spool_dir) == [ws.spool_dir / "b.json"]
    assert (ws.repo_path / "HEAD").read_bytes() == before
    assert not [p for p in ws.repo_path.rglob("*") if p.name.endswith(".tmp")]
    assert run_cli("verify", "--config", ws.config_path) == 0


def test_full_disk_at_the_run_record_leaves_the_event_pending(ws, capsys, monkeypatch):
    a = write_event(ws.spool_dir / "a.json", "evt-a", ["hello/1.0/build.sh"])
    assert run_cli("run", "--config", ws.config_path, "--event", a) == 0
    before = (ws.workdir / cli.LAST_RUN_REPORT).read_bytes()
    write_event(ws.spool_dir / "b.json", "evt-b", ["libdemo/1.0/build.sh"])
    real_open = Path.open

    def open_then_fail(self, mode="r", *args, **kwargs):
        if "w" in mode and cli.LAST_RUN_REPORT in self.name:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return real_open(self, mode, *args, **kwargs)

    monkeypatch.setattr(Path, "open", open_then_fail)
    capsys.readouterr()
    assert run_cli("run", "--config", ws.config_path, "--event", ws.spool_dir) == 1
    monkeypatch.undo()
    path = ws.workdir / cli.LAST_RUN_REPORT
    assert capsys.readouterr().err == (
        f"error: cannot write {path}: {os.strerror(errno.ENOSPC)}\n"
    )
    assert path.read_bytes() == before
    assert recipes.pending_events(ws.spool_dir) == [ws.spool_dir / "b.json"]
    assert Repository.open(ws.repo_path).read_head().job_id == "evt-a"


@pytest.mark.parametrize("failing", [cli.LAST_RUN_REPORT, cli.PUBLICATION_MANIFEST])
def test_failed_artifact_write_leaves_the_previous_file_whole(ws, monkeypatch, failing):
    a = write_event(ws.spool_dir / "a.json", "evt-a", ["hello/1.0/build.sh"])
    assert run_cli("run", "--config", ws.config_path, "--event", a) == 0
    before = records(ws)
    real_open = Path.open

    def open_then_fail(self, mode="r", *args, **kwargs):
        fh = real_open(self, mode, *args, **kwargs)
        if "w" in mode and failing in self.name:  # opened for writing, then the disk fills
            fh.close()
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return fh

    report = pipeline.RunReport([], pipeline.PublicationRequest("evt-b", ((ws.root, "x"),)))
    monkeypatch.setattr(Path, "open", open_then_fail)
    with pytest.raises(StoreWriteFailure, match=f"cannot write .*{failing}: "):
        cli._save_run_artifacts(SimpleNamespace(workdir=ws.workdir), report)
    monkeypatch.undo()
    assert (ws.workdir / failing).read_bytes() == before[failing]
    if failing == cli.PUBLICATION_MANIFEST:  # written whole before the failure
        assert (ws.workdir / cli.LAST_RUN_REPORT).read_text() == "RESULT ok\n"
    assert not [p for p in ws.workdir.iterdir() if p.name.endswith(".tmp")]


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

    def test_status_with_a_report_that_is_not_utf8(self, ws, capsys):
        ws.workdir.mkdir()
        (ws.workdir / "last-run.txt").write_bytes(b"\xff\xfe")
        assert run_cli("status", "--config", ws.config_path) == 0
        assert "repo not initialized" in capsys.readouterr().out

    def test_non_ascii_head_byte_ends_no_command_with_a_traceback(self, ws, capsys):
        event = write_event(ws.spool_dir / "e.json", "evt-s", ["hello/1.0/build.sh"])
        run_cli("run", "--config", ws.config_path, "--event", event)
        head = ws.repo_path / "HEAD"
        data = bytearray(head.read_bytes())
        data[-2] = 0xFF  # the last byte of the job id
        head.write_bytes(bytes(data))
        capsys.readouterr()
        assert run_cli("status", "--config", ws.config_path) == 0
        # a HEAD that exists but cannot be read is not a missing repository
        status = capsys.readouterr().out.splitlines()[-1]
        assert status.startswith("repo error: cannot read HEAD: ")
        assert run_cli("verify", "--config", ws.config_path) == 1
        assert "cannot read HEAD" in capsys.readouterr().out
        assert run_cli("sync", "--repo", ws.repo_path, "--cache", ws.root / "c") == 1
        assert capsys.readouterr().err.startswith("error: cannot read HEAD")

    def test_publish_republishes_last_run(self, ws, capsys):
        event = write_event(ws.spool_dir / "e.json", "evt-p", ["hello/1.0/build.sh"])
        run_cli("run", "--config", ws.config_path, "--event", event)
        assert run_cli("publish", "--config", ws.config_path) == 0
        assert Repository.open(ws.repo_path).read_head().revision == 2

    def test_publish_without_run_is_config_error(self, ws, capsys):
        assert run_cli("publish", "--config", ws.config_path) == 2

    @pytest.mark.parametrize(
        "record",
        [
            "{broken",
            '{"job_id": "x"}',
            '{"job_id": 7, "stages": []}',
            '[]',
            '{"job_id": "\\u00e9vt-9", "stages": []}',
        ],
        ids=[
            "malformed",
            "no_stages",
            "job_id_not_a_string",
            "not_an_object",
            "job_id_outside_grammar",
        ],
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

    def test_mve_timeout_fails_without_traceback(self, tmp_path, capsys):
        ws = make_workspace(tmp_path, phase_timeout_s=1)
        event = write_event(ws.spool_dir / "e.json", "evt", ["hello/1.0/build.sh"])
        assert run_cli("run", "--config", ws.config_path, "--event", event) == 0
        cache = ws.root / "cache"
        assert run_cli("sync", "--repo", ws.repo_path, "--cache", cache) == 0
        (ws.corpus_root / "hello" / "1.0" / "tests" / "mve.sh").write_text(
            "#!/bin/sh\nsleep 3\n"
        )
        capsys.readouterr()
        rc = run_cli(
            "mve", "hello/1.0", "--config", ws.config_path,
            "--target", "x86_64-linux-sitea", "--cache", cache,
        )
        assert rc == 1
        assert capsys.readouterr().out == (
            "$ tests/mve.sh\ntimeout after 1s\n"
            "MVE fail: hello/1.0 on x86_64-linux-sitea at revision 1\n"
        )

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

    def test_negative_poll_interval_is_a_usage_error(self, ws, capsys):
        event = write_event(ws.spool_dir / "e.json", "evt", ["hello/1.0/build.sh"])
        run_cli("run", "--config", ws.config_path, "--event", event)
        cache = ws.root / "cache"
        run_cli("sync", "--repo", ws.repo_path, "--cache", cache)
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:  # the head is unchanged, so sync would sleep
            run_cli("sync", "--repo", ws.repo_path, "--cache", cache,
                    "--interval", "-1", "--attempts", "2")
        assert exc.value.code == 2
        assert "argument --interval: " in capsys.readouterr().err

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
        entries = catalog_entries(repo, repo.read_head())
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

    @pytest.fixture
    def synced(self, ws, capsys):
        event = write_event(ws.spool_dir / "e.json", "evt", ["hello/1.0/build.sh"])
        run_cli("run", "--config", ws.config_path, "--event", event)
        cache = ws.root / "cache"
        run_cli("sync", "--repo", ws.repo_path, "--cache", cache)
        capsys.readouterr()
        return cache

    def test_clean_site_cache(self, ws, synced, capsys):
        assert run_cli("verify", "--config", ws.config_path, "--cache", synced) == 0
        objects = len(list((synced / "objects").glob("??/*")))
        paths = len(list((synced / "tree").rglob("*")))
        assert capsys.readouterr().out == (
            f"checked {objects} objects and {paths} tree paths, problems: 0\n"
        )

    def test_flipped_site_tree_byte(self, ws, synced, capsys):
        path = "modulefiles/x86_64/linux/sitea/hello/1.0"
        repo = Repository.open(ws.repo_path)
        sha = catalog_entries(repo, repo.read_head())[path].object.sha256
        victim = synced / "tree" / path
        victim.chmod(victim.stat().st_mode | 0o200)  # tree files are read-only
        data = bytearray(victim.read_bytes())
        data[0] ^= 0x01
        victim.write_bytes(bytes(data))
        assert run_cli("verify", "--config", ws.config_path, "--cache", synced) == 1
        out = capsys.readouterr().out.splitlines()
        assert f"object {sha} fails its digest" in out
        assert f"tree file {path} does not match object {sha}" in out
        assert out[-1].endswith("problems: 3")  # the object, the file and its mode

    def test_missing_site_tree_path(self, ws, synced, capsys):
        path = "x86_64/linux/sitea/hello/1.0/bin/hello"
        (synced / "tree" / path).unlink()
        assert run_cli("verify", "--config", ws.config_path, "--cache", synced) == 1
        out = capsys.readouterr().out.splitlines()
        assert out[0] == f"missing tree path {path}"
        assert out[-1].endswith("problems: 1")

    def test_site_cache_that_never_synced(self, ws, capsys):
        write_event(ws.spool_dir / "e.json", "evt", ["hello/1.0/build.sh"])
        run_cli("run", "--config", ws.config_path, "--event", ws.spool_dir / "e.json")
        capsys.readouterr()
        cache = ws.root / "cache"
        assert run_cli("verify", "--config", ws.config_path, "--cache", cache) == 1
        assert capsys.readouterr().out == (
            "cache has never synced\nchecked 0 objects and 0 tree paths, problems: 1\n"
        )
        assert not cache.exists()  # verifying writes nothing


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
        checked = []  # graphs whose acyclicity was checked, i.e. not taken from the index
        find_cycle = depgraph._find_cycle
        monkeypatch.setattr(depgraph, "_find_cycle", lambda g: checked.append(g) or find_cycle(g))
        event = write_event(ws.spool_dir / "e2.json", "evt-2", ["hello/1.0/build.sh"])
        assert run_cli("run", "--config", ws.config_path, "--event", event) == 0
        assert run_cli("sync", "--repo", ws.repo_path, "--cache", ws.root / "c") == 0
        walks = []
        find = recipes._find_manifests
        monkeypatch.setattr(
            recipes, "_find_manifests", lambda root, *index: walks.append(root) or find(root, *index)
        )
        mve = ("hello/1.0", "--target", "x86_64-linux-sitea", "--cache", ws.root / "c")
        assert run_cli("mve", "--config", ws.config_path, *mve) == 0
        assert walks == []  # mve looked its recipe up in the index alone
        event = write_event(ws.spool_dir / "e3.json", "evt-3", ["hello/1.0/build.sh"])
        assert run_cli("resolve", "--config", ws.config_path, "--event", event) == 0
        assert parsed == []
        assert checked == []
        assert run_cli("validate", "--config", ws.config_path) == 0
        assert len(parsed) == 3  # validate always parses everything
        assert len(checked) == 1

    MVE = ("hello/1.0", "--target", "x86_64-linux-sitea")

    def indexed(self, ws, monkeypatch):
        """Run and sync once with an index that vouches for every recipe;
        returns the list every later corpus walk is appended to."""
        for i in (0, 1):  # the first run makes the workdir, the second the index
            tick(ws.root)
            event = write_event(ws.spool_dir / f"e{i}.json", f"evt-{i}", ["hello/1.0/build.sh"])
            assert run_cli("run", "--config", ws.config_path, "--event", event) == 0
        assert run_cli("sync", "--repo", ws.repo_path, "--cache", ws.root / "c") == 0
        walks = []
        find = recipes._find_manifests
        monkeypatch.setattr(
            recipes, "_find_manifests", lambda root, *index: walks.append(root) or find(root, *index)
        )
        return walks

    def mve(self, ws):
        return run_cli("mve", "--config", ws.config_path, *self.MVE, "--cache", ws.root / "c")

    def test_mve_lookup_decodes_one_recipe(self, ws, capsys, monkeypatch):
        self.indexed(ws, monkeypatch)
        decoded = []
        decode = recipes._recipe_from_fields
        monkeypatch.setattr(
            recipes, "_recipe_from_fields",
            lambda fields, parts: decoded.append(fields[0]) or decode(fields, parts),
        )
        assert self.mve(ws) == 0
        assert decoded == ["hello"]

    def test_the_graph_build_is_the_one_writer(self, ws, capsys, monkeypatch):
        """The index is replaced once by a run that re-read a recipe, and
        never by a load alone: not by a settled command, nor by mve's
        fallback load, which builds no graph."""
        walks = self.indexed(ws, monkeypatch)
        index = ws.workdir / recipes.INDEX_NAME
        writes = []
        replace = os.replace

        def counting_replace(src, dst, **kwargs):
            writes.append(Path(dst) == index)
            return replace(src, dst, **kwargs)

        monkeypatch.setattr(os, "replace", counting_replace)

        def index_writes(*argv):
            writes.clear()
            assert run_cli(*argv) == 0
            return writes.count(True)

        config = ("--config", ws.config_path)
        mve = (*config, *self.MVE, "--cache", ws.root / "c")
        assert index_writes("mve", *mve) == 0
        assert walks == []  # vouched for by the index
        event = write_event(ws.spool_dir / "e2.json", "evt-2", ["hello/1.0/build.sh"])
        assert index_writes("resolve", *config, "--event", event) == 0
        assert index_writes("run", *config, "--event", event) == 0
        build = ws.corpus_root / "hello" / "1.0" / "build.sh"
        build.write_text(build.read_text())  # a new signature, the same recipe
        walks.clear()
        assert index_writes("mve", *mve) == 0
        assert walks == [ws.corpus_root]  # the fallback load
        event = write_event(ws.spool_dir / "e3.json", "evt-3", ["hello/1.0/build.sh"])
        assert index_writes("run", *config, "--event", event) == 1

    def test_mve_after_an_edit_loads_the_corpus(self, ws, capsys, monkeypatch):
        walks = self.indexed(ws, monkeypatch)
        capsys.readouterr()
        assert self.mve(ws) == 0
        before = capsys.readouterr()
        assert walks == []
        manifest = ws.corpus_root / "hello" / "1.0" / recipes.MANIFEST_NAME
        manifest.write_text(manifest.read_text())  # a new signature, the same recipe
        assert self.mve(ws) == 0
        assert capsys.readouterr() == before
        assert walks == [ws.corpus_root]

    def test_mve_of_a_removed_recipe_is_unknown(self, ws, capsys, monkeypatch):
        walks = self.indexed(ws, monkeypatch)
        shutil.rmtree(ws.corpus_root / "hello")
        capsys.readouterr()
        assert self.mve(ws) == 2
        assert capsys.readouterr().err == "config error: unknown recipe hello/1.0\n"
        assert walks == [ws.corpus_root]

    def test_mve_ignores_a_broken_unrelated_manifest(self, ws, capsys, monkeypatch):
        self.indexed(ws, monkeypatch)
        (ws.corpus_root / "libdemo" / "1.0" / recipes.MANIFEST_NAME).write_text("{broken")
        capsys.readouterr()
        assert self.mve(ws) == 0
        assert "MVE pass: hello/1.0" in capsys.readouterr().out
        event = write_event(ws.spool_dir / "e2.json", "evt-2", ["hello/1.0/build.sh"])
        assert run_cli("run", "--config", ws.config_path, "--event", event) == 1
        assert capsys.readouterr().err.startswith("error: libdemo/1.0/rade.json: ")

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


# Paths inside a recipe, between recipes (a recipe's parent directory, an
# absent version) and outside every recipe.
INSIDE = ("hello/1.0/build.sh", "libdemo/1.0/rade.json", "app/1.0", "hello/1.0/../../app/1.0")
BETWEEN = ("hello", "libdemo/2.0/build.sh", "app/1.0x")
OUTSIDE = ("", ".", "..", "/", "/etc/passwd", "../corpus/hello/1.0", "nowhere/1.0/build.sh")


@settings(derandomize=True, max_examples=30, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.one_of(
                st.from_regex(r"[A-Za-z0-9][A-Za-z0-9._+-]{0,8}", fullmatch=True),
                st.sampled_from(["evt-1", "init", "evt 1", "\u00e9vt-1", "evt-1\n"]),
                st.text(max_size=8),
            ),
            st.lists(
                st.one_of(
                    st.sampled_from(INSIDE),
                    st.sampled_from(BETWEEN + OUTSIDE),
                    st.text(max_size=8),
                ),
                max_size=3,
            ),
        ),
        min_size=1,
        max_size=3,
    )
)
def test_run_any_event_spool(events):
    """``rade run`` over any spool of event documents exits 0, 1 or 2 without
    raising, and leaves a repository whose HEAD reads and that ``status`` and
    ``verify`` accept."""
    with tempfile.TemporaryDirectory() as tmp:
        ws = make_workspace(Path(tmp))
        Repository.init(ws.repo_path)
        for i, (event_id, paths) in enumerate(events):
            write_event(ws.spool_dir / f"e{i}.json", event_id, paths)
        assert run_cli("run", "--config", ws.config_path, "--event", ws.spool_dir) in (0, 1, 2)
        assert run_cli("status", "--config", ws.config_path) == 0
        assert run_cli("verify", "--config", ws.config_path) == 0
        Repository.open(ws.repo_path).read_head()
        assert not recipes.pending_events(ws.spool_dir)


# ``rade`` in a child process whose SIGINT raises KeyboardInterrupt, as it
# does under a terminal, even when the test runner ignores SIGINT.
RADE_CHILD = (
    "import signal, sys\n"
    "signal.signal(signal.SIGINT, signal.default_int_handler)\n"
    "from rade.cli import main\n"
    "sys.exit(main(sys.argv[1:]))\n"
)


def start_rade(*argv):
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    return subprocess.Popen(
        [sys.executable, "-c", RADE_CHILD, *map(str, argv)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
    )


@pytest.mark.parametrize(
    "signum, code, message",
    [(signal.SIGINT, 130, "error: interrupted\n"), (signal.SIGTERM, 143, "error: terminated\n")],
    ids=["SIGINT", "SIGTERM"],
)
def test_signal_stops_the_running_scripts(ws, signum, code, message):
    started, marker = ws.root / "started", ws.root / "late"
    (ws.corpus_root / "hello" / "1.0" / "build.sh").write_text(
        f'#!/bin/sh\nm={marker}\ntouch {started}\nsleep 3; echo late > "$m"\n'
    )
    event = write_event(ws.spool_dir / "e1.json", "evt-1", ["hello/1.0/build.sh"])
    proc = start_rade("run", "--config", ws.config_path, "--event", ws.spool_dir)
    try:
        deadline = time.monotonic() + 60
        while not started.exists():
            assert proc.poll() is None and time.monotonic() < deadline
            time.sleep(0.01)
        began = time.monotonic()
        proc.send_signal(signum)
        out, err = proc.communicate(timeout=30)
        took = time.monotonic() - began
    finally:
        proc.kill()
        proc.communicate()
    assert (proc.returncode, err) == (code, message)
    assert took < 1
    time.sleep(max(0.0, began + 3.5 - time.monotonic()))
    assert not marker.exists()  # the script's sleep died with it
    assert recipes.pending_events(ws.spool_dir) == [event]


@pytest.mark.parametrize(
    "signum, code, message",
    [(signal.SIGINT, 130, "error: interrupted\n"), (signal.SIGTERM, 143, "error: terminated\n")],
    ids=["SIGINT", "SIGTERM"],
)
def test_signal_stops_the_running_researcher_test(ws, signum, code, message):
    event = write_event(ws.spool_dir / "e1.json", "evt-1", ["hello/1.0/build.sh"])
    assert run_cli("run", "--config", ws.config_path, "--event", event) == 0
    cache = ws.root / "cache"
    assert run_cli("sync", "--repo", ws.repo_path, "--cache", cache) == 0
    started, marker = ws.root / "started", ws.root / "late"
    (ws.corpus_root / "hello" / "1.0" / "tests" / "mve.sh").write_text(
        f'#!/bin/sh\nm={marker}\ntouch {started}\nsleep 3; echo late > "$m"\n'
    )
    proc = start_rade(
        "mve", "hello/1.0", "--config", ws.config_path,
        "--target", "x86_64-linux-sitea", "--cache", cache,
    )
    try:
        deadline = time.monotonic() + 60
        while not started.exists():
            assert proc.poll() is None and time.monotonic() < deadline
            time.sleep(0.01)
        began = time.monotonic()
        proc.send_signal(signum)
        out, err = proc.communicate(timeout=30)
        took = time.monotonic() - began
    finally:
        proc.kill()
        proc.communicate()
    assert (proc.returncode, err, out) == (code, message, "")
    assert took < 1
    time.sleep(max(0.0, began + 3.5 - time.monotonic()))
    assert not marker.exists()  # the test's sleep died with it


def parser_outcome(parse, argv, capsys):
    """What parsing ``argv`` printed and how it ended: the exit code, or the
    parsed arguments."""
    try:
        args = parse(argv)
    except SystemExit as exc:
        result = ("exit", exc.code)
    else:
        result = ("parsed", {k: getattr(v, "__name__", v) for k, v in vars(args).items()})
    return result, capsys.readouterr()


@pytest.mark.parametrize(
    "argv",
    [[], ["--help"], ["bogus"], ["-h", "run"]]
    + [[command, "--help"] for command in cli.COMMANDS]
    + [[command] for command in cli.COMMANDS]  # required arguments missing
    + [[command, "--bogus"] for command in cli.COMMANDS]  # left over for the top level
    + [
        ["sync", "--repo", "r", "--cache", "c", "--interval", "-1"],
        ["mve", "a/1", "b/1", "--target", "t", "--cache", "c"],
        ["run", "--config", "c", "--event", "e"],
    ],
    ids=lambda argv: " ".join(argv) or "no-arguments",
)
def test_one_command_parser_reads_as_the_full_one(argv, capsys):
    full = parser_outcome(cli.build_parser().parse_args, argv, capsys)
    assert parser_outcome(cli.parse_args, argv, capsys) == full


def test_a_command_builds_only_its_own_parser():
    for command in cli.COMMANDS:
        [sub] = [a for a in cli.build_parser(command)._actions if a.dest == "command"]
        assert list(sub.choices) == [command]
    [sub] = [a for a in cli.build_parser()._actions if a.dest == "command"]
    assert tuple(sub.choices) == cli.COMMANDS
