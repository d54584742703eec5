"""Command-line entry point tying the pipeline together.

Exit codes: 0 success (publication happened or the plan was empty), 1 at
least one job failed (for ``verify``: the repository or site cache has a
problem), 2 configuration or usage error; ``run`` stopped by SIGINT exits
130, by SIGTERM 143.
"""
from __future__ import annotations

import argparse
import json
import logging
import signal
import sys
import threading
from pathlib import Path

from . import depgraph, pipeline, recipes, repo as repo_mod, siteclient
from .config import load_config
from .envtree import DEPLOY, INTEGRATION, EnvTree
from .errors import (
    ConfigError,
    InvariantViolation,
    PathCollision,
    RadeError,
    SchemaViolation,
    StoreWriteFailure,
)
from .targets import parse_target_id

log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_JOB_FAILURE = 1
EXIT_CONFIG = 2
EXIT_INTERRUPTED = 128 + signal.SIGINT
EXIT_TERMINATED = 128 + signal.SIGTERM

PUBLICATION_MANIFEST = "publication.json"
LAST_RUN_REPORT = "last-run.txt"


def _load_corpus(config) -> recipes.Corpus:
    return recipes.load_corpus(config.corpus_root, config.workdir / recipes.INDEX_NAME)


def _find_recipe(config, key: tuple[str, str]) -> tuple[recipes.Recipe, Path]:
    """One recipe and its directory: from the corpus index if it vouches for
    them, else from a full load."""
    found = recipes.find_recipe(
        config.corpus_root, config.workdir / recipes.INDEX_NAME, key
    )
    if found is not None:
        return found
    corpus = _load_corpus(config)
    if key not in corpus:
        raise ConfigError(f"unknown recipe {key[0]}/{key[1]}")
    return corpus.recipes[key], corpus.recipe_dir(key)


def _build_runner(config):
    corpus = _load_corpus(config)
    graph = depgraph.build_graph(corpus)
    runner = pipeline.JobRunner(
        corpus=corpus,
        graph=graph,
        matrix=config.matrix,
        integration=EnvTree(INTEGRATION, config.integration_root),
        deploy=EnvTree(DEPLOY, config.deploy_root),
        workdir=config.workdir,
        ops_tests=config.ops_tests,
        phase_timeout_s=config.phase_timeout_s,
    )
    return corpus, graph, runner


def _publish(config, request: pipeline.PublicationRequest) -> repo_mod.RepoHead:
    repo = repo_mod.Repository.init(config.repo_path)
    tx = repo.begin_transaction(wait_s=30.0)
    try:
        for source, repo_prefix in request.stages:
            repo.stage(tx, Path(source), repo_prefix, config.deploy_root)
        return repo.publish(tx, request.job_id)
    except BaseException:  # an interrupt too must not keep the writer lock
        repo.abort(tx)
        raise


def _save_run_artifacts(config, report: pipeline.RunReport) -> None:
    path = config.workdir / LAST_RUN_REPORT
    try:
        config.workdir.mkdir(parents=True, exist_ok=True)
        repo_mod.write_atomic(path, report.render().encode("utf-8"))
        if report.publication is not None:
            stages = [[str(p), rp] for p, rp in report.publication.stages]
            doc = json.dumps({"job_id": report.publication.job_id, "stages": stages}, indent=2)
            path = config.workdir / PUBLICATION_MANIFEST
            repo_mod.write_atomic(path, (doc + "\n").encode())
    except OSError as exc:  # e.g. a full disk
        raise StoreWriteFailure(f"cannot write {path}: {exc.strerror}") from exc


def _run_one_event(config, runner, corpus, graph, event) -> int:
    build_plan = pipeline.plan(event, corpus, graph, config.matrix)
    if build_plan.jobs:  # an older run's publication names prefixes this run rewrites
        (config.workdir / PUBLICATION_MANIFEST).unlink(missing_ok=True)
    report = runner.run_plan(build_plan, config.width)
    _save_run_artifacts(config, report)
    print(report.render(), end="")
    if report.publication is not None:
        try:
            head = _publish(config, report.publication)
        except (InvariantViolation, PathCollision) as exc:  # fails this event alone
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_JOB_FAILURE
        print(f"published revision {head.revision} (job {head.job_id})")
        return EXIT_OK
    if not build_plan.jobs:
        print("empty plan: nothing to do")
        return EXIT_OK
    return EXIT_JOB_FAILURE


def _event_path(args) -> Path:
    event_path = Path(args.event)
    if not event_path.exists():
        raise ConfigError(f"event path not found: {event_path}")
    return event_path


class _Terminated(BaseException):
    """SIGTERM, raised in the main thread as SIGINT raises KeyboardInterrupt."""


def _raise_terminated(signum, frame):
    raise _Terminated


def cmd_run(args) -> int:
    """Run the event or spool; SIGINT or SIGTERM stops it with exit 130 or
    143, leaving the event it was running pending."""
    main_thread = threading.current_thread() is threading.main_thread()
    if main_thread:  # only the main thread may set a handler
        previous = signal.signal(signal.SIGTERM, _raise_terminated)
    try:
        return _run_events(args)
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED
    except _Terminated:
        print("error: terminated", file=sys.stderr)
        return EXIT_TERMINATED
    finally:
        if main_thread:
            signal.signal(signal.SIGTERM, previous)


def _run_events(args) -> int:
    config = load_config(args.config)
    corpus, graph, runner = _build_runner(config)
    event_path = _event_path(args)
    if event_path.is_dir():
        paths = recipes.pending_events(event_path)
        if not paths:
            print("event spool is empty")
            return EXIT_OK
    else:
        paths = [event_path]
    status = EXIT_OK
    seen_ids = set()
    # An event whose id is HEAD's job was published by a run that stopped
    # before marking it done; revision 0 published no event. One read serves
    # the loop: an event published here puts its id in seen_ids, so a later
    # event with that id is a duplicate.
    try:
        head = repo_mod.Repository.open(config.repo_path).read_head()
    except RadeError:  # no repository, or a HEAD that cannot be read
        head = None
    for path in paths:
        try:
            event = recipes.load_event(path)
            if event.event_id in seen_ids:
                raise SchemaViolation(
                    f"{path}: duplicate event_id {event.event_id!r} in spool"
                )
        except RadeError as exc:  # set aside, so it cannot hold up later events
            print(f"error: {exc}", file=sys.stderr)
            recipes.mark_event_rejected(path)
            status = max(status, EXIT_JOB_FAILURE)
            continue
        seen_ids.add(event.event_id)
        if head is not None and head.revision and event.event_id == head.job_id:
            print(f"event {event.event_id} already published as revision {head.revision}")
            rc = EXIT_OK
        else:
            rc = _run_one_event(config, runner, corpus, graph, event)
        recipes.mark_event_done(path)
        status = max(status, rc)
    return status


def cmd_validate(args) -> int:
    config = load_config(args.config)
    scanned = list(recipes.scan_corpus(config.corpus_root))
    failures = [
        f"{rel_dir}/{recipes.MANIFEST_NAME}: {error}"
        for rel_dir, _, error in scanned
        if error is not None
    ]
    if failures:
        for line in failures:
            print(line, file=sys.stderr)
        return EXIT_JOB_FAILURE
    try:
        corpus = recipes.index_corpus(config.corpus_root, scanned)
        depgraph.build_graph(corpus)
    except RadeError as exc:
        print(f"graph error: {exc}", file=sys.stderr)
        return EXIT_JOB_FAILURE
    print(f"OK {len(scanned)} recipes")
    return EXIT_OK


def cmd_resolve(args) -> int:
    config = load_config(args.config)
    corpus = _load_corpus(config)
    graph = depgraph.build_graph(corpus)
    event = recipes.load_event(_event_path(args))
    build_plan = pipeline.plan(event, corpus, graph, config.matrix)
    for line in build_plan.lines():
        print(line)
    return EXIT_OK


def cmd_status(args) -> int:
    config = load_config(args.config)
    report_path = config.workdir / LAST_RUN_REPORT
    if report_path.is_file():
        # the report is ours, but a damaged one must not end the command
        print(report_path.read_text(encoding="utf-8", errors="replace"), end="")
    else:
        print("no run recorded")
    try:
        repository = repo_mod.Repository.open(config.repo_path)
    except RadeError:  # no HEAD
        print("repo not initialized")
        return EXIT_OK
    try:
        head = repository.read_head()
    except RadeError as exc:
        print(f"repo error: {exc}")
        return EXIT_OK
    print(
        f"repo revision {head.revision} job {head.job_id} "
        f"catalog {head.root_catalog.sha256}"
    )
    return EXIT_OK


def cmd_verify(args) -> int:
    config = load_config(args.config)
    if args.cache is None:
        report = repo_mod.Repository.open(config.repo_path).verify()
        checked = f"{report.checked} objects"
    else:
        report = siteclient.SiteCache(config.repo_path, Path(args.cache)).verify()
        checked = f"{report.checked} objects and {report.paths} tree paths"
    problems = report.problems()
    for line in problems:
        print(line)
    print(f"checked {checked}, problems: {len(problems)}")
    return EXIT_JOB_FAILURE if problems else EXIT_OK


def _read_publication(manifest: Path) -> pipeline.PublicationRequest:
    """The request ``_save_run_artifacts`` recorded; anything else is a
    :class:`ConfigError`."""
    try:
        doc = json.loads(manifest.read_text(encoding="utf-8"))
    except (OSError, ValueError, RecursionError) as exc:
        raise ConfigError(f"bad publication record {manifest}: {exc}") from exc
    if not isinstance(doc, dict):
        doc = {}
    job_id, stages = doc.get("job_id"), doc.get("stages")
    if not (
        # the job id ends the HEAD line, as an event id does
        isinstance(job_id, str) and recipes.EVENT_ID_RE.match(job_id)
        and isinstance(stages, list)
        and all(
            isinstance(stage, list) and len(stage) == 2
            and all(isinstance(value, str) for value in stage)
            for stage in stages
        )
    ):
        raise ConfigError(
            f"bad publication record {manifest}: "
            "expected a job_id in the event_id grammar and "
            "[path, prefix] string pairs in stages"
        )
    return pipeline.PublicationRequest(
        job_id=job_id, stages=tuple((Path(p), rp) for p, rp in stages)
    )


def cmd_publish(args) -> int:
    config = load_config(args.config)
    manifest = config.workdir / PUBLICATION_MANIFEST
    if not manifest.is_file():
        raise ConfigError(f"no publication recorded at {manifest}")
    request = _read_publication(manifest)
    head = _publish(config, request)
    print(f"published revision {head.revision} (job {head.job_id})")
    return EXIT_OK


def cmd_sync(args) -> int:
    cache = siteclient.SiteCache(Path(args.repo), Path(args.cache))
    head = siteclient.poll_until_changed(
        cache, interval_s=args.interval, attempts=args.attempts
    )
    if head is None:
        print("unchanged")
        return EXIT_OK
    report = cache.sync(head)
    print(report.render())
    return EXIT_OK


def cmd_mve(args) -> int:
    config = load_config(args.config)
    try:
        name, version = args.recipe.split("/", 1)
    except ValueError:
        raise ConfigError("recipe must be given as <name>/<version>") from None
    recipe, recipe_dir = _find_recipe(config, (name, version))
    try:
        target = parse_target_id(args.target)
    except RadeError as exc:
        raise ConfigError(str(exc)) from exc
    repo_path = Path(args.repo) if args.repo else config.repo_path
    cache = siteclient.SiteCache(repo_path, Path(args.cache))
    report = cache.run_mve(recipe, target, recipe_dir, config.phase_timeout_s)
    print(report.output, end="")
    print(
        f"MVE {'pass' if report.passed else 'fail'}: {args.recipe} "
        f"on {args.target} at revision {report.revision}"
    )
    return EXIT_OK if report.passed else EXIT_JOB_FAILURE


def _seconds(text: str) -> float:
    """A poll interval: a finite number of seconds, at least 0."""
    value = float(text)  # argparse reports a ValueError as a usage error too
    if not 0 <= value < float("inf"):
        raise argparse.ArgumentTypeError(f"not a non-negative number of seconds: {text!r}")
    return value


COMMANDS = ("run", "validate", "resolve", "status", "verify", "publish", "sync", "mve")


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The ``rade`` parser. Given one of :data:`COMMANDS`, it holds that
    subcommand alone, which parses the command's arguments as the full
    parser does; only the full parser can report an error above them."""
    parser = argparse.ArgumentParser(
        prog="rade",
        description="Commit-triggered build/test/deliver pipeline with a "
        "content-addressed delivery repository.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--config", type=Path, default=None, help="config file (or $RADE_CONFIG)"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def wanted(name: str) -> bool:
        return command is None or command == name

    if wanted("run"):
        p = sub.add_parser("run", parents=[common], help="process a commit event end to end")
        p.add_argument("--event", required=True, help="event file or spool directory")
        p.set_defaults(func=cmd_run)

    if wanted("validate"):
        p = sub.add_parser(
            "validate", parents=[common], help="parse every manifest and build the graph"
        )
        p.set_defaults(func=cmd_validate)

    if wanted("resolve"):
        p = sub.add_parser(
            "resolve", parents=[common], help="print the build plan for an event"
        )
        p.add_argument("--event", required=True)
        p.set_defaults(func=cmd_resolve)

    if wanted("status"):
        p = sub.add_parser(
            "status", parents=[common], help="show the last run report and repo head"
        )
        p.set_defaults(func=cmd_status)

    if wanted("verify"):
        p = sub.add_parser(
            "verify",
            parents=[common],
            help="re-hash every stored object and check the head's closure",
        )
        p.add_argument(
            "--cache",
            default=None,
            help="verify this site cache's objects and live tree instead",
        )
        p.set_defaults(func=cmd_verify)

    if wanted("publish"):
        p = sub.add_parser(
            "publish", parents=[common], help="re-publish the last successful run"
        )
        p.set_defaults(func=cmd_publish)

    if wanted("sync"):
        p = sub.add_parser("sync", help="sync a site cache from the repository")
        p.add_argument("--repo", required=True)
        p.add_argument("--cache", required=True)
        p.add_argument("--interval", type=_seconds, default=1.0, help="poll interval seconds")
        p.add_argument("--attempts", type=int, default=1, help="poll attempts before giving up")
        p.set_defaults(func=cmd_sync)

    if wanted("mve"):
        p = sub.add_parser(
            "mve", parents=[common], help="run a delivered recipe's researcher tests"
        )
        p.add_argument("recipe", help="<name>/<version>")
        p.add_argument("--target", required=True, help="<arch>-<os>-<site>")
        p.add_argument("--cache", required=True)
        p.add_argument("--repo", default=None, help="repository (default: config repo_path)")
        p.set_defaults(func=cmd_mve)

    return parser


def parse_args(argv=None) -> argparse.Namespace:
    """Parse a command line, building only the parser of the command it runs.

    The full parser takes over when there is no command, an unknown one or
    an option before it, and for arguments the command's parser leaves
    over, so every help, usage and error text is the full parser's."""
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv and argv[0] in COMMANDS:
        args, extra = build_parser(argv[0]).parse_known_args(argv)
        if not extra:
            return args
    return build_parser().parse_args(argv)


def main(argv=None) -> int:
    logging.basicConfig(
        level=logging.WARNING, format="%(levelname)s %(name)s: %(message)s"
    )
    args = parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except RadeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_JOB_FAILURE


if __name__ == "__main__":
    sys.exit(main())
