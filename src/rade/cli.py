"""Command-line entry point tying the pipeline together.

Exit codes: 0 success (publication happened or the plan was empty), 1 at
least one job failed (for ``verify``: the repository has a problem), 2
configuration or usage error.
"""
from __future__ import annotations

import argparse
import json
import logging
import sys
from pathlib import Path

from . import depgraph, pipeline, recipes, repo as repo_mod, siteclient
from .config import load_config
from .envtree import DEPLOY, INTEGRATION, EnvTree
from .errors import ConfigError, RadeError
from .targets import parse_target_id

log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_JOB_FAILURE = 1
EXIT_CONFIG = 2

PUBLICATION_MANIFEST = "publication.json"
LAST_RUN_REPORT = "last-run.txt"


def _load_corpus(config) -> recipes.Corpus:
    return recipes.load_corpus(config.corpus_root, config.workdir / recipes.INDEX_NAME)


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
            repo.stage(tx, Path(source), repo_prefix)
        return repo.publish(tx, request.job_id)
    except Exception:
        repo.abort(tx)
        raise


def _save_run_artifacts(config, report: pipeline.RunReport) -> None:
    config.workdir.mkdir(parents=True, exist_ok=True)
    (config.workdir / LAST_RUN_REPORT).write_text(report.render(), encoding="utf-8")
    if report.publication is not None:
        doc = {
            "job_id": report.publication.job_id,
            "stages": [[str(p), rp] for p, rp in report.publication.stages],
        }
        (config.workdir / PUBLICATION_MANIFEST).write_text(
            json.dumps(doc, indent=2) + "\n", encoding="utf-8"
        )


def _run_one_event(config, runner, corpus, graph, event) -> int:
    build_plan = pipeline.plan(event, corpus, graph, config.matrix)
    if build_plan.jobs:  # an older run's publication names prefixes this run rewrites
        (config.workdir / PUBLICATION_MANIFEST).unlink(missing_ok=True)
    report = runner.run_plan(build_plan, config.width)
    _save_run_artifacts(config, report)
    print(report.render(), end="")
    if report.publication is not None:
        head = _publish(config, report.publication)
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


def cmd_run(args) -> int:
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
    for path in paths:
        try:
            event = recipes.load_event(path)
        except RadeError as exc:  # set aside, so it cannot hold up later events
            print(f"error: {exc}", file=sys.stderr)
            recipes.mark_event_rejected(path)
            status = max(status, EXIT_JOB_FAILURE)
            continue
        if event.event_id in seen_ids:
            raise ConfigError(f"duplicate event_id {event.event_id!r} in spool")
        seen_ids.add(event.event_id)
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
        print(report_path.read_text(encoding="utf-8"), end="")
    else:
        print("no run recorded")
    try:
        head = repo_mod.Repository.open(config.repo_path).read_head()
        print(
            f"repo revision {head.revision} job {head.job_id} "
            f"catalog {head.root_catalog.sha256}"
        )
    except RadeError:
        print("repo not initialized")
    return EXIT_OK


def cmd_verify(args) -> int:
    config = load_config(args.config)
    report = repo_mod.Repository.open(config.repo_path).verify()
    problems = report.problems()
    for line in problems:
        print(line)
    print(f"checked {report.checked} objects, problems: {len(problems)}")
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
        isinstance(job_id, str)
        and isinstance(stages, list)
        and all(
            isinstance(stage, list) and len(stage) == 2
            and all(isinstance(value, str) for value in stage)
            for stage in stages
        )
    ):
        raise ConfigError(
            f"bad publication record {manifest}: "
            "expected a job_id string and [path, prefix] string pairs in stages"
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
    corpus = _load_corpus(config)
    if (name, version) not in corpus:
        raise ConfigError(f"unknown recipe {args.recipe}")
    recipe = corpus.recipes[(name, version)]
    try:
        target = parse_target_id(args.target)
    except RadeError as exc:
        raise ConfigError(str(exc)) from exc
    repo_path = Path(args.repo) if args.repo else config.repo_path
    cache = siteclient.SiteCache(repo_path, Path(args.cache))
    report = cache.run_mve(
        recipe, target, corpus.recipe_dir((name, version)), config.phase_timeout_s
    )
    print(report.output, end="")
    print(
        f"MVE {'pass' if report.passed else 'fail'}: {args.recipe} "
        f"on {args.target} at revision {report.revision}"
    )
    return EXIT_OK if report.passed else EXIT_JOB_FAILURE


def build_parser() -> argparse.ArgumentParser:
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

    p = sub.add_parser("run", parents=[common], help="process a commit event end to end")
    p.add_argument("--event", required=True, help="event file or spool directory")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser(
        "validate", parents=[common], help="parse every manifest and build the graph"
    )
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("resolve", parents=[common], help="print the build plan for an event")
    p.add_argument("--event", required=True)
    p.set_defaults(func=cmd_resolve)

    p = sub.add_parser(
        "status", parents=[common], help="show the last run report and repo head"
    )
    p.set_defaults(func=cmd_status)

    p = sub.add_parser(
        "verify",
        parents=[common],
        help="re-hash every stored object and check the head's closure",
    )
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser(
        "publish", parents=[common], help="re-publish the last successful run"
    )
    p.set_defaults(func=cmd_publish)

    p = sub.add_parser("sync", help="sync a site cache from the repository")
    p.add_argument("--repo", required=True)
    p.add_argument("--cache", required=True)
    p.add_argument("--interval", type=float, default=1.0, help="poll interval seconds")
    p.add_argument("--attempts", type=int, default=1, help="poll attempts before giving up")
    p.set_defaults(func=cmd_sync)

    p = sub.add_parser(
        "mve", parents=[common], help="run a delivered recipe's researcher tests"
    )
    p.add_argument("recipe", help="<name>/<version>")
    p.add_argument("--target", required=True, help="<arch>-<os>-<site>")
    p.add_argument("--cache", required=True)
    p.add_argument("--repo", default=None, help="repository (default: config repo_path)")
    p.set_defaults(func=cmd_mve)

    return parser


def main(argv=None) -> int:
    logging.basicConfig(
        level=logging.WARNING, format="%(levelname)s %(name)s: %(message)s"
    )
    args = build_parser().parse_args(argv)
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
