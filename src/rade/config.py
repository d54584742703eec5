"""Orchestrator configuration (``rade.config.json``)."""
from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path

from .errors import ConfigError
from .pipeline import RESERVED_ENV_NAMES, OpsTest
from .targets import MatrixConfig

CONFIG_ENV_VAR = "RADE_CONFIG"


@dataclass(frozen=True)
class OrchestratorConfig:
    corpus_root: Path
    workdir: Path
    integration_root: Path
    deploy_root: Path
    repo_path: Path
    matrix: MatrixConfig
    ops_tests: tuple[OpsTest, ...] = ()
    width: int = 2
    phase_timeout_s: int = 600

    def __post_init__(self):
        paths = [
            self.corpus_root,
            self.workdir,
            self.integration_root,
            self.deploy_root,
            self.repo_path,
        ]
        resolved = [Path(p).resolve() for p in paths]
        if len(set(resolved)) != len(resolved):
            raise ConfigError("corpus/work/integration/deploy/repo paths must be distinct")
        if self.width < 1:
            raise ConfigError("width must be >= 1")
        if self.phase_timeout_s < 1:
            raise ConfigError("phase_timeout_s must be >= 1")


def _path(base: Path, value: str) -> Path:
    p = Path(value)
    return p if p.is_absolute() else base / p


def load_config(path: Path | None) -> OrchestratorConfig:
    """Load and validate a config file; falls back to $RADE_CONFIG."""
    if path is None:
        env = os.environ.get(CONFIG_ENV_VAR)
        if not env:
            raise ConfigError(f"no config path given and {CONFIG_ENV_VAR} unset")
        path = Path(env)
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError, RecursionError) as exc:
        # ValueError covers UnicodeDecodeError and JSONDecodeError
        raise ConfigError(f"{path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: config must be a JSON object")

    base = path.parent.resolve()
    try:
        matrix_doc = doc["matrix"]
        matrix = MatrixConfig(
            arches=tuple(matrix_doc["arches"]),
            oses=tuple(matrix_doc["oses"]),
            sites=tuple(matrix_doc["sites"]),
            site_env={
                site: tuple(bindings)
                for site, bindings in matrix_doc.get("site_env", {}).items()
            },
        )
        ops_tests = tuple(
            OpsTest(name=entry["name"], command=_path(base, entry["command"]))
            for entry in doc.get("ops_tests", [])
        )
        config = OrchestratorConfig(
            corpus_root=_path(base, doc["corpus_root"]),
            workdir=_path(base, doc["workdir"]),
            integration_root=_path(base, doc["integration_root"]),
            deploy_root=_path(base, doc["deploy_root"]),
            repo_path=_path(base, doc["repo_path"]),
            matrix=matrix,
            ops_tests=ops_tests,
            width=int(doc.get("width", 2)),
            phase_timeout_s=int(doc.get("phase_timeout_s", 600)),
        )
    except ConfigError:
        raise
    except KeyError as exc:
        raise ConfigError(f"{path}: missing config key {exc}") from exc
    except Exception as exc:  # noqa: BLE001 - surface any malformed field
        raise ConfigError(f"{path}: {exc}") from exc

    for site in matrix.site_env:
        reserved = sorted(RESERVED_ENV_NAMES.intersection(matrix.extra_env(site)))
        if reserved:
            raise ConfigError(
                f"{path}: site_env for {site} binds reserved name {', '.join(reserved)}"
            )

    if not config.corpus_root.is_dir():
        raise ConfigError(f"corpus_root does not exist: {config.corpus_root}")
    for ops in config.ops_tests:
        if not Path(ops.command).is_file():
            raise ConfigError(f"ops test {ops.name}: command not found: {ops.command}")
    return config
