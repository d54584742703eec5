from __future__ import annotations

import json
import re

import pytest

from rade.cli import main
from rade.config import load_config
from rade.errors import ConfigError
from toycorpus import make_workspace


@pytest.fixture
def ws(tmp_path):
    return make_workspace(tmp_path)


def rewrite(ws, mutate):
    doc = json.loads(ws.config_path.read_text())
    mutate(doc)
    ws.config_path.write_text(json.dumps(doc))


def test_loads_valid_config(ws):
    config = load_config(ws.config_path)
    assert config.corpus_root == ws.corpus_root
    assert config.matrix.arches == ("x86_64",)
    assert config.width == 2
    assert config.phase_timeout_s == 60


def test_relative_paths_resolve_against_config_dir(ws):
    rewrite(ws, lambda d: d.update(corpus_root="corpus", workdir="work2"))
    config = load_config(ws.config_path)
    assert config.corpus_root == ws.root / "corpus"
    assert config.workdir == ws.root / "work2"


def test_missing_file(tmp_path):
    with pytest.raises(ConfigError):
        load_config(tmp_path / "absent.json")


def test_no_path_and_no_env(monkeypatch):
    monkeypatch.delenv("RADE_CONFIG", raising=False)
    with pytest.raises(ConfigError):
        load_config(None)


def test_env_var_fallback(ws, monkeypatch):
    monkeypatch.setenv("RADE_CONFIG", str(ws.config_path))
    assert load_config(None).corpus_root == ws.corpus_root


def test_paths_must_be_distinct(ws):
    rewrite(ws, lambda d: d.update(deploy_root=d["integration_root"]))
    with pytest.raises(ConfigError, match="distinct"):
        load_config(ws.config_path)


def test_width_must_be_positive(ws):
    rewrite(ws, lambda d: d.update(width=0))
    with pytest.raises(ConfigError):
        load_config(ws.config_path)


def test_missing_required_key(ws):
    rewrite(ws, lambda d: d.pop("matrix"))
    with pytest.raises(ConfigError, match="matrix"):
        load_config(ws.config_path)


def test_missing_corpus_root(ws):
    rewrite(ws, lambda d: d.update(corpus_root=str(ws.root / "nope")))
    with pytest.raises(ConfigError, match="corpus_root"):
        load_config(ws.config_path)


def test_missing_ops_command(ws):
    rewrite(
        ws,
        lambda d: d.update(
            ops_tests=[{"name": "ghost", "command": str(ws.root / "ghost.sh")}]
        ),
    )
    with pytest.raises(ConfigError, match="ghost"):
        load_config(ws.config_path)


def test_malformed_json(ws):
    ws.config_path.write_text("{nope")
    with pytest.raises(ConfigError):
        load_config(ws.config_path)


@pytest.mark.parametrize("binding", ["ARCH=ppc", "INSTALL_PREFIX=/x"])
def test_site_env_may_not_bind_reserved_names(ws, binding):
    rewrite(ws, lambda d: d["matrix"].update(site_env={"sitea": [binding]}))
    name = binding.partition("=")[0]
    with pytest.raises(ConfigError, match=f"site_env for sitea binds reserved name {name}"):
        load_config(ws.config_path)


@pytest.mark.parametrize(
    "content", [b"\xff\xfe{}", b"[" * 100_000], ids=["not_utf8", "nested_too_deep"]
)
def test_unparseable_config_is_config_error(ws, capsys, content):
    ws.config_path.write_bytes(content)
    with pytest.raises(ConfigError, match=re.escape(str(ws.config_path))):
        load_config(ws.config_path)
    assert main(["validate", "--config", str(ws.config_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {ws.config_path}: ")
    assert err.count("\n") == 1
