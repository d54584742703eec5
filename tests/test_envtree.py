from __future__ import annotations

import pytest

from rade.depgraph import DependencyGraph
from rade.envtree import (
    DEPLOY,
    INTEGRATION,
    EnvTree,
    apply_directives,
    env_var_name,
    modulefile_path,
    module_path_for_dependencies,
    parse_directives,
    prefix_for,
    render_modulefile,
    write_modulefile,
)
from rade.errors import (
    EmptyInstallation,
    InvariantViolation,
    MissingDependencyInstallation,
)
from rade.targets import Target
from test_depgraph import make_recipe

TARGET = Target("x86_64", "centos7", "siteA")


def test_prefix_layout():
    tree = EnvTree(DEPLOY, root="/srv/deploy")
    assert (
        str(prefix_for(tree, TARGET, "hello", "1.0"))
        == "/srv/deploy/x86_64/centos7/siteA/hello/1.0"
    )


def test_prefix_differs_only_in_site_segment():
    tree = EnvTree(DEPLOY, root="/srv/deploy")
    a = str(prefix_for(tree, TARGET, "hello", "1.0"))
    b = str(prefix_for(tree, Target("x86_64", "centos7", "siteB"), "hello", "1.0"))
    assert a != b
    assert a.replace("/siteA/", "/siteB/") == b


def test_prefixes_for_similar_names_distinct():
    tree = EnvTree(INTEGRATION, root="/srv/int")
    assert prefix_for(tree, TARGET, "hello", "1.0") != prefix_for(
        tree, TARGET, "hello2", "1.0"
    )


def test_modulefile_path_under_modulefiles():
    tree = EnvTree(DEPLOY, root="/srv/deploy")
    assert (
        str(modulefile_path(tree, TARGET, "hello", "1.0"))
        == "/srv/deploy/modulefiles/x86_64/centos7/siteA/hello/1.0"
    )


def test_env_var_name_mapping():
    assert env_var_name("hello") == "HELLO"
    assert env_var_name("py-yaml.2") == "PY_YAML_2"


class TestRenderModulefile:
    def test_bin_only(self, tmp_path):
        (tmp_path / "bin").mkdir()
        text = render_modulefile(make_recipe("hello", "1.0"), TARGET, tmp_path)
        assert text == (
            "#%Module1.0\n"
            'module-whatis "hello/1.0 for x86_64-centos7-siteA (CODE-RADE pipeline)"\n'
            f"prepend-path PATH {tmp_path}/bin\n"
            f"setenv HELLO_DIR {tmp_path}\n"
        )
        assert "LD_LIBRARY_PATH" not in text

    def test_bin_and_lib_order(self, tmp_path):
        (tmp_path / "bin").mkdir()
        (tmp_path / "lib").mkdir()
        lines = render_modulefile(make_recipe("hello", "1.0"), TARGET, tmp_path).splitlines()
        assert lines[2] == f"prepend-path PATH {tmp_path}/bin"
        assert lines[3] == f"prepend-path LD_LIBRARY_PATH {tmp_path}/lib"
        assert lines[4] == f"setenv HELLO_DIR {tmp_path}"

    def test_empty_prefix_rejected(self, tmp_path):
        with pytest.raises(EmptyInstallation):
            render_modulefile(make_recipe("hello", "1.0"), TARGET, tmp_path)

    def test_deterministic(self, tmp_path):
        (tmp_path / "lib").mkdir()
        recipe = make_recipe("libdemo", "1.0")
        first = render_modulefile(recipe, TARGET, tmp_path)
        second = render_modulefile(recipe, TARGET, tmp_path)
        assert first == second


class TestDependencyModulePaths:
    def test_no_deps_empty_list(self, tmp_path):
        graph = DependencyGraph(nodes=frozenset([("solo", "1.0")]), edges=frozenset())
        tree = EnvTree(INTEGRATION, root=tmp_path)
        assert (
            module_path_for_dependencies(graph, make_recipe("solo", "1.0"), tree, TARGET)
            == []
        )

    def test_single_dep_path(self, tmp_path):
        app, fftw = ("app", "1.0"), ("fftw", "3.3")
        graph = DependencyGraph(
            nodes=frozenset([app, fftw]), edges=frozenset([(app, fftw)])
        )
        tree = EnvTree(INTEGRATION, root=tmp_path)
        prefix = prefix_for(tree, TARGET, "fftw", "3.3")
        (prefix / "lib").mkdir(parents=True)
        write_modulefile(tree, make_recipe("fftw", "3.3"), TARGET)
        paths = module_path_for_dependencies(
            graph, make_recipe("app", "1.0"), tree, TARGET
        )
        assert paths == [modulefile_path(tree, TARGET, "fftw", "3.3")]

    def test_dep_for_other_target_only_is_missing(self, tmp_path):
        app, fftw = ("app", "1.0"), ("fftw", "3.3")
        graph = DependencyGraph(
            nodes=frozenset([app, fftw]), edges=frozenset([(app, fftw)])
        )
        tree = EnvTree(INTEGRATION, root=tmp_path)
        other = Target("aarch64", "centos7", "siteA")
        prefix = prefix_for(tree, other, "fftw", "3.3")
        (prefix / "lib").mkdir(parents=True)
        write_modulefile(tree, make_recipe("fftw", "3.3"), other)
        with pytest.raises(MissingDependencyInstallation):
            module_path_for_dependencies(graph, make_recipe("app", "1.0"), tree, TARGET)


class TestDirectives:
    def test_round_trip_of_rendered_template(self, tmp_path):
        (tmp_path / "bin").mkdir()
        (tmp_path / "lib").mkdir()
        text = render_modulefile(make_recipe("hello", "1.0"), TARGET, tmp_path)
        directives = parse_directives(text)
        assert directives == [
            ("prepend-path", "PATH", f"{tmp_path}/bin"),
            ("prepend-path", "LD_LIBRARY_PATH", f"{tmp_path}/lib"),
            ("setenv", "HELLO_DIR", str(tmp_path)),
        ]

    def test_apply_prepends_and_sets(self):
        env = apply_directives(
            {"PATH": "/usr/bin"},
            [
                ("prepend-path", "PATH", "/opt/bin"),
                ("prepend-path", "LD_LIBRARY_PATH", "/opt/lib"),
                ("setenv", "HELLO_DIR", "/opt"),
            ],
        )
        assert env == {
            "PATH": "/opt/bin:/usr/bin",
            "LD_LIBRARY_PATH": "/opt/lib",
            "HELLO_DIR": "/opt",
        }

    def test_unknown_directive_rejected(self):
        with pytest.raises(InvariantViolation):
            parse_directives("module load foo\n")
