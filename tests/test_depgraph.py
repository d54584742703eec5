from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from rade.depgraph import (
    DependencyGraph,
    build_graph,
    build_order,
    rebuild_set,
    resolve_constraint,
)
from rade.errors import (
    DependencyCycle,
    UnknownDependency,
    UnknownNode,
    UnsatisfiableConstraint,
)
from rade.recipes import Corpus, Dependency, Recipe, ScriptSet, SourceSpec
from rade.versions import VersionConstraint

ZEROS = "0" * 64


def make_recipe(name, version, deps=()):
    return Recipe(
        name=name,
        version=version,
        source=SourceSpec(url=f"file:///srv/{name}.tar.gz", sha256=ZEROS),
        scripts=ScriptSet("build.sh", "check-build", "deploy.sh"),
        dependencies=tuple(
            Dependency(dn, VersionConstraint.parse(dc)) for dn, dc in deps
        ),
    )


def make_corpus(*recipes):
    corpus = Corpus(root=None)
    for r in recipes:
        corpus.recipes[r.key] = r
        corpus.dirs[r.key] = f"{r.name}/{r.version}"
    return corpus


# --- independent oracles ---------------------------------------------------


def reachability_oracle(edges, changed):
    """Transitive closure over reversed edges by repeated relaxation."""
    result = set(changed)
    grew = True
    while grew:
        grew = False
        for dependent, dependency in edges:
            if dependency in result and dependent not in result:
                result.add(dependent)
                grew = True
    return result


def topo_oracle(subset, edges):
    """All valid topological orders by permutation enumeration; returns the
    lexicographically least."""
    inner = [(u, d) for (u, d) in edges if u in subset and d in subset]
    valid = []
    for perm in itertools.permutations(sorted(subset)):
        pos = {node: i for i, node in enumerate(perm)}
        if all(pos[d] < pos[u] for (u, d) in inner):
            valid.append(list(perm))
    assert valid, "subset must be acyclic"
    return min(valid)


def random_dag(rng, max_nodes):
    """Random DAG with shuffled names so lexicographic != topological index."""
    n = rng.randint(1, max_nodes)
    names = [(f"p{i:02d}", "1.0") for i in range(n)]
    rng.shuffle(names)
    edges = set()
    for i in range(n):
        for j in range(i):
            if rng.random() < 0.35:
                edges.add((names[i], names[j]))  # later depends on earlier
    return DependencyGraph(nodes=frozenset(names), edges=frozenset(edges))


# --- resolve_constraint ------------------------------------------------------


class TestResolveConstraint:
    def test_at_least_picks_numeric_maximum(self):
        # brute-force oracle: satisfying set of ">=1.2" over {1.1,1.2,1.10}
        # is {1.2, 1.10}; 1.10 wins under numeric component ordering.
        c = VersionConstraint.parse(">=1.2")
        assert resolve_constraint(c, {"1.1", "1.2", "1.10"}) == "1.10"

    def test_exact_identity(self):
        c = VersionConstraint.parse("=1.0")
        assert resolve_constraint(c, {"1.0"}) == "1.0"

    def test_unsatisfiable(self):
        c = VersionConstraint.parse(">=2.0")
        with pytest.raises(UnsatisfiableConstraint):
            resolve_constraint(c, {"1.0", "1.9"})


# --- build_graph ------------------------------------------------------------


class TestBuildGraph:
    def test_single_recipe_no_edges(self):
        graph = build_graph(make_corpus(make_recipe("hello", "1.0")))
        assert graph.nodes == {("hello", "1.0")}
        assert graph.edges == frozenset()

    def test_chain_edges(self):
        corpus = make_corpus(
            make_recipe("app", "1.0", [("libb", ">=1.0")]),
            make_recipe("libb", "1.0", [("libc", ">=1.0")]),
            make_recipe("libc", "1.0"),
        )
        graph = build_graph(corpus)
        assert graph.edges == {
            (("app", "1.0"), ("libb", "1.0")),
            (("libb", "1.0"), ("libc", "1.0")),
        }

    def test_cycle_reported_with_witness(self):
        corpus = make_corpus(
            make_recipe("a", "1.0", [("b", "=1.0")]),
            make_recipe("b", "1.0", [("a", "=1.0")]),
        )
        with pytest.raises(DependencyCycle) as exc:
            build_graph(corpus)
        cycle = exc.value.cycle
        assert cycle[0] == cycle[-1]
        assert {("a", "1.0"), ("b", "1.0")} == set(cycle[:-1])

    def test_deep_chain_without_and_with_cycle(self):
        names = [f"r{i:05d}" for i in range(6000)]
        chain = [
            make_recipe(name, "1.0", [(dep, "=1.0")])
            for name, dep in zip(names, names[1:])
        ]
        graph = build_graph(make_corpus(*chain, make_recipe(names[-1], "1.0")))
        assert len(graph.edges) == 5999
        closing = make_recipe(names[-1], "1.0", [(names[0], "=1.0")])
        with pytest.raises(DependencyCycle) as exc:
            build_graph(make_corpus(*chain, closing))
        assert exc.value.cycle == [(n, "1.0") for n in names + names[:1]]

    def test_unknown_dependency(self):
        corpus = make_corpus(make_recipe("app", "1.0", [("ghost", ">=1.0")]))
        with pytest.raises(UnknownDependency):
            build_graph(corpus)

    def test_constraint_resolves_to_max_available(self):
        corpus = make_corpus(
            make_recipe("app", "1.0", [("lib", ">=1.2")]),
            make_recipe("lib", "1.2"),
            make_recipe("lib", "1.10"),
        )
        graph = build_graph(corpus)
        assert (("app", "1.0"), ("lib", "1.10")) in graph.edges

    def test_one_version_per_dependency_name(self):
        # the exact pin narrows the shared choice for both dependents
        corpus = make_corpus(
            make_recipe("a", "1.0", [("lib", ">=1.0")]),
            make_recipe("b", "1.0", [("lib", "=1.2")]),
            make_recipe("lib", "1.2"),
            make_recipe("lib", "1.3"),
        )
        graph = build_graph(corpus)
        assert (("a", "1.0"), ("lib", "1.2")) in graph.edges
        assert (("b", "1.0"), ("lib", "1.2")) in graph.edges

    def test_conflicting_exact_pins_unsatisfiable(self):
        corpus = make_corpus(
            make_recipe("a", "1.0", [("lib", "=1.2")]),
            make_recipe("b", "1.0", [("lib", "=1.3")]),
            make_recipe("lib", "1.2"),
            make_recipe("lib", "1.3"),
        )
        with pytest.raises(UnsatisfiableConstraint):
            build_graph(corpus)


# --- rebuild_set --------------------------------------------------------------


def chain_graph():
    # b depends on a, c depends on b
    a, b, c = ("a", "1.0"), ("b", "1.0"), ("c", "1.0")
    return (
        DependencyGraph(
            nodes=frozenset([a, b, c]), edges=frozenset([(b, a), (c, b)])
        ),
        a,
        b,
        c,
    )


class TestRebuildSet:
    def test_full_chain_from_root(self):
        graph, a, b, c = chain_graph()
        assert rebuild_set(graph, {a}) == {a, b, c}

    def test_leaf_has_no_dependents(self):
        graph, a, b, c = chain_graph()
        assert rebuild_set(graph, {c}) == {c}

    def test_unknown_node(self):
        graph, *_ = chain_graph()
        with pytest.raises(UnknownNode):
            rebuild_set(graph, {("zz", "1.0")})

    def test_matches_reachability_oracle_on_random_dags(self):
        rng = random.Random(0xC0DE)
        for _ in range(300):
            graph = random_dag(rng, max_nodes=8)
            nodes = sorted(graph.nodes)
            changed = set(rng.sample(nodes, rng.randint(1, len(nodes))))
            assert rebuild_set(graph, changed) == reachability_oracle(
                graph.edges, changed
            )

    def test_idempotent_and_monotone(self):
        rng = random.Random(7)
        for _ in range(100):
            graph = random_dag(rng, max_nodes=8)
            nodes = sorted(graph.nodes)
            small = set(rng.sample(nodes, rng.randint(1, len(nodes))))
            extra = set(rng.sample(nodes, rng.randint(0, len(nodes))))
            once = rebuild_set(graph, small)
            assert rebuild_set(graph, once) == once
            assert once <= rebuild_set(graph, small | extra)


# --- build_order -----------------------------------------------------------------


class TestBuildOrder:
    def test_unique_topological_order(self):
        graph, a, b, c = chain_graph()
        assert build_order(graph, {a, b, c}) == [a, b, c]

    def test_independent_nodes_by_name(self):
        x, y = ("x", "1.0"), ("y", "1.0")
        graph = DependencyGraph(nodes=frozenset([x, y]), edges=frozenset())
        assert build_order(graph, {x, y}) == [x, y]

    def test_matches_permutation_oracle_on_random_dags(self):
        rng = random.Random(0xFEED)
        for _ in range(200):
            graph = random_dag(rng, max_nodes=6)
            nodes = sorted(graph.nodes)
            subset = set(rng.sample(nodes, rng.randint(1, len(nodes))))
            assert build_order(graph, subset) == topo_oracle(subset, graph.edges)

    def test_edges_point_earlier(self):
        rng = random.Random(3)
        for _ in range(100):
            graph = random_dag(rng, max_nodes=8)
            order = build_order(graph, set(graph.nodes))
            pos = {node: i for i, node in enumerate(order)}
            for dependent, dependency in graph.edges:
                assert pos[dependency] < pos[dependent]

    def test_deterministic(self):
        rng = random.Random(11)
        graph = random_dag(rng, max_nodes=8)
        subset = set(graph.nodes)
        assert build_order(graph, subset) == build_order(graph, subset)


@given(st.integers(0, 2**32 - 1))
def test_rebuild_set_closed_under_dependents(seed):
    rng = random.Random(seed)
    graph = random_dag(rng, max_nodes=6)
    nodes = sorted(graph.nodes)
    changed = set(rng.sample(nodes, rng.randint(1, len(nodes))))
    result = rebuild_set(graph, changed)
    for dependent, dependency in graph.edges:
        if dependency in result:
            assert dependent in result


def test_adjacency_matches_edge_scan_and_is_not_compared():
    rng = random.Random(0xAD1)
    for _ in range(100):
        graph = random_dag(rng, max_nodes=8)
        for node in graph.nodes:
            assert graph.deps.get(node, ()) == tuple(sorted(
                dep for (src, dep) in graph.edges if src == node
            ))
            assert graph.dependents.get(node, ()) == tuple(sorted(
                src for (src, dep) in graph.edges if dep == node
            ))
        twin = DependencyGraph(nodes=graph.nodes, edges=graph.edges)
        assert twin == graph and hash(twin) == hash(graph)
