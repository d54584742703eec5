"""Dependency resolution, the rebuild set, and deterministic build ordering.

Edges point dependent -> dependency. Exactly one version of each dependency
name is resolved per graph: the constraints of every dependent are intersected
over the corpus versions and the maximum surviving version wins, so
conflicting exact pins surface as UnsatisfiableConstraint instead of a
diamond.
"""
from __future__ import annotations

import heapq
from collections import defaultdict
from dataclasses import dataclass, field

from .errors import DependencyCycle, UnknownDependency, UnsatisfiableConstraint
from .recipes import Corpus
from .targets import Target, target_id
from .versions import VersionConstraint, max_version

Node = tuple[str, str]


@dataclass(frozen=True)
class DependencyGraph:
    nodes: frozenset[Node]
    edges: frozenset[tuple[Node, Node]]
    # Adjacency built once from ``edges``: sorted tuples per node, absent
    # for a node without any.
    deps: dict[Node, tuple[Node, ...]] = field(
        init=False, repr=False, compare=False
    )
    dependents: dict[Node, tuple[Node, ...]] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self):
        deps, dependents = defaultdict(list), defaultdict(list)
        for src, dep in self.edges:
            deps[src].append(dep)
            dependents[dep].append(src)
        object.__setattr__(
            self, "deps", {n: tuple(sorted(v)) for n, v in deps.items()}
        )
        object.__setattr__(
            self, "dependents", {n: tuple(sorted(v)) for n, v in dependents.items()}
        )


@dataclass(frozen=True)
class BuildPlan:
    """Ordered (name, version, target) jobs for one commit event."""

    jobs: tuple[tuple[str, str, Target], ...]
    rationale: dict[Node, str] = field(default_factory=dict)
    event_id: str = ""

    def lines(self) -> list[str]:
        return [
            f"{name}/{version} {target_id(t)} {self.rationale[(name, version)]}"
            for name, version, t in self.jobs
        ]


def build_graph(corpus: Corpus) -> DependencyGraph:
    """Resolve every dependency against the corpus and verify acyclicity.

    The edges the index of an indexed load vouches for (``corpus.index``)
    are those of a ``build_graph`` that succeeded on this very recipe set, so
    they are taken as they are. Otherwise the edges resolved here are
    recorded in that index, if there is one: this is the index file's only
    write. It is also written when the load listed a corpus directory
    afresh, so that the next load need not. An error is never recorded.
    """
    index = corpus.index
    if index is not None and index.edges is not None:
        graph = DependencyGraph(nodes=frozenset(corpus.recipes), edges=index.edges)
        if index.relisted:
            index.write(graph.edges)
        return graph
    versions: dict[str, list[str]] = defaultdict(list)
    for name, version in corpus.recipes:
        versions[name].append(version)
    constraints: dict[str, list[tuple[Node, VersionConstraint]]] = defaultdict(list)
    for recipe in corpus.recipes.values():
        for dep in recipe.dependencies:
            if dep.name not in versions:
                raise UnknownDependency(
                    f"{recipe.name}/{recipe.version} depends on unknown {dep.name!r}"
                )
            constraints[dep.name].append((recipe.key, dep.constraint))

    chosen: dict[str, str] = {}
    for name, wanted in constraints.items():
        available = versions[name]
        satisfying = [
            v for v in available if all(c.accepts(v) for (_, c) in wanted)
        ]
        if not satisfying:
            detail = ", ".join(f"{n}/{v} wants {c}" for ((n, v), c) in wanted)
            raise UnsatisfiableConstraint(
                f"no version of {name} satisfies all of: {detail} "
                f"(available: {sorted(available)})"
            )
        chosen[name] = max_version(satisfying)

    edges = set()
    for recipe in corpus.recipes.values():
        for dep in recipe.dependencies:
            edges.add((recipe.key, (dep.name, chosen[dep.name])))

    graph = DependencyGraph(
        nodes=frozenset(corpus.recipes), edges=frozenset(edges)
    )
    cycle = _find_cycle(graph)
    if cycle:
        raise DependencyCycle(cycle)
    if index is not None:
        index.write(graph.edges)
    return graph


def _find_cycle(graph: DependencyGraph) -> list[Node] | None:
    state: dict[Node, int] = {}  # 1 = on the path, 2 = done
    for root in sorted(graph.nodes):
        if root in state:
            continue
        # Depth-first, with one iterator over sorted successors per path node.
        state[root] = 1
        path = [root]
        pending = [iter(graph.deps.get(root, ()))]
        while pending:
            for nxt in pending[-1]:
                mark = state.get(nxt)
                if mark == 1:
                    return path[path.index(nxt):] + [nxt]
                if mark is None:
                    state[nxt] = 1
                    path.append(nxt)
                    pending.append(iter(graph.deps.get(nxt, ())))
                    break
            else:
                state[path.pop()] = 2
                pending.pop()
    return None


def rebuild_set(graph: DependencyGraph, changed: set[Node]) -> set[Node]:
    """Changed nodes plus every transitive dependent (reverse reachability)."""
    result = set(changed)
    frontier = list(changed)
    while frontier:
        node = frontier.pop()
        for dependent in graph.dependents.get(node, ()):
            if dependent not in result:
                result.add(dependent)
                frontier.append(dependent)
    return result


def build_order(graph: DependencyGraph, subset: set[Node]) -> list[Node]:
    """Topological order of ``subset`` (dependencies first); among the valid
    orders, the lexicographically least by (name, version)."""
    pending_deps: dict[Node, set[Node]] = {
        node: {dep for dep in graph.deps.get(node, ()) if dep in subset}
        for node in subset
    }
    ready = [node for node, deps in pending_deps.items() if not deps]
    heapq.heapify(ready)
    order: list[Node] = []
    while ready:
        node = heapq.heappop(ready)
        order.append(node)
        for dependent in graph.dependents.get(node, ()):
            if dependent in subset:
                pending_deps[dependent].discard(node)
                if not pending_deps[dependent]:
                    heapq.heappush(ready, dependent)
    return order
