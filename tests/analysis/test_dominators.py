"""The CFG's one dominator solver against the definitions it computes.

``a`` dominates ``b`` exactly when deleting ``a`` cuts ``b`` off from every
root; ``a`` post-dominates ``b`` exactly when deleting ``a`` cuts ``b`` off
from every exit; a natural loop is a back edge's head plus every block that
reaches its tail without passing the head.  Each is checked by brute-force
reachability on the intraprocedural view of every workload variant and on
hypothesis-generated graphs with several roots.
"""

from typing import Dict, FrozenSet, List, Mapping, Optional, Sequence, Set, Tuple

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.cfg import BasicBlock, ControlFlowGraph, Edge, EdgeKind, build_cfg
from repro.isa.assembler import assemble
from repro.workloads import workload_names
from repro.workloads.base import get_workload

VARIANTS = [
    (name, role)
    for name in workload_names()
    for role in ("test", "train")
    if role == "test" or get_workload(name).has_training_set
]


def _reach(
    roots: Sequence[int], succ: Mapping[int, Sequence[int]], removed: Optional[int] = None
) -> Set[int]:
    """Nodes reachable from ``roots`` in the graph without ``removed``."""
    seen: Set[int] = set()
    stack = [root for root in roots if root != removed]
    while stack:
        node = stack.pop()
        if node in seen:
            continue
        seen.add(node)
        stack.extend(child for child in succ[node] if child != removed)
    return seen


def _subtrees(idom: Dict[int, Optional[int]]) -> Dict[int, Set[int]]:
    """Per node, every node its dominator-tree subtree holds."""
    children: Dict[int, List[int]] = {node: [] for node in idom}
    for node, parent in idom.items():
        if parent is not None:
            children[parent].append(node)
    members: Dict[int, Set[int]] = {}

    def collect(node: int) -> Set[int]:
        if node not in members:
            below = {node}
            stack = list(children[node])
            while stack:
                child = stack.pop()
                below.add(child)
                stack.extend(children[child])
            members[node] = below
        return members[node]

    return {node: collect(node) for node in idom}


def _check_tree(
    idom: Dict[int, Optional[int]],
    roots: Sequence[int],
    succ: Mapping[int, Sequence[int]],
    step: int = 1,
) -> None:
    """``idom`` holds exactly the nodes ``roots`` reach, and every sampled
    candidate dominates exactly the nodes its deletion cuts off."""
    reachable = _reach(roots, succ)
    assert set(idom) == reachable
    subtrees = _subtrees(idom)
    for candidate in sorted(reachable)[::step]:
        cut_off = reachable - _reach(roots, succ, removed=candidate)
        assert subtrees[candidate] == cut_off, hex(candidate)


def _ancestor_edges(
    roots: Sequence[int], succ: Mapping[int, Sequence[int]]
) -> List[Tuple[int, int]]:
    """Every edge ``tail -> head`` whose head is ``tail`` or a DFS-tree
    ancestor of it: a superset of the back edges, since every path from a
    root to the tail, the tree path included, passes a dominating head."""
    first: Dict[int, int] = {}
    last: Dict[int, int] = {}
    clock = 0
    for root in roots:
        if root in first:
            continue
        first[root] = clock
        clock += 1
        stack = [(root, iter(succ[root]))]
        while stack:
            node, children = stack[-1]
            for child in children:
                if child not in first:
                    first[child] = clock
                    clock += 1
                    stack.append((child, iter(succ[child])))
                    break
            else:
                stack.pop()
                last[node] = clock
                clock += 1
    return [
        (tail, head)
        for tail in first
        for head in succ[tail]
        if first[head] <= first[tail] and last[tail] <= last[head]
    ]


def _brute_loops(
    roots: Sequence[int],
    succ: Mapping[int, Sequence[int]],
    pred: Mapping[int, Sequence[int]],
) -> List[Tuple[int, FrozenSet[int]]]:
    reachable = _reach(roots, succ)
    bodies: Dict[int, Set[int]] = {}
    for tail, head in _ancestor_edges(roots, succ):
        # a back edge: deleting its head cuts its tail off
        if tail == head or tail not in _reach(roots, succ, removed=head):
            reaches_tail = _reach([tail], pred, removed=head)
            bodies.setdefault(head, {head}).update(reaches_tail & reachable)
    return sorted((head, frozenset(body)) for head, body in bodies.items())


def _intra_roots(cfg: ControlFlowGraph) -> List[int]:
    return sorted(
        {cfg.entry} | {edge.dst for edge in cfg.edges if edge.kind == EdgeKind.CALL}
    )


def _exits(cfg: ControlFlowGraph) -> List[int]:
    return sorted(start for start, succ in cfg.intra_successors.items() if not succ)


def _check_cfg(cfg: ControlFlowGraph, step: int = 1) -> None:
    roots = _intra_roots(cfg)
    succ, pred = cfg.intra_successors, cfg.intra_predecessors
    _check_tree(cfg.intra_dominators, roots, succ, step)
    _check_tree(cfg.intra_post_dominators, _exits(cfg), pred, step)
    assert cfg.intra_loops == _brute_loops(roots, succ, pred)


@pytest.mark.parametrize("name,role", VARIANTS)
def test_workload_views_match_definitions(name, role):
    workload = get_workload(name)
    cfg = build_cfg(assemble(workload.build_source(workload.dataset(role))))
    # one deletion is a reachability pass over the whole graph, so the
    # larger programs (gcc has 5,136 blocks) sample about 256 candidates
    _check_cfg(cfg, step=max(1, len(cfg.blocks) // 256))


def test_variant_count():
    assert len(VARIANTS) == 14


@st.composite
def _graphs(draw) -> ControlFlowGraph:
    """A graph of up to 12 blocks: branch edges among them, plus CALL edges
    whose targets become extra dominator roots."""
    n = draw(st.integers(1, 12))
    node = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(node, node), max_size=3 * n))
    calls = draw(st.lists(st.tuples(node, node), max_size=3))
    edges = [Edge(4 * src, 4 * dst, EdgeKind.TAKEN) for src, dst in pairs]
    edges += [Edge(4 * src, 4 * dst, EdgeKind.CALL) for src, dst in calls]
    blocks = {4 * index: BasicBlock(4 * index, []) for index in range(n)}
    return ControlFlowGraph(program=None, blocks=blocks, edges=edges, entry=0)  # type: ignore[arg-type]


@given(_graphs())
@settings(max_examples=300, deadline=None)
def test_random_multi_root_graphs_match_definitions(cfg):
    _check_cfg(cfg)
    reachable = _reach(_intra_roots(cfg), cfg.intra_successors)
    subtrees = _subtrees(cfg.intra_dominators)
    for a in reachable:
        for b in reachable:
            assert cfg.dominates(a, b) == (b in subtrees[a])
