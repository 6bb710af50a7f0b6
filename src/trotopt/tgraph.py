"""Anticommutation DAG over extracted rotations and T-depth scheduling.

The graph has one vertex per rotation and an edge (i, j) for every i < j
whose axes anticommute; the input order is by construction a topological
order.  Reorderings of the rotation product that use only commuting swaps
are exactly the topological orders of this graph, the achievable T-depth
equals its longest path (in vertices), and grouping vertices by that
longest-path length yields layers of pairwise-commuting rotations that can
each be realized with a single parallel T layer, with ancillas supplying
independence when a layer needs it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .rotations import Rotation, RotationForm
# Layer synthesis lives in rotations; its two steps stay importable from here.
from .rotations import extend_with_ancillas, synthesize_layer  # noqa: F401
from .tableau import InvariantError


@dataclass(frozen=True)
class TGraph:
    """DAG over rotations; edge (i, j) means axes i and j anticommute, i < j."""

    rotations: tuple[Rotation, ...]
    edges: tuple[tuple[int, int], ...]

    @property
    def m(self) -> int:
        return len(self.rotations)

    def predecessors(self) -> list[list[int]]:
        preds: list[list[int]] = [[] for _ in range(self.m)]
        for i, j in self.edges:
            preds[j].append(i)
        return preds

    def successors(self) -> list[list[int]]:
        succs: list[list[int]] = [[] for _ in range(self.m)]
        for i, j in self.edges:
            succs[i].append(j)
        return succs


@dataclass(frozen=True)
class LayerSchedule:
    """Vertex sets executable as one T layer each, in schedule order."""

    layers: tuple[tuple[int, ...], ...]

    @property
    def depth(self) -> int:
        return len(self.layers)


def build_tgraph(form: RotationForm | Sequence[Rotation]) -> TGraph:
    """Pairwise anticommutation scan; O(m^2) checks. Signs are ignored."""
    rotations = tuple(form.rotations if isinstance(form, RotationForm) else form)
    edges = [
        (i, j)
        for j in range(len(rotations))
        for i in range(j)
        if not rotations[i].pauli.commutes(rotations[j].pauli)
    ]
    return TGraph(rotations, tuple(edges))


def is_valid_reordering(graph: TGraph, perm: Sequence[int]) -> bool:
    """True iff ``perm`` (a permutation of 0..m-1) is a topological order."""
    if sorted(perm) != list(range(graph.m)):
        raise ValueError("not a permutation of the graph's vertices")
    position = {v: i for i, v in enumerate(perm)}
    return all(position[i] < position[j] for i, j in graph.edges)


def _longest_path_to(graph: TGraph) -> list[int]:
    """Longest path (vertex count) ending at each vertex; DP in input order."""
    preds = graph.predecessors()
    depth = [0] * graph.m
    for v in range(graph.m):
        depth[v] = 1 + max((depth[u] for u in preds[v]), default=0)
    return depth


def t_depth_bound(graph: TGraph) -> int:
    """Vertices on the longest path; the commutation-only T-depth optimum."""
    if graph.m == 0:
        return 0
    return max(_longest_path_to(graph))


def layerize(graph: TGraph, alap: bool = False) -> LayerSchedule:
    """Group vertices by longest incoming path (ASAP) or its mirror (ALAP).

    Layer count always equals :func:`t_depth_bound`; every layer is checked
    to be pairwise commuting before returning.
    """
    depth = t_depth_bound(graph)
    if depth == 0:
        return LayerSchedule(())
    if not alap:
        level = _longest_path_to(graph)
    else:
        succs = graph.successors()
        tail = [0] * graph.m
        for v in reversed(range(graph.m)):
            tail[v] = 1 + max((tail[w] for w in succs[v]), default=0)
        level = [depth - tail[v] + 1 for v in range(graph.m)]
    layers: list[list[int]] = [[] for _ in range(depth)]
    for v in range(graph.m):
        layers[level[v] - 1].append(v)
    for members in layers:
        for a in range(len(members)):
            for b in range(a + 1, len(members)):
                pa = graph.rotations[members[a]].pauli
                pb = graph.rotations[members[b]].pauli
                if not pa.commutes(pb):
                    raise InvariantError(
                        f"vertices {members[a]},{members[b]} share a layer but anticommute"
                    )
    return LayerSchedule(tuple(tuple(m) for m in layers))


def ancilla_safe(form: RotationForm, t: int) -> bool:
    """True iff every rotation acts as I or Z on the last ``t`` qubits.

    That is exactly the condition under which ancillas prepared in |0> pass
    through every rotation unchanged.
    """
    if not 0 <= t <= form.n:
        raise ValueError(f"ancilla count {t} out of range for n={form.n}")
    if t == 0:
        return True
    ancillas = range(form.n - t, form.n)
    return all(r.pauli.restrict(ancillas).x == 0 for r in form.rotations)


def to_dot(graph: TGraph) -> str:
    """GraphViz rendering; vertex label is the signed axis plus origin."""
    lines = ["digraph tgraph {"]
    for v, rotation in enumerate(graph.rotations):
        lines.append(f'  r{v} [label="{rotation}"];')
    for i, j in graph.edges:
        lines.append(f"  r{i} -> r{j};")
    lines.append("}")
    return "\n".join(lines) + "\n"
