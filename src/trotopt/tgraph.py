"""Anticommutation DAG over extracted rotations and T-depth scheduling.

The graph has one vertex per rotation and an edge (i, j) for every i < j
whose axes anticommute; the input order is by construction a topological
order.  Reorderings of the rotation product that use only commuting swaps
are exactly the topological orders of this graph, the achievable T-depth
equals its longest path (in vertices), and grouping vertices by that
longest-path length yields layers of pairwise-commuting rotations that can
each be realized with a single parallel T layer, with ancillas supplying
independence when a layer needs it.

Both pair scans, for the edges and for each layer's commutation check,
pack the axes into uint64 X/Z word arrays and take the symplectic product
of a whole tile of pairs at once in numpy: O(m^2 n / 64) word operations,
in tiles sized so that no temporary exceeds 128 KiB.  The longest-path
DP is a Python loop over the edges.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import Sequence

import numpy as np

from .rotations import Rotation, RotationForm
# Layer synthesis lives in rotations; its two steps stay importable from here.
from .rotations import extend_with_ancillas, synthesize_layer  # noqa: F401
from .tableau import InvariantError


@dataclass(frozen=True)
class TGraph:
    """DAG over rotations; edge (i, j) means axes i and j anticommute.

    Every edge has i < j, and the edges are ordered by j, then by i, as
    :func:`build_tgraph` emits them.  The longest-path pass relies on that
    order: every edge into a vertex comes before every edge out of it.
    """

    rotations: tuple[Rotation, ...]
    edges: tuple[tuple[int, int], ...]

    @property
    def m(self) -> int:
        return len(self.rotations)


@dataclass(frozen=True)
class LayerSchedule:
    """Vertex sets executable as one T layer each, in schedule order."""

    layers: tuple[tuple[int, ...], ...]

    @property
    def depth(self) -> int:
        return len(self.layers)


# uint64 words in one temporary of a tile's product: 128 KiB, whatever m and n.
# Larger blocks save little time and leave the allocator holding more memory.
_BLOCK_WORDS = 1 << 14


def _pack(rotations: Sequence[Rotation]) -> tuple[np.ndarray, np.ndarray]:
    """The axes' X and Z masks as (ceil(n/64), m) uint64 arrays, low word first.

    Word-major, so that each word's product over a tile runs along whole
    contiguous rows of axes.
    """
    n = rotations[0].pauli.n if rotations else 1
    for r in rotations:
        if r.pauli.n != n:
            raise ValueError(f"qubit count mismatch: {n} vs {r.pauli.n}")
    nbytes = 8 * ((n + 63) // 64)

    def words(masks: list[int]) -> np.ndarray:
        data = b"".join(mask.to_bytes(nbytes, "little") for mask in masks)
        return np.ascontiguousarray(np.frombuffer(data, dtype="<u8").reshape(-1, nbytes // 8).T)

    return words([r.pauli.x for r in rotations]), words([r.pauli.z for r in rotations])


def _anticommute(x: np.ndarray, z: np.ndarray, rows: slice, cols: slice) -> np.ndarray:
    """Bool block: [r, c] is True iff axes ``rows``[r] and ``cols``[c] anticommute.

    Word by word, (X_r & Z_c) ^ (Z_r & X_c); the symplectic product is the
    parity of the XOR of all the words, folded down to its low bit.
    """
    parts = ((xw[rows, None] & zw[cols]) ^ (zw[rows, None] & xw[cols]) for xw, zw in zip(x, z))
    word = reduce(np.bitwise_xor, parts)
    for shift in (32, 16, 8, 4, 2, 1):
        word ^= word >> np.uint64(shift)
    return (word & np.uint64(1)).astype(bool)


def _tile(m: int) -> tuple[int, int]:
    """Rows and columns per tile, so that a temporary holds at most ``_BLOCK_WORDS`` words.

    Columns are split only when one row of them exceeds the budget; a tile is
    then a single row, so tiles taken in order keep edges ordered by j, then i.
    """
    cols = max(1, min(m, _BLOCK_WORDS))
    return max(1, _BLOCK_WORDS // cols), cols


def build_tgraph(form: RotationForm | Sequence[Rotation]) -> TGraph:
    """Anticommutation edges from a blocked GF(2) symplectic product.

    O(m^2 n / 64) word operations in numpy, over tiles sized so that no
    temporary exceeds 128 KiB; no Python work per pair.  Edges come out
    ordered by j, then by i.  Signs are ignored.
    """
    rotations = tuple(form.rotations if isinstance(form, RotationForm) else form)
    x, z = _pack(rotations)
    m = len(rotations)
    rows, cols = _tile(m)
    edges: list[tuple[int, int]] = []
    for start in range(0, m, rows):
        stop = min(m, start + rows)
        # rows j in [start, stop) against columns i < stop; keep i < j
        for first in range(0, stop, cols):
            block = _anticommute(x, z, slice(start, stop), slice(first, min(stop, first + cols)))
            j, i = np.nonzero(np.tril(block, start - first - 1))
            edges.extend(zip((i + first).tolist(), (j + start).tolist()))
    return TGraph(rotations, tuple(edges))


def _longest_paths(graph: TGraph, reverse: bool = False) -> list[int]:
    """Vertices on the longest path ending at each vertex, or starting there if ``reverse``.

    One pass over the edges in :class:`TGraph` order: forward, every edge
    into i is relaxed before any edge (i, j) out of it; reversed, every
    edge out of j is relaxed before any edge (i, j) into it.
    """
    length = [1] * graph.m
    if reverse:
        for i, j in reversed(graph.edges):
            if length[i] <= length[j]:
                length[i] = length[j] + 1
    else:
        for i, j in graph.edges:
            if length[j] <= length[i]:
                length[j] = length[i] + 1
    return length


def t_depth_bound(graph: TGraph) -> int:
    """Vertices on the longest path; the commutation-only T-depth optimum."""
    return max(_longest_paths(graph), default=0)


def layerize(graph: TGraph, alap: bool = False) -> LayerSchedule:
    """Group vertices by longest incoming path (ASAP) or longest outgoing path (ALAP).

    One longest-path pass gives both the levels and the layer count, which
    always equals :func:`t_depth_bound`; every layer is checked to be
    pairwise commuting before returning.
    """
    length = _longest_paths(graph, reverse=alap)
    depth = max(length, default=0)
    layers: list[list[int]] = [[] for _ in range(depth)]
    for v, k in enumerate(length):
        layers[depth - k if alap else k - 1].append(v)
    for members in (layer for layer in layers if len(layer) > 1):
        edges = build_tgraph([graph.rotations[v] for v in members]).edges
        if edges:
            a, b = min(edges)  # the pair a nested loop over a, then b, meets first
            raise InvariantError(f"vertices {members[a]},{members[b]} share a layer but anticommute")
    return LayerSchedule(tuple(tuple(m) for m in layers))


def to_dot(graph: TGraph) -> str:
    """GraphViz rendering; vertex label is the signed axis plus origin."""
    lines = ["digraph tgraph {"]
    for v, rotation in enumerate(graph.rotations):
        lines.append(f'  r{v} [label="{rotation}"];')
    for i, j in graph.edges:
        lines.append(f"  r{i} -> r{j};")
    lines.append("}")
    return "\n".join(lines) + "\n"
