"""Anticommutation DAG over extracted rotations and T-depth scheduling.

The graph has one vertex per rotation and an edge (i, j) for every i < j
whose axes anticommute.  Reorderings that use only commuting swaps are
exactly its topological orders, so the achievable T-depth is its longest
path (in vertices), and grouping by that length yields layers of commuting
rotations, each one parallel T layer (with ancillas when it is dependent).

The edges, the levels and each layer's commutation check share one tile
loop: the symplectic product of the axes packed as uint64 X/Z words, a whole
tile of pairs at once in numpy (O(m^2 n / 64) word operations, temporaries
of at most 128 KiB).  Two axes with no X bit (diagonal axes) always commute,
so a tile whose rows and columns hold no axis with an X bit is never
computed: an all-diagonal form, such as a CNOT+T phase polynomial's, computes
no tile at all.  The loop yields the raw symmetric blocks, and each consumer
takes the triangle it reads.  A layer's check only asks whether any block
has a hit, and lists edges to name the pair only when one does.  Only
:func:`build_tgraph` lists edges otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import Sequence

import numpy as np

from .rotations import Rotation, RotationForm
# Layer synthesis lives in rotations; its two steps stay importable from here.
from .rotations import extend_with_ancillas, synthesize_layer  # noqa: F401
from .tableau import InvariantError, _rows


@dataclass(frozen=True)
class TGraph:
    """DAG over rotations; edge (i, j), i < j, means axes i and j anticommute."""

    rotations: tuple[Rotation, ...]
    edges: tuple[tuple[int, int], ...]


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

# The XOR-fold of a word's parity into its low bit, in uint64 so numpy keeps the dtype.
_FOLD_SHIFTS = tuple(np.uint64(shift) for shift in (32, 16, 8, 4, 2, 1))
_LOW_BIT = np.uint64(1)


def _pack(form: RotationForm | Sequence[Rotation]) -> tuple[np.ndarray, np.ndarray]:
    """The axes' X and Z masks as (ceil(n/64), m) uint64 arrays, low word first.

    Word-major, so that each word's product over a tile runs along whole
    contiguous rows of axes.
    """
    if isinstance(form, RotationForm):
        n, xmasks, zmasks = form.n, form._x, form._z
    else:
        n = form[0].pauli.n if form else 1
        xmasks, zmasks, _ = _rows((r.pauli for r in form), n)
    nbytes = 8 * ((n + 63) // 64 or 1)

    def words(masks: list[int]) -> np.ndarray:
        data = b"".join(mask.to_bytes(nbytes, "little") for mask in masks)
        return np.ascontiguousarray(np.frombuffer(data, dtype="<u8").reshape(-1, nbytes // 8).T)

    return words(xmasks), words(zmasks)


def _anticommute(x: np.ndarray, z: np.ndarray, rows: slice, cols: slice) -> np.ndarray:
    """Bool block: [r, c] is True iff axes ``rows``[r] and ``cols``[c] anticommute.

    Word by word, (X_r & Z_c) ^ (Z_r & X_c); the symplectic product is the
    parity of the XOR of all the words, folded down to its low bit.
    """
    parts = ((xw[rows, None] & zw[cols]) ^ (zw[rows, None] & xw[cols]) for xw, zw in zip(x, z))
    word = reduce(np.bitwise_xor, parts)
    for shift in _FOLD_SHIFTS:
        word ^= word >> shift
    return (word & _LOW_BIT).astype(bool)


def _tile(m: int) -> tuple[int, int]:
    """Rows and columns per tile, so that a temporary holds at most ``_BLOCK_WORDS`` words.

    Columns are split only when one row of them exceeds the budget; a tile is
    then a single row, so tiles taken in order keep edges ordered by j, then i.
    """
    cols = max(1, min(m, _BLOCK_WORDS))
    return max(1, _BLOCK_WORDS // cols), cols


def _tiles(x: np.ndarray, z: np.ndarray):
    """Tiles of the anticommutation matrix on and left of its diagonal, in row order, then
    column order.

    Yields (start, first, block): block[r, c] is True iff axes start + r and first + c
    anticommute.  The block is raw: where it crosses the diagonal it holds both triangles
    (the product is symmetric, with a zero diagonal).  A tile whose rows and columns hold
    no axis with an X bit is all zero, and is not yielded.
    """
    m = x.shape[1]
    rows, cols = _tile(m)
    # with_x[v]: the axes before v with an X bit, so a band [a, b) holds one iff they differ
    with_x = [0, *np.cumsum(x.any(axis=0)).tolist()]
    for start in range(0, m, rows):
        stop = min(m, start + rows)
        rows_x = with_x[stop] != with_x[start]
        for first in range(0, stop, cols):
            last = min(stop, first + cols)
            if rows_x or with_x[last] != with_x[first]:
                yield start, first, _anticommute(x, z, slice(start, stop), slice(first, last))


def _edges(x: np.ndarray, z: np.ndarray):
    """Anticommuting pairs (i, j), i < j, ordered by j, then by i."""
    for start, first, block in _tiles(x, z):
        j, i = np.nonzero(np.tril(block, start - first - 1))
        yield from zip((i + first).tolist(), (j + start).tolist())


def _levels(x: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Vertices on the longest anticommuting chain ending at each axis.

    Columns left of a tile's rows hold final levels (one vectorized max);
    then the tile's diagonal rows with a hit go in row order.
    """
    level = np.ones(x.shape[1], dtype=np.int64)
    for start, first, block in _tiles(x, z):
        rows, left = level[start:start + len(block)], min(start - first, block.shape[1])
        best = np.where(block[:, :left], level[first:first + left], 0).max(axis=1, initial=0)
        np.maximum(rows, best + 1, out=rows)
        diagonal = np.tril(block[:, left:], -1)  # its columns are the tile's first rows
        for r in np.flatnonzero(diagonal.any(axis=1)).tolist():
            rows[r] = max(rows[r], rows[: diagonal.shape[1]][diagonal[r]].max() + 1)
    return level


def build_tgraph(form: RotationForm | Sequence[Rotation]) -> TGraph:
    """Anticommutation edges from the blocked GF(2) symplectic product.

    Edges come out ordered by j, then by i.  Signs are ignored.
    """
    rotations = form.rotations if isinstance(form, RotationForm) else tuple(form)
    return TGraph(rotations, tuple(_edges(*_pack(form))))


def t_depth_bound(form: RotationForm | Sequence[Rotation]) -> int:
    """Vertices on the longest path; the commutation-only T-depth optimum."""
    return int(_levels(*_pack(form)).max(initial=0))


def layerize(form: RotationForm | Sequence[Rotation], alap: bool = False) -> LayerSchedule:
    """Group rotations by longest incoming path (ASAP) or longest outgoing path (ALAP).

    One tile pass gives the levels (ALAP's over the reversed axes); every
    layer's columns of the packed axes are checked to commute pairwise, by
    one tile pass over them that stops at the first block with a hit.
    """
    x, z = _pack(form)
    level = _levels(x[:, ::-1], z[:, ::-1])[::-1] if alap else _levels(x, z)
    depth = int(level.max(initial=0))
    layers: list[list[int]] = [[] for _ in range(depth)]
    for v, k in enumerate(level.tolist()):
        layers[depth - k if alap else k - 1].append(v)
    for members in (layer for layer in layers if len(layer) > 1):
        xm, zm = x[:, members], z[:, members]
        if any(block.any() for _, _, block in _tiles(xm, zm)):
            a, b = min(_edges(xm, zm))  # the pair a nested loop over a, then b, meets first
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
