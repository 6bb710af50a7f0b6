"""T-depth from the rotation DAG: longest path, layers, ancilla tricks.

Run:  python demos/03_tdepth_layering.py
"""

from trotopt import (
    PauliProduct,
    Rotation,
    build_tgraph,
    equivalent_up_to_phase,
    extend_with_ancillas,
    layerize,
    rotation_matrix,
    synthesize_layer,
    t_depth_bound,
    to_dot,
    unitary_of,
)

P = PauliProduct.from_label

# ----------------------------------------------------------------------
# Rotations may be reordered exactly when their axes commute, so the
# anticommutation DAG fixes which groupings are reachable.  The minimum
# number of parallel T layers is the longest path in that DAG.

rotations = [Rotation(P(s)) for s in ["ZI", "XI", "ZZ", "IZ", "IX"]]
graph = build_tgraph(rotations)
print("axes:", [str(r.pauli) for r in rotations])
print("anticommuting pairs (edges):", graph.edges)
print("T-depth =", t_depth_bound(graph))

schedule = layerize(graph)
for i, layer in enumerate(schedule.layers, start=1):
    print(f"  layer {i}: rotations {layer}",
          [str(rotations[v].pauli) for v in layer])
print()
print(to_dot(graph))

# ----------------------------------------------------------------------
# A layer of pairwise-commuting, independent axes compiles to one parallel
# T layer: conjugate every axis onto its own Z wire, fire all T's at once,
# undo the conjugation.

layer = [Rotation(P("ZZ")), Rotation(P("XX"))]
block = synthesize_layer(layer)
print("layer [ZZ, XX] compiles to", len(block.gates), "gates with T gates at",
      [i for i, g in enumerate(block.gates) if g.kind in ("T", "Tdg")])
want = rotation_matrix(P("XX")) @ rotation_matrix(P("ZZ"))
print("matches the rotation product:",
      equivalent_up_to_phase(unitary_of(block), want))
print()

# ----------------------------------------------------------------------
# Dependent layers (some subset multiplies to identity) cannot be
# diagonalized -- but tagging with Z, each on its own ancilla, only the
# rotations that depend on earlier ones makes any commuting layer
# independent without changing the DAG.  A layer of size m and GF(2) rank r
# needs m - r ancillas (here 3 - 2 = 1), and they provably return to |0>.

dependent = [Rotation(P("ZI")), Rotation(P("IZ")), Rotation(P("ZZ"))]
try:
    synthesize_layer(dependent)
except Exception as exc:
    print("direct synthesis fails:", exc)

extended = extend_with_ancillas(dependent, t=1)
print("extended axes:", [str(r.pauli) for r in extended])
print("edges unchanged:",
      build_tgraph(extended).edges == build_tgraph(dependent).edges)

block = synthesize_layer(extended)
u = unitary_of(block)  # 3 qubits: 2 data + 1 ancilla
dim_data, dim_anc = 4, 2
full = u.reshape(dim_data, dim_anc, dim_data, dim_anc)
data_block = full[:, 0, :, 0]
want = (
    rotation_matrix(P("ZZ")) @ rotation_matrix(P("IZ")) @ rotation_matrix(P("ZI"))
)
print("ancilla leakage:", float(abs(full[:, 1:, :, 0]).max()))
print("data block matches the dependent layer:",
      equivalent_up_to_phase(data_block, want))
