"""The mod5_4 benchmark: 28 T gates in, 8 out, nothing else touched.

Run:  python demos/02_mod5_benchmark.py
"""

import tempfile
import time
from pathlib import Path

from trotopt import (
    apply_edit_plan,
    equivalent_up_to_phase,
    optimize,
    parse_qc,
    t_count_reduction,
    to_rotation_form,
    unitary_of,
    write_qc,
)

qc_path = Path(__file__).parent.parent / "benchmarks" / "mod5_4.qc"
circuit = parse_qc(qc_path.read_text())
print("loaded", qc_path.name, "-", circuit.n, "qubits,", len(circuit.gates), "gates")
print("gate mix:", dict(circuit.counts().by_kind))

# The doubly-controlled Z gates first get lowered to the standard 7-T,
# 6-CNOT network; that is where the T-count of 28 comes from.
expanded = circuit.expand()
before = expanded.counts()
print("\nafter lowering CCZ/Toffoli:")
print("  T =", before.t_count, " CNOT =", before.cnot_count, " H =", before.h_count)

started = time.perf_counter()
form = to_rotation_form(expanded)
result = optimize(form)
optimized = apply_edit_plan(expanded, result.plan)
elapsed = time.perf_counter() - started

after = optimized.counts()
report = t_count_reduction(expanded, optimized)
print("\nafter rotation folding (%.1f ms):" % (elapsed * 1e3))
print("  T =", after.t_count, " CNOT =", after.cnot_count, " H =", after.h_count)
print("  %d merges, %d cancellations, %d pairwise comparisons"
      % (result.stats.merges, result.stats.cancellations, result.stats.comparisons))
print("  T-count reduction: %.2f%%" % report.percent)

# The edit plan only deletes T gates or squares them into S gates in
# place, so every non-phase gate keeps its exact position.
moved = [
    (a.kind, b.kind)
    for a, b in zip(
        (g for g in expanded.gates if g.kind not in ("T", "Tdg", "S", "Sdg")),
        (g for g in optimized.gates if g.kind not in ("T", "Tdg", "S", "Sdg")),
    )
    if a != b
]
print("  non-phase gates disturbed:", len(moved))

# Full 32x32 check against the circuit as written: the oracle applies each
# CCZ as one block phase, so the lowering above is checked along with the fold.
print("\noracle says the circuits match:",
      equivalent_up_to_phase(unitary_of(optimized), unitary_of(circuit)))

# Write the result as a .qc file and read it back.
with tempfile.TemporaryDirectory() as tmp:
    out_path = Path(tmp) / "mod5_4.optimized.qc"
    out_path.write_text(write_qc(optimized))
    reread = parse_qc(out_path.read_text())
print("optimized circuit round-trips through", out_path.name + ":", reread == optimized)
