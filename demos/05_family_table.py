"""The benchmark table: circuit families folded in place by `trotopt bench`.

Run:  python demos/05_family_table.py

The families stand in for the Amy-Maslov-Mosca suite (arXiv:1303.2042)
the paper reports on, at that suite's sizes: Toffoli ladders with clean
ancillas (tof), Barenco multi-controlled Toffolis with borrowed qubits,
and GF(2^m) multipliers, all built by the benchmark's generators in
``trotbench/generate.py``, plus the bundled mod5_4.  They are written as
.qc files into a temporary directory, and ``trotopt bench`` folds each
one in place.  The paper averages over a different set of circuits, so
its 42.67% average is no target for this table's.
"""

import csv
import io
import sys
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

from trotopt.cli import main

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "trotbench"))
import generate  # noqa: E402  (the benchmark's circuit builders)
from qcsim import write_qc  # noqa: E402

FAMILIES = {
    **{f"tof_{m:02d}": generate.tof_ladder(m) for m in (3, 4, 5, 10)},
    **{f"barenco_tof_{m:02d}": generate.barenco(m) for m in (3, 4, 5, 10)},
    **{f"gf2^{m:02d}_mult": generate.gf_mult(m) for m in range(4, 11)},
}

with tempfile.TemporaryDirectory() as tmp:
    for name, (circuit, inputs) in FAMILIES.items():
        (Path(tmp) / f"{name}.qc").write_text(write_qc(circuit, inputs))
    (Path(tmp) / "mod5_4.qc").write_text((ROOT / "benchmarks" / "mod5_4.qc").read_text())
    report = io.StringIO()
    with redirect_stdout(report):
        status = main(["bench", tmp])
if status:
    sys.exit(status)

rows = list(csv.DictReader(io.StringIO(report.getvalue())))
columns = ("name", "cnot_before", "t_before", "cnot_after", "t_after", "reduction_percent")
print("| " + " | ".join(columns) + " |")
print("|" + " --- |" * len(columns))
for row in rows:
    print("| " + " | ".join([row["name"].removesuffix(".qc")] + [row[c] for c in columns[1:]]) + " |")

scored = [row for row in rows if row["status"] == "ok"]
print(f"\n{len(scored)} circuits; the paper's abstract reports 71.43% best, 42.67% average")
