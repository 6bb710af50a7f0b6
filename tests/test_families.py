"""Result quality by circuit family, at widths up to 130 qubits.

The benchmark's arith generators (``trotbench/generate.py``) build each
circuit; it is written as a ``.qc`` file and read back, then extracted and
folded in place.  Each case pins the fold's T-count before and after and
the ASAP T-depth of the folded form, as closed forms in the family's size.
"""

import importlib
from pathlib import Path

import pytest

from trotopt import layerize, optimize, parse_qc, to_rotation_form

TROTBENCH = Path(__file__).parent.parent / "trotbench"

SIZES = (3, 4, 5, 10, 20, 40, 60)
GF_T_AFTER = {2: 18, 3: 45, 4: 68, 5: 115, 6: 150, 7: 217, 8: 264, 9: 351, 10: 410}

CASES = (
    [("tof_ladder", m, 7 * (2 * m - 3), 4 * (2 * m - 3) + 3, 2 * m - 3) for m in SIZES]
    + [("barenco", m, 28 * (m - 2), 12 * (m - 2) + 4, 4 * (m - 2)) for m in SIZES]
    + [("cuccaro", b, 14 * b, 8 * b, 2 * b - 1) for b in (1, 2, 4, 8, 16, 32, 64)]
    + [("gf_mult", m, 7 * m * m, t_after, 1) for m, t_after in GF_T_AFTER.items()]
)


@pytest.fixture
def trotbench(monkeypatch):
    monkeypatch.syspath_prepend(str(TROTBENCH))
    return importlib.import_module("generate"), importlib.import_module("qcsim")


@pytest.mark.parametrize("family, size, t_before, t_after, depth", CASES)
def test_fold_and_depth(trotbench, family, size, t_before, t_after, depth):
    generate, qcsim = trotbench
    circ, inputs = getattr(generate, family)(size)
    result = optimize(to_rotation_form(parse_qc(qcsim.write_qc(circ, inputs)).expand()))
    assert (result.stats.t_before, result.stats.t_after) == (t_before, t_after)
    assert layerize(result.form).depth == depth
