"""The benchmark's traced mode still finds every pipeline function it wraps.

``trotbench/tracing.py`` wraps functions by module and name, and its
per-layer metrics read the spans of layer synthesis; a rename or a move in
``src/`` would otherwise only show when a traced benchmark run fails.
"""

import importlib
import io
import json
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from trotopt.cli import main

from _helpers import MOD5_4

TROTBENCH = Path(__file__).parent.parent / "trotbench"


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(TROTBENCH))
    return importlib.import_module("tracing")


def test_every_traced_name_resolves(tracing):
    for modname, attr in tracing.TRACED:
        owner = importlib.import_module(modname)
        for part in attr.split("."):
            owner = getattr(owner, part)
        assert callable(owner), f"{modname}.{attr}"


def test_traced_layer_synthesis_on_mod5_4(tracing, tmp_path):
    commands = {
        "tdepth": ["tdepth", str(MOD5_4), "--ancilla", "-o", str(tmp_path / "layered.qc")],
        "resynth": ["optimize", str(MOD5_4), "--no-verify", "--mode", "resynth",
                    "-o", str(tmp_path / "resynth.qc")],
    }
    tracer = tracing.Tracer()
    kinds, records = {}, {}
    tracer.install()
    try:
        for kind, argv in commands.items():
            buf = io.StringIO()
            with tracer.request(kind) as sid, redirect_stdout(buf):
                assert main(argv) == 0
            kinds[sid] = kind
            records[kind] = json.loads(buf.getvalue())
    finally:
        tracer.uninstall()

    recorded = {(kinds[s.request], s.name) for s in tracer.spans}
    assert {("tdepth", "tgraph.extend"), ("tdepth", "tgraph.synth"),
            ("resynth", "rotations.resynth"), ("resynth", "tgraph.synth")} <= recorded

    layers = [s.info for s in tracer.spans
              if s.name == "tgraph.extend" and kinds[s.request] == "tdepth"]
    used = max(info["t"] for info in layers)
    needed = max(
        len(info["layer"]) - tracing.gf2_rank([x | (z << n) for n, x, z in info["layer"]])
        for info in layers
    )
    assert used == needed == records["tdepth"]["ancillas"] == 4


def test_traced_optimize_keeps_the_stage_split(tracing):
    # The benchmark's per-layer extract and fold metrics read these two spans;
    # a pass that fused the stages would leave them empty.
    tracer = tracing.Tracer()
    tracer.install()
    try:
        with tracer.request("optimize"), redirect_stdout(io.StringIO()):
            assert main(["optimize", str(MOD5_4), "--no-verify"]) == 0
    finally:
        tracer.uninstall()
    info = {s.name: s.info for s in tracer.spans}
    assert info["rotations.extract"]["t_in"] == 28
    assert info["optimizer.fold"]["t_out"] == 8
