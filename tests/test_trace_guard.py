"""The benchmark's traced mode still finds every pipeline function it wraps.

``trotbench/tracing.py`` wraps functions by module and name, and its
per-layer metrics read the spans of layer synthesis; a rename or a move in
``src/`` would otherwise only show when a traced benchmark run fails.
"""

import importlib
import io
import json
from collections import Counter
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
    # one extend and one synth span per layer: mod5_4 folds to one layer of 8
    # rotations, and resynth makes each of the 8 its own layer
    spans = Counter((kinds[s.request], s.name) for s in tracer.spans)
    assert [spans[kind, name] for kind in commands for name in ("tgraph.extend", "tgraph.synth")
            ] == [1, 1, 8, 8]

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


def test_traced_tdepth_feeds_the_layer_metrics(tracing, tmp_path):
    # The benchmark's tgraph metrics read these spans; plain tdepth builds no
    # edge list, so only --dot records a build span.
    tracer = tracing.Tracer()
    requests, records = {}, {}
    tracer.install()
    try:
        for kind, flags in {"plain": [], "dot": ["--dot", str(tmp_path / "g.dot")]}.items():
            buf = io.StringIO()
            with tracer.request(kind) as sid, redirect_stdout(buf):
                assert main(["tdepth", str(MOD5_4), *flags]) == 0
            requests[kind] = sid
            records[kind] = json.loads(buf.getvalue())
    finally:
        tracer.uninstall()
    spans = {kind: [(s.name, s.info) for s in tracer.spans if s.request == sid]
             for kind, sid in requests.items()}
    for kind in spans:
        (layerize,) = [info for name, info in spans[kind] if name == "tgraph.layerize"]
        assert layerize["layers"] == records[kind]["t_depth"] == 1
    assert [info for name, info in spans["plain"] if name == "tgraph.build"] == []
    assert [info for name, info in spans["dot"] if name == "tgraph.build"] == [{"edges": 0}]


def test_traced_verify_feeds_the_oracle_metrics(tracing):
    # The benchmark's verify metrics read these spans: one unitary per side,
    # built on the circuit as written, and one comparison.
    tracer = tracing.Tracer()
    tracer.install()
    try:
        with tracer.request("verify"), redirect_stdout(io.StringIO()):
            assert main(["verify", str(MOD5_4), str(MOD5_4)]) == 0
    finally:
        tracer.uninstall()
    names = [s.name for s in tracer.spans]
    assert [s.info for s in tracer.spans if s.name == "verify.unitary"] == [{"n": 5}, {"n": 5}]
    assert names.count("verify.compare") == 1
    assert "circuit.expand" not in names


def test_traced_tail_synthesis_holds_its_elimination(tracing, tmp_path, monkeypatch):
    # The benchmark's tableau.synthesize_s reads one span per synthesized
    # tail, and the tail's elimination (2n rows, n of them pivots; layer
    # synthesis eliminates its axes alone) must run inside it.
    from trotopt import tableau

    commands = {
        "tdepth": ["tdepth", str(MOD5_4), "--ancilla", "-o", str(tmp_path / "layered.qc")],
        "resynth": ["optimize", str(MOD5_4), "--no-verify", "--mode", "resynth",
                    "-o", str(tmp_path / "resynth.qc")],
    }
    tracer = tracing.Tracer()
    eliminations = []  # (request, innermost open span) per tail elimination
    real = tableau._diagonalize_with_gates

    def recorded(xs, zs, ks, n, m, budget=None):
        if len(xs) == 2 * m:
            eliminations.append((tracer._request, tracer._stack()[-1]))
        return real(xs, zs, ks, n, m, budget)

    monkeypatch.setattr(tableau, "_diagonalize_with_gates", recorded)
    kinds = {}
    tracer.install()
    try:
        for kind, argv in commands.items():
            with tracer.request(kind) as sid, redirect_stdout(io.StringIO()):
                assert main(argv) == 0
            kinds[sid] = kind
    finally:
        tracer.uninstall()

    spans = {kind: [s.id for s in tracer.spans
                    if s.name == "tableau.synthesize" and s.request == sid]
             for sid, kind in kinds.items()}
    assert [len(spans[kind]) for kind in commands] == [1, 1]
    assert sorted(eliminations) == sorted((sid, spans[kind][0]) for sid, kind in kinds.items())
