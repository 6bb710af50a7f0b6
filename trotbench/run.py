#!/usr/bin/env python3
"""End-to-end benchmark of the trotopt command line.

Usage (from the repository root)::

    python3 trotbench/run.py --workload arith --seed 1 --seconds 40 --trace 0

The user modelled is a batch compiler user: one client, one thread, a
closed loop.  Each operation is an in-process ``trotopt.cli.main([...])``
call on `.qc` files generated from ``--seed`` (see ``generate.py``).  A run
sets the workload up several times, then repeats passes over it until
``--seconds`` are spent.  Every output is checked against references that
do not come from trotopt (``qcsim.py``).  With ``--trace 1`` the passes
alternate between untraced and traced, and per-layer metrics come from the
traced ones (``tracing.py``).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import os

# One BLAS/OpenMP thread: with the defaults, dense verification at n=8
# spreads several times wider from run to run.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import csv  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import generate  # noqa: E402
import qcsim  # noqa: E402
from hostspeed import HostSpeed  # noqa: E402
from tracing import Tracer, gf2_rank, self_times  # noqa: E402

SETUP_REPEATS = 15
# An untraced pass repeats each call until about REPEAT_SECONDS are spent
# on it, up to MAX_REPEATS times, so that short calls get more samples to
# average.
REPEAT_SECONDS = 0.05
MAX_REPEATS = 10
SIM_MAX_QUBITS = 14  # statevector checks run up to this width, ancillas included
KINDS = ("optimize", "resynth", "tdepth", "verify", "bench")


@dataclass
class Op:
    """One timed CLI call; ``out`` is the file it writes, if any."""

    kind: str
    item: str
    argv: list
    expect_rc: int = 0
    out: Path | None = None
    repeats: int = 1  # calls per untraced pass, fixed after the first pass
    times: list = field(default_factory=list)
    first: tuple | None = None  # (exit code, records, output) of the checked pass
    fault: str | None = None  # why the checked pass failed, if it did


# ----------------------------------------------------------------------
# set-up


def import_trotopt():
    """Fresh import of ``trotopt.cli`` from this checkout's ``src/`` only."""
    for name in [m for m in sys.modules if m == "trotopt" or m.startswith("trotopt.")]:
        del sys.modules[name]
    src = str(ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    cli = importlib.import_module("trotopt.cli")
    if not Path(cli.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"trotopt imported from {cli.__file__}, not from {src}")
    return cli


class Terminated(BaseException):
    """SIGTERM arrived; unlike SystemExit, no CLI call may swallow it."""


def _terminate(signum, frame):
    raise Terminated


def call(cli, argv):
    """Run one CLI call; returns (exit code or error text, stdout, seconds).

    A full collection first makes every call start from the same collector
    state, so a collection that an earlier call left due does not land in
    whichever call happens to come next.
    """
    out = io.StringIO()
    gc.collect()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        start = time.perf_counter()
        try:
            rc = cli.main([str(a) for a in argv])
        except (Exception, SystemExit) as exc:  # a crash is a failed operation
            rc = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
    return rc, out.getvalue(), elapsed


def build_ops(items, paths, out: Path) -> list[Op]:
    """The timed calls of one pass, except the verify pairs and ``bench``."""
    ops = []
    for it in items:
        dst = out / f"{it.name}.opt.qc"
        ops.append(Op("optimize", it.name, ["optimize", paths[it.name], "-o", dst, "--no-verify"],
                      out=dst))
    for it in items:
        if it.small:
            dst = out / f"{it.name}.rs.qc"
            ops.append(Op("resynth", it.name, ["optimize", paths[it.name], "-o", dst,
                                                "--no-verify", "--mode", "resynth"], out=dst))
    for it in items:
        if it.ancilla:
            dst = out / f"{it.name}.layered.qc"
            ops.append(Op("tdepth", it.name, ["tdepth", paths[it.name], "--ancilla", "-o", dst],
                          out=dst))
        else:
            ops.append(Op("tdepth", it.name, ["tdepth", paths[it.name]]))
    return ops


def flipped_copy(text: str, rng: random.Random) -> str | None:
    """The circuit with one surviving T (or T*) replaced by its adjoint."""
    circ = qcsim.read_qc(text)
    spots = [i for i, (kind, _) in enumerate(circ.gates) if kind in ("T", "Tdg")]
    if not spots:
        return None
    i = rng.choice(spots)
    kind, qubits = circ.gates[i]
    circ.gates[i] = ("Tdg" if kind == "T" else "T", qubits)
    return qcsim.write_qc(circ)


def setup(workload: str, seed: int, work: Path, rep: int):
    """Generate and write the workload, import trotopt, run the warm-up pass.

    The warm-up optimizes every small item, whose outputs seed the verify
    pairs, and runs every other command once on the smallest item.
    """
    rep_dir = work / f"setup{rep}"
    items = generate.generate(workload, seed)
    paths = generate.write(items, rep_dir / "in")
    out = rep_dir / "out"
    out.mkdir()
    cli = import_trotopt()
    ops = build_ops(items, paths, out)
    small = {it.name for it in items if it.small}
    smallest = min(items, key=lambda it: len(it.circ.gates))
    for op in ops:
        if (op.kind == "optimize" and op.item in small) or op.item == smallest.name:
            call(cli, op.argv)
    generate.write([smallest], rep_dir / "warm")
    call(cli, ["bench", rep_dir / "warm", "--report", rep_dir / "warm" / "bench.csv"])

    rng = random.Random(f"{seed}:flip")
    for it in items:
        if it.name not in small:
            continue
        opt = out / f"{it.name}.opt.qc"
        ops.append(Op("verify", it.name, ["verify", paths[it.name], opt], expect_rc=0))
        text = flipped_copy(opt.read_text(encoding="utf-8"), rng)
        if text is not None:
            flip = out / f"{it.name}.flip.qc"
            flip.write_text(text, encoding="utf-8")
            ops.append(Op("verify", it.name + "~flip", ["verify", paths[it.name], flip],
                          expect_rc=2))
    call(cli, next(op for op in ops if op.kind == "verify").argv)
    # bench runs over the small inputs only: the large ones would repeat the
    # optimize calls above and make a pass twice as long
    generate.write([it for it in items if it.small], rep_dir / "bench")
    report = out / "bench.csv"
    ops.append(Op("bench", "*", ["bench", rep_dir / "bench", "--report", report], out=report))
    return items, cli, ops


# ----------------------------------------------------------------------
# checks against references that do not come from trotopt


def _records(stdout: str) -> list[dict]:
    return [json.loads(line) for line in stdout.splitlines() if line.startswith("{")]


def _normal(stdout: str, text: str | None):
    """What must repeat exactly from pass to pass: timings removed."""
    recs = [{k: v for k, v in r.items() if not k.endswith("time_s")} for r in _records(stdout)]
    if text is not None and text.startswith("name,"):
        rows = list(csv.DictReader(io.StringIO(text)))
        text = [{k: v for k, v in row.items() if k != "wall_time_s"} for row in rows]
    return recs, text


class Checker:
    """Checks each operation's output and accumulates the quality metrics."""

    def __init__(self, items, seed: int):
        self.items = {it.name: it for it in items}
        self.rng = np.random.default_rng(seed)
        self.opt = {}  # item -> (record, reference counts of the output)
        self.quality = dict.fromkeys(("t_after", "t_depth", "ancillas", "layered_cnot",
                                      "resynth_cnot_after", "resynth_h_after"), 0)
        self.rows = {name: {} for name in self.items}

    def sim_equal(self, ref, out) -> bool:
        return out.n > SIM_MAX_QUBITS or qcsim.equivalent(ref, out, self.rng)

    def check(self, op: Op, rc, stdout: str, text: str | None) -> str | None:
        if rc != op.expect_rc:
            return f"exit code {rc!r}, expected {op.expect_rc}"
        recs = _records(stdout)
        if op.kind != "bench" and len(recs) != 1:
            return f"expected one JSON record, got {len(recs)}"
        rec = recs[0] if recs else None
        item = self.items.get(op.item.split("~")[0])
        if op.kind in ("resynth", "tdepth", "bench") and len(self.opt) < len(self.items):
            return "an in-place output it is compared with failed its check"
        try:
            return getattr(self, "check_" + op.kind)(op, item, rec, text)
        except (KeyError, ValueError, TypeError, AttributeError) as exc:
            return f"unreadable output: {type(exc).__name__}: {exc}"

    def check_optimize(self, op, item, rec, text):
        ref, out = item.circ, qcsim.read_qc(text)
        before, after = qcsim.counts(ref), qcsim.counts(out)
        if out.n != ref.n or qcsim.non_phase_skeleton(out) != qcsim.non_phase_skeleton(ref):
            return "non-phase gate sequence changed"
        drop = before["T"] - after["T"]
        if drop < 0 or drop % 2:
            return f"T-count {before['T']} -> {after['T']} is not an even drop"
        if (rec["t_before"], rec["t_after"]) != (before["T"], after["T"]):
            return "record T-counts disagree with the output file"
        for key, want in item.expect.items():
            got = {"t_before": before["T"], "t_after": after["T"], "cnot": after["CNOT"]}[key]
            if got != want:
                return f"{key} is {got}, expected {want}"
        if not self.sim_equal(ref, out):
            return "output is not equivalent to the input"
        self.opt[item.name] = (rec, after)
        self.quality["t_after"] += after["T"]
        self.rows[item.name].update(t_before=before["T"], t_after=after["T"], cnot=after["CNOT"])
        return None

    def check_resynth(self, op, item, rec, text):
        out = qcsim.read_qc(text)
        c = qcsim.counts(out)
        if c["T"] != self.opt[item.name][1]["T"]:
            return "resynth T-count differs from the in-place T-count"
        if (rec["cnot_after"], rec["h_after"]) != (c["CNOT"], c["H"]):
            return "record CNOT/H counts disagree with the output file"
        if not self.sim_equal(item.circ, out):
            return "resynth output is not equivalent to the input"
        self.quality["resynth_cnot_after"] += c["CNOT"]
        self.quality["resynth_h_after"] += c["H"]
        self.rows[item.name].update(resynth_cnot=c["CNOT"], resynth_h=c["H"])
        return None

    def check_tdepth(self, op, item, rec, text):
        t_after = self.opt[item.name][1]["T"]
        sizes = rec["layer_sizes"]
        if rec["t_count"] != t_after or sum(sizes) != t_after:
            return "tdepth T-count differs from the in-place T-count"
        if rec["t_depth"] != len(sizes) or rec["t_depth"] > t_after:
            return "T-depth inconsistent with its layers"
        self.quality["t_depth"] += rec["t_depth"]
        self.rows[item.name]["t_depth"] = rec["t_depth"]
        if text is None:
            return None
        out = qcsim.read_qc(text)
        c = qcsim.counts(out)
        if out.n != item.circ.n + rec["ancillas"] or c["T"] != t_after:
            return "layered output width or T-count is wrong"
        if not self.sim_equal(item.circ, out):
            return "layered output is not equivalent, or left an ancilla dirty"
        self.quality["ancillas"] += rec["ancillas"]
        self.quality["layered_cnot"] += c["CNOT"]
        self.rows[item.name].update(ancillas=rec["ancillas"], layered_cnot=c["CNOT"])
        return None

    def check_verify(self, op, item, rec, text):
        want = op.expect_rc == 0
        if rec.get("equivalent") is not want:
            return f"verdict {rec.get('equivalent')!r}, expected {want}"
        if not want:  # the known answer, confirmed independently
            flip = qcsim.read_qc(Path(op.argv[2]).read_text(encoding="utf-8"))
            if item.circ.n <= SIM_MAX_QUBITS and qcsim.equivalent(item.circ, flip, self.rng):
                return "flipped copy is equivalent after all"
        return None

    def check_bench(self, op, item, rec, text):
        rows = {row["name"]: row for row in csv.DictReader(io.StringIO(text))}
        scored = []
        for name in (name for name, it in self.items.items() if it.small):
            row = rows.get(f"{name}.qc")
            if row is None or row["status"] != "ok":
                return f"bench row for {name} missing or not ok"
            opt = self.opt[name][0]
            for key in ("cnot_before", "t_before", "cnot_after", "t_after"):
                if int(row[key]) != opt[key]:
                    return f"bench {key} for {name} differs from optimize"
            if float(row["reduction_percent"]) != opt["reduction_percent"]:
                return f"bench reduction for {name} differs from optimize"
            scored.append(opt["reduction_percent"])
        if float(rows["MAXIMUM"]["reduction_percent"]) != max(scored):
            return "bench MAXIMUM row is wrong"
        average = sum(scored) / len(scored)
        if abs(float(rows["AVERAGE"]["reduction_percent"]) - average) > 0.006:
            return "bench AVERAGE row is wrong"
        return None


# ----------------------------------------------------------------------
# passes


def run_pass(cli, ops, checker, speed, tracer=None, requests=None) -> tuple[float, int, int]:
    """Run every operation; returns (summed command time, calls, failures).

    The first pass runs each operation once and checks it in full; it fixes
    each operation's repeats.  Later calls must repeat the first call's exit
    codes, records and output files exactly.  The summed time counts one
    call per operation, so traced and untraced passes compare.  An untraced
    pass times the host's reference task after each operation.
    """
    busy = 0.0
    calls = failed = 0
    for op in ops:
        for repeat in range(1 if tracer else op.repeats):
            if tracer is None:
                rc, stdout, dt = call(cli, op.argv)
            else:
                with tracer.request("cli." + op.kind) as sid:
                    rc, stdout, dt = call(cli, op.argv)
                requests[sid] = op.kind
            if repeat == 0:
                busy += dt
            calls += 1
            op.times.append((dt, tracer is not None))
            text = op.out.read_text(encoding="utf-8") if op.out and op.out.exists() else None
            if op.first is None:
                op.fault = checker.check(op, rc, stdout, text)
                op.first = (rc, _normal(stdout, text))
                op.repeats = max(1, min(MAX_REPEATS, round(REPEAT_SECONDS / dt)))
                bad = op.fault
            elif op.fault or (rc, _normal(stdout, text)) != op.first:
                bad = op.fault or "output differs from the first pass"
            else:
                bad = None
            if bad:
                failed += 1
                print(f"FAILED {op.kind} {op.item}: {bad}", file=sys.stderr)
        if tracer is None:
            speed.sample()
    return busy, calls, failed


def layer_metrics(spans, requests) -> dict:
    """Per-layer totals of one traced pass.

    Times are self times summed over every serial command; ``bench`` runs
    its files on worker threads whose spans overlap, so they count only
    toward ``cli.bench.self_s``.  Counts come from the command named.
    """
    selfs = self_times(spans)
    m = {}
    by_request = {}
    for s in spans:
        by_request.setdefault(s.request, []).append(s)
    for rid, group in by_request.items():
        kind = requests[rid]
        root = next(s for s in group if s.id == rid)
        if kind != "bench":
            total = sum(selfs[s.id] for s in group)
            if abs(total - (root.end - root.start)) > 1e-6:
                raise RuntimeError(f"self times of {kind} do not add up: {total} vs "
                                   f"{root.end - root.start}")
        m[f"cli.{kind}.self_s"] = m.get(f"cli.{kind}.self_s", 0.0) + selfs[rid]
        ancillas_used = ancillas_needed = 0
        for s in group:
            if s.id == rid:
                continue
            if kind != "bench":
                m[s.name + "_s"] = m.get(s.name + "_s", 0.0) + selfs[s.id]
            if kind == "optimize":
                for key, name in (("gates", "circuit.gates"), ("t_in", "rotations.t_in"),
                                  ("comparisons", "optimizer.comparisons"),
                                  ("merges", "optimizer.merges"),
                                  ("cancellations", "optimizer.cancellations"),
                                  ("t_out", "optimizer.t_out")):
                    if key in s.info:
                        m[name] = m.get(name, 0) + s.info[key]
            elif kind == "tdepth":
                if s.name == "tgraph.build":
                    m["tgraph.edges"] = m.get("tgraph.edges", 0) + s.info["edges"]
                elif s.name == "tgraph.layerize":
                    m["tgraph.layers"] = m.get("tgraph.layers", 0) + s.info["layers"]
                elif s.name == "tgraph.extend":
                    layer = s.info["layer"]
                    rank = gf2_rank([x | (z << n) for n, x, z in layer])
                    ancillas_used = max(ancillas_used, s.info["t"])
                    ancillas_needed = max(ancillas_needed, len(layer) - rank)
            elif kind == "verify":
                if s.name == "verify.unitary":
                    m["verify.max_qubits"] = max(m.get("verify.max_qubits", 0), s.info["n"])
                elif s.name == "verify.compare":
                    m["verify.verdicts"] = m.get("verify.verdicts", 0) + 1
        if kind == "tdepth":
            m["tgraph.ancillas_used"] = m.get("tgraph.ancillas_used", 0) + ancillas_used
            m["tgraph.ancillas_needed"] = m.get("tgraph.ancillas_needed", 0) + ancillas_needed
    folds = m.get("optimizer.merges", 0) + m.get("optimizer.cancellations", 0)
    comparisons = m.get("optimizer.comparisons", 0)
    m["optimizer.fold_ratio"] = folds / comparisons if comparisons else 0.0
    return m


PER_LAYER = (
    ("circuit.parse_s", "s"), ("circuit.expand_s", "s"), ("circuit.write_s", "s"),
    ("circuit.gates", "count"),
    ("rotations.extract_s", "s"), ("rotations.edit_s", "s"), ("rotations.resynth_s", "s"),
    ("rotations.t_in", "count"),
    ("optimizer.fold_s", "s"), ("optimizer.comparisons", "count"), ("optimizer.merges", "count"),
    ("optimizer.cancellations", "count"), ("optimizer.fold_ratio", "ratio"),
    ("optimizer.t_out", "count"),
    ("tgraph.build_s", "s"), ("tgraph.edges", "count"), ("tgraph.layerize_s", "s"),
    ("tgraph.depth_s", "s"), ("tgraph.layers", "count"), ("tgraph.extend_s", "s"),
    ("tgraph.synth_s", "s"), ("tgraph.ancillas_used", "count"),
    ("tgraph.ancillas_needed", "count"),
    ("tableau.synthesize_s", "s"),
    ("verify.unitary_s", "s"), ("verify.compare_s", "s"), ("verify.max_qubits", "count"),
    ("verify.verdicts", "count"),
    *((f"cli.{kind}.self_s", "s") for kind in KINDS),
    ("trace.overhead_ratio", "ratio"),
)


# ----------------------------------------------------------------------
# main


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="trotopt end-to-end benchmark")
    parser.add_argument("--workload", choices=sorted(generate.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    signal.signal(signal.SIGTERM, _terminate)
    scratch = ROOT / ".trotbench"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=scratch))
    try:
        return bench(args, work, scratch)
    except Terminated:
        return 143
    finally:
        shutil.rmtree(work, ignore_errors=True)


def timed_setup(args, work: Path, rep: int):
    """Time one set-up.  Only the first is kept: after a later one, the
    passes' trotopt modules are restored and its files removed."""
    loaded = {k: v for k, v in sys.modules.items() if k == "trotopt" or k.startswith("trotopt.")}
    start = time.perf_counter()
    result = setup(args.workload, args.seed, work, rep)
    elapsed = time.perf_counter() - start
    if rep:
        for name in [m for m in sys.modules if m == "trotopt" or m.startswith("trotopt.")]:
            del sys.modules[name]
        sys.modules.update(loaded)
        shutil.rmtree(work / f"setup{rep}")
    return elapsed, result


def bench(args, work: Path, scratch: Path) -> int:
    # The set-ups after the first run between passes, so that setup_s sees
    # the same fast and slow machine phases as the passes do.
    elapsed, (items, cli, ops) = timed_setup(args, work, 0)
    setup_times = [elapsed]

    checker = Checker(items, args.seed)
    speed = HostSpeed()
    tracer = Tracer() if args.trace else None
    traced_spans, requests, walls = [], {}, {False: [], True: []}
    lengths = []  # wall time of each pass, the set-up after it included
    deadline = time.perf_counter() + args.seconds
    attempted = failed = 0
    while True:
        traced = bool(args.trace) and len(walls[False]) > len(walls[True])
        # the first pass runs the checks; the next pass costs about as much
        # as the longer of the last two others (one traced, one not)
        expected = max(lengths[1:][-2:] or lengths or [0.0])
        # times are averaged over the untraced passes after the first
        enough = len(walls[False]) >= 2 and (walls[True] or not args.trace)
        if enough and time.perf_counter() + expected > deadline:
            break
        started = time.perf_counter()
        if traced:
            tracer.spans = []
            tracer.install()
        try:
            busy, calls, bad = run_pass(cli, ops, checker, speed, tracer if traced else None,
                                        requests)
        finally:
            if traced:
                tracer.uninstall()
        walls[traced].append(busy)
        if len(lengths) == 0:
            # the workload, the checked outputs and trotopt's modules live
            # for the whole run: keep the collector from rescanning them
            gc.collect()
            gc.freeze()
        attempted += calls
        failed += bad
        if traced:
            traced_spans.append(tracer.spans)
        if len(setup_times) < SETUP_REPEATS:
            setup_times.append(timed_setup(args, work, len(setup_times))[0])
        lengths.append(time.perf_counter() - started)
    while len(setup_times) < SETUP_REPEATS:
        setup_times.append(timed_setup(args, work, len(setup_times))[0])

    print_rows(items, ops, checker, speed)
    if args.trace:
        metrics = traced_metrics(traced_spans, requests, walls)
        write_spans(scratch / f"trace-{args.workload}-{args.seed}.jsonl", traced_spans, requests)
    else:
        metrics = end_to_end(ops, checker, speed, setup_times, attempted, failed)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def mean_time(op, speed):
    """Mean untraced time of one call of ``op`` after the first (checked)
    pass, in reference seconds."""
    return statistics.fmean(dt for dt, traced in op.times[1:] if not traced) * speed.scale()


def end_to_end(ops, checker, speed, setup_times, attempted, failed) -> dict:
    m = {"setup_s": (statistics.median(setup_times) * speed.scale(), "s")}
    for kind in KINDS:
        m[f"{kind}_s"] = (sum(mean_time(op, speed) for op in ops if op.kind == kind), "s")
    for key, value in checker.quality.items():
        m[key] = (value, "count")
    m["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    m["success_rate"] = ((attempted - failed) / attempted, "ratio")
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


def traced_metrics(traced_spans, requests, walls) -> dict:
    per_pass = [layer_metrics(spans, requests) for spans in traced_spans]
    out = {}
    for name, unit in PER_LAYER:
        if name == "trace.overhead_ratio":
            value = statistics.median(walls[True]) / statistics.median(walls[False]) - 1
        else:
            value = statistics.median(p.get(name, 0) for p in per_pass)
        out[name] = {"value": value, "unit": unit}
    return out


def write_spans(path: Path, traced_spans, requests) -> None:
    with path.open("w", encoding="utf-8") as fh:
        for number, spans in enumerate(traced_spans):
            for s in spans:
                info = {k: v for k, v in s.info.items() if k != "layer"}
                fh.write(json.dumps({"pass": number, "id": s.id, "name": s.name,
                                     "start": s.start, "end": s.end, "parent": s.parent,
                                     "request": s.request, "command": requests[s.request],
                                     "thread": s.thread, **info}) + "\n")


def print_rows(items, ops, checker, speed) -> None:
    """One row per input: quality values and mean times per command, then
    the reference task's mean time, which the times were scaled by."""
    for it in items:
        times = {}
        for op in ops:
            if op.item.split("~")[0] == it.name and op.times:
                times[op.kind] = times.get(op.kind, 0.0) + mean_time(op, speed)
        row = {"item": it.name, "family": it.family, "qubits": it.circ.n,
               **checker.rows[it.name], **{f"{k}_s": round(v, 4) for k, v in times.items()}}
        print(json.dumps(row))
    print(json.dumps({"reference_task_s": statistics.fmean(speed.times),
                      "samples": len(speed.times), "scale": speed.scale()}))


if __name__ == "__main__":
    sys.exit(main())
