"""Command-line front end: optimize, stats, tdepth, verify, bench.

Exit codes are stable: 0 success, 1 input error, 2 verification failure.
Stats records are printed as single-line JSON; bench emits CSV.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, fields
from pathlib import Path

from .circuit import Circuit, ParseError, UnsupportedGateError, parse_qc, write_qc
from .optimizer import optimize, t_count_reduction
from .rotations import apply_edit_plan, from_rotation_form_resynth, to_rotation_form
from .tableau import synthesize
from .tgraph import (
    build_tgraph,
    extend_with_ancillas,
    layerize,
    synthesize_layer,
    t_depth_bound,
    to_dot,
)
from .verify import (
    VerificationCapError,
    equivalent_up_to_phase,
    unitary_of,
    verification_cap,
)

EXIT_OK = 0
EXIT_INPUT_ERROR = 1
EXIT_VERIFY_FAILED = 2


# main exits 1 on these
_INPUT_ERRORS = (ParseError, UnsupportedGateError, OSError, VerificationCapError)


def _load_circuit(path: str | Path) -> Circuit:
    """Parse a ``.qc`` file; bytes that are not UTF-8 raise ParseError."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
    return parse_qc(text)


def _emit(record: dict) -> None:
    print(json.dumps(record, sort_keys=True))


@dataclass
class BenchRow:
    name: str
    cnot_before: int | None = None
    t_before: int | None = None
    cnot_after: int | None = None
    t_after: int | None = None
    reduction_percent: float | None = None
    wall_time_s: float | None = None
    status: str = "ok"


BENCH_COLUMNS = [f.name for f in fields(BenchRow)]


def _optimize_circuit(circuit: Circuit, mode: str):
    """Expand, extract, fold, edit or resynthesize: (expanded, out, stats, seconds)."""
    started = time.perf_counter()
    expanded = circuit.expand()
    result = optimize(to_rotation_form(expanded))
    if mode == "resynth":
        out = from_rotation_form_resynth(result.form)
    else:
        out = apply_edit_plan(expanded, result.plan)
    return expanded, out, result.stats, time.perf_counter() - started


def cmd_optimize(args: argparse.Namespace) -> int:
    circuit = _load_circuit(args.input)
    expanded, out, stats, elapsed = _optimize_circuit(circuit, args.mode)

    cap = args.max_verify_qubits if args.max_verify_qubits is not None else verification_cap()
    verified: bool | None = None
    skipped: str | None = None
    if args.verify is False:
        skipped = "disabled by --no-verify"
    elif args.verify is None and circuit.n > 6:
        skipped = f"not requested: {circuit.n} qubits, the default verifies up to 6"
    elif circuit.n > cap:
        skipped = f"{circuit.n} qubits exceeds the verification cap of {cap}"
        print(f"note: verification skipped: {skipped}", file=sys.stderr)
    else:
        verified = equivalent_up_to_phase(
            unitary_of(out, max_qubits=cap), unitary_of(expanded, max_qubits=cap)
        )

    before = expanded.counts()
    after = out.counts()
    reduction = t_count_reduction(expanded, out)
    record = {
        "file": args.input,
        "qubits": circuit.n,
        "mode": args.mode,
        "t_before": before.t_count,
        "t_after": after.t_count,
        "cnot_before": before.cnot_count,
        "cnot_after": after.cnot_count,
        "h_before": before.h_count,
        "h_after": after.h_count,
        "reduction_percent": round(reduction.percent, 2),
        "verified": verified,
        "verify_skipped": skipped,
        "wall_time_s": round(elapsed, 6),
        **stats.as_dict(),
    }
    _emit(record)

    if args.output:
        Path(args.output).write_text(write_qc(out), encoding="utf-8")
    if verified is False:
        print("error: optimized circuit is NOT equivalent to the input", file=sys.stderr)
        return EXIT_VERIFY_FAILED
    return EXIT_OK


def cmd_stats(args: argparse.Namespace) -> int:
    circuit = _load_circuit(args.input)
    expanded = circuit.expand()
    record = {
        "file": args.input,
        "qubits": circuit.n,
        **{f"raw_{k}": v for k, v in circuit.counts().as_dict().items()},
        **{f"expanded_{k}": v for k, v in expanded.counts().as_dict().items()},
    }
    _emit(record)
    return EXIT_OK


def _layered_circuit(form, schedule, names) -> Circuit:
    """Concatenate one T layer per schedule entry over a shared ancilla block."""
    t = max((len(layer) for layer in schedule.layers), default=0)
    total = form.n + t
    gate_list = []
    for layer in schedule.layers:
        members = [form.rotations[v] for v in layer]
        extended = extend_with_ancillas(members, t)
        block = synthesize_layer(extended)
        gate_list.extend(block.gates)
    gate_list.extend(synthesize(form.tail_clifford).gates)
    qubit_names = tuple(names) + tuple(f"anc{i}" for i in range(t))
    return Circuit(qubit_names, tuple(gate_list))


def cmd_tdepth(args: argparse.Namespace) -> int:
    circuit = _load_circuit(args.input)
    expanded = circuit.expand()
    form = to_rotation_form(expanded)
    if not args.no_optimize:
        form = optimize(form).form
    graph = build_tgraph(form)
    schedule = layerize(graph, alap=args.alap)
    record = {
        "file": args.input,
        "qubits": circuit.n,
        "t_count": len(form.rotations),
        "t_depth": t_depth_bound(graph),
        "layer_sizes": [len(layer) for layer in schedule.layers],
        "ancillas": max((len(layer) for layer in schedule.layers), default=0)
        if args.ancilla
        else 0,
    }
    _emit(record)
    if args.dot:
        Path(args.dot).write_text(to_dot(graph), encoding="utf-8")
    if args.ancilla:
        layered = _layered_circuit(form, schedule, circuit.qubit_names)
        text = write_qc(layered)
        if args.output:
            Path(args.output).write_text(text, encoding="utf-8")
        else:
            print(text, end="")
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    a = _load_circuit(args.a).expand()
    b = _load_circuit(args.b).expand()
    if a.n != b.n:
        print("error: circuits have different qubit counts", file=sys.stderr)
        return EXIT_INPUT_ERROR
    cap = args.max_verify_qubits if args.max_verify_qubits is not None else verification_cap()
    try:
        equal = equivalent_up_to_phase(
            unitary_of(a, max_qubits=cap), unitary_of(b, max_qubits=cap)
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    _emit({"a": args.a, "b": args.b, "equivalent": equal})
    return EXIT_OK if equal else EXIT_VERIFY_FAILED


def _bench_one(path: Path, mode: str) -> BenchRow:
    try:
        circuit = _load_circuit(path)
    except _INPUT_ERRORS as exc:
        return BenchRow(name=path.name, status=f"skip: {exc}")
    expanded, out, _, elapsed = _optimize_circuit(circuit, mode)
    before = expanded.counts()
    after = out.counts()
    reduction = t_count_reduction(expanded, out)
    return BenchRow(
        name=path.name,
        cnot_before=before.cnot_count,
        t_before=before.t_count,
        cnot_after=after.cnot_count,
        t_after=after.t_count,
        reduction_percent=round(reduction.percent, 2),
        wall_time_s=round(elapsed, 6),
    )


def cmd_bench(args: argparse.Namespace) -> int:
    root = Path(args.directory)
    files = sorted(root.glob("*.qc"))
    if not files:
        print(f"error: no .qc files under {root}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    with ThreadPoolExecutor(max_workers=args.jobs) as pool:
        rows = list(pool.map(lambda p: _bench_one(p, args.mode), files))
    rows.sort(key=lambda r: r.name)

    scored = [r for r in rows if r.status == "ok"]
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=BENCH_COLUMNS)
    writer.writeheader()
    for row in rows:
        writer.writerow(asdict(row))
    if scored:
        average = sum(r.reduction_percent for r in scored) / len(scored)
        best = max(r.reduction_percent for r in scored)
        writer.writerow({"name": "AVERAGE", "reduction_percent": round(average, 2), "status": ""})
        writer.writerow({"name": "MAXIMUM", "reduction_percent": round(best, 2), "status": ""})
    text = buf.getvalue()
    if args.report:
        Path(args.report).write_text(text, encoding="utf-8")
    else:
        print(text, end="")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trotopt",
        description="T-count and T-depth optimization for Clifford+T .qc circuits",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_opt = sub.add_parser("optimize", help="reduce T-count and write the result")
    p_opt.add_argument("input")
    p_opt.add_argument("-o", "--output", help="path for the optimized .qc file")
    p_opt.add_argument("--mode", choices=["inplace", "resynth"], default="inplace")
    group = p_opt.add_mutually_exclusive_group()
    group.add_argument("--verify", dest="verify", action="store_true", default=None)
    group.add_argument("--no-verify", dest="verify", action="store_false")
    p_opt.add_argument("--max-verify-qubits", type=int, default=None)
    p_opt.set_defaults(func=cmd_optimize)

    p_stats = sub.add_parser("stats", help="print gate counts")
    p_stats.add_argument("input")
    p_stats.set_defaults(func=cmd_stats)

    p_td = sub.add_parser("tdepth", help="compute the commutation-only T-depth")
    p_td.add_argument("input")
    p_td.add_argument("--ancilla", action="store_true", help="emit the layered circuit")
    p_td.add_argument("--alap", action="store_true", help="schedule layers as late as possible")
    p_td.add_argument("--no-optimize", action="store_true", help="skip the T-count pass")
    p_td.add_argument("-o", "--output", help="path for the layered .qc file")
    p_td.add_argument("--dot", help="path for a DOT dump of the rotation DAG")
    p_td.set_defaults(func=cmd_tdepth)

    p_ver = sub.add_parser("verify", help="compare two circuits up to global phase")
    p_ver.add_argument("a")
    p_ver.add_argument("b")
    p_ver.add_argument("--max-verify-qubits", type=int, default=None)
    p_ver.set_defaults(func=cmd_verify)

    p_bench = sub.add_parser("bench", help="optimize every .qc file in a directory")
    p_bench.add_argument("directory")
    p_bench.add_argument("--report", help="path for the CSV report (default stdout)")
    p_bench.add_argument("--mode", choices=["inplace", "resynth"], default="inplace")
    p_bench.add_argument("--jobs", type=int, default=4)
    p_bench.set_defaults(func=cmd_bench)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
