"""Command-line front end: optimize, stats, tdepth, verify, bench.

Exit codes are stable: 0 success, 1 input error, 2 verification failure.
Stats records are printed as single-line JSON; bench emits CSV.

``optimize --verify`` and ``verify`` hand the dense oracle the circuits as
parsed, Toffoli and CCZ included, and it applies each of those as one block
op; so the pipeline's own Clifford+T expansion is checked along with the
fold and the edit.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import time
from functools import cache
from pathlib import Path

from .circuit import Circuit, ParseError, UnsupportedGateError, parse_qc, write_qc
from .optimizer import _reduction, optimize
from .rotations import (
    apply_edit_plan,
    from_rotation_form_resynth,
    synthesize_schedule,
    to_rotation_form,
)
from .tgraph import build_tgraph, layerize, to_dot
from .verify import (
    DEFAULT_QUBIT_CAP,
    VerificationCapError,
    equivalent_up_to_phase,
    unitary_of,
)

EXIT_OK = 0
EXIT_INPUT_ERROR = 1
EXIT_VERIFY_FAILED = 2


# main exits 1 on these
_INPUT_ERRORS = (ParseError, UnsupportedGateError, OSError, VerificationCapError)

BENCH_COLUMNS = [
    "name", "cnot_before", "t_before", "cnot_after", "t_after",
    "reduction_percent", "wall_time_s", "status",
]


def _load_circuit(path: str | Path) -> Circuit:
    """Parse a ``.qc`` file; bytes that are not UTF-8 raise ParseError."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
    return parse_qc(text)


def _emit(record: dict) -> None:
    print(json.dumps(record, sort_keys=True))


def _optimize_circuit(circuit: Circuit, mode: str):
    """Expand, extract, fold, edit or resynthesize: (out, record).

    The record holds the fold counters, the T/CNOT/H counts before and
    after, ``reduction_percent`` and ``wall_time_s``, the time of the whole
    pipeline from expansion to the output circuit.
    """
    started = time.perf_counter()
    expanded = circuit.expand()
    result = optimize(to_rotation_form(expanded))
    if mode == "resynth":
        out = from_rotation_form_resynth(result.form)
    else:
        out = apply_edit_plan(expanded, result.plan)
    elapsed = time.perf_counter() - started
    before, after = expanded.counts(), out.counts()
    record = {
        **result.stats.as_dict(),
        **_reduction(before, after).as_dict(),
        "cnot_before": before.cnot_count,
        "cnot_after": after.cnot_count,
        "h_before": before.h_count,
        "h_after": after.h_count,
        "wall_time_s": round(elapsed, 6),
    }
    return out, record


def _equivalent(a: Circuit, b: Circuit, cap: int) -> bool:
    """Dense-oracle verdict on the circuits as given: Toffoli and CCZ stay block ops."""
    return equivalent_up_to_phase(unitary_of(a, max_qubits=cap), unitary_of(b, max_qubits=cap))


def cmd_optimize(args: argparse.Namespace) -> int:
    circuit = _load_circuit(args.input)
    skipped: str | None = None
    if args.verify is False:
        skipped = "disabled by --no-verify"
    elif args.verify is None and circuit.n > 6:
        skipped = f"not requested: {circuit.n} qubits, the default verifies up to 6"
    elif circuit.n > args.max_verify_qubits:
        skipped = f"{circuit.n} qubits exceeds the verification cap of {args.max_verify_qubits}"
        print(f"note: verification skipped: {skipped}", file=sys.stderr)

    out, record = _optimize_circuit(circuit, args.mode)
    verified = None if skipped else _equivalent(out, circuit, args.max_verify_qubits)
    _emit({"file": args.input, "qubits": circuit.n, "mode": args.mode,
           "verified": verified, "verify_skipped": skipped, **record})

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


def cmd_tdepth(args: argparse.Namespace) -> int:
    if args.output and not args.ancilla:
        print("error: -o/--output needs --ancilla, which emits the layered circuit",
              file=sys.stderr)
        return EXIT_INPUT_ERROR
    circuit = _load_circuit(args.input)
    expanded = circuit.expand()
    form = to_rotation_form(expanded)
    if not args.no_optimize:
        form = optimize(form).form
    schedule = layerize(form, alap=args.alap)
    layered = synthesize_schedule(form, schedule.layers) if args.ancilla else None
    record = {
        "file": args.input,
        "qubits": circuit.n,
        "t_count": len(form._x),
        "t_depth": schedule.depth,
        "layer_sizes": [len(layer) for layer in schedule.layers],
        "ancillas": layered.n - form.n if layered is not None else 0,
    }
    _emit(record)
    if args.dot:
        Path(args.dot).write_text(to_dot(build_tgraph(form)), encoding="utf-8")
    if layered is not None:
        text = write_qc(layered)
        if args.output:
            Path(args.output).write_text(text, encoding="utf-8")
        else:
            print(text, end="")
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    a = _load_circuit(args.a)
    b = _load_circuit(args.b)
    if a.n != b.n:
        print("error: circuits have different qubit counts", file=sys.stderr)
        return EXIT_INPUT_ERROR
    equal = _equivalent(a, b, args.max_verify_qubits)
    _emit({"a": args.a, "b": args.b, "equivalent": equal})
    return EXIT_OK if equal else EXIT_VERIFY_FAILED


def _bench_one(path: Path, mode: str) -> dict:
    try:
        circuit = _load_circuit(path)
    except _INPUT_ERRORS as exc:
        return {"name": path.name, "status": f"skip: {exc}"}
    return {"name": path.name, **_optimize_circuit(circuit, mode)[1], "status": "ok"}


def cmd_bench(args: argparse.Namespace) -> int:
    root = Path(args.directory)
    files = sorted(root.glob("*.qc"))
    if not files:
        print(f"error: no .qc files under {root}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    rows = [_bench_one(path, args.mode) for path in files]

    scored = [r["reduction_percent"] for r in rows if r["status"] == "ok"]
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=BENCH_COLUMNS, extrasaction="ignore")
    writer.writeheader()
    writer.writerows(rows)
    if scored:
        average = sum(scored) / len(scored)
        writer.writerow({"name": "AVERAGE", "reduction_percent": round(average, 2)})
        writer.writerow({"name": "MAXIMUM", "reduction_percent": max(scored)})
    text = buf.getvalue()
    if args.report:
        Path(args.report).write_text(text, encoding="utf-8")
    else:
        print(text, end="")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1 (input error); argparse's own 2 means a failed check here."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT_ERROR, f"error: {message}\n")


def _qubit_cap(text: str) -> int:
    try:
        cap = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if cap < 0:
        raise argparse.ArgumentTypeError(f"must not be negative: {cap}")
    return cap


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
    p_opt.add_argument("--max-verify-qubits", type=_qubit_cap, default=DEFAULT_QUBIT_CAP)
    p_opt.set_defaults(func=cmd_optimize)

    p_stats = sub.add_parser("stats", help="print gate counts")
    p_stats.add_argument("input")
    p_stats.set_defaults(func=cmd_stats)

    p_td = sub.add_parser("tdepth", help="compute the commutation-only T-depth")
    p_td.add_argument("input")
    p_td.add_argument("--ancilla", action="store_true", help="emit the layered circuit")
    p_td.add_argument("--alap", action="store_true", help="schedule layers as late as possible")
    p_td.add_argument("--no-optimize", action="store_true", help="skip the T-count pass")
    p_td.add_argument("-o", "--output", help="path for the layered .qc file (needs --ancilla)")
    p_td.add_argument("--dot", help="path for a DOT dump of the rotation DAG")
    p_td.set_defaults(func=cmd_tdepth)

    p_ver = sub.add_parser("verify", help="compare two circuits up to global phase")
    p_ver.add_argument("a")
    p_ver.add_argument("b")
    p_ver.add_argument("--max-verify-qubits", type=_qubit_cap, default=DEFAULT_QUBIT_CAP)
    p_ver.set_defaults(func=cmd_verify)

    p_bench = sub.add_parser("bench", help="optimize every .qc file in a directory")
    p_bench.add_argument("directory")
    p_bench.add_argument("--report", help="path for the CSV report (default stdout)")
    p_bench.add_argument("--mode", choices=["inplace", "resynth"], default="inplace")
    p_bench.set_defaults(func=cmd_bench)
    return parser


@cache
def _parser() -> argparse.ArgumentParser:
    """:func:`build_parser`, built once per process and reused by every call."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:  # --help (0) or a usage error (1), both already printed
        return exc.code
    try:
        return args.func(args)
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
