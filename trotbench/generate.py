"""Deterministic workload generator for the trotopt benchmark.

Every circuit is built in code, except ``mod5_4``, which is the `.qc` file
bundled in ``benchmarks/``; the seed draws each circuit's classical input.
The circuit families stand in for the Amy-Maslov-Mosca suite the paper
reports on; no table number of the paper is reproduced by them.

Usage::

    python3 trotbench/generate.py --workload arith --seed 1 --out DIR
"""

from __future__ import annotations

import argparse
import random
from dataclasses import dataclass, field
from pathlib import Path

from qcsim import Circ, read_qc, write_qc

REPO = Path(__file__).resolve().parent.parent

# Why each family is in the benchmark.
FAMILIES = {
    "random_ct": "random Clifford+T at full width: extraction and merge-heavy "
                 "folding dominate, each merge costing O(n^2) tableau work",
    "phase_poly": "CNOT+T(+X) circuits: every axis is diagonal, so the fold's "
                  "backward scan and the T-graph's pair scan run long",
    "mod5_4": "the bundled benchmark with known results (T 28 -> 8, CNOT 28)",
    "tof_ladder": "Nielsen-Chuang multi-controlled Toffoli over clean ancillas: "
                  "long chains of Toffolis sharing qubits",
    "barenco": "Barenco et al. (quant-ph/9503016) Lemma 7.2 multi-controlled "
               "Toffoli over borrowed qubits: 4(m-2) Toffolis, no clean ancilla",
    "cuccaro": "Cuccaro et al. (quant-ph/0410184) ripple-carry adder built "
               "from MAJ/UMA blocks",
    "gf_mult": "GF(2^m) multiplier: m^2 Toffolis with CNOT reduction steps, "
               "large commuting layers for T-depth scheduling",
}

# x^m + sum of these powers is irreducible over GF(2)
IRREDUCIBLE = {2: (1, 0), 3: (1, 0), 4: (1, 0), 5: (2, 0), 6: (1, 0), 7: (1, 0),
               8: (4, 3, 1, 0), 9: (4, 0), 10: (3, 0)}


@dataclass
class Item:
    """One generated input and the commands the benchmark runs on it.

    ``small`` items also go through ``--mode resynth``, ``verify`` and
    ``tdepth --ancilla``; ``ancilla`` items get ``tdepth --ancilla`` too.
    """

    name: str
    family: str
    circ: Circ
    small: bool = False
    ancilla: bool = False
    inputs: list | None = None
    expect: dict = field(default_factory=dict)


# ----------------------------------------------------------------------
# families


def random_ct(n: int, size: int, rng: random.Random, t_weight: float = 0.4) -> Circ:
    c = Circ([f"q{i}" for i in range(n)])
    one = ("H", "S", "Sdg", "X", "Y", "Z")
    two = ("CNOT", "CZ", "SWAP")
    for _ in range(size):
        if rng.random() < t_weight:
            c.add(rng.choice(("T", "Tdg")), rng.randrange(n))
        elif rng.random() < 0.5:
            c.add(rng.choice(one), rng.randrange(n))
        else:
            c.add(rng.choice(two), *rng.sample(range(n), 2))
    return c


def phase_poly(n: int, size: int, rng: random.Random) -> Circ:
    c = Circ([f"q{i}" for i in range(n)])
    for _ in range(size):
        r = rng.random()
        if r < 0.5:
            c.add(rng.choice(("T", "Tdg")), rng.randrange(n))
        elif r < 0.95:
            c.add("CNOT", *rng.sample(range(n), 2))
        else:
            c.add("X", rng.randrange(n))
    return c


def _wires(registers: list[tuple[str, int]]):
    """A circuit over named registers, plus a name -> wire index lookup."""
    names = [f"{p}{i}" for p, k in registers for i in range(k)]
    slot = {name: i for i, name in enumerate(names)}
    return Circ(names), (lambda name: slot[name])


def tof_ladder(m: int) -> tuple[Circ, list]:
    """C^m X: partial ANDs computed into m-2 clean ancillas, then uncomputed."""
    c, q = _wires([("c", m), ("a", m - 2), ("t", 1)])
    chain = [("c0", "c1", "a0")] + [(f"c{i + 1}", f"a{i - 1}", f"a{i}") for i in range(1, m - 2)]
    for a, b, t in chain:
        c.add("TOF", q(a), q(b), q(t))
    c.add("TOF", q(f"c{m - 1}"), q(f"a{m - 3}"), q("t0"))
    for a, b, t in reversed(chain):
        c.add("TOF", q(a), q(b), q(t))
    return c, [f"c{i}" for i in range(m)] + ["t0"]


def barenco(m: int) -> tuple[Circ, list]:
    """C^m X on target t with m-2 borrowed (dirty) qubits, 4(m-2) Toffolis."""
    c, q = _wires([("c", m), ("b", m - 2), ("t", 1)])
    # down[k] computes into b[k]; the top gate targets t
    top = (f"c{m - 1}", f"b{m - 3}", "t0")
    down = [(f"c{k + 2}", f"b{k}", f"b{k + 1}") for k in range(m - 3)][::-1]
    core = ("c0", "c1", "b0")
    half = down + [core] + down[::-1]
    for a, b, t in [top] + half + [top] + half:
        c.add("TOF", q(a), q(b), q(t))
    return c, list(c.names)


def cuccaro(bits: int) -> tuple[Circ, list]:
    """In-place b += a with carry-out z; MAJ/UMA ripple (one Toffoli each)."""
    c, q = _wires([("x", 1), ("a", bits), ("b", bits), ("z", 1)])
    carry = ["x0"] + [f"a{i}" for i in range(bits - 1)]

    def maj(x, y, w):
        c.add("CNOT", q(w), q(y))
        c.add("CNOT", q(w), q(x))
        c.add("TOF", q(x), q(y), q(w))

    def uma(x, y, w):
        c.add("TOF", q(x), q(y), q(w))
        c.add("CNOT", q(w), q(x))
        c.add("CNOT", q(x), q(y))

    for i in range(bits):
        maj(carry[i], f"b{i}", f"a{i}")
    c.add("CNOT", q(f"a{bits - 1}"), q("z0"))
    for i in reversed(range(bits)):
        uma(carry[i], f"b{i}", f"a{i}")
    return c, [f"a{i}" for i in range(bits)] + [f"b{i}" for i in range(bits)]


def gf_mult(m: int) -> tuple[Circ, list]:
    """c = a * b in GF(2^m) by Horner's rule: c <- c*x mod p, then c += a_i*b.

    Multiplying by x rotates the c register (tracked as a relabelling) and
    feeds the wrapped top bit back with CNOTs.
    """
    c, q = _wires([("a", m), ("b", m), ("c", m)])
    slot = [f"c{k}" for k in range(m)]  # slot[k] holds the coefficient of x^k
    for i in reversed(range(m)):
        if i != m - 1:
            slot = [slot[-1]] + slot[:-1]
            for k in IRREDUCIBLE[m]:
                if k:
                    c.add("CNOT", q(slot[0]), q(slot[k]))
        for j in range(m):
            c.add("TOF", q(f"a{i}"), q(f"b{j}"), q(slot[j]))
    return c, [f"a{i}" for i in range(m)] + [f"b{i}" for i in range(m)]


def mod5_4() -> Circ:
    return read_qc((REPO / "benchmarks" / "mod5_4.qc").read_text(encoding="utf-8"))


# ----------------------------------------------------------------------
# workloads
#
# Circuit bodies are fixed: the random ones come from a stream named after
# the circuit.  The seed draws each circuit's classical input, an X gate on
# a random subset of its input wires (the first eight, for random circuits).
# That conjugates every extracted axis by the same Pauli, so fold decisions,
# T-counts and CNOT/H counts repeat across seeds and only the run-to-run
# noise is left in the times.


def _with_input(name: str, body: Circ, inputs: list, seed: int) -> Circ:
    rng = random.Random(f"{seed}:{name}:input")
    index = {q: i for i, q in enumerate(body.names)}
    load = [("X", (index[q],)) for q in inputs if rng.random() < 0.5]
    return Circ(body.names, load + body.gates)


def _random_item(seed: int, name: str, build, n: int, size: int, **flags) -> Item:
    body = build(n, size, random.Random(f"body:{name}"))
    return Item(name, build.__name__, _with_input(name, body, body.names[:8], seed), **flags)


def wide_random(seed: int) -> list[Item]:
    # n=200, not wider, and two n=100 circuits rather than one twice as long:
    # at n=400 one merge costs a single ~1.3 s call, and short calls let a
    # 40-second run make many passes to average over
    return [_random_item(seed, "rand_n100_a", random_ct, 100, 400),
            _random_item(seed, "rand_n100_b", random_ct, 100, 400),
            _random_item(seed, "rand_n200", random_ct, 200, 300),
            # small members of the family, so that resynth, verify and layered
            # output have work here too
            _random_item(seed, "rand_n6_0", random_ct, 6, 48, small=True, ancilla=True),
            _random_item(seed, "rand_n6_1", random_ct, 6, 48, small=True, ancilla=True)]


def phase_poly_workload(seed: int) -> list[Item]:
    # five circuits of 1 200 gates rather than three of 2 000: shorter calls
    # find quiet spells on a shared host more often, for the same total work
    return [_random_item(seed, f"pp_n{n}", phase_poly, n, 1200) for n in (16, 20, 24, 28, 32)] + [
        _random_item(seed, f"pp_n6_{i}", phase_poly, 6, 24, small=True, ancilla=True)
        for i in range(2)]


def arith(seed: int) -> list[Item]:
    items = [Item("mod5_4", "mod5_4", mod5_4(), small=True, ancilla=True,
                  expect={"t_before": 28, "t_after": 8, "cnot": 28})]
    small = [("tof_4", tof_ladder, 4), ("barenco_4", barenco, 4), ("cuccaro_2", cuccaro, 2),
             ("gf2_2", gf_mult, 2)]
    large = [("tof_10", tof_ladder, 10), ("tof_14", tof_ladder, 14), ("barenco_8", barenco, 8),
             ("cuccaro_8", cuccaro, 8), ("gf2_4", gf_mult, 4)]
    for group, is_small in ((small, True), (large, False)):
        for name, build, size in group:
            body, inputs = build(size)
            items.append(Item(name, build.__name__, _with_input(name, body, inputs, seed),
                              small=is_small, ancilla=True, inputs=inputs))
    return items


WORKLOADS = {
    "wide_random": wide_random,
    "phase_poly": phase_poly_workload,
    "arith": arith,
}


def generate(workload: str, seed: int) -> list[Item]:
    return WORKLOADS[workload](seed)


def write(items: list[Item], directory: Path) -> dict[str, Path]:
    directory.mkdir(parents=True, exist_ok=True)
    paths = {}
    for item in items:
        path = directory / f"{item.name}.qc"
        path.write_text(write_qc(item.circ, item.inputs), encoding="utf-8")
        paths[item.name] = path
    return paths


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    for item in generate(args.workload, args.seed):
        write([item], args.out)
        print(f"{item.name:12s} n={item.circ.n:3d} gates={len(item.circ.gates):5d} "
              f"{item.family}: {FAMILIES[item.family]}")


if __name__ == "__main__":
    main()
