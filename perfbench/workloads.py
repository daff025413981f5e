"""Seeded inputs for the three benchmark workloads.

Nothing here imports klogic: a plan is plain data (argv lists, input file
contents and a checking spec per operation), so the program under test
receives only generated text, and the references in `reference.py` work from
the same spec without asking klogic for anything.

Formulas are tuples: ("v", name), ("T",), ("F",), ("!", f), ("K", f) and
(op, left, right) for op in &, |, ->, <->.  `text` prints them fully
parenthesized, so the input never depends on klogic's printer.

Every query's answer class (witness: INVALID or SAT; exhaustive: VALID or
UNSAT) follows from S5 by construction, so the mix of classes in a round is
known without running any engine.  The references still decide pass/fail.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

WORKLOADS = ("modal", "reports", "cli-session")

BINARY = ("&", "|", "->", "<->")


# -- formulas ----------------------------------------------------------------

def V(name: str) -> tuple:
    return ("v", name)


def N(f: tuple) -> tuple:
    return ("!", f)


def K(f: tuple) -> tuple:
    return ("K", f)


def conj(*fs: tuple) -> tuple:
    """Left-nested conjunction, the way `a & b & c` parses."""
    out = fs[0]
    for f in fs[1:]:
        out = ("&", out, f)
    return out


def disj(*fs: tuple) -> tuple:
    out = fs[0]
    for f in fs[1:]:
        out = ("|", out, f)
    return out


def imp(a: tuple, b: tuple) -> tuple:
    return ("->", a, b)


def iff(a: tuple, b: tuple) -> tuple:
    return ("<->", a, b)


def text(f: tuple) -> str:
    tag = f[0]
    if tag == "v":
        return f[1]
    if tag == "T":
        return "true"
    if tag == "F":
        return "false"
    if tag == "!":
        return "!" + text(f[1])
    if tag == "K":
        return f"K({text(f[1])})"
    return f"({text(f[1])} {tag} {text(f[2])})"


def walk(f: tuple):
    yield f
    if f[0] in ("!", "K"):
        yield from walk(f[1])
    elif f[0] in BINARY:
        yield from walk(f[1])
        yield from walk(f[2])


def atoms_of(*fs: tuple) -> list[str]:
    return sorted({g[1] for f in fs for g in walk(f) if g[0] == "v"})


def k_count(*fs: tuple) -> int:
    """Distinct K subformulas."""
    return len({g for f in fs for g in walk(f) if g[0] == "K"})


def node_count(*fs: tuple) -> int:
    return sum(1 for f in fs for _ in walk(f))


def has_k(*fs: tuple) -> bool:
    return k_count(*fs) > 0


def literal(rng: random.Random, name: str) -> tuple:
    return N(V(name)) if rng.random() < 0.5 else V(name)


def random_prop(rng: random.Random, names: list[str], leaves: int) -> tuple:
    """A random K-free formula using every name at least once."""
    pool = list(names) + [rng.choice(names) for _ in range(max(0, leaves - len(names)))]
    rng.shuffle(pool)
    nodes = [literal(rng, n) for n in pool]
    while len(nodes) > 1:
        i = rng.randrange(len(nodes) - 1)
        node = (rng.choice(BINARY), nodes[i], nodes[i + 1])
        if rng.random() < 0.2:
            node = N(node)
        nodes[i:i + 2] = [node]
    return nodes[0]


# -- declarations ------------------------------------------------------------

@dataclass(frozen=True)
class Decl:
    """A declaration file: (atom, kind, lo, hi) rows in file order."""

    rows: tuple[tuple[str, str, Fraction, Fraction], ...]
    bound: Fraction = Fraction(1, 2)

    def file_text(self, rng: random.Random) -> str:
        lines = ["# generated declarations", f"bound {_rational(self.bound, rng)}"]
        for name, kind, lo, hi in self.rows:
            lines.append(f"atom {name} {kind} [{_rational(lo, rng)}, {_rational(hi, rng)}]")
        return "\n".join(lines) + "\n"


def _rational(q: Fraction, rng: random.Random) -> str:
    """Write q as a/b, an integer or a finite decimal, as the format allows."""
    if q.denominator == 1 and rng.random() < 0.5:
        return str(q.numerator)
    if 10 ** 6 % q.denominator == 0 and rng.random() < 0.5:
        digits = 6
        scaled = q * 10 ** digits
        sign = "-" if scaled < 0 else ""
        whole, frac = divmod(abs(int(scaled)), 10 ** digits)
        return f"{sign}{whole}.{frac:0{digits}d}"
    return f"{q.numerator}/{q.denominator}"


# -- plans -------------------------------------------------------------------

@dataclass
class Op:
    """One klogic invocation: argv after `klogic`, its answer class, and the
    spec the reference checks the output against."""

    id: str
    cls: str
    argv: list[str]
    spec: dict
    info: dict = field(default_factory=dict)


@dataclass
class Plan:
    ops: list[Op]            # one round, in execution order
    warmup: list[Op]         # run once during set-up, never timed or counted
    files: dict[str, str]    # relative name -> contents, written during set-up
    min_ops: int             # a run repeats the round until it has this many


class _Generator:
    def __init__(self, workload: str, seed: int, workdir: Path):
        self.rng = random.Random(f"{workload}:{seed}")
        self.workdir = workdir
        self.files: dict[str, str] = {}
        self.ops: list[Op] = []

    def file(self, stem: str, content: str) -> str:
        name = f"{stem}-{len(self.files)}.txt"
        self.files[name] = content
        return str(self.workdir / name)

    def decl_file(self, decl: Decl) -> str:
        return self.file("decl", decl.file_text(self.rng))

    def formula_file(self, stem: str, fs: list[tuple]) -> str:
        body = "\n".join(["# one formula per line", *(text(f) for f in fs)])
        return self.file(stem, body + "\n")

    def add(self, cls: str, argv: list[str], spec: dict, **info) -> Op:
        op = Op(f"{cls}-{len(self.ops)}", cls, argv, spec, info)
        self.ops.append(op)
        return op

    # -- operations shared by the workloads --

    def check(self, cls: str, mode: str, f: tuple, axioms: list[tuple] = (),
              fmt: str = "text", atom_limit: int | None = None) -> Op:
        argv = ["check", text(f), "--mode", mode]
        if axioms:
            argv += ["--theory", self.formula_file("theory", list(axioms))]
        if fmt != "text":
            argv += ["--format", fmt]
        if atom_limit is not None:
            argv += ["--atom-limit", str(atom_limit)]
        spec = {"kind": "check", "mode": mode, "formula": f, "axioms": list(axioms), "format": fmt}
        return self.add(cls, argv, spec, atoms=len(atoms_of(f, *axioms)),
                        k_subformulas=k_count(f, *axioms), nodes=node_count(f, *axioms))

    def quantum(self, cls: str, decl: Decl, *, echo=False, list_axioms=False,
                check: tuple | None = None, mode: str = "valid", fmt: str = "text") -> Op:
        argv = ["quantum", self.decl_file(decl)]
        if echo:
            argv.append("--echo")
        if list_axioms:
            argv.append("--list-axioms")
        if check is not None:
            argv += ["--check", text(check), "--mode", mode]
        if fmt != "text":
            argv += ["--format", fmt]
        spec = {"kind": "quantum", "decl": decl, "echo": echo, "list_axioms": list_axioms,
                "check": check, "mode": mode, "format": fmt}
        kinds = [r[1] for r in decl.rows]
        info = {"decl_momenta": kinds.count("momentum"), "decl_positions": kinds.count("position")}
        if check is not None:
            info.update(k_subformulas=k_count(check), nodes=node_count(check))
        return self.add(cls, argv, spec, **info)

    def table(self, cls: str, formulas: list[tuple], *, constraints: list[tuple] | None = None,
              decl: Decl | None = None, fmt: str = "text") -> Op:
        argv = ["table", *(text(f) for f in formulas)]
        if constraints is not None:
            argv += ["--constraints", self.formula_file("constraints", constraints)]
        if decl is not None:
            argv += ["--quantum", self.decl_file(decl)]
        if fmt != "text":
            argv += ["--format", fmt]
        spec = {"kind": "table", "formulas": formulas, "constraints": constraints,
                "decl": decl, "format": fmt}
        # Declarations are only ever written over the formulas' own atoms.
        rows = 1 << len(atoms_of(*formulas, *(constraints or ())))
        return self.add(cls, argv, spec, nodes=node_count(*formulas), table_rows=rows)


LETTERS = "abcdefghijnopqrsuvwyz"


def _modal_round(b: _Generator, tiny: bool) -> None:
    rng = b.rng

    def names(n: int) -> list[str]:
        return sorted(rng.sample(LETTERS, n))

    def lits(n: int) -> list[tuple]:
        return [literal(rng, x) for x in names(n)]

    def three() -> tuple:
        """(l1 | l2) & l3 over three distinct atoms."""
        l = lits(3)
        rng.shuffle(l)
        return conj(disj(l[0], l[1]), l[2])

    def fmt() -> str:
        # Alternates by position, not by seed, so every seed has the same mix.
        return ("text", "json")[len(b.ops) % 2]

    # Witness class (INVALID or SAT), found in the first few candidate cells.
    def disjunction_nonlaw():
        l1, l2 = lits(2)
        b.check("witness", "valid", imp(K(disj(l1, l2)), disj(K(l1), K(l2))))

    def converse_t():
        p = conj(*lits(2 + len(b.ops) % 2))
        b.check("witness", "valid", imp(p, K(p)))

    def knows_whether():
        p = conj(*lits(2))
        b.check("witness", "valid", disj(K(p), K(N(p))), fmt="json")

    def known_unknown():
        l = lits(3)
        b.check("witness", "sat", conj(K(l[0]), N(K(l[1])), l[2]))

    def nested_sat():
        l = lits(2)
        b.check("witness", "sat", conj(K(N(K(K(l[0])))), l[1]))

    def nested_invalid():
        l = lits(2)
        b.check("witness", "valid", imp(K(K(K(l[0]))), l[1]), fmt="json")

    def theory_sat():
        l = lits(3)
        b.check("witness", "sat", conj(K(l[0]), l[2]), [imp(K(l[0]), N(K(l[1])))])

    def four_atoms():
        # Negative literals put the countermodel in the first cells.
        a, c, d, e = map(V, names(4))
        b.check("witness", "valid", imp(K(disj(N(a), N(c))), disj(K(N(d)), K(N(e)))))

    def quantum_sat():
        ms, xs = _kind_names(rng, 1, 1)
        b.quantum("witness", _incompatible_decl(rng, ms, xs),
                  check=conj(K(V(ms[0])), N(K(V(xs[0])))), mode="sat", fmt=fmt())

    # Exhaustive class (VALID or UNSAT) over three atoms: 255 cells each.
    def conjunction_law():
        n = [V(x) for x in names(3)]
        b.check("exhaustive3", "valid", iff(K(conj(*n)), conj(*map(K, n))))

    def k_distribution():
        l = lits(3)
        p = disj(l[0], l[1])
        b.check("exhaustive3", "valid", imp(K(imp(p, l[2])), imp(K(p), K(l[2]))))

    def axiom_5():
        p = three()
        b.check("exhaustive3", "valid", imp(N(K(p)), K(N(K(p)))))

    def axiom_4():
        p = three()
        b.check("exhaustive3", "valid", imp(K(p), K(K(p))), fmt="json")

    def depth_3():
        # !K(!K(K(phi))) -> K(phi) holds in single-agent S5.
        p = three()
        b.check("exhaustive3", "valid", imp(N(K(N(K(K(p))))), K(p)))

    def axiom_t_unsat():
        p = three()
        b.check("exhaustive3", "sat", conj(K(p), N(p)))

    def theory_unsat():
        n = [V(x) for x in names(3)]
        rng.shuffle(n)
        b.check("exhaustive3", "sat", conj(K(n[0]), disj(K(n[1]), K(n[2]))),
                [imp(K(n[0]), N(K(n[1]))), imp(K(n[0]), N(K(n[2])))])

    def quantum_unsat():
        ms, xs = _kind_names(rng, 1, 2)
        b.quantum("exhaustive3", _incompatible_decl(rng, ms, xs),
                  check=conj(K(V(ms[0])), disj(K(V(xs[0])), K(V(xs[1])))), mode="sat", fmt=fmt())

    witness = [disjunction_nonlaw, converse_t, knows_whether, known_unknown, nested_sat,
               nested_invalid, theory_sat, four_atoms, quantum_sat]
    exhaustive = [conjunction_law, k_distribution, axiom_5, axiom_4, depth_3, axiom_t_unsat,
                  theory_unsat, quantum_unsat]
    n_witness, n_exhaustive = (13, 6) if tiny else (39, 18)
    for i in range(n_witness):
        witness[i % len(witness)]()
    for i in range(n_exhaustive):
        exhaustive[i % len(exhaustive)]()
    if tiny:
        return
    # Each short query runs ten times a round, spread over the round by the
    # shuffle: together they then span seconds rather than a fraction of
    # one, and their percentiles no longer hang on a few moments of the
    # machine's drifting speed (see calibrate.py).
    b.ops *= 10
    # Four-atom exhaustive searches, 2^16 - 1 cells each.  Their shapes are
    # fixed and only the names vary, so a reference computed for one seed
    # serves every seed (see reference.OracleCache).
    n = [V(x) for x in names(4)]
    b.check("exhaustive4", "valid", iff(K(conj(*n)), conj(*map(K, n))))
    p = conj(disj(n[0], n[1]), disj(n[2], n[3]))
    b.check("exhaustive4", "valid", imp(N(K(p)), K(N(K(p)))))
    ms, xs = _kind_names(rng, 2, 2)
    b.quantum("exhaustive4", _incompatible_decl(rng, ms, xs, shuffle=False),
              check=conj(K(V(ms[0])), disj(K(V(xs[0])), K(V(xs[1])))), mode="sat")


def _kind_names(rng: random.Random, n_m: int, n_x: int) -> tuple[list[str], list[str]]:
    """Momentum names sort before position names, each list sorted."""
    suffixes = "abcdefghjkmnpqrstuvwxyz"
    return (sorted("m" + s for s in rng.sample(suffixes, n_m)),
            sorted("x" + s for s in rng.sample(suffixes, n_x)))


def _incompatible_decl(rng: random.Random, momenta: list[str], positions: list[str],
                       shuffle: bool = True) -> Decl:
    """Every momentum/position pair below the bound: widths 1/6 times at most 2."""
    rows = []
    for name in momenta:
        lo = Fraction(rng.randrange(-12, 12), 6)
        rows.append((name, "momentum", lo, lo + Fraction(1, rng.choice((6, 8, 12)))))
    for name in positions:
        lo = Fraction(rng.randrange(-8, 8), 2)
        rows.append((name, "position", lo, lo + Fraction(rng.choice((1, 3, 4)), 2)))
    if shuffle:
        rng.shuffle(rows)
    return Decl(tuple(rows))


def _sized_decl(rng: random.Random, names: list[str], narrow_m: int, narrow_x: int) -> Decl:
    """Declarations over `names`, half momentum and half position, with
    exactly narrow_m * narrow_x incompatible pairs: narrow widths multiply
    to at most 1/3, and any product with a wide width is at least 1."""
    names = list(names)
    rng.shuffle(names)
    half = len(names) // 2
    rows = []
    for i, name in enumerate(names[:half]):
        lo = Fraction(rng.randrange(-40, 40), 6)
        width = Fraction(1, rng.choice((6, 8))) if i < narrow_m else Fraction(rng.choice((2, 3)))
        rows.append((name, "momentum", lo, lo + width))
    for i, name in enumerate(names[half:]):
        lo = Fraction(rng.randrange(-40, 40), 4)
        width = Fraction(rng.choice((1, 3, 4)), 2) if i < narrow_x else Fraction(rng.choice((8, 12)))
        rows.append((name, "position", lo, lo + width))
    rng.shuffle(rows)
    return Decl(tuple(rows))


def _atom_names(n: int) -> list[str]:
    return [f"v{i:02d}" for i in range(n)]


def _reports_round(b: _Generator, tiny: bool) -> None:
    rng = b.rng
    scale = (lambda n: max(4, n - 6)) if tiny else (lambda n: n)

    def table(n: int, fmt: str, source: str) -> None:
        names = _atom_names(scale(n))
        formulas = [random_prop(rng, names, len(names) + 4)]
        formulas += [random_prop(rng, rng.sample(names, len(names) // 2), len(names) // 2 + 2)
                     for _ in range(2)]
        if source == "constraints":
            cons = [random_prop(rng, rng.sample(names, 3), 3) for _ in range(4)]
            b.table(f"table{n}", formulas, constraints=cons, fmt=fmt)
        elif source == "quantum":
            b.table(f"table{n}", formulas, decl=_sized_decl(rng, names, 2, 2), fmt=fmt)
        else:
            b.table(f"table{n}", formulas, fmt=fmt)

    def axioms(n: int, fmt: str) -> None:
        # n momenta and n positions; 60% of each kind is narrow, so about
        # (0.6 n)^2 pairs fall below the bound.
        size = max(2, n // 5) if tiny else n
        narrow = round(0.6 * size)
        decl = _sized_decl(rng, _atom_names(2 * size), narrow, narrow)
        b.quantum(f"axioms{n}", decl, echo=True, list_axioms=True, fmt=fmt)

    def kfree(n: int, mode: str, fmt: str) -> None:
        names = _atom_names(scale(n))
        b.check(f"kfree{n}", mode, random_prop(rng, names, len(names) + 6), fmt=fmt, atom_limit=16)

    formats = ("text", "csv", "json")
    sources = ("constraints", "quantum", "none")
    # Light, 31 of 52: p50 falls here.
    for i in range(12):
        table(10, formats[i % 3], sources[i % 4 % 3])
    for i in range(10):
        kfree(12, ("valid", "sat")[i % 2], ("text", "json")[i // 2 % 2])
    for fmt in ("text", "json", "text", "json"):
        axioms(10, fmt)
    for mode in ("valid", "sat", "valid", "sat", "valid"):
        kfree(12, mode, "text")
    # Medium, 18 of 52: p90 falls here.
    for i in range(6):
        table(12, formats[i % 3], sources[i // 2])
    for mode in ("valid", "sat", "valid"):
        kfree(14, mode, "text")
    for n, fmt in ((20, "text"), (20, "json"), (30, "text"), (30, "json"), (40, "text")):
        axioms(n, fmt)
    # The slowest medium operations are all of one kind, so that p90 does
    # not fall between kinds of different cost.
    for mode, fmt in (("sat", "json"), ("valid", "text"), ("sat", "text"), ("valid", "json")):
        kfree(16, mode, fmt)
    # Heavy, 3 of 52: the largest tables and declaration file.
    table(14, "json", "constraints")
    table(16, "json", "quantum")
    axioms(60, "text")


def _session_round(b: _Generator, tiny: bool) -> None:
    rng = b.rng
    letters = "abcdpqrs"

    def names(n: int) -> list[str]:
        return sorted(rng.sample(letters, n))

    def lits(n: int) -> list[tuple]:
        return [literal(rng, x) for x in names(n)]

    b.add("demo", ["demo"], {"kind": "demo", "format": "text"})
    b.add("demo", ["demo", "--format", "json"], {"kind": "demo", "format": "json"})
    # Checks over at most three atoms.
    l1, l2 = lits(2)
    b.check("check", "valid", imp(K(disj(l1, l2)), disj(K(l1), K(l2))))
    n = [V(x) for x in names(2)]
    b.check("check", "valid", iff(K(conj(*n)), conj(*map(K, n))), fmt="json")
    n = [V(x) for x in names(3)]
    b.check("check", "sat", conj(K(n[0]), disj(K(n[1]), K(n[2]))),
            [imp(K(n[0]), N(K(n[1]))), imp(K(n[0]), N(K(n[2])))])
    l = lits(3)
    b.check("check", "sat", conj(K(l[0]), N(K(l[1])), l[2]), fmt="json")
    b.check("check", "valid", random_prop(rng, names(3), 5))
    b.check("check", "sat", random_prop(rng, names(3), 5), fmt="json")
    p = conj(*lits(2))
    b.check("check", "valid", imp(K(p), p))
    b.check("check", "valid", disj(K(p), K(N(p))))
    # Small tables.
    for i, (fmt, source) in enumerate((("text", "constraints"), ("csv", "quantum"), ("json", "none"),
                                       ("text", "quantum"), ("csv", "none"), ("json", "constraints"))):
        ns = names(2 + i % 3)
        formulas = [random_prop(rng, ns, len(ns) + 2), random_prop(rng, ns, len(ns))]
        if source == "constraints":
            b.table("table", formulas, constraints=[random_prop(rng, ns[:2], 2)], fmt=fmt)
        elif source == "quantum":
            b.table("table", formulas, decl=_sized_decl(rng, ns, 1, 1), fmt=fmt)
        else:
            b.table("table", formulas, fmt=fmt)
    # Small declaration files.
    ms, xs = _kind_names(rng, 1, 2)
    decl = _incompatible_decl(rng, ms, xs)
    b.quantum("quantum", decl)
    b.quantum("quantum", decl, echo=True)
    b.quantum("quantum", decl, list_axioms=True)
    b.quantum("quantum", _sized_decl(rng, names(4), 1, 2), echo=True, list_axioms=True, fmt="json")
    b.quantum("quantum", decl, check=conj(K(V(ms[0])), disj(K(V(xs[0])), K(V(xs[1])))), mode="sat")
    b.quantum("quantum", decl, check=imp(K(V(ms[0])), N(K(V(xs[1])))), fmt="json")
    # Malformed input: each must exit 2 with an error line.
    error = {"kind": "error"}
    b.add("error", ["check", text(conj(*lits(2))) + " &"], error)
    b.add("error", ["check", "K(a) & K(b) & K(c) & K(d) & K(e)"], error)  # over the atom limit
    b.add("error", ["check", "K(a) -> a", "--theory", b.file("theory", "K(a)\nK(a) &&\n")], error)
    b.add("error", ["table", "a | b", "--constraints", b.file("constraints", "K(a)\n")], error)
    b.add("error", ["quantum", b.file("decl", "bound 1/2\natom m momentum [1, 0]\n")], error)
    b.add("error", ["check", "a", "--mode", "maybe"], error)
    b.add("error", ["quantum", str(b.workdir / "missing.decl")], error)


def make_plan(workload: str, seed: int, workdir: Path, tiny: bool = False) -> Plan:
    """The seeded inputs of one workload.  The same arguments give the same
    plan, argv and file contents included."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    b = _Generator(workload, seed, workdir)
    # Warm-up first, so that a round's inputs do not depend on it.
    if workload == "cli-session":
        b.add("warmup", ["demo"], {"kind": "demo", "format": "text"})
    else:
        b.check("warmup", "valid", imp(K(V("a")), V("a")))
        b.check("warmup", "sat", conj(K(V("a")), V("b")), [imp(K(V("a")), N(K(V("b"))))], fmt="json")
        b.quantum("warmup", _incompatible_decl(b.rng, ["ma"], ["xa"]), echo=True, list_axioms=True,
                  check=K(V("ma")), mode="sat")
        b.table("warmup", [random_prop(b.rng, _atom_names(4), 6)], fmt="csv")
    warmup, b.ops = b.ops, []
    {"modal": _modal_round, "reports": _reports_round, "cli-session": _session_round}[workload](b, tiny)
    b.rng.shuffle(b.ops)
    return Plan(b.ops, warmup, b.files, min_ops=1 if tiny else 100)
