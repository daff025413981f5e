"""Expected answers that do not come from klogic's engines, and the checks
that compare klogic's output with them.

- Verdicts and canonical first models of queries with K come from
  `oracle_first_model` in `tests/oracles.py`.
- A K-free query (K-free theory too) has as its first model the singleton of
  the first canonical valuation satisfying it: every smaller cell mask holds
  only earlier valuations.  Those are found by scanning `canonical_worlds`
  with `oracle_eval`, which stays cheap at 16 atoms where cell enumeration
  cannot run.
- Table cells and exclusion marks are evaluated with `oracle_eval`.
- Axioms are recomputed from the declarations with `Fraction`.
- Exit codes follow the 0/1/2 contract.

Only klogic's AST classes are used, to build the oracle's input.
"""

from __future__ import annotations

import csv
import io
import json
import os
import time
from fractions import Fraction
from pathlib import Path

from klogic import And, Bottom, Iff, Implies, Know, Not, Or, Top, Var
from tests.oracles import canonical_worlds, oracle_eval, oracle_first_model

from workloads import (
    Decl, K, N, V, Op, atoms_of, conj, disj, has_k, iff, imp, text,
)

_BINARY = {"&": And, "|": Or, "->": Implies, "<->": Iff}

# An oracle answer that took longer than this is kept on disk across runs.
PERSIST_AFTER_S = 0.5


def to_klogic(f: tuple):
    tag = f[0]
    if tag == "v":
        return Var(f[1])
    if tag == "T":
        return Top()
    if tag == "F":
        return Bottom()
    if tag == "!":
        return Not(to_klogic(f[1]))
    if tag == "K":
        return Know(to_klogic(f[1]))
    return _BINARY[tag](to_klogic(f[1]), to_klogic(f[2]))


def _rename(f: tuple, names: dict[str, str]) -> tuple:
    if f[0] == "v":
        return V(names[f[1]])
    return (f[0], *(_rename(g, names) if isinstance(g, tuple) else g for g in f[1:]))


class OracleCache:
    """First models by query.  Keys rename the atoms by rank, which keeps
    their order, so one entry serves every seed that differs only in names.
    Slow answers are kept in a JSON file inside the checkout."""

    def __init__(self, path: Path | None):
        self.path = path
        self.memory: dict[str, object] = {}
        self.dirty = False
        if path is not None and path.exists():
            try:
                self.memory = json.loads(path.read_text())
            except (OSError, ValueError):
                self.memory = {}

    def first_model(self, target: tuple, axioms: list[tuple], names: list[str]):
        """(worlds as bit lists in `names` order, designated index) or None."""
        ranks = {n: f"p{i:02d}" for i, n in enumerate(names)}
        key = " ; ".join([text(_rename(target, ranks)),
                          *sorted(text(_rename(a, ranks)) for a in axioms)])
        if key not in self.memory:
            start = time.perf_counter()
            if has_k(target, *axioms):
                found = oracle_first_model(to_klogic(target), tuple(map(to_klogic, axioms)),
                                           tuple(names))
                if found is not None:
                    worlds, j = found
                    found = [[[int(w[n]) for n in names] for w in worlds], j]
            else:
                found = _kfree_first(target, axioms, names)
            self.memory[key] = found
            self.dirty |= time.perf_counter() - start > PERSIST_AFTER_S
        return self.memory[key]

    def save(self) -> None:
        if self.path is None or not self.dirty:
            return
        tmp = self.path.with_suffix(f".{os.getpid()}.tmp")
        tmp.write_text(json.dumps(self.memory))
        os.replace(tmp, self.path)
        self.dirty = False


def _kfree_first(target: tuple, axioms: list[tuple], names: list[str]):
    fs = [to_klogic(f) for f in (*axioms, target)]
    for env in canonical_worlds(tuple(names)):
        if all(oracle_eval(f, env) for f in fs):
            return [[[int(env[n]) for n in names]], 0]
    return None


# -- expected outputs ---------------------------------------------------------

def expected_check(cache: OracleCache, mode: str, f: tuple, axioms: list[tuple]):
    """(verdict, model) with model = (atoms, worlds, designated) or None."""
    names = atoms_of(f, *axioms)
    found = cache.first_model(N(f) if mode == "valid" else f, list(axioms), names)
    if mode == "valid":
        verdict = "VALID" if found is None else "INVALID"
    else:
        verdict = "UNSATISFIABLE" if found is None else "SATISFIABLE"
    return verdict, None if found is None else (names, found[0], found[1])


def _check_lines(verdict: str, model) -> list[str]:
    lines = [verdict]
    if model is not None:
        names, worlds, designated = model
        lines.append("countermodel:" if verdict == "INVALID" else "model:")
        lines.append(f"  atoms: {' '.join(names)}")
        for i, bits in enumerate(worlds):
            tag = "  [designated]" if i == designated else ""
            lines.append(f"  world {i}: {' '.join(map(str, bits))}{tag}")
    return lines


def _check_json(verdict: str, model) -> dict:
    out = {"verdict": verdict}
    if model is not None:
        names, worlds, designated = model
        key = "countermodel" if verdict == "INVALID" else "model"
        out[key] = {"atoms": names, "worlds": worlds, "designated": designated}
    return out


def _holds(verdict: str) -> bool:
    return verdict in ("VALID", "SATISFIABLE")


def incompatible_pairs(decl: Decl) -> list[tuple]:
    """(momentum row, position row, product) below the bound, in the order
    klogic documents: momenta in file order, each with positions in file order."""
    return [
        (m, x, (m[3] - m[2]) * (x[3] - x[2]))
        for m in decl.rows if m[1] == "momentum"
        for x in decl.rows if x[1] == "position"
        if (m[3] - m[2]) * (x[3] - x[2]) < decl.bound
    ]


def decl_axioms(decl: Decl) -> list[tuple]:
    return [imp(K(V(m[0])), N(K(V(x[0])))) for m, x, _ in incompatible_pairs(decl)]


def decl_constraints(decl: Decl) -> list[tuple]:
    return [N(conj(V(m[0]), V(x[0]))) for m, x, _ in incompatible_pairs(decl)]


def _axiom_lines(decl: Decl) -> list[str]:
    pairs = incompatible_pairs(decl)
    if not pairs:
        return ["no axioms generated"]
    return [f"K({m[0]}) -> !K({x[0]})   [widths {m[3] - m[2]} * {x[3] - x[2]} = {p} < {decl.bound}]"
            for m, x, p in pairs]


def _axioms_json(decl: Decl) -> list[dict]:
    return [{"formula": f"K({m[0]}) -> !K({x[0]})", "momentum": m[0], "position": x[0],
             "widths": [str(m[3] - m[2]), str(x[3] - x[2])], "product": str(p),
             "bound": str(decl.bound)} for m, x, p in incompatible_pairs(decl)]


def _table_rows(formulas: list[tuple], constraints: list[tuple]):
    """(atoms, rows) with rows of (bits, excluded, violated count, values)."""
    names = atoms_of(*formulas, *constraints)
    fs = [to_klogic(f) for f in formulas]
    cs = [to_klogic(c) for c in dict.fromkeys(constraints)]
    rows = []
    for env in canonical_worlds(tuple(names)):
        bits = tuple(int(env[n]) for n in names)
        violated = sum(1 for c in cs if not oracle_eval(c, env))
        values = None if violated else tuple(int(oracle_eval(f, env)) for f in fs)
        rows.append((bits, violated > 0, violated, values))
    return names, rows


def _cells(excluded: bool, cells: list[str], width: int):
    """Text and csv cells: excluded rows must show `x` in every column."""
    if excluded:
        return None if cells == ["x"] * width else tuple(cells)
    return tuple(map(int, cells))


def _parse_table(fmt: str, out: str, n_atoms: int, n_formulas: int):
    """klogic's table output back into (atoms, rows of (bits, excluded,
    violated count or None, values))."""
    if fmt == "json":
        data = json.loads(out)
        return data["atoms"], [
            (tuple(r["valuation"]), r["excluded"], len(r["violated"]),
             None if r["values"] is None else tuple(r["values"]))
            for r in data["rows"]]
    if fmt == "csv":
        reader = csv.reader(io.StringIO(out))
        header = next(reader)
        names = header[1:1 + n_atoms]
        rows = []
        for r in reader:
            excluded = r[0] == "*"
            rows.append((tuple(map(int, r[1:1 + n_atoms])), excluded, None,
                         _cells(excluded, r[1 + n_atoms:], n_formulas)))
        return names, rows
    lines = out.splitlines()
    names = lines[0].split()[:n_atoms]
    rows = []
    for line in lines[1:]:
        tokens = line.split()
        excluded = tokens[0] == "*"
        if excluded:
            tokens = tokens[1:]
        rows.append((tuple(map(int, tokens[:n_atoms])), excluded, None,
                     _cells(excluded, tokens[n_atoms:], n_formulas)))
    return names, rows


def _compare_table(fmt: str, out: str, formulas, constraints) -> str | None:
    names, expected = _table_rows(formulas, constraints)
    got_names, got = _parse_table(fmt, out, len(names), len(formulas))
    if list(got_names) != names:
        return f"table atoms {got_names} != {names}"
    if len(got) != len(expected):
        return f"table has {len(got)} rows, expected {len(expected)}"
    for i, (g, e) in enumerate(zip(got, expected)):
        if g[0] != e[0] or g[1] != e[1] or g[3] != e[3] or (g[2] is not None and g[2] != e[2]):
            return f"table row {i}: got {g}, expected {e}"
    return None


# -- the demo -----------------------------------------------------------------

DEMO_DECL = Decl((("p", "momentum", Fraction(0), Fraction(1, 6)),
                  ("q", "position", Fraction(-1), Fraction(1)),
                  ("r", "position", Fraction(1), Fraction(3))))
_p, _q, _r, _a, _b, _s = map(V, "pqrabs")
DEMO_QUERIES = {
    ("joint_knowledge",): ("sat", conj(K(_p), disj(K(_q), K(_r))), decl_axioms(DEMO_DECL)),
    ("k_distribution", "conjunction_law"): ("valid", iff(K(conj(_a, _b)), conj(K(_a), K(_b))), []),
    ("k_distribution", "disjunction_distribution"): ("valid", imp(K(disj(_a, _b)), disj(K(_a), K(_b))), []),
    ("merge",): ("sat", iff(K(conj(_p, _s)), conj(K(_p), K(_s))), []),
}
DEMO_TABLE = ([conj(_p, disj(_q, _r)), disj(conj(_p, _q), conj(_p, _r))], decl_constraints(DEMO_DECL))


def _demo_json(cache: OracleCache, data: dict) -> str | None:
    for path, (mode, f, axioms) in DEMO_QUERIES.items():
        node = data
        for key in path:
            node = node[key]
        verdict, model = expected_check(cache, mode, f, axioms)
        for key, value in _check_json(verdict, model).items():
            if node.get(key) != value:
                return f"demo {'.'.join(path)}.{key}: {node.get(key)} != {value}"
    law = iff(conj(_p, disj(_q, _r)), disj(conj(_p, _q), conj(_p, _r)))
    if cache.first_model(N(law), [], ["p", "q", "r"]) is not None:
        return "demo distributive law is not a tautology by the oracle"
    if data["classical_distributivity"]["verdict"] != "TAUTOLOGY":
        return "demo classical_distributivity verdict"
    if data["axioms"] != _axioms_json(DEMO_DECL):
        return "demo axioms differ"
    return _compare_table("json", json.dumps(data["table"]), *DEMO_TABLE)


# -- checking one operation ---------------------------------------------------

class Checker:
    def __init__(self, root: Path, cache: OracleCache):
        self.cache = cache
        self.golden = (root / "tests" / "data" / "demo.golden.txt").read_text()

    def check(self, op: Op, exit_code: int | None, out: str, err: str) -> str | None:
        """None if the output matches the reference, else what differs."""
        spec = op.spec
        try:
            kind = spec["kind"]
            if kind == "error":
                if exit_code != 2 or out:
                    return f"exit {exit_code} with {len(out)} bytes of stdout, expected exit 2 and none"
                if not any(l.startswith("error:") or ": error:" in l for l in err.splitlines()):
                    return "no error: line on stderr"
                return None
            expect = {"check": self._expect_check, "quantum": self._expect_quantum,
                      "table": self._expect_table, "demo": self._expect_demo}[kind]
            want_exit, problem = expect(spec, out)
            if exit_code != want_exit:
                return f"exit {exit_code}, expected {want_exit}"
            return problem
        except (ValueError, KeyError, IndexError, TypeError, StopIteration) as e:
            return f"unreadable output: {type(e).__name__}: {e}"

    def _expect_check(self, spec: dict, out: str):
        verdict, model = expected_check(self.cache, spec["mode"], spec["formula"], spec["axioms"])
        if spec["format"] == "json":
            data = json.loads(out)
            want = {"command": "check", "mode": spec["mode"], **_check_json(verdict, model)}
            got = {k: data.get(k) for k in want}
            problem = None if got == want else f"got {got}, expected {want}"
        else:
            want_text = "\n".join(_check_lines(verdict, model)) + "\n"
            problem = None if out == want_text else f"got {out!r}, expected {want_text!r}"
        return (0 if _holds(verdict) else 1), problem

    def _expect_quantum(self, spec: dict, out: str):
        decl: Decl = spec["decl"]
        result = None
        if spec["check"] is not None:
            result = expected_check(self.cache, spec["mode"], spec["check"], decl_axioms(decl))
        want_exit = 1 if result is not None and not _holds(result[0]) else 0
        if spec["format"] == "json":
            data = json.loads(out)
            want = {
                "bound": str(decl.bound),
                "propositions": [{"atom": n, "kind": k, "interval": [str(lo), str(hi)],
                                  "width": str(hi - lo)} for n, k, lo, hi in decl.rows],
                "axioms": _axioms_json(decl),
                "constraints": [f"!({m[0]} & {x[0]})" for m, x, _ in incompatible_pairs(decl)],
            }
            if result is not None:
                want["check"] = {"mode": spec["mode"], **_check_json(*result)}
            got = {k: data.get(k) for k in want}
            if "check" in got and isinstance(got["check"], dict):
                got["check"] = {k: v for k, v in got["check"].items() if k != "formula"}
            return want_exit, None if got == want else "quantum json differs from the reference"
        lines = []
        if spec["echo"]:
            lines.append(f"bound {decl.bound}")
            lines += [f"atom {n} {k} [{lo}, {hi}]" for n, k, lo, hi in decl.rows]
        if spec["list_axioms"]:
            lines += _axiom_lines(decl)
        if result is not None:
            lines += _check_lines(*result)
        if not lines:
            pairs = len(incompatible_pairs(decl))
            lines = [f"{len(decl.rows)} propositions, {pairs} axioms, {pairs} constraints, bound {decl.bound}"]
        want_text = "\n".join(lines) + "\n"
        return want_exit, None if out == want_text else "quantum text differs from the reference"

    def _expect_table(self, spec: dict, out: str):
        constraints = spec["constraints"] or []
        if spec["decl"] is not None:
            constraints = decl_constraints(spec["decl"])
        problem = _compare_table(spec["format"], out, spec["formulas"], constraints)
        if problem is None and spec["format"] == "json":
            if len(json.loads(out)["constraints"]) != len(dict.fromkeys(constraints)):
                problem = "table json lists the wrong number of constraints"
        return 0, problem

    def _expect_demo(self, spec: dict, out: str):
        if spec["format"] == "json":
            return 0, _demo_json(self.cache, json.loads(out))
        return 0, None if out == self.golden else "demo text differs from tests/data/demo.golden.txt"


def query_class(cache: OracleCache, fn: str, f: tuple, axioms: list[tuple]) -> str:
    """kfree, exhaustive (VALID or UNSAT) or witness (INVALID or SAT), from the
    reference answer of one is_valid / is_satisfiable call."""
    if not has_k(f, *axioms):
        return "kfree"
    verdict, _ = expected_check(cache, "valid" if fn == "is_valid" else "sat", f, axioms)
    return "exhaustive" if verdict in ("VALID", "UNSATISFIABLE") else "witness"

