"""Value semantics shared by every public record type, and klogic's start-up."""

from __future__ import annotations

import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from klogic import (
    And,
    AxiomProvenance,
    Bottom,
    CheckResult,
    ClassicalVerdict,
    ConstraintSet,
    Declarations,
    EpistemicModel,
    GeneratedTheory,
    Iff,
    Implies,
    IntervalProposition,
    Know,
    Not,
    ObservableKind,
    Or,
    PhysicsConfig,
    TableRow,
    Theory,
    Top,
    TruthTable,
    Valuation,
    Var,
    Verdict,
    parse,
    truth_table,
)

_p, _q = Var("p"), Var("q")
_v = Valuation(("p", "q"), (True, False))
_m = IntervalProposition("p", ObservableKind.MOMENTUM, Fraction(0), Fraction(1, 6))
_x = IntervalProposition("q", ObservableKind.POSITION, Fraction(-1), Fraction(1))
_model = EpistemicModel(("p", "q"), (_v,), 0)

# Each public record type with its field names and one set of field values.
RECORDS = [
    (Top, (), ()),
    (Bottom, (), ()),
    (Var, ("name",), ("p",)),
    (Not, ("operand",), (_p,)),
    (Know, ("operand",), (_p,)),
    (And, ("left", "right"), (_p, _q)),
    (Or, ("left", "right"), (_p, _q)),
    (Implies, ("left", "right"), (_p, Know(_q))),
    (Iff, ("left", "right"), (Not(_p), _q)),
    (Valuation, ("atoms", "bits"), (("p", "q"), (True, False))),
    (ConstraintSet, ("constraints",), ((parse("!(p & q)"),),)),
    (TableRow, ("valuation", "excluded", "violated", "values"), (_v, False, (), (True,))),
    (
        TruthTable,
        ("atoms", "formulas", "constraints", "constraint_bits", "formula_bits", "excluded"),
        (("p",), (_p,), (), (), ("01",), "00"),
    ),
    (ClassicalVerdict, ("holds", "witness"), (False, _v)),
    (EpistemicModel, ("atoms", "cell", "designated"), (("p", "q"), (_v,), 0)),
    (Theory, ("axioms",), ((parse("K(p) -> !K(q)"),),)),
    (CheckResult, ("verdict", "model"), (Verdict.INVALID, _model)),
    (IntervalProposition, ("atom", "kind", "lo", "hi"), ("p", ObservableKind.MOMENTUM, Fraction(0), Fraction(1, 6))),
    (PhysicsConfig, ("bound",), (Fraction(1, 3),)),
    (AxiomProvenance, ("momentum", "position", "product", "bound"), (_m, _x, Fraction(1, 3), Fraction(1, 2))),
    (GeneratedTheory, ("propositions", "config"), ((_m, _x), PhysicsConfig())),
    (Declarations, ("propositions", "config"), ((_m, _x), PhysicsConfig())),
]

_IDS = [cls.__name__ for cls, _, _ in RECORDS]


def _match_positionally(value, cls, arity: int) -> tuple:
    match value:
        case cls() if arity == 0:
            return ()
        case cls(a) if arity == 1:
            return (a,)
        case cls(a, b) if arity == 2:
            return (a, b)
        case cls(a, b, c) if arity == 3:
            return (a, b, c)
        case cls(a, b, c, d) if arity == 4:
            return (a, b, c, d)
        case cls(a, b, c, d, e, f) if arity == 6:
            return (a, b, c, d, e, f)
    raise AssertionError(f"{value!r} matched no pattern")


@pytest.mark.parametrize(("cls", "names", "values"), RECORDS, ids=_IDS)
def test_fields_come_from_the_annotations_in_order(cls, names, values):
    assert cls.__match_args__ == names
    record = cls(*values)
    assert tuple(getattr(record, name) for name in names) == values


@pytest.mark.parametrize(("cls", "names", "values"), RECORDS, ids=_IDS)
def test_records_are_frozen(cls, names, values):
    record = cls(*values)
    for name in (*names, "extra"):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert tuple(getattr(record, name) for name in names) == values


@pytest.mark.parametrize(("cls", "names", "values"), RECORDS, ids=_IDS)
def test_keyword_and_positional_construction_agree(cls, names, values):
    positional = cls(*values)
    keyword = cls(**dict(zip(names, values)))
    assert positional == keyword
    assert not positional != keyword
    assert hash(positional) == hash(keyword)
    assert positional.__eq__(object()) is NotImplemented


@pytest.mark.parametrize(("cls", "names", "values"), RECORDS, ids=_IDS)
def test_repr_names_every_field(cls, names, values):
    record = cls(*values)
    fields = ", ".join(f"{name}={value!r}" for name, value in zip(names, values))
    assert repr(record) == f"{cls.__qualname__}({fields})"


@pytest.mark.parametrize(("cls", "names", "values"), RECORDS, ids=_IDS)
def test_positional_match_patterns(cls, names, values):
    assert _match_positionally(cls(*values), cls, len(names)) == values


@pytest.mark.parametrize(("cls", "names", "values"), RECORDS, ids=_IDS)
def test_pickle_round_trip(cls, names, values):
    record = cls(*values)
    copy = pickle.loads(pickle.dumps(record))
    assert type(copy) is cls
    assert copy == record
    assert hash(copy) == hash(record)


def test_equality_is_per_class():
    assert And(_p, _q) != Or(_p, _q)
    assert And(_p, _q).__eq__(Or(_p, _q)) is NotImplemented
    assert And(_p, _q) != And(_q, _p)
    assert Theory() != ConstraintSet()
    assert Theory().__eq__(ConstraintSet()) is NotImplemented
    assert {And(_p, _q): 1}.get(Or(_p, _q)) is None


def test_differing_fields_are_unequal():
    assert Valuation(("p",), (True,)) != Valuation(("p",), (False,))
    assert PhysicsConfig(Fraction(1, 3)) != PhysicsConfig()
    assert CheckResult(Verdict.VALID) != CheckResult(Verdict.SATISFIABLE, _model)


def test_trailing_fields_take_their_defaults():
    assert Theory().axioms == ()
    assert ConstraintSet().constraints == ()
    assert PhysicsConfig().bound == Fraction(1, 2)
    assert CheckResult(Verdict.VALID).model is None
    assert CheckResult(verdict=Verdict.VALID) == CheckResult(Verdict.VALID, None)
    assert ClassicalVerdict(True).witness is None
    assert Declarations() == Declarations((), PhysicsConfig())
    assert Declarations(config=PhysicsConfig(3)).propositions == ()


def test_post_init_normalisations_still_run():
    assert Valuation(["p"], [1]).bits == (True,)
    assert isinstance(Valuation(["p"], [1]).atoms, tuple)
    assert Theory((_p, _q, _p)).axioms == (_p, _q)
    assert PhysicsConfig(1).bound == Fraction(1)
    assert type(PhysicsConfig(1).bound) is Fraction
    assert IntervalProposition("p", ObservableKind.POSITION, 0, 1).hi == Fraction(1)
    with pytest.raises(ValueError):
        Var(name="P")
    with pytest.raises(ValueError):
        PhysicsConfig(bound=0)


@pytest.mark.parametrize(
    "build",
    [
        lambda: Var(),
        lambda: Var("p", "q"),
        lambda: Var("p", name="q"),
        lambda: Var(atom="p"),
        lambda: Top(_p),
        lambda: And(_p),
        lambda: And(_p, _q, _p),
        lambda: And(_p, right=_q, left=_q),
        lambda: Not(operand=_p, extra=1),
        lambda: Theory((), ()),
        lambda: Theory(rules=()),
        lambda: CheckResult(),
        lambda: CheckResult(Verdict.VALID, None, None),
        lambda: Valuation(("p",)),
        lambda: Valuation(("p",), (True,), atoms=("p",)),
    ],
)
def test_bad_arguments_raise_type_error(build):
    with pytest.raises(TypeError):
        build()


def test_a_truth_tables_cached_rows_do_not_change_its_value():
    table = truth_table([parse("p | q")])
    fresh = truth_table([parse("p | q")])
    assert len(table.rows) == 4
    assert table == fresh
    assert hash(table) == hash(fresh)


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    code = (
        "import sys, klogic.cli\n"
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    assert done.stdout == "[]\n"


def _loaded_by(statement: str, *argv: str) -> set[str]:
    """The modules a fresh interpreter loads for `statement`, run with
    sys.argv[1:] == argv, beyond those loaded before it ran."""
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        f"{statement}\n"
        "print(*sorted(set(sys.modules) - before), file=sys.stderr)"
    )
    done = subprocess.run(
        [sys.executable, "-c", code, *argv], capture_output=True, text=True, check=True
    )
    return set(done.stderr.split())


# What a process skips: the interval code, exact rationals, and JSON output.
_UNUSED = {"klogic.quantum", "klogic.declarations", "fractions", "decimal", "json"}


@pytest.mark.parametrize(
    "argv, unused",
    [
        (["check", "K(a) -> a"], _UNUSED),
        (["check", "K(a) -> a", "--mode", "sat", "--theory", "{theory}"], _UNUSED),
        (["table", "p | q"], _UNUSED | {"klogic.epistemic"}),
        (["table", "p | q", "--format", "csv"], _UNUSED | {"klogic.epistemic"}),
        (["table", "p | q", "--constraints", "{constraints}"], _UNUSED | {"klogic.epistemic"}),
        (["table", "p & q", "--quantum", "{decl}"], {"klogic.epistemic", "json"}),
        (["quantum", "{decl}", "--echo", "--list-axioms"], {"json"}),
    ],
    ids=[
        "check", "check-theory", "table", "table-csv", "table-constraints", "table-quantum",
        "quantum-listing",
    ],
)
def test_a_command_loads_only_the_modules_it_runs(tmp_path, argv, unused):
    paths = {"theory": tmp_path / "a.thy", "constraints": tmp_path / "a.con",
             "decl": Path(__file__).parent / "data" / "quantum.decl"}
    paths["theory"].write_text("K(a) -> !K(b)\n", encoding="utf-8")
    paths["constraints"].write_text("!(p & q)\n", encoding="utf-8")
    argv = [arg.format_map(paths) for arg in argv]
    loaded = _loaded_by("import klogic.cli; klogic.cli.main(sys.argv[1:])", *argv)
    assert "klogic.cli" in loaded
    assert unused & loaded == set()


def test_importing_the_package_loads_no_submodule():
    loaded = _loaded_by("import klogic")
    assert "klogic" in loaded
    assert {name for name in loaded if name.startswith("klogic.")} == set()


@pytest.mark.parametrize("name", ["load_theory", "load_constraints"])
def test_the_formula_file_loaders_load_no_interval_code(name):
    loaded = _loaded_by(f"import klogic; klogic.{name}")
    assert "klogic.formula_files" in loaded
    assert {"klogic.quantum", "klogic.declarations", "fractions", "decimal"} & loaded == set()
