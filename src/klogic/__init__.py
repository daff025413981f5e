"""Epistemic propositional logic for quantum experimental propositions.

Classical propositional logic stays untouched; a knowledge operator K,
interpreted over single-cluster S5 models, carries everything the quantum
examples need.  Interval declarations for position and momentum generate
the epistemic axioms via the uncertainty bound.

`import klogic` loads no submodule: each public name is imported from the
module that defines it on first access, so a process loads only the layers
it uses.
"""

from importlib import import_module

_EXPORTS = {  # module: the public names it defines
    "classical": (
        "DEFAULT_ATOM_LIMIT ClassicalVerdict ConstraintSet TableRow TruthTable "
        "Valuation all_valuations are_equivalent_under eval_classical is_tautology "
        "truth_table valuation_at"
    ),
    "declarations": (
        "Declarations format_declarations load_declarations parse_declarations "
        "parse_rational"
    ),
    "epistemic": (
        "DEFAULT_MODAL_ATOM_LIMIT CheckResult EpistemicModel Theory Verdict "
        "are_equivalent_modal erase_K eval_modal is_satisfiable is_valid"
    ),
    "errors": (
        "AtomLimitExceeded DisjointIntervals DuplicateAtom InputFileError KindMismatch "
        "LogicError ModalOperatorPresent UnknownAtom"
    ),
    "formula_files": "load_constraints load_theory",
    "quantum": (
        "AxiomProvenance GeneratedTheory IntervalProposition ObservableKind "
        "PhysicsConfig compatible generate merge uncertainty_product"
    ),
    "syntax": (
        "And Bottom Formula Iff Implies Know Not Or ParseError Top Var atoms "
        "modal_depth parse render subformulas"
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{_HOME[name]}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
