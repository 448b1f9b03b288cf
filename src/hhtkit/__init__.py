"""hhtkit: finite Hilbert-style proofs checked against exhaustive
two-world model checking of their propositional instances."""

from .errors import (
    BudgetExceeded,
    CaptureViolation,
    ConclusionNotClosed,
    ConclusionNotFirstOrder,
    ForwardReference,
    HhtError,
    InfiniteUniverse,
    LevelViolation,
    MPMismatch,
    NotClosed,
    NotFirstOrder,
    OutsideUniverse,
    ParseError,
    ProofError,
    SchemaMismatch,
    SideConditionViolation,
    SignatureError,
    SubstitutionError,
    UnmappedAtom,
)
from .instantiation import (
    EXACT,
    Bounded,
    Exact,
    Substitution,
    ground_terms,
    herbrand_base,
    instantiate,
    universe,
)
from .kernel import (
    ByAxiom,
    ByGen,
    ByMP,
    Proof,
    ProofLine,
    TheoryLevel,
    check_proof,
    conclusion_for_pipeline,
    list_schemas,
)
from .semantics import (
    HTInterpretation,
    World,
    ht_valid,
    render_countermodel,
    satisfies,
)
from .herbrand import (
    h_satisfies,
    hht_valid_bruteforce,
)
from .syntax import (
    Atom,
    Binary,
    Equals,
    Falsum,
    FnApp,
    FOFormula,
    FuncVar,
    GenVar,
    PredVar,
    Quant,
    Signature,
    Var,
    eliminate_restrictors,
    formula_to_text,
    free_variables,
    prop_to_text,
    rank,
    substitutable,
    substitute,
)

__version__ = "0.1.0"
