"""A workbench for operational rule tables over equational theories.

Terms over a signature carry one-step behaviours (an output plus a
successor per input letter).  A rule table assigns each operation a step
built from its arguments' steps; extending the table over whole terms
turns the term algebra into an operational model, and corecursive
equation systems get solved by unfolding that model.  An equational
theory identifies terms up to canonical normal forms; the preservation
checker decides, one generic instance per equation, whether the rule
table respects the identifications, which is exactly what is needed to
run the rules on normal forms directly.

Streams of rationals (behavioural differential equations) and
context-free grammars in Greibach normal form (language derivatives) are
wired in as ready-made instances, with a small text format and a CLI on
top.
"""

from .behaviour import (
    BOOL_OUTPUTS,
    RATIONAL_OUTPUTS,
    OutputAlgebra,
    Step,
    words_upto,
)
from .cfg import (
    EquivResult,
    GnfGrammar,
    cfg_law,
    cfg_signature,
    cfg_theory,
    cyk_member,
    derivative_member,
    equiv_upto,
    member,
    to_corec,
)
from .dsl import Workbench, load, loads, term_from_string
from .errors import LawbenchError, PreservationNotCertified
from .gsos import (
    ArgObs,
    CaseSplit,
    DistLaw,
    GsosSpec,
    OutApp,
    OutAtom,
    OutConst,
    Plain,
    Rule,
    apply_rule,
    extend_lambda,
    morphism_square_check,
    quotient_lambda,
)
from .polynomials import Poly
from .preservation import (
    PreservationReport,
    Verdict,
    check_preservation,
    generic_instance,
    replay,
)
from .solver import (
    CorecSystem,
    behaviour_table,
    induced_algebra_check,
    operational_model,
    quotient_commute_check,
    stream_prefix,
    unfold,
)
from .terms import (
    App,
    Const,
    ConstantFamily,
    Signature,
    Term,
    Var,
    enumerate_terms,
    format_term,
    substitute,
    term_size,
    variables,
)
from .theories import (
    EquationScheme,
    Equiv,
    FiniteModel,
    LangForm,
    PolyForm,
    TermForm,
    Theory,
    commutative_semiring,
    free_theory,
    generic_theory,
    idempotent_semiring,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
