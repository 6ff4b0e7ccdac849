"""Model checking for first-order modal xi-calculus over genealogical
Kripke models: parsing, evaluation, bisimilarity with checkable
witnesses, and bounded distinguishing-sentence search."""

from .bisim import (
    BisimVerdict,
    BisimWitness,
    BudgetExceededError,
    OracleSizeError,
    WitnessReport,
    bisimilar,
    brute_force_bisim,
    check_witness,
    witness_from_document,
    witness_to_document,
)
from .distinguish import EnumerationBudget, distinguish, enumerate_sentences
from .generate import GenSpec, SplitMix64, break_child, derive, dup_child, gen_model, gen_sentence
from .model import (
    DocumentFormatError,
    GenealogicalModel,
    ModelDiagnostics,
    ModelInvalidError,
    ModelViolation,
    PointedModel,
    depth,
    dump_model,
    load_model,
    load_model_file,
    model_vocabulary,
    parse_document,
    replace_model,
    rt_closure,
    to_document,
    validate,
)
from .semantics import (
    Evaluator,
    NotASentenceError,
    UndefinedInterpretationError,
    evaluate_sentence,
    holds_at,
)
from .syntax import (
    And,
    Box,
    Forall,
    Formula,
    FormulaVar,
    GrammarError,
    LexError,
    Not,
    Occurrence,
    ParseError,
    Prop,
    QueryConst,
    QueryVar,
    SentenceDiagnostics,
    SentenceViolation,
    Top,
    UnknownNameError,
    Vocabulary,
    Xi,
    bot,
    check_sentence,
    diamond,
    exists,
    format_formula,
    imp,
    occurrences,
    or_,
    parse,
    subformulas,
)

__version__ = "0.1.0"
