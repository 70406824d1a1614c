"""aspkit: answer set programming toolkit.

A small rule-language front end, a reference evaluator for answer-set
semantics with weak-constraint optimization (bounded backtracking over the
candidate atoms, a least-model minimality check with a subset search for
head cycles), a declarative record/fact mapper, and orchestration for
running external ASP solvers.
"""

from .errors import AspkitError, LimitExceeded, ParseError, SafetyError
from .mapper import (
    MappedRecord,
    PredicateSchema,
    SchemaField,
    SchemaRegistry,
    Skipped,
    answer_set_to_records,
    fact_to_record,
    load_schema_manifest,
    parse_schema_manifest,
    record,
    record_to_fact,
    schema,
)
from .orchestration import Handler, InputProgram, Output
from .refeval import (
    DEFAULT_LIMITS,
    AnswerSet,
    EvaluationLimits,
    GroundProgram,
    GroundRule,
    GroundWeakConstraint,
    Verdict,
    answer_sets,
    body_true,
    cost,
    ground_program,
    herbrand_base,
    herbrand_universe,
    is_answer_set,
    is_model,
    minimal_models,
    optimal_answer_sets,
    reduct,
    render_interpretation,
)
from .syntax import (
    Atom,
    Builtin,
    Constant,
    Integer,
    Literal,
    Program,
    Rule,
    Sum,
    Variable,
    WeakConstraint,
    classify_predicates,
    parse_program,
    render,
    safety_check,
)
from .systems import (
    AnswerSets,
    OptionDescriptor,
    SolverSpec,
    clingo_solver,
    dlv_solver,
    filter_option,
    invoke_solver,
    parse_clingo_output,
    parse_dlv_output,
    reference_solver,
)

__version__ = "0.1.0"
