"""Classical observative languages, physical propositions, and quantum
logic over finite models, with exact closed-subspace arithmetic."""

from .errors import (
    ClosureOverflow,
    DimensionMismatch,
    FormulaSyntaxError,
    MissingTheta,
    ModelValidationError,
    NotTestable,
    ObjectOutOfRange,
    PostconditionFailed,
    QLogicError,
    QuantumNodeInClassicalEval,
    UniverseTooSmall,
    UnknownPredicate,
    UnknownState,
    ZeroVector,
)
from .formulas import (
    And,
    Formula,
    LanguageTag,
    Not,
    Or,
    Pred,
    QAnd,
    QImp,
    QNot,
    QOr,
    classify,
    parse,
    render,
)
from .gaussian import GaussianRational, format_scalar, parse_scalar
from .hilbert import Subspace, born, join, leq, meet, ortho
from .lattice import (
    QLattice,
    close,
    find_distributivity_failure,
    is_orthomodular,
    orthomodularity_witness,
)
from .models import (
    Model,
    PredicateInfo,
    SuiteResult,
    boolean_law_violations,
    check_cms,
    check_cmt,
    eval_open,
    load_model,
    logical_leq,
    model_from_dict,
    model_to_dict,
    physical_leq,
)
from .propositions import (
    PropositionPoset,
    check_connective_relations,
    proposition_poset,
    testable,
)
from .bridge import (
    QMModelSpec,
    QTruth,
    QuantumModel,
    build_model,
    check_q_trichotomy,
    check_qmt,
    check_quantum_equivalences,
    load_spec,
    lt_quotient_check,
    q_truth,
    reduce_qwff,
    spec_from_dict,
    spec_to_dict,
    states_separate,
    testable_proposition_poset,
)

__version__ = "0.1.0"
