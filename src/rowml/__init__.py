"""Hindley-Milner type inference with kinds and row-polymorphic
extensible records, plus a CLI typechecker."""

from rowml.infer import (
    InferError,
    InferSession,
    KindFailure,
    NotARecord,
    UnboundVariable,
    UnifyFailure,
    generalize,
    infer_program,
    infer_term,
    instantiate,
)
from rowml.kindcheck import KindError, UnboundTypeName, check_scheme, kind_of
from rowml.parser import ParseError, SourceSpan, parse_term, parse_type
from rowml.syntax import (
    BOOL,
    INT,
    LIST,
    REC,
    ROW,
    STAR,
    STRING,
    ArrowKind,
    FreshVars,
    Kind,
    KindEnv,
    Scheme,
    TApp,
    TCon,
    TFun,
    TRow,
    Term,
    Type,
    TypeEnv,
    TypeVar,
    base_kind_env,
    canonicalize,
    pretty_scheme,
    pretty_term,
    pretty_type,
    record,
)
from rowml.unify import (
    DuplicateLabel,
    Mismatch,
    OccursCheck,
    RowMissingLabel,
    RowTailEscape,
    Subst,
    UnifyError,
    unify,
    unify_rows,
)

__version__ = "0.1.0"
