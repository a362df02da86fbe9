"""Hindley-Milner type inference with kinds and row-polymorphic
extensible records, plus a CLI typechecker.

The package exports the two functions of the Library example in
README.md; every other name is imported from its module, such as
`rowml.unify` or `rowml.syntax`."""

from rowml.infer import infer_program
from rowml.syntax import pretty_scheme

__version__ = "0.1.0"
