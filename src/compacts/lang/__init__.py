"""The compact language: AST, parser, canonical printer, static checks."""

from .ast import (
    And,
    Before,
    CompactSpec,
    Condition,
    Constraint,
    CountsAsRule,
    EventPattern,
    FactPattern,
    Literal,
    NormDecl,
    NormStateFactPattern,
    Or,
    RoleClause,
    Variable,
)
from .checks import Diagnostic, check_well_formedness
from .parser import ParseError, parse_compact
from .printer import pretty_print
