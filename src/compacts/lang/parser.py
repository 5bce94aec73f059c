"""Lexer and recursive-descent parser for .cpt compact files.

The grammar is LL(1) and keyword-driven; see docs/grammar.ebnf for the full
EBNF. Parsing stops at the first failure with a 1-based line:column position.
Names appearing as bare pattern heads are resolved after parsing: a name
declared by a counts-as rule denotes a fact pattern, anything else an event
pattern (undeclared event types are a well-formedness concern, not a parse
error).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Iterator, Optional, TypeVar

from ..validator import ADORNMENTS, Channel, Parameter, SchemaDecl
from . import ast

KEYWORDS = {
    "compact", "context", "roles", "schema", "channel", "members", "carries",
    "prohibition", "commitment", "subject", "object", "create", "on",
    "antecedent", "consequent", "forbids", "unless", "before", "until",
    "within", "blocks", "expires", "after", "counts-as", "from", "by",
    "fact", "violated", "satisfied", "detached", "expired", "and", "or",
    "text", "int", "bool", "key", "out", "in", "true", "false",
}

_PUNCT = "{}(),:;"

# The deepest condition the parser accepts. Depth counts each parenthesis and
# each 'and', 'or' and 'before' on one path from the condition's root. The
# parser, checker, evaluator and printer all recurse on conditions, so the
# bound keeps them well inside Python's recursion limit.
MAX_CONDITION_DEPTH = 64

_T = TypeVar("_T")


@dataclass(frozen=True)
class Token:
    kind: str  # NAME | KEYWORD | INT | STRING | punctuation | EOF
    value: str
    line: int
    col: int


class ParseError(Exception):
    """First syntax failure; positions are 1-based."""

    def __init__(self, line: int, col: int, message: str, token: str = ""):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col
        self.message = message
        self.token = token


_ESCAPES = {"n": "\n", "t": "\t", '"': '"', "\\": "\\"}


def tokenize(text: str) -> Iterator[Token]:
    """Tokens of text, ending in EOF, made as they are pulled: a lexer error
    is raised only when the parser reaches it."""
    line, line_start = 1, 0
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            line_start = i + 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            continue
        if ch == "#":
            end = text.find("\n", i)
            if end < 0:
                break  # the input ends in this comment: EOF points at its '#'
            i = end
            continue
        col = i - line_start + 1
        if ch == '"':
            j = i + 1
            buf: list[str] = []
            while j < n and text[j] != '"':
                if text[j] == "\n":
                    raise ParseError(line, col, "unterminated string")
                if text[j] == "\\":
                    if j + 1 >= n or text[j + 1] not in _ESCAPES:
                        raise ParseError(line, j - line_start + 1, "bad escape")
                    buf.append(_ESCAPES[text[j + 1]])
                    j += 2
                else:
                    buf.append(text[j])
                    j += 1
            if j >= n:
                raise ParseError(line, col, "unterminated string")
            yield Token("STRING", "".join(buf), line, col)
            i = j + 1
            continue
        if text.startswith("counts-as", i):
            kind = "KEYWORD"
            j = i + len("counts-as")
        elif ch.isalpha() or ch == "_":
            j = i + 1
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            kind = "KEYWORD" if text[i:j] in KEYWORDS else "NAME"
        elif ch.isdecimal() or (ch == "-" and i + 1 < n and text[i + 1].isdecimal()):
            # isdecimal, not isdigit: int() rejects digits such as '²'
            j = i + 1
            while j < n and text[j].isdecimal():
                j += 1
            kind = "INT"
        elif ch in _PUNCT:
            kind = ch
            j = i + 1
        else:
            raise ParseError(line, col, f"unexpected character {ch!r}", ch)
        yield Token(kind, text[i:j], line, col)
        i = j
    yield Token("EOF", "", line, i - line_start + 1)


class _Parser:
    def __init__(self, tokens: Iterator[Token]):
        self.tokens = tokens
        self.cur = next(tokens)
        self.parens = 0  # parentheses open around the condition being parsed
        self.height = 0  # depth of the condition parsed last

    def _fail(self, expected: str) -> ParseError:
        tok = self.cur
        shown = tok.value if tok.kind != "EOF" else "end of input"
        return ParseError(tok.line, tok.col, f"expected {expected}, found {shown!r}", tok.value)

    def advance(self) -> Token:
        tok = self.cur
        self.cur = next(self.tokens, tok)  # past EOF, EOF again
        return tok

    def at_keyword(self, *words: str) -> bool:
        return self.cur.kind == "KEYWORD" and self.cur.value in words

    def expect_keyword(self, word: str) -> Token:
        if not self.at_keyword(word):
            raise self._fail(f"'{word}'")
        return self.advance()

    def expect(self, kind: str, what: Optional[str] = None) -> Token:
        if self.cur.kind != kind:
            raise self._fail(what or f"'{kind}'")
        return self.advance()

    def expect_name(self, what: str = "a name") -> Token:
        if self.cur.kind != "NAME":
            raise self._fail(what)
        return self.advance()

    def expect_int(self, what: str = "an integer") -> int:
        tok = self.expect("INT", what)
        sign, digits = ("-", tok.value[1:]) if tok.value.startswith("-") else ("", tok.value)
        # int() refuses over 4,300 digits, leading zeros included
        digits = digits.lstrip("0") or "0"
        # held to the range of event attributes: a literal outside it never matches
        if len(digits) > 19 or not -(2**63) <= int(sign + digits) < 2**63:
            raise ParseError(tok.line, tok.col, "integer outside the signed 64-bit range", tok.value)
        return int(sign + digits)

    def comma_list(self, item: Callable[[], _T]) -> list[_T]:
        """item { "," item }"""
        items = [item()]
        while self.cur.kind == ",":
            self.advance()
            items.append(item())
        return items

    # --- grammar productions -------------------------------------------

    def compact(self) -> ast.CompactSpec:
        head = self.expect_keyword("compact")
        name = self.expect_name("compact name").value
        self.expect_keyword("context")
        context = self.expect_name("context principal").value
        self.expect("{")
        roles: list[str] = []
        schemas: list[SchemaDecl] = []
        channels: list[Channel] = []
        counts_as: list[ast.CountsAsRule] = []
        norms: list[ast.NormDecl] = []
        while not (self.cur.kind == "}"):
            if self.at_keyword("roles"):
                roles.extend(self.roles_decl())
            elif self.at_keyword("schema"):
                schemas.append(self.schema_decl())
            elif self.at_keyword("channel"):
                channels.append(self.channel_decl())
            elif self.at_keyword("counts-as"):
                counts_as.append(self.counts_as_decl())
            elif self.at_keyword(ast.PROHIBITION, ast.COMMITMENT):
                norms.append(self.norm_decl())
            else:
                raise self._fail(
                    "'roles', 'schema', 'channel', 'counts-as', 'prohibition' or 'commitment'"
                )
        self.expect("}")
        self.expect("EOF", "end of input")
        spec = ast.CompactSpec(
            name=name,
            context=context,
            roles=tuple(roles),
            schemas=tuple(schemas),
            channels=tuple(channels),
            counts_as=tuple(counts_as),
            norms=tuple(norms),
            pos=(head.line, head.col),
        )
        return _resolve_fact_patterns(spec)

    def roles_decl(self) -> list[str]:
        self.expect_keyword("roles")
        names: list[str] = []
        if self.cur.kind == "NAME":
            names = self.comma_list(lambda: self.expect_name("role name").value)
        self.expect(";")
        return names

    def schema_decl(self) -> SchemaDecl:
        self.expect_keyword("schema")
        name = self.expect_name("event type").value
        params = self.parenthesized(self.param)
        self.expect(";")
        return SchemaDecl(event_type=name, parameters=params)

    def param(self) -> Parameter:
        name = self.expect_name("parameter name").value
        self.expect(":")
        if not self.at_keyword("text", "int", "bool"):
            raise self._fail("'text', 'int' or 'bool'")
        kind = self.advance().value
        if not self.at_keyword(*ADORNMENTS):
            raise self._fail("'key', 'out' or 'in'")
        adornment = self.advance().value
        return Parameter(name=name, kind=kind, adornment=adornment)

    def channel_decl(self) -> Channel:
        self.expect_keyword("channel")
        name = self.expect_name("channel name").value
        self.expect_keyword("members")
        members = self.comma_list(lambda: self.expect_name("member name").value)
        self.expect_keyword("carries")
        carries = self.comma_list(lambda: self.expect_name("event type").value)
        self.expect(";")
        return Channel(name=name, members=tuple(members), carries=tuple(carries))

    def counts_as_decl(self) -> ast.CountsAsRule:
        head = self.expect_keyword("counts-as")
        fact = self.expect_name("fact name").value
        projection = self.parenthesized(self.projection_binding)
        self.expect_keyword("from")
        source = self.event_pattern()
        self.expect_keyword("by")
        role = self.expect_name("role name").value
        self.expect(";")
        return ast.CountsAsRule(
            fact=fact,
            projection=projection,
            source=source,
            required_role=role,
            pos=(head.line, head.col),
        )

    def projection_binding(self) -> tuple[str, str]:
        attr = self.expect_name("fact attribute").value
        if self.cur.kind == ":":
            self.advance()
            return attr, self.expect_name("source variable").value
        return attr, attr

    def role_clause(self) -> ast.RoleClause:
        role = self.expect_name("role name").value
        if self.cur.kind == ":":
            self.advance()
            return ast.RoleClause(role=role, variable=self.expect_name("variable").value)
        return ast.RoleClause(role=role)

    def norm_decl(self) -> ast.NormDecl:
        head = self.advance()  # 'prohibition' or 'commitment'
        norm_id = self.expect_name("norm id").value
        self.expect_keyword("subject")
        subject = self.role_clause()
        self.expect_keyword("object")
        obj = self.role_clause()
        context = None
        if self.at_keyword("context"):
            self.advance()
            context = self.expect_name("context name").value
        self.expect("{")
        self.expect_keyword("create")
        self.expect_keyword("on")
        create = self.condition()
        self.expect(";")
        clauses: dict = {}  # the clauses the norm's kind takes; absent ones stay None
        if head.value == ast.PROHIBITION:
            self.expect_keyword("forbids")
            clauses["forbids"] = self.event_pattern()
            self.expect(";")
            if self.at_keyword("unless"):
                self.advance()
                # the exemption's own 'before' keyword closes it, so it takes
                # no top-level 'before'; parenthesize to nest one there
                clauses["exemption"] = self.condition(before=False)
                self.expect_keyword("before")
                clauses["exemption_guard"] = self.event_pattern()
                self.expect(";")
            self.expect_keyword("until")
            clauses["until"] = self.condition()
            self.expect(";")
        else:
            if self.at_keyword("antecedent"):
                self.advance()
                clauses["antecedent"] = self.condition()
                self.expect(";")
            self.expect_keyword("consequent")
            clauses["consequent"] = self.condition()
            self.expect_keyword("within")
            clauses["deadline_blocks"] = self.expect_int("a block count")
            self.expect_keyword("blocks")
            self.expect(";")
            if self.at_keyword("expires"):
                self.advance()
                self.expect_keyword("after")
                clauses["expiry_blocks"] = self.expect_int("a block count")
                self.expect_keyword("blocks")
                self.expect(";")
        self.expect("}")
        return ast.NormDecl(
            id=norm_id,
            kind=head.value,
            subject=subject,
            object=obj,
            context=context,
            create=create,
            pos=(head.line, head.col),
            **clauses,
        )

    # --- conditions -----------------------------------------------------
    #
    # Each rule leaves in self.height the depth of the condition it parsed:
    # the most parentheses and operators on one path from its root.

    def condition(self, before: bool = True) -> ast.Condition:
        """With before=False, a condition with no top-level 'before'."""
        node = self.and_condition(before)
        while self.at_keyword("or"):
            node = self._operator(ast.Or, node, lambda: self.and_condition(before))
        return node

    def and_condition(self, before: bool = True) -> ast.Condition:
        node = self.before_condition(before)
        while self.at_keyword("and"):
            node = self._operator(ast.And, node, lambda: self.before_condition(before))
        return node

    def before_condition(self, before: bool = True) -> ast.Condition:
        node = self.primary()
        if before and self.at_keyword("before"):
            node = self._operator(ast.Before, node, self.primary)
        return node

    def _operator(
        self,
        make: Callable[[ast.Condition, ast.Condition], ast.Condition],
        left: ast.Condition,
        operand: Callable[[], ast.Condition],
    ) -> ast.Condition:
        """Consume an operator, parse its right operand and join the two."""
        tok = self.advance()
        left_height = self.height
        right = operand()
        self.height = max(left_height, self.height) + 1
        self._bound_depth(tok, self.height)
        return make(left, right)

    def _bound_depth(self, tok: Token, height: int) -> None:
        if self.parens + height > MAX_CONDITION_DEPTH:
            raise ParseError(
                tok.line, tok.col, f"condition nested deeper than {MAX_CONDITION_DEPTH} levels", tok.value
            )

    def primary(self) -> ast.Condition:
        if self.cur.kind == "(":
            self._bound_depth(self.advance(), 1)
            self.parens += 1
            node = self.condition()
            self.parens -= 1
            self.height += 1
            self.expect(")")
            return node
        self.height = 0
        if self.at_keyword(*ast.NORM_STATES):
            state = self.advance()
            norm_id = self.expect_name("norm id").value
            constraints = self.parenthesized(self.constraint)
            return ast.NormStateFactPattern(
                state=state.value,
                norm_id=norm_id,
                constraints=constraints,
                pos=(state.line, state.col),
            )
        if self.at_keyword("fact"):
            head = self.advance()
            name = self.expect_name("fact name").value
            constraints = self.parenthesized(self.constraint)
            return ast.FactPattern(
                fact=name, constraints=constraints, pos=(head.line, head.col)
            )
        return self.event_pattern()

    def event_pattern(self) -> ast.EventPattern:
        head = self.expect_name("an event pattern")
        constraints = self.parenthesized(self.constraint)
        return ast.EventPattern(
            event_type=head.value, constraints=constraints, pos=(head.line, head.col)
        )

    def parenthesized(self, item: Callable[[], _T]) -> tuple[_T, ...]:
        """"(" [ item { "," item } ] ")" """
        self.expect("(")
        items = self.comma_list(item) if self.cur.kind != ")" else []
        self.expect(")")
        return tuple(items)

    def constraint(self) -> ast.Constraint:
        attr = self.expect_name("attribute name").value
        if self.cur.kind == ":":
            self.advance()
            return ast.Constraint(attribute=attr, term=self.term())
        # bare attribute is shorthand for a variable of the same name
        return ast.Constraint(attribute=attr, term=ast.Variable(attr))

    def term(self) -> ast.Term:
        tok = self.cur
        if tok.kind == "NAME":
            self.advance()
            return ast.Variable(tok.value)
        if tok.kind == "STRING":
            self.advance()
            return ast.Literal(tok.value)
        if tok.kind == "INT":
            return ast.Literal(self.expect_int())
        if self.at_keyword("true", "false"):
            self.advance()
            return ast.Literal(tok.value == "true")
        raise self._fail("a variable or literal")


def _resolve_fact_patterns(spec: ast.CompactSpec) -> ast.CompactSpec:
    """Rewrite bare-name patterns that reference counts-as facts.

    The parser cannot distinguish ``Benign(tumor)`` from an event pattern;
    once all counts-as declarations are known, bare heads naming a declared
    fact become FactPattern nodes.
    """
    fact_names = spec.fact_names()
    if not fact_names:
        return spec

    def fix(cond: ast.Condition) -> ast.Condition:
        if isinstance(cond, ast.EventPattern) and cond.event_type in fact_names:
            return ast.FactPattern(
                fact=cond.event_type, constraints=cond.constraints, pos=cond.pos
            )
        if isinstance(cond, (ast.And, ast.Or, ast.Before)):
            return replace(cond, left=fix(cond.left), right=fix(cond.right))
        return cond

    # a prohibition forbids an event, never a fact; every other clause may name one
    norms = tuple(
        replace(norm, **{name: fix(cond) for name, cond in norm.clauses() if name != "forbids"})
        for norm in spec.norms
    )
    return replace(spec, norms=norms)


def parse_compact(text: str) -> ast.CompactSpec:
    """Parse compact source text; raises ParseError at the first failure."""
    return _Parser(tokenize(text)).compact()
