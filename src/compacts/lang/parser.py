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
from typing import Optional

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


def tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        start_line, start_col = line, col
        if text.startswith("counts-as", i):
            tokens.append(Token("KEYWORD", "counts-as", start_line, start_col))
            i += len("counts-as")
            col += len("counts-as")
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            kind = "KEYWORD" if word in KEYWORDS else "NAME"
            tokens.append(Token(kind, word, start_line, start_col))
            col += j - i
            i = j
            continue
        if ch.isdigit() or (ch == "-" and i + 1 < n and text[i + 1].isdigit()):
            j = i + 1
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(Token("INT", text[i:j], start_line, start_col))
            col += j - i
            i = j
            continue
        if ch == '"':
            j = i + 1
            buf: list[str] = []
            while j < n and text[j] != '"':
                if text[j] == "\n":
                    raise ParseError(start_line, start_col, "unterminated string")
                if text[j] == "\\":
                    if j + 1 >= n or text[j + 1] not in _ESCAPES:
                        raise ParseError(line, col + (j - i), "bad escape")
                    buf.append(_ESCAPES[text[j + 1]])
                    j += 2
                else:
                    buf.append(text[j])
                    j += 1
            if j >= n:
                raise ParseError(start_line, start_col, "unterminated string")
            tokens.append(Token("STRING", "".join(buf), start_line, start_col))
            col += j + 1 - i
            i = j + 1
            continue
        if ch in _PUNCT:
            tokens.append(Token(ch, ch, start_line, start_col))
            i += 1
            col += 1
            continue
        raise ParseError(start_line, start_col, f"unexpected character {ch!r}", ch)
    tokens.append(Token("EOF", "", line, col))
    return tokens


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.i = 0

    @property
    def cur(self) -> Token:
        return self.tokens[self.i]

    def _fail(self, expected: str) -> ParseError:
        tok = self.cur
        shown = tok.value if tok.kind != "EOF" else "end of input"
        return ParseError(tok.line, tok.col, f"expected {expected}, found {shown!r}", tok.value)

    def advance(self) -> Token:
        tok = self.cur
        self.i += 1
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
        return int(tok.value)

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
            elif self.at_keyword("prohibition"):
                norms.append(self.prohibition_decl())
            elif self.at_keyword("commitment"):
                norms.append(self.commitment_decl())
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
            names.append(self.advance().value)
            while self.cur.kind == ",":
                self.advance()
                names.append(self.expect_name("role name").value)
        self.expect(";")
        return names

    def schema_decl(self) -> SchemaDecl:
        self.expect_keyword("schema")
        name = self.expect_name("event type").value
        self.expect("(")
        params: list[Parameter] = []
        if self.cur.kind != ")":
            params.append(self.param())
            while self.cur.kind == ",":
                self.advance()
                params.append(self.param())
        self.expect(")")
        self.expect(";")
        return SchemaDecl(event_type=name, parameters=tuple(params))

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
        members = [self.expect_name("member name").value]
        while self.cur.kind == ",":
            self.advance()
            members.append(self.expect_name("member name").value)
        self.expect_keyword("carries")
        carries = [self.expect_name("event type").value]
        while self.cur.kind == ",":
            self.advance()
            carries.append(self.expect_name("event type").value)
        self.expect(";")
        return Channel(name=name, members=tuple(members), carries=tuple(carries))

    def counts_as_decl(self) -> ast.CountsAsRule:
        head = self.expect_keyword("counts-as")
        fact = self.expect_name("fact name").value
        self.expect("(")
        projection: list[tuple[str, str]] = []
        if self.cur.kind != ")":
            projection.append(self.projection_binding())
            while self.cur.kind == ",":
                self.advance()
                projection.append(self.projection_binding())
        self.expect(")")
        self.expect_keyword("from")
        source = self.event_pattern()
        self.expect_keyword("by")
        role = self.expect_name("role name").value
        self.expect(";")
        return ast.CountsAsRule(
            fact=fact,
            projection=tuple(projection),
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

    def role_clauses(self) -> tuple[ast.RoleClause, ast.RoleClause, Optional[str]]:
        self.expect_keyword("subject")
        subject = self.role_clause()
        self.expect_keyword("object")
        obj = self.role_clause()
        context = None
        if self.at_keyword("context"):
            self.advance()
            context = self.expect_name("context name").value
        return subject, obj, context

    def role_clause(self) -> ast.RoleClause:
        role = self.expect_name("role name").value
        if self.cur.kind == ":":
            self.advance()
            return ast.RoleClause(role=role, variable=self.expect_name("variable").value)
        return ast.RoleClause(role=role)

    def prohibition_decl(self) -> ast.NormDecl:
        head = self.expect_keyword("prohibition")
        norm_id = self.expect_name("norm id").value
        subject, obj, context = self.role_clauses()
        self.expect("{")
        self.expect_keyword("create")
        self.expect_keyword("on")
        create = self.condition()
        self.expect(";")
        self.expect_keyword("forbids")
        forbids = self.event_pattern()
        self.expect(";")
        exemption = None
        guard = None
        if self.at_keyword("unless"):
            self.advance()
            exemption = self.condition_without_before()
            self.expect_keyword("before")
            guard = self.event_pattern()
            self.expect(";")
        self.expect_keyword("until")
        until = self.condition()
        self.expect(";")
        self.expect("}")
        return ast.NormDecl(
            id=norm_id,
            kind=ast.PROHIBITION,
            subject=subject,
            object=obj,
            context=context,
            create=create,
            forbids=forbids,
            exemption=exemption,
            exemption_guard=guard,
            until=until,
            pos=(head.line, head.col),
        )

    def commitment_decl(self) -> ast.NormDecl:
        head = self.expect_keyword("commitment")
        norm_id = self.expect_name("norm id").value
        subject, obj, context = self.role_clauses()
        self.expect("{")
        self.expect_keyword("create")
        self.expect_keyword("on")
        create = self.condition()
        self.expect(";")
        antecedent = None
        if self.at_keyword("antecedent"):
            self.advance()
            antecedent = self.condition()
            self.expect(";")
        self.expect_keyword("consequent")
        consequent = self.condition()
        self.expect_keyword("within")
        deadline = self.expect_int("a block count")
        self.expect_keyword("blocks")
        self.expect(";")
        expiry = None
        if self.at_keyword("expires"):
            self.advance()
            self.expect_keyword("after")
            expiry = self.expect_int("a block count")
            self.expect_keyword("blocks")
            self.expect(";")
        self.expect("}")
        return ast.NormDecl(
            id=norm_id,
            kind=ast.COMMITMENT,
            subject=subject,
            object=obj,
            context=context,
            create=create,
            antecedent=antecedent,
            consequent=consequent,
            deadline_blocks=deadline,
            expiry_blocks=expiry,
            pos=(head.line, head.col),
        )

    # --- conditions -----------------------------------------------------

    def condition(self) -> ast.Condition:
        node = self.and_condition()
        while self.at_keyword("or"):
            self.advance()
            node = ast.Or(node, self.and_condition())
        return node

    def condition_without_before(self) -> ast.Condition:
        """Condition with no top-level infix 'before'.

        Used for the exemption clause, whose own 'before' keyword closes it;
        parenthesize to nest a before-condition there.
        """
        node = self.primary()
        while self.at_keyword("and"):
            self.advance()
            node = ast.And(node, self.primary())
        while self.at_keyword("or"):
            self.advance()
            right = self.primary()
            while self.at_keyword("and"):
                self.advance()
                right = ast.And(right, self.primary())
            node = ast.Or(node, right)
        return node

    def and_condition(self) -> ast.Condition:
        node = self.before_condition()
        while self.at_keyword("and"):
            self.advance()
            node = ast.And(node, self.before_condition())
        return node

    def before_condition(self) -> ast.Condition:
        node = self.primary()
        if self.at_keyword("before"):
            self.advance()
            node = ast.Before(node, self.primary())
        return node

    def primary(self) -> ast.Condition:
        if self.cur.kind == "(":
            self.advance()
            node = self.condition()
            self.expect(")")
            return node
        if self.at_keyword(*ast.NORM_STATES):
            state = self.advance()
            norm_id = self.expect_name("norm id").value
            constraints = self.pattern_body()
            return ast.NormStateFactPattern(
                state=state.value,
                norm_id=norm_id,
                constraints=constraints,
                pos=(state.line, state.col),
            )
        if self.at_keyword("fact"):
            head = self.advance()
            name = self.expect_name("fact name").value
            constraints = self.pattern_body()
            return ast.FactPattern(
                fact=name, constraints=constraints, pos=(head.line, head.col)
            )
        return self.event_pattern()

    def event_pattern(self) -> ast.EventPattern:
        head = self.expect_name("an event pattern")
        constraints = self.pattern_body()
        return ast.EventPattern(
            event_type=head.value, constraints=constraints, pos=(head.line, head.col)
        )

    def pattern_body(self) -> tuple[ast.Constraint, ...]:
        self.expect("(")
        constraints: list[ast.Constraint] = []
        if self.cur.kind != ")":
            constraints.append(self.constraint())
            while self.cur.kind == ",":
                self.advance()
                constraints.append(self.constraint())
        self.expect(")")
        return tuple(constraints)

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
            self.advance()
            return ast.Literal(int(tok.value))
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

    def fix(cond: Optional[ast.Condition]) -> Optional[ast.Condition]:
        if isinstance(cond, ast.EventPattern) and cond.event_type in fact_names:
            return ast.FactPattern(
                fact=cond.event_type, constraints=cond.constraints, pos=cond.pos
            )
        if isinstance(cond, (ast.And, ast.Or, ast.Before)):
            return replace(cond, left=fix(cond.left), right=fix(cond.right))
        return cond

    norms = tuple(
        replace(
            norm,
            create=fix(norm.create),
            antecedent=fix(norm.antecedent),
            consequent=fix(norm.consequent),
            exemption=fix(norm.exemption),
            until=fix(norm.until),
        )
        for norm in spec.norms
    )
    return replace(spec, norms=norms)


def parse_compact(text: str) -> ast.CompactSpec:
    """Parse compact source text; raises ParseError at the first failure."""
    return _Parser(tokenize(text)).compact()
