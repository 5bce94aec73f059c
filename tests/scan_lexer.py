"""Reference lexer: the .cpt character loop, one character at a time.

scan_tokenize is how compacts.lang.parser lexed before its lexical rules
became one regular expression. It walks the text by hand and builds each
token as a frozen dataclass. Tests hold the (kind, value, line, col) stream
and the ParseError of the expression-based lexer equal to it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from compacts.lang.parser import KEYWORDS, ParseError

_PUNCT = "{}(),:;"


@dataclass(frozen=True)
class Token:
    kind: str  # NAME | KEYWORD | INT | STRING | punctuation | EOF
    value: str
    line: int
    col: int


_ESCAPES = {"n": "\n", "t": "\t", '"': '"', "\\": "\\"}


def scan_tokenize(text: str) -> Iterator[Token]:
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
