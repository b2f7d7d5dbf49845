"""Parser for program files: function declarations and named terms.

Grammar (UTF-8 text, '#' starts a line comment):

    type    ::= IDENT | "D" type | type "&" type | "(" type ")"
    decl    ::= "fn" IDENT ":" "(" [type ("," type)*] ")" "->" type ";"
              | "term" IDENT ["[" ctxitem ("," ctxitem)* "]"] "=" term ";"
    ctxitem ::= IDENT ":" type
    term    ::= IDENT | "<" term "," term ">"
              | fname ["^[" NAT ("," NAT)* "]"] "(" [term ("," term)*] ")"
    fname   ::= IDENT | "pi0" | "pi1" | "pr0" | "pr1" | "iota0" | "iota1"
              | "theta_" NAT        (NAT without leading zeros)

D binds tighter than &, and & associates to the left.  An empty argument
list in a fn declaration declares an arity-0 constant.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Callable

from .syntax import (
    App,
    Context,
    DInj,
    DProj,
    FunctionType,
    GroundType,
    Pair,
    ProdProj,
    ProductType,
    Signature,
    Term,
    Theta,
    Type,
    UserFn,
    Var,
    d_type,
    fn_name,
)


class ParseError(Exception):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col


@dataclass
class Token:
    kind: str
    text: str
    line: int
    col: int


_TOKEN_RE = re.compile(
    r"""
    (?P<ws>[ \t\r]+)
  | (?P<comment>\#[^\n]*)
  | (?P<nl>\n)
  | (?P<arrow>->)
  | (?P<nat>[0-9]+)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<punct>[:;,=<>&()\[\]^{}./])
    """,
    re.VERBOSE,
)

# Frozen, so one instance of each serves every parsed application.
_BUILTIN_FNS = {
    fn_name(f): f
    for f in (DProj(0), DProj(1), ProdProj(0), ProdProj(1), DInj(0), DInj(1))
}

_THETA_RE = re.compile(r"theta_(0|[1-9][0-9]*)$")


def _resolve_fn(name: str):
    if name in _BUILTIN_FNS:
        return _BUILTIN_FNS[name]
    m = _THETA_RE.match(name)
    if m:
        return Theta(int(m.group(1)))
    return UserFn(name)


def tokenize(text: str) -> list[Token]:
    tokens = []
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", line, col)
        kind = m.lastgroup
        tok = m.group()
        if kind == "nl":
            line += 1
            col = 1
        elif kind in ("ws", "comment"):
            col += len(tok)
        else:
            tokens.append(Token(kind, tok, line, col))
            col += len(tok)
        pos = m.end()
    tokens.append(Token("eof", "", line, col))
    return tokens


@dataclass
class Program:
    signature: Signature
    terms: dict[str, tuple[Context, Term]] = field(default_factory=dict)


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def error(self, message: str) -> ParseError:
        tok = self.peek()
        return ParseError(message, tok.line, tok.col)

    def expect(self, text: str) -> Token:
        tok = self.peek()
        if tok.text != text:
            raise self.error(f"expected {text!r}, found {tok.text!r}")
        return self.next()

    def expect_kind(self, kind: str) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            raise self.error(f"expected {kind}, found {tok.text!r}")
        return self.next()

    def comma_list(self, item: Callable, close: str,
                   allow_empty: bool = False) -> list:
        """item ("," item)* close; just close when allow_empty."""
        items = []
        if not (allow_empty and self.peek().text == close):
            items.append(item())
            while self.peek().text == ",":
                self.next()
                items.append(item())
        self.expect(close)
        return items

    # -- types ---------------------------------------------------------

    def parse_type(self) -> Type:
        ty = self.parse_type_atom()
        while self.peek().text == "&":
            self.next()
            ty = ProductType(ty, self.parse_type_atom())
        return ty

    def parse_type_atom(self) -> Type:
        tok = self.peek()
        if tok.text == "D":
            self.next()
            return d_type(self.parse_type_atom())
        if tok.text == "(":
            self.next()
            ty = self.parse_type()
            self.expect(")")
            return ty
        if tok.kind == "ident":
            self.next()
            return GroundType(0, tok.text)
        raise self.error(f"expected a type, found {tok.text!r}")

    # -- terms ---------------------------------------------------------

    def parse_term(self) -> Term:
        tok = self.peek()
        if tok.text == "<":
            self.next()
            t0 = self.parse_term()
            self.expect(",")
            t1 = self.parse_term()
            self.expect(">")
            return Pair(t0, t1)
        if tok.kind == "ident":
            name = self.next().text
            if self.peek().text not in ("^", "("):
                return Var(name)
            word: tuple[int, ...] = ()
            if self.peek().text == "^":
                self.next()
                self.expect("[")
                word = tuple(self.comma_list(
                    lambda: int(self.expect_kind("nat").text), "]"
                ))
            self.expect("(")
            args = self.comma_list(self.parse_term, ")", allow_empty=True)
            return App(_resolve_fn(name), word, tuple(args))
        raise self.error(f"expected a term, found {tok.text!r}")

    # -- declarations ----------------------------------------------------

    def parse_program(self) -> Program:
        program = Program(Signature())
        while self.peek().kind != "eof":
            tok = self.peek()
            if tok.text == "fn":
                self.parse_fn_decl(program)
            elif tok.text == "term":
                self.parse_term_decl(program)
            else:
                raise self.error(f"expected 'fn' or 'term', found {tok.text!r}")
        return program

    def parse_fn_decl(self, program: Program) -> None:
        self.expect("fn")
        name = self.expect_kind("ident").text
        if not isinstance(_resolve_fn(name), UserFn):
            raise self.error(f"{name!r} is a reserved function name")
        if name in program.signature:
            raise self.error(f"function {name!r} declared twice")
        self.expect(":")
        self.expect("(")
        args = self.comma_list(self.parse_type, ")", allow_empty=True)
        self.expect("->")
        result = self.parse_type()
        self.expect(";")
        program.signature.declare(name, FunctionType(tuple(args), result))

    def parse_term_decl(self, program: Program) -> None:
        self.expect("term")
        name = self.expect_kind("ident").text
        if name in program.terms:
            raise self.error(f"term {name!r} declared twice")
        ctx: list[tuple[str, Type]] = []
        if self.peek().text == "[":
            self.next()
            ctx = self.comma_list(self.parse_ctxitem, "]")
        if len({v for v, _ in ctx}) != len(ctx):
            raise self.error(f"duplicate variable in the context of {name!r}")
        self.expect("=")
        t = self.parse_term()
        self.expect(";")
        program.terms[name] = (tuple(ctx), t)

    def parse_ctxitem(self) -> tuple[str, Type]:
        name = self.expect_kind("ident").text
        self.expect(":")
        return name, self.parse_type()


def parse_program(text: str) -> Program:
    """Parse a program file into a signature and its named terms."""
    return _Parser(tokenize(text)).parse_program()
