"""Text DSL for algebroid spec files.

Grammar (whitespace-insensitive, '#' line comments):

    document := header block*
    header   := "algebroid" IDENT "degree" INT
    block    := gen_decl | assign
    gen_decl := ("base" | "even" | "odd") IDENT "weight" INT "dim" INT
    assign   := "d" IDENT "[" INT "]" "=" expr
    expr     := arithmetic over declared generators: identifiers with bracket
                indices (z[1]), rational literals p/q, operators + - * ^,
                parentheses.

Odd factors are written with '*'; there is no separate wedge symbol.

Tokens: one regex scan splits the text at spaces, tabs, carriage returns
and newlines, and drops '#' comments.  A token is an INT (ASCII digits
only), an IDENT (a letter or '_', then letters, digits and '_' in the
sense of str.isalnum) or one of the symbols + - * ^ / ( ) [ ] =; any
other character where a token starts is an error, and so is an INT of
more than MAX_INT_DIGITS digits.  The parser works on the token strings
and reads a token's kind off its first character.  It refuses a '^'
exponent above MAX_EXPONENT before computing the power.

Budgets: the declarations may name at most MAX_GENERATORS generators in
all, counted while they are read, before the chart is built.  Before a
'*' or a '^' is computed, the operands' term counts bound the result: a
product of s and t terms has at most s t, and the n-th power of t terms
at most C(t + n - 1, n), the number of multisets of n of them.  A bound
above MAX_TERMS is refused at the operator.

Positions: a message names the line and column (from 1) where its token
starts.  A `Span` holds the text and the token's index and finds its line
and column by scanning the text again, only when read, so a spec that
parses reads no position.  The end of input sits after the last
character, or at the start of a trailing comment that has no newline.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import comb
from typing import Dict, List, NamedTuple, Optional, Tuple

from .algebra import AlgebraError, Element, GeneratorTable
from .algebroid import AlgebroidSpec
from .derivations import Derivation, DerivationError, make_derivation


RESERVED = {"algebroid", "degree", "base", "even", "odd", "weight", "dim", "d"}

_KIND_FOR = {"base": "base", "even": "even_fiber", "odd": "odd_fiber"}
_WORD_FOR = {v: k for k, v in _KIND_FOR.items()}

# A comment matches with an empty group and is dropped; every other
# non-blank character starts a token.  No quantifier is nested, so the
# scan cannot backtrack.
_TOKEN = re.compile(r"#[^\n]*|([0-9]+|\w+|[^ \t\r\n#])")
_SYMBOLS = "+-*^/()[]="
# besides letters, what a token may start with: \w also matches "²", "٣"
# and "½", which int() refuses or reads as a digit
_STARTS = frozenset("0123456789_" + _SYMBOLS)

# Parentheses and unary signs nest the recursive descent; input nested
# deeper is refused, before it could exhaust the interpreter's stack.
_MAX_NESTING = 100
# int() refuses more than 4300 digits by default, so a longer INT literal is
# refused while tokenizing; a larger '^' exponent is refused before the power
# is computed (3^10000000 alone takes seconds).
MAX_INT_DIGITS = 4000
MAX_EXPONENT = 64
# `check` on 200 000 generators took 1.0 s and 91 MB; on 10 000, 0.12 s.
MAX_GENERATORS = 10_000
# (x[1]+x[2]+x[3]+x[4])^16, 969 terms, parses in 0.1 s; its 32nd power,
# 6 545 terms, took 4.2 s (Python 3.11, 2 CPUs).
MAX_TERMS = 1000


def _locate(text: str, index: int) -> Tuple[int, int]:
    """Line and column of token `index` of `text`, or of the end of input
    when the text has no more tokens: the start of a trailing comment with
    no newline, else just past the last character."""
    count = 0
    for match in _TOKEN.finditer(text):
        if match.group(1):
            if count == index:
                start = match.start()
                break
            count += 1
    else:
        start = text.find("#", text.rfind("\n") + 1)
        if start < 0:
            start = len(text)
    return text.count("\n", 0, start) + 1, start - text.rfind("\n", 0, start)


class Span(NamedTuple):
    """Where token `index` of `text` starts: `line` and `column`, found by
    scanning `text` again when read."""
    text: str
    index: int

    @property
    def line(self) -> int:
        return _locate(self.text, self.index)[0]

    @property
    def column(self) -> int:
        return _locate(self.text, self.index)[1]

    def __str__(self) -> str:
        return "line {}, column {}".format(*_locate(*self))


class DslError(ValueError):
    def __init__(self, message: str, span: Optional[Span] = None):
        self.span = span
        super().__init__(f"{message} ({span})" if span else message)


def tokenize(text: str) -> List[str]:
    """The tokens of `text`, then "" for the end of input."""
    tokens = [tok for tok in _TOKEN.findall(text) if tok]
    for n, tok in enumerate(tokens):
        if tok[0] not in _STARTS and not tok[0].isalpha():
            raise DslError(f"unexpected character {tok[0]!r}", Span(text, n))
    tokens.append("")
    if max(map(len, tokens)) > MAX_INT_DIGITS:
        for n, tok in enumerate(tokens):
            if len(tok) > MAX_INT_DIGITS and tok[0].isdigit():
                raise DslError(f"integer literal of {len(tok)} digits, above the limit "
                               f"of {MAX_INT_DIGITS}", Span(text, n))
    return tokens


def _is_name(tok: str) -> bool:
    return tok[:1].isalpha() or tok[:1] == "_"


class Declaration(NamedTuple):
    name: str
    kind: str            # base | even_fiber | odd_fiber
    h_weight: int
    dim: int
    span: Span


class Assignment(NamedTuple):
    target: Tuple[str, int]
    value: Element       # canonical form over the document's table
    span: Span


class SpecDocument:
    def __init__(self, name: str, degree: int, declarations: List[Declaration],
                 assignments: List[Assignment], table: GeneratorTable):
        self.name = name
        self.degree = degree
        self.declarations = declarations
        self.assignments = assignments
        self.table = table

    def __eq__(self, other) -> bool:
        if not isinstance(other, SpecDocument):
            return NotImplemented
        return (self.name == other.name and self.degree == other.degree
                and [(d.name, d.kind, d.h_weight, d.dim) for d in self.declarations]
                == [(d.name, d.kind, d.h_weight, d.dim) for d in other.declarations]
                and [(a.target, a.value) for a in self.assignments]
                == [(a.target, a.value) for a in other.assignments])


class _Parser:
    def __init__(self, text: str, tokens: List[str]):
        self.text = text
        self.tokens = tokens
        self.pos = 0
        self.depth = 0

    def error(self, message: str, at: Optional[int] = None) -> DslError:
        """An error at token `at`, by default the next one."""
        return DslError(message, Span(self.text, self.pos if at is None else at))

    def expect(self, want: str) -> str:
        """Take the next token: any name for 'IDENT', any integer for
        'INT', else `want` itself."""
        tok = self.tokens[self.pos]
        if not (_is_name(tok) if want == "IDENT" else tok.isdigit() if want == "INT"
                else tok == want):
            raise self.error(f"expected {want!r}, found {tok or 'end of input'!r}")
        self.pos += 1
        return tok

    def enter(self, at: int) -> None:
        """Go one nesting level deeper at token `at`; `depth` is decremented
        by the caller on the way out."""
        self.depth += 1
        if self.depth > _MAX_NESTING:
            raise self.error(f"expression nested more than {_MAX_NESTING} deep", at)

    # -- statements -------------------------------------------------------

    def document(self) -> SpecDocument:
        tokens = self.tokens
        if not tokens[0]:
            raise self.error("empty document: missing header")
        self.expect("algebroid")
        name = self.expect("IDENT")
        if name in RESERVED:
            raise self.error(f"{name!r} is a reserved word", self.pos - 1)
        self.expect("degree")
        degree_at = self.pos
        degree = int(self.expect("INT"))

        declarations: List[Declaration] = []
        generators = 0
        # (target, token index of its name, token index of its expression)
        raw_assignments: List[Tuple[Tuple[str, int], int, int]] = []
        while tokens[self.pos]:
            at = self.pos
            tok = tokens[at]
            if not _is_name(tok):
                raise self.error(f"expected a declaration or assignment, found {tok!r}")
            self.pos += 1
            if tok in _KIND_FOR:
                ident = self.expect("IDENT")
                if ident in RESERVED:
                    raise self.error(f"{ident!r} is a reserved word", at + 1)
                self.expect("weight")
                w = int(self.expect("INT"))
                self.expect("dim")
                dim = int(self.expect("INT"))
                generators += dim
                if generators > MAX_GENERATORS:
                    raise self.error(f"the declarations name {generators} generators, "
                                     f"above the limit of {MAX_GENERATORS}", at)
                declarations.append(Declaration(ident, _KIND_FOR[tok], w, dim,
                                                Span(self.text, at)))
            elif tok == "d":
                ident = self.expect("IDENT")
                self.expect("[")
                idx = int(self.expect("INT"))
                self.expect("]")
                self.expect("=")
                raw_assignments.append(((ident, idx), at + 1, self.pos))
                self._skip_expr()
            else:
                raise self.error(f"unexpected token {tok!r} "
                                 "(expected 'base', 'even', 'odd' or 'd')", at)

        chart = [(d.name, d.kind, d.h_weight, d.dim) for d in declarations]
        try:
            table = GeneratorTable(chart)
        except AlgebraError:
            # the chart is checked one declaration at a time, so the first
            # prefix it refuses ends in the declaration at fault
            for n, decl in enumerate(declarations, 1):
                try:
                    GeneratorTable(chart[:n])
                except AlgebraError as exc:
                    raise DslError(str(exc), decl.span) from exc
            raise
        if table.degree != degree:
            raise self.error(
                f"declared degree {degree} does not match the chart degree {table.degree}",
                degree_at)

        assignments: List[Assignment] = []
        declared = {d.name for d in declarations}
        for (target, at, start) in raw_assignments:
            if target[0] not in declared:
                raise self.error(f"assignment target {target[0]!r} is not declared", at)
            try:
                table.generator(*target)
            except AlgebraError as exc:
                raise self.error(str(exc), at) from exc
            self.pos = start
            assignments.append(Assignment(target, self._expr(table), Span(self.text, at)))

        return SpecDocument(name, degree, declarations, assignments, table)

    def _skip_expr(self) -> None:
        """First pass: skip expression tokens (declarations may come later)."""
        tokens = self.tokens
        depth = 0
        while True:
            tok = tokens[self.pos]
            # 'd' may only start a statement; generator names are not reserved
            if not tok or (depth == 0 and tok in RESERVED):
                return
            if tok == "(":
                depth += 1
            elif tok == ")":
                depth -= 1
            elif tok == "=":
                raise self.error("unexpected '=' inside expression")
            self.pos += 1

    # -- expressions ------------------------------------------------------

    def _expr(self, table: GeneratorTable) -> Element:
        value = self._term(table)
        while self.tokens[self.pos] in ("+", "-"):
            op = self.tokens[self.pos]
            self.pos += 1
            rhs = self._term(table)
            value = value + rhs if op == "+" else value - rhs
        return value

    def _term(self, table: GeneratorTable) -> Element:
        value = self._factor(table)
        while self.tokens[self.pos] == "*":
            at = self.pos
            self.pos += 1
            rhs = self._factor(table)
            bound = len(value.terms) * len(rhs.terms)
            if bound > MAX_TERMS:
                raise self.error(f"a product of {len(value.terms)} and {len(rhs.terms)} "
                                 f"terms may have {bound} terms, above the limit of "
                                 f"{MAX_TERMS}", at)
            value = value * rhs
        return value

    def _factor(self, table: GeneratorTable) -> Element:
        """A signed factor, or a primary with an optional '^' INT."""
        at = self.pos
        tok = self.tokens[at]
        if tok == "+" or tok == "-":
            self.pos += 1
            self.enter(at)
            value = self._factor(table)
            self.depth -= 1
            return value if tok == "+" else -value
        value = self._primary(table)
        if self.tokens[self.pos] == "^":
            at = self.pos
            self.pos += 1
            exponent = int(self.expect("INT"))
            if exponent > MAX_EXPONENT:
                raise self.error(f"exponent {exponent} is above the limit of {MAX_EXPONENT}",
                                 self.pos - 1)
            t = len(value.terms)
            bound = comb(t + exponent - 1, exponent) if t else 1
            if bound > MAX_TERMS:
                raise self.error(f"power {exponent} of {t} terms may have {bound} terms, "
                                 f"above the limit of {MAX_TERMS}", at)
            value = value ** exponent
        return value

    def _primary(self, table: GeneratorTable) -> Element:
        at = self.pos
        tok = self.tokens[at]
        if tok.isdigit():
            self.pos += 1
            if self.tokens[self.pos] != "/":
                return table.scalar(int(tok))
            self.pos += 1
            den = int(self.expect("INT"))
            if den == 0:
                raise self.error("zero denominator", at)
            return table.scalar(Fraction(int(tok), den))
        if tok == "(":
            self.pos += 1
            self.enter(at)
            value = self._expr(table)
            self.expect(")")
            self.depth -= 1
            return value
        if not _is_name(tok):
            raise self.error(f"expected an expression, found {tok or 'end of input'!r}")
        if tok in RESERVED:
            raise self.error(f"unexpected keyword {tok!r} in expression")
        self.pos += 1
        self.expect("[")
        idx = int(self.expect("INT"))
        self.expect("]")
        try:
            return table.gen(tok, idx)
        except AlgebraError:
            raise self.error(f"undeclared identifier {tok}[{idx}]", at) from None


def parse(text: str) -> SpecDocument:
    return _Parser(text, tokenize(text)).document()


def print_document(doc: SpecDocument) -> str:
    lines = [f"algebroid {doc.name} degree {doc.degree}"]
    for d in doc.declarations:
        lines.append(f"{_WORD_FOR[d.kind]} {d.name} weight {d.h_weight} dim {d.dim}")
    for a in doc.assignments:
        name, idx = a.target
        lines.append(f"d {name}[{idx}] = {a.value}")
    return "\n".join(lines) + "\n"


def to_algebroid_spec(doc: SpecDocument) -> AlgebroidSpec:
    action: Dict[int, Element] = {}
    for a in doc.assignments:
        g = doc.table.generator(*a.target)
        if g.position in action:
            raise DslError(f"duplicate assignment for {g}", a.span)
        try:
            # one assignment at a time, so that an error names its line
            action.update(make_derivation(doc.table, (0, 1), {g: a.value}).action)
        except DerivationError as exc:
            raise DslError(str(exc), a.span) from exc
    return AlgebroidSpec(doc.table, Derivation(doc.table, (0, 1), action))


def document_from_spec(name: str, spec: AlgebroidSpec) -> SpecDocument:
    # a document made from a spec has no source text to point into
    nowhere = Span("", 0)
    declarations = [Declaration(n, k, w, d, nowhere) for n, k, w, d in spec.table.blocks]
    assignments = []
    for g in spec.table.gens:
        v = spec.d.value(g)
        if not v.is_zero():
            assignments.append(Assignment((g.name, g.index), v, nowhere))
    return SpecDocument(name, spec.table.degree, declarations, assignments, spec.table)


def parse_expression(table: GeneratorTable, text: str) -> Element:
    """Parse a standalone expression over an existing chart (shared syntax)."""
    parser = _Parser(text, tokenize(text))
    value = parser._expr(table)
    if parser.tokens[parser.pos]:
        raise parser.error(f"expected end of input, found {parser.tokens[parser.pos]!r}")
    return value
