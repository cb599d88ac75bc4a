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
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, NamedTuple, Optional, Tuple

from .algebra import AlgebraError, Element, GeneratorTable
from .algebroid import AlgebroidSpec
from .derivations import Derivation, DerivationError, make_derivation


RESERVED = {"algebroid", "degree", "base", "even", "odd", "weight", "dim", "d"}

_KIND_FOR = {"base": "base", "even": "even_fiber", "odd": "odd_fiber"}
_WORD_FOR = {v: k for k, v in _KIND_FOR.items()}


# Span and Token are plain classes: the tokenizer makes one of each per
# token, and a NamedTuple costs about a third more time to tokenize.
class Span:
    __slots__ = ("line", "column")

    def __init__(self, line: int, column: int):
        self.line = line
        self.column = column

    def __str__(self) -> str:
        return f"line {self.line}, column {self.column}"


class DslError(ValueError):
    def __init__(self, message: str, span: Optional[Span] = None):
        self.span = span
        super().__init__(f"{message} ({span})" if span else message)


class Token:
    __slots__ = ("kind", "text", "span")

    def __init__(self, kind: str, text: str, span: Span):
        self.kind = kind    # IDENT, INT, SYM, EOF
        self.text = text
        self.span = span


_SYMBOLS = "+-*^/()[]="
# ASCII only: str.isdigit also accepts "²" and "٣", which int() then
# refuses or reads as a plain digit
_DIGITS = "0123456789"

# Parentheses and unary signs nest the recursive descent; input nested
# deeper is refused, before it could exhaust the interpreter's stack.
_MAX_NESTING = 100


def tokenize(text: str) -> List[Token]:
    tokens = []
    line, col = 1, 1
    n = 0
    while n < len(text):
        ch = text[n]
        if ch == "\n":
            line += 1
            col = 1
            n += 1
            continue
        if ch in " \t\r":
            n += 1
            col += 1
            continue
        if ch == "#":
            while n < len(text) and text[n] != "\n":
                n += 1
            continue
        span = Span(line, col)
        if ch in _DIGITS:
            m = n
            while m < len(text) and text[m] in _DIGITS:
                m += 1
            tokens.append(Token("INT", text[n:m], span))
            col += m - n
            n = m
            continue
        if ch.isalpha() or ch == "_":
            m = n
            while m < len(text) and (text[m].isalnum() or text[m] == "_"):
                m += 1
            tokens.append(Token("IDENT", text[n:m], span))
            col += m - n
            n = m
            continue
        if ch in _SYMBOLS:
            tokens.append(Token("SYM", ch, span))
            n += 1
            col += 1
            continue
        raise DslError(f"unexpected character {ch!r}", span)
    tokens.append(Token("EOF", "", Span(line, col)))
    return tokens


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
    def __init__(self, tokens: List[Token]):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str, text: Optional[str] = None) -> Token:
        tok = self.peek()
        if tok.kind != kind or (text is not None and tok.text != text):
            want = text if text is not None else kind
            got = tok.text or "end of input"
            raise DslError(f"expected {want!r}, found {got!r}", tok.span)
        return self.next()

    def expect_int(self) -> int:
        return int(self.expect("INT").text)

    def enter(self, tok: Token) -> None:
        """Go one nesting level deeper at `tok`; `depth` is decremented by
        the caller on the way out."""
        self.depth += 1
        if self.depth > _MAX_NESTING:
            raise DslError(f"expression nested more than {_MAX_NESTING} deep", tok.span)

    # -- statements -------------------------------------------------------

    def document(self) -> SpecDocument:
        if self.peek().kind == "EOF":
            raise DslError("empty document: missing header", self.peek().span)
        self.expect("IDENT", "algebroid")
        name_tok = self.expect("IDENT")
        if name_tok.text in RESERVED:
            raise DslError(f"{name_tok.text!r} is a reserved word", name_tok.span)
        self.expect("IDENT", "degree")
        degree_tok = self.expect("INT")
        degree = int(degree_tok.text)

        declarations: List[Declaration] = []
        raw_assignments: List[Tuple[Tuple[str, int], Span]] = []
        assignment_starts: List[int] = []
        while self.peek().kind != "EOF":
            tok = self.peek()
            if tok.kind != "IDENT":
                raise DslError(f"expected a declaration or assignment, found {tok.text!r}",
                               tok.span)
            if tok.text in _KIND_FOR:
                self.next()
                ident = self.expect("IDENT")
                if ident.text in RESERVED:
                    raise DslError(f"{ident.text!r} is a reserved word", ident.span)
                self.expect("IDENT", "weight")
                w = self.expect_int()
                self.expect("IDENT", "dim")
                dim = self.expect_int()
                declarations.append(Declaration(ident.text, _KIND_FOR[tok.text], w, dim,
                                                tok.span))
            elif tok.text == "d":
                self.next()
                ident = self.expect("IDENT")
                self.expect("SYM", "[")
                idx = self.expect_int()
                self.expect("SYM", "]")
                self.expect("SYM", "=")
                raw_assignments.append(((ident.text, idx), ident.span))
                assignment_starts.append(self.pos)
                self._skip_expr()
            else:
                raise DslError(f"unexpected token {tok.text!r} "
                               "(expected 'base', 'even', 'odd' or 'd')", tok.span)

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
            raise DslError(
                f"declared degree {degree} does not match the chart degree {table.degree}",
                degree_tok.span)

        assignments: List[Assignment] = []
        declared = {(d.name) for d in declarations}
        for ((name, idx), span), start in zip(raw_assignments, assignment_starts):
            if name not in declared:
                raise DslError(f"assignment target {name!r} is not declared", span)
            try:
                table.generator(name, idx)
            except AlgebraError as exc:
                raise DslError(str(exc), span) from exc
            self.pos = start
            value = self._expr(table)
            assignments.append(Assignment((name, idx), value, span))

        return SpecDocument(self.tokens[1].text, degree, declarations, assignments, table)

    def _skip_expr(self) -> None:
        """First pass: skip expression tokens (declarations may come later)."""
        depth = 0
        while True:
            tok = self.peek()
            if tok.kind == "EOF":
                return
            if tok.kind == "IDENT" and tok.text in RESERVED and depth == 0:
                # 'd' may only start a statement; generator names are not reserved
                return
            if tok.kind == "SYM":
                if tok.text == "(":
                    depth += 1
                elif tok.text == ")":
                    depth -= 1
                elif tok.text == "=":
                    raise DslError("unexpected '=' inside expression", tok.span)
            self.next()

    # -- expressions ------------------------------------------------------

    def _expr(self, table: GeneratorTable) -> Element:
        value = self._term(table)
        while self.peek().kind == "SYM" and self.peek().text in "+-":
            op = self.next().text
            rhs = self._term(table)
            value = value + rhs if op == "+" else value - rhs
        return value

    def _term(self, table: GeneratorTable) -> Element:
        value = self._unary(table)
        while self.peek().kind == "SYM" and self.peek().text == "*":
            self.next()
            value = value * self._unary(table)
        return value

    def _unary(self, table: GeneratorTable) -> Element:
        tok = self.peek()
        if tok.kind == "SYM" and tok.text in "+-":
            self.next()
            self.enter(tok)
            value = self._unary(table)
            self.depth -= 1
            return value if tok.text == "+" else -value
        return self._power(table)

    def _power(self, table: GeneratorTable) -> Element:
        value = self._primary(table)
        if self.peek().kind == "SYM" and self.peek().text == "^":
            self.next()
            exp = self.expect_int()
            value = value ** exp
        return value

    def _primary(self, table: GeneratorTable) -> Element:
        tok = self.peek()
        if tok.kind == "INT":
            self.next()
            num = int(tok.text)
            if self.peek().kind == "SYM" and self.peek().text == "/":
                self.next()
                den = self.expect_int()
                if den == 0:
                    raise DslError("zero denominator", tok.span)
                return table.scalar(Fraction(num, den))
            return table.scalar(num)
        if tok.kind == "IDENT":
            if tok.text in RESERVED:
                raise DslError(f"unexpected keyword {tok.text!r} in expression", tok.span)
            self.next()
            self.expect("SYM", "[")
            idx = self.expect_int()
            self.expect("SYM", "]")
            try:
                return table.gen(tok.text, idx)
            except AlgebraError:
                raise DslError(f"undeclared identifier {tok.text}[{idx}]", tok.span) from None
        if tok.kind == "SYM" and tok.text == "(":
            self.next()
            self.enter(tok)
            value = self._expr(table)
            self.expect("SYM", ")")
            self.depth -= 1
            return value
        raise DslError(f"expected an expression, found {tok.text or 'end of input'!r}",
                       tok.span)


def parse(text: str) -> SpecDocument:
    return _Parser(tokenize(text)).document()


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
    declarations = [Declaration(n, k, w, d, Span(0, 0))
                    for n, k, w, d in spec.table.blocks]
    assignments = []
    for g in spec.table.gens:
        v = spec.d.value(g)
        if not v.is_zero():
            assignments.append(Assignment((g.name, g.index), v, Span(0, 0)))
    return SpecDocument(name, spec.table.degree, declarations, assignments, spec.table)


def parse_expression(table: GeneratorTable, text: str) -> Element:
    """Parse a standalone expression over an existing chart (shared syntax)."""
    parser = _Parser(tokenize(text))
    value = parser._expr(table)
    parser.expect("EOF")
    return value
