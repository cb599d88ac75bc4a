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
more than MAX_INT_DIGITS digits.  An atom name[INT] written without a
blank or comment inside, whose name is not a reserved word and whose
index has at most 9 digits, is one token, a whole atom.  Any other
spelling, such as `xi [ 1 ]`, gives four tokens, read the same.  A
message prints a whole atom by its name part, and one that points at
its '[' names the column the split spelling gives.  `Span` counts tokens
with the same scan.  The parser works on the token strings and reads a
token's kind off its first character (a whole atom also ends in ']').
It refuses a '^' exponent above MAX_EXPONENT before computing the power.

Terms: a term is read in one pass of token compares.  Its atoms, name[INT]
or INT or INT/INT with an optional '^' INT, multiply into one running
monomial (a coefficient, an even part and an odd mask, with the Koszul
sign of each odd factor), so no Element is built per factor.  A whole
atom is looked up in a map of token texts to generators that each parse
fills as it reads, so `int` reads each distinct atom's index once.  Only a
parenthesised group is an Element, combined by Element '*' and '**'.  A sum
adds each term into one dict in place, so a sum of t terms costs O(t), and
its terms come in the order `Element.__add__` would give them.  The
budgets and the nesting limit below count atoms and unary signs as they
count groups, and each error names the token it would name if every
factor were an Element.  An assignment's expression must end where the
statement does: a token left after a complete expression is refused.

Budgets: the declarations may name at most MAX_GENERATORS generators in
all, counted while they are read, before the chart is built.  Before a
'*' or a '^' is computed, the operands' term counts bound the result: a
product of s and t terms has at most s t, and the n-th power of t terms
at most C(t + n - 1, n), the number of multisets of n of them.  A bound
above MAX_TERMS is refused at the operator.

Positions: a message names the line and column (from 1) where its token
starts.  A `Span` holds the text, the token's index and an offset into
the token, and finds its line and column by scanning the text again,
only when read, so a spec that parses reads no position.  The end of
input sits after the last character, or at the start of a trailing
comment that has no newline.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import comb
from operator import itemgetter
from typing import Dict, List, NamedTuple, Optional, Tuple

from .algebra import (AlgebraError, Element, EvenPart, Generator, GeneratorTable, Scalar,
                      _coefficient, _element, _merge_even)
from .algebroid import AlgebroidSpec
from .derivations import Derivation, DerivationError, make_derivation


RESERVED = {"algebroid", "degree", "base", "even", "odd", "weight", "dim", "d"}

_KIND_FOR = {"base": "base", "even": "even_fiber", "odd": "odd_fiber"}
_WORD_FOR = {v: k for k, v in _KIND_FOR.items()}

# A match takes the blanks before it and then a token in group 1, a
# comment or the end of the text; a comment and the end match with an
# empty group and are dropped.  One of the three follows any run of
# blanks, so the scan never backtracks over blanks, each match starts
# where the last one ended, and a run of blanks is read once.  Every
# non-blank character but '#' starts a token.  After the symbols, the most
# common tokens, comes a whole atom: name[INT] with no blank inside, a name
# that is not a reserved word and an index of at most 9 ASCII digits.  Any
# other atom falls through to its name, '[', INT and ']' tokens.  The other
# alternatives start with disjoint characters, and no quantifier is nested,
# so the scan backtracks at most over the name of an atom it cannot take
# whole.
_TOKEN = re.compile(r"[ \t\r\n]*(?:([-+*^/()\[\]=]|(?!(?:{})\[)[^\W\d]\w*\[[0-9]{{1,9}}\]"
                    r"|[0-9]+|\w+|[^ \t\r\n#])|#[^\n]*|\Z)".format("|".join(sorted(RESERVED))))
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
                start = match.start(1)
                break
            count += 1
    else:
        start = text.find("#", text.rfind("\n") + 1)
        if start < 0:
            start = len(text)
    return text.count("\n", 0, start) + 1, start - text.rfind("\n", 0, start)


class Span(NamedTuple):
    """Where `offset` characters into token `index` of `text` is: `line`
    and `column`, found by scanning `text` again when read.  A token holds
    no newline, so the offset moves the column only."""
    text: str
    index: int
    offset: int = 0

    @property
    def line(self) -> int:
        return _locate(self.text, self.index)[0]

    @property
    def column(self) -> int:
        return _locate(self.text, self.index)[1] + self.offset

    def __str__(self) -> str:
        line, column = _locate(self.text, self.index)
        return f"line {line}, column {column + self.offset}"


class DslError(ValueError):
    def __init__(self, message: str, span: Optional[Span] = None):
        self.span = span
        super().__init__(f"{message} ({span})" if span else message)


def tokenize(text: str) -> List[str]:
    """The tokens of `text`, then "" for the end of input."""
    tokens = list(filter(None, _TOKEN.findall(text)))
    # the distinct first characters are checked at once; the tokens are
    # walked one by one only to find the first bad one
    if any(not ch.isalpha() for ch in set(map(itemgetter(0), tokens)) - _STARTS):
        for n, tok in enumerate(tokens):
            if tok[0] not in _STARTS and not tok[0].isalpha():
                raise DslError(f"unexpected character {tok[0]!r}", Span(text, n))
    tokens.append("")
    if len(text) > MAX_INT_DIGITS and max(map(len, tokens)) > MAX_INT_DIGITS:
        for n, tok in enumerate(tokens):
            if len(tok) > MAX_INT_DIGITS and tok[0].isdigit():
                raise DslError(f"integer literal of {len(tok)} digits, above the limit "
                               f"of {MAX_INT_DIGITS}", Span(text, n))
    return tokens


def _is_name(tok: str) -> bool:
    return tok[:1].isalpha() or tok[:1] == "_"


def _is_atom(tok: str) -> bool:
    """Whether `tok` is a whole atom, name[INT] read as one token."""
    return tok[-1:] == "]" and tok != "]"


def _shown(tok: str) -> str:
    """A token as messages print it: the name part of a whole atom, whose
    '[' starts the next token of the split spelling."""
    if not tok:
        return "end of input"
    return tok[:tok.index("[")] if _is_atom(tok) else tok


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
        # whole-atom token text -> its generator, filled as atoms are read
        self.atoms: Dict[str, Generator] = {}

    def error(self, message: str, at: Optional[int] = None) -> DslError:
        """An error at token `at`, by default the next one."""
        return DslError(message, Span(self.text, self.pos if at is None else at))

    def expect(self, want: str) -> str:
        """Take the next token: any name for 'IDENT', any integer for
        'INT', else `want` itself."""
        tok = self.tokens[self.pos]
        if not (_is_name(tok) if want == "IDENT" else tok.isdigit() if want == "INT"
                else tok == want):
            raise self.error(f"expected {want!r}, found {_shown(tok)!r}")
        self.pos += 1
        return tok

    def bracket_error(self, at: int, want: str) -> DslError:
        """The error of a whole atom at token `at` where a plain name
        followed by `want` belongs: at its '[', as the split spelling
        gives it."""
        return DslError(f"expected {want!r}, found '['",
                        Span(self.text, at, self.tokens[at].index("[")))

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
        if _is_atom(name):
            raise self.bracket_error(self.pos - 1, "degree")
        self.expect("degree")
        degree_at = self.pos
        degree = int(self.expect("INT"))

        declarations: List[Declaration] = []
        generators = 0
        # (target, token index of its name, token indices of the start and
        # the end of its expression)
        raw_assignments: List[Tuple[Tuple[str, int], int, int, int]] = []
        while tokens[self.pos]:
            at = self.pos
            tok = tokens[at]
            if not _is_name(tok):
                raise self.error(f"expected a declaration or assignment, found {tok!r}")
            self.pos += 1
            # a statement header is read by direct compares; `expect` reads
            # it again only to raise the error of the first token at fault
            if tok in _KIND_FOR:
                ident = tokens[at + 1]
                if not (_is_name(ident) and ident not in RESERVED and not _is_atom(ident)
                        and tokens[at + 2] == "weight" and tokens[at + 3].isdigit()
                        and tokens[at + 4] == "dim" and tokens[at + 5].isdigit()):
                    if self.expect("IDENT") in RESERVED:
                        raise self.error(f"{ident!r} is a reserved word", at + 1)
                    if _is_atom(ident):
                        raise self.bracket_error(at + 1, "weight")
                    self.expect("weight")
                    self.expect("INT")
                    self.expect("dim")
                    self.expect("INT")
                w = int(tokens[at + 3])
                dim = int(tokens[at + 5])
                self.pos = at + 6
                generators += dim
                if generators > MAX_GENERATORS:
                    raise self.error(f"the declarations name {generators} generators, "
                                     f"above the limit of {MAX_GENERATORS}", at)
                declarations.append(Declaration(ident, _KIND_FOR[tok], w, dim,
                                                Span(self.text, at)))
            elif tok == "d":
                # a target written without blanks is one token; the split
                # spelling is read token by token
                target = tokens[at + 1]
                if _is_atom(target):
                    ident, _, index = target[:-1].partition("[")
                    self.pos = at + 2
                else:
                    ident = self.expect("IDENT")
                    self.expect("[")
                    index = self.expect("INT")
                    self.expect("]")
                self.expect("=")
                start = self.pos
                self._skip_expr()
                raw_assignments.append(((ident, int(index)), at + 1, start, self.pos))
            else:
                raise self.error(f"unexpected token {_shown(tok)!r} "
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
        for (target, at, start, end) in raw_assignments:
            if target[0] not in declared:
                raise self.error(f"assignment target {target[0]!r} is not declared", at)
            try:
                table.generator(*target)
            except AlgebraError as exc:
                raise self.error(str(exc), at) from exc
            self.pos = start
            value = self._expr(table)
            if self.pos != end:
                raise self.error("expected '+', '-', '*' or a statement, "
                                 f"found {_shown(tokens[self.pos])!r}")
            assignments.append(Assignment(target, value, Span(self.text, at)))

        return SpecDocument(name, degree, declarations, assignments, table)

    def _skip_expr(self) -> None:
        """First pass: skip expression tokens (declarations may come later)."""
        tokens = self.tokens
        pos = self.pos
        depth = 0
        while True:
            tok = tokens[pos]
            # 'd' may only start a statement; generator names are not reserved
            if not tok or (depth == 0 and tok in RESERVED):
                self.pos = pos
                return
            if tok == "(":
                depth += 1
            elif tok == ")":
                depth -= 1
            elif tok == "=":
                raise self.error("unexpected '=' inside expression", pos)
            pos += 1

    # -- expressions ------------------------------------------------------

    def _expr(self, table: GeneratorTable) -> Element:
        """A sum: each term is added into one dict in place, a key whose
        coefficients cancel deleted, so the terms come in the order
        `Element.__add__` gives them and a sum of t terms costs O(t)."""
        tokens = self.tokens
        terms: dict = {}
        self._term(table, terms, False)
        while True:
            tok = tokens[self.pos]
            if tok != "+" and tok != "-":
                return _element(table, terms)
            self.pos += 1
            self._term(table, terms, tok == "-")

    def _term(self, table: GeneratorTable, acc: dict, negate: bool) -> None:
        """Read a product of factors and add it, negated when `negate`,
        into `acc`, a dict of keys to nonzero coefficients.

        An atom, name[INT] or INT or INT/INT with an optional '^' INT,
        multiplies into one running monomial: a coefficient, an even part
        and an odd mask.  An odd factor already in the mask makes it zero;
        otherwise it takes the Koszul sign `_mul_into` takes, the parity of
        the factors above it.  A unary sign flips the factor it stands
        before.  A parenthesised group is an Element (`_group`); from the
        first one on, the product is an Element too, and each later factor
        multiplies it by Element `*`, its term-count bound checked at the
        '*'."""
        tokens = self.tokens
        by_name = table._by_name
        atoms = self.atoms
        pos = self.pos
        # the running monomial: coefficient, even part, odd mask and the
        # parity of its signs
        coeff: Scalar = 1
        even: EvenPart = ()
        mask = 0
        sign = 0
        value: Optional[Element] = None   # the product, once a group is read
        star = -1      # token index of the '*' before this factor
        while True:
            tok = tokens[pos]
            signs = 0
            negative = False
            while tok == "+" or tok == "-":
                self.enter(pos)
                signs += 1
                negative ^= tok == "-"
                pos += 1
                tok = tokens[pos]
            if tok == "(":
                self.pos = pos
                factor = self._group(table)
                pos = self.pos
                if negative:
                    factor = -factor
                if star < 0:
                    value = factor
                else:
                    if value is None:
                        value = _monomial(table, coeff, even, mask, sign)
                    value = self._product(value, factor, star)
                coeff, even, mask, sign = 1, (), 0, 0
            else:
                at = pos
                g = atoms.get(tok)
                if g is not None:
                    pos += 1
                elif tok.isdigit():
                    c: Scalar = int(tok)
                    pos += 1
                    if tokens[pos] == "/":
                        pos += 1
                        if not tokens[pos].isdigit():
                            self.pos = pos
                            self.expect("INT")
                        den = int(tokens[pos])
                        if den == 0:
                            raise self.error("zero denominator", at)
                        c = _coefficient(Fraction(c, den))
                        pos += 1
                elif _is_atom(tok):
                    # first read of this whole atom: `int` reads its index,
                    # so xi[01] names xi[1]
                    name, _, index = tok[:-1].partition("[")
                    g = by_name.get((name, int(index)))
                    if g is None:
                        raise self._atom_error(at)
                    atoms[tok] = g
                    pos += 1
                elif (_is_name(tok) and tok not in RESERVED
                      and tokens[pos + 1] == "[" and tokens[pos + 2].isdigit()
                      and tokens[pos + 3] == "]"
                      and (g := by_name.get((tok, int(tokens[pos + 2])))) is not None):
                    pos += 4
                else:
                    raise self._atom_error(at)
                k = 1
                if tokens[pos] == "^":
                    self.pos = pos
                    k = self._exponent()
                    pos = self.pos
                if g is None:
                    c = c ** k if k else 1
                    # 1 * c is c, of c's type: the product is skipped
                    coeff = c if coeff == 1 and type(coeff) is int else coeff * c
                elif not k:
                    pass        # g^0 is 1
                elif not g.form_degree:
                    even = _merge_even(even, ((g.position, k),))
                elif k > 1 or mask >> g.position & 1:
                    coeff = 0
                else:
                    p = g.position
                    sign ^= (mask >> (p + 1)).bit_count() & 1
                    mask |= 1 << p
                if negative:
                    sign ^= 1
                if value is not None:
                    value = self._product(value, _monomial(table, coeff, even, mask, sign),
                                          star)
                    coeff, even, mask, sign = 1, (), 0, 0
            if signs:
                self.depth -= signs
            if tokens[pos] != "*":
                break
            star = pos
            pos += 1
        self.pos = pos
        if value is not None:
            items = value.terms.items()
        elif coeff:
            items = (((even, mask), -coeff if sign else coeff),)
        else:
            return
        for key, c in items:
            if negate:
                c = -c
            old = acc.get(key)
            if old is None:
                acc[key] = c
            else:
                c += old
                if c:
                    acc[key] = c
                else:
                    del acc[key]

    def _atom_error(self, at: int) -> DslError:
        """The error of token `at`, where an atom was expected and none
        could be read: the first token at fault, in reading order."""
        tok = self.tokens[at]
        if not _is_name(tok):
            return self.error(f"expected an expression, found {_shown(tok)!r}", at)
        if tok in RESERVED:
            return self.error(f"unexpected keyword {tok!r} in expression", at)
        if _is_atom(tok):
            name, _, index = tok[:-1].partition("[")
            return self.error(f"undeclared identifier {name}[{int(index)}]", at)
        self.pos = at + 1
        self.expect("[")
        idx = int(self.expect("INT"))
        self.expect("]")
        return self.error(f"undeclared identifier {tok}[{idx}]", at)

    def _product(self, value: Element, factor: Element, star: int) -> Element:
        """value * factor, refused at the '*' (token `star`) when the term
        counts bound the product above MAX_TERMS."""
        bound = len(value.terms) * len(factor.terms)
        if bound > MAX_TERMS:
            raise self.error(f"a product of {len(value.terms)} and {len(factor.terms)} "
                             f"terms may have {bound} terms, above the limit of "
                             f"{MAX_TERMS}", star)
        return value * factor

    def _exponent(self) -> int:
        """Read '^' INT at the current token: the exponent, refused above
        MAX_EXPONENT."""
        self.pos += 1
        exponent = int(self.expect("INT"))
        if exponent > MAX_EXPONENT:
            raise self.error(f"exponent {exponent} is above the limit of {MAX_EXPONENT}",
                             self.pos - 1)
        return exponent

    def _group(self, table: GeneratorTable) -> Element:
        """'(' expr ')' with an optional '^' INT, by Element arithmetic: a
        power is refused before it is computed when the term count bounds
        it above MAX_TERMS."""
        at = self.pos
        self.pos += 1
        self.enter(at)
        value = self._expr(table)
        self.expect(")")
        self.depth -= 1
        if self.tokens[self.pos] == "^":
            at = self.pos
            exponent = self._exponent()
            t = len(value.terms)
            bound = comb(t + exponent - 1, exponent) if t else 1
            if bound > MAX_TERMS:
                raise self.error(f"power {exponent} of {t} terms may have {bound} terms, "
                                 f"above the limit of {MAX_TERMS}", at)
            value = value ** exponent
        return value


def _monomial(table: GeneratorTable, coeff: Scalar, even: EvenPart, odd: int,
              sign: int) -> Element:
    """The Element of one monomial read by `_Parser._term`: `coeff`, negated
    when `sign` is odd, times the key (even, odd); zero when `coeff` is."""
    if not coeff:
        return _element(table, {})
    return _element(table, {(even, odd): -coeff if sign else coeff})


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
        raise parser.error(f"expected end of input, found {_shown(parser.tokens[parser.pos])!r}")
    return value
