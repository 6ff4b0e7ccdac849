"""Syntax of first-order modal xi-calculus formulas.

ASCII grammar (whitespace-insensitive):

    formula := imp
    imp     := or ("->" imp)?
    or      := and ("|" and)*
    and     := unary ("&" unary)*
    unary   := "~" unary | "[]" unary | "<>" unary
             | "forall" LIDENT "." unary
             | "exists" LIDENT "." unary
             | "xi" UIDENT "." unary
             | "?[" formula "]" term
             | atom
    atom    := "T" | "F" | LIDENT | UIDENT | "(" formula ")"
    term    := LIDENT | "#" LIDENT

    LIDENT = [a-z][a-zA-Z0-9_]*     UIDENT = [A-Z][a-zA-Z0-9_]*

Binders parse as prefix operators, so `[] exists x. ?[r] x & p` is a
conjunction whose left operand is the boxed existential; a binder body
containing `&`, `|` or `->` must be parenthesized.  Lowercase identifiers
are propositions (atom position) or model variables (term and binder
position); uppercase identifiers are formula variables.  `?[ phi ] t`
applies `phi` as a unary predicate to the child process named by the
term `t`; `#name` is a model constant, a bare name a model variable.

Derived forms (`F`, `|`, `->`, `<>`, `exists`) expand to the primitive
connectives at parse time and never appear in stored trees.

Nesting is bounded by `MAX_NESTING`: every parenthesis group, prefix
operator, binder, `?[ ]` body and `->` right operand opens one parser
level, and the stored tree, derived forms expanded, is at most
`MAX_NESTING` edges deep.  Deeper input is a `GrammarError`, so no later
recursive walk exhausts the stack.

Formula values are immutable and hash-consed: the constructors return
one object per value (see `Formula`), so trees built separately (by
`parse` or by the constructors) with the same structure are the same
object, and equality and hashing are identity.  There is no
alpha-equivalence, and nodes of different types are never equal.  Each
node caches its free-variable summary the first time it is asked for,
so a subtree shared by many sentences, memo tables and sentence checks
pays for it once.
"""

from __future__ import annotations

import re
import threading
from operator import attrgetter
from typing import Iterator, NamedTuple, Optional
from weakref import WeakValueDictionary


_set = object.__setattr__  # how a frozen value's __init__ sets its fields


class Record:
    """Base of gkmc's immutable values.

    A subclass names its fields, in constructor order, in
    `__match_args__` and stores them in `__slots__`.
    `Record.__init_subclass__` gives each class `_values`, a getter of
    its fields as a tuple; equality (with instances of the same class
    whose fields are equal), hashing, `repr`, pickling and copying all
    read the fields through it.  The base constructor takes the fields
    by position or by keyword and raises `TypeError` on a missing,
    unknown, doubled or surplus one.  Assigning or deleting any
    attribute raises `AttributeError`.  A class whose constructor
    validates or sets defaults writes its own `__init__`, setting the
    fields with `_set`; a value that hashes by identity sets `__eq__`
    and `__hash__` back to `object`'s.  `_fields` states the argument
    rule once, for `__init__` and for `Formula.__new__`.
    """

    __slots__ = ()
    __match_args__: tuple[str, ...] = ()

    def __init_subclass__(cls):
        names = cls.__match_args__
        getter = attrgetter(*names) if names else (lambda value: ())
        if len(names) == 1:  # a one-name attrgetter returns the bare value
            getter = lambda value, one=getter: (one(value),)
        cls._values = staticmethod(getter)

    def __init__(self, *args, **kwargs):
        for name, value in zip(self.__match_args__, self._fields(args, kwargs)):
            _set(self, name, value)

    @classmethod
    def _fields(cls, args: tuple, kwargs: dict) -> tuple:
        """The constructor's arguments as a tuple of field values, in order."""
        names = cls.__match_args__
        if kwargs or len(args) != len(names):
            rest = names[len(args):]
            if len(args) > len(names) or kwargs.keys() != set(rest):
                raise TypeError(f"{cls.__qualname__}() takes each of {names} once, by position or by keyword")
            args += tuple([kwargs[name] for name in rest])
        return args

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == self._values(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self.__match_args__, self._values(self)))
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._values(self)


class Formula(Record):
    """Base class of formula nodes, hash-consed: equal values are one object.

    `Formula.__new__`, every node class's constructor, returns the node
    `_nodes` holds under `(class, *fields)`, children keyed by identity,
    or enters a new one.  So equality and hashing are `object`'s, and
    unpickling and copying, which call the constructor, give the very
    node.  `_nodes` is weak: an entry lives while its node does, and its
    key holds only what the node holds, so no live key's child can die
    and pass its identity on.  A dead node's entry leaves through the
    weak dictionary's own atomic callback, which takes no lock, as cyclic
    GC can run anywhere.  A miss builds the node, then enters it under
    `_intern_lock`, re-checked, so threads that miss together get one.

    The `_free` slot caches `free_vars` (which also gives
    `check_sentence` its verdict) on first use; `repr`, `__match_args__`
    and the pickled state ignore it, and racing threads at worst compute
    it twice.  A new node sets it to None, so a read never raises: a
    caught `AttributeError` costs more than the store, and
    `getattr(node, name, None)` slows every later read.
    """

    __slots__ = ("_free", "__weakref__")
    __eq__ = object.__eq__
    __hash__ = object.__hash__
    __init__ = object.__init__  # `__new__` has set the fields

    def __new__(cls, *args, **kwargs):
        fields = cls._fields(args, kwargs)
        key = (cls, *fields)
        node = _nodes.get(key)
        if node is None:
            node = object.__new__(cls)
            for name, value in zip(cls.__match_args__, fields):
                _set(node, name, value)
            _set(node, "_free", None)
            with _intern_lock:
                node = _nodes.setdefault(key, node)
        return node


# Every live formula node, under `(class, *fields)`; see `Formula`.
_nodes: WeakValueDictionary = WeakValueDictionary()
_intern_lock = threading.Lock()


class Top(Formula):
    __slots__ = ()


class Prop(Formula):
    __slots__ = __match_args__ = ("name",)


class FormulaVar(Formula):
    __slots__ = __match_args__ = ("name",)


class Not(Formula):
    __slots__ = __match_args__ = ("operand",)


class And(Formula):
    __slots__ = __match_args__ = ("left", "right")


class Box(Formula):
    __slots__ = __match_args__ = ("operand",)


class Forall(Formula):
    __slots__ = __match_args__ = ("var", "body")


class Xi(Formula):
    """Binds a formula variable to the body, enabling self-reference."""

    __slots__ = __match_args__ = ("var", "body")


class QueryVar(Formula):
    """`?[body] var`: evaluate body in the child process named by a model variable."""

    __slots__ = __match_args__ = ("body", "var")


class QueryConst(Formula):
    """`?[body] #const`: evaluate body in the child process a constant points to."""

    __slots__ = __match_args__ = ("body", "const")


def bot() -> Formula:
    return Not(Top())


def or_(left: Formula, right: Formula) -> Formula:
    return Not(And(Not(left), Not(right)))


def imp(left: Formula, right: Formula) -> Formula:
    return Not(And(left, Not(right)))


def diamond(operand: Formula) -> Formula:
    return Not(Box(Not(operand)))


def exists(var: str, body: Formula) -> Formula:
    return Not(Forall(var, Not(body)))


KEYWORDS = frozenset({"forall", "exists", "xi"})
# The variable names that generated and enumerated formulas bind.
_MODEL_VARS = ("x", "y", "z", "w")
_FORMULA_VARS = ("X", "Y", "Z")
_LIDENT_RE = re.compile(r"[a-z][a-zA-Z0-9_]*\Z")


def is_valid_name(name: str) -> bool:
    """A usable proposition/constant/model-variable name: LIDENT, not a keyword."""
    return bool(_LIDENT_RE.match(name)) and name not in KEYWORDS


class Vocabulary(Record):
    """The fixed proposition and constant names formulas may mention.

    The two namespaces never clash at the surface level because constants
    are always written with a `#` sigil.
    """

    __slots__ = __match_args__ = ("props", "constants")

    @classmethod
    def of(cls, props=(), constants=()) -> "Vocabulary":
        props = frozenset(props)
        constants = frozenset(constants)
        for name in sorted(props | constants):
            if not is_valid_name(name):
                raise ValueError(f"invalid vocabulary name: {name!r}")
        return cls(props, constants)


# --------------------------------------------------------------------------
# Lexer / parser


class ParseError(ValueError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{message} (line {line}, column {col})")
        self.message = message
        self.line = line
        self.col = col


class LexError(ParseError):
    pass


class GrammarError(ParseError):
    pass


class UnknownNameError(ParseError):
    pass


class _Token(NamedTuple):
    kind: str
    text: str
    line: int
    col: int


_TOKEN_RE = re.compile(
    r"""
      (?P<ws>\s+)
    | (?P<arrow>->)
    | (?P<box>\[\])
    | (?P<diamond><>)
    | (?P<qopen>\?\[)
    | (?P<rbrack>\])
    | (?P<lparen>\()
    | (?P<rparen>\))
    | (?P<dot>\.)
    | (?P<tilde>~)
    | (?P<amp>&)
    | (?P<pipe>\|)
    | (?P<hash>\#)
    | (?P<lident>[a-z][a-zA-Z0-9_]*)
    | (?P<uident>[A-Z][a-zA-Z0-9_]*)
    """,
    re.VERBOSE,
)


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    line, line_start, pos = 1, 0, 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise LexError(f"unexpected character {text[pos]!r}", line, pos - line_start + 1)
        start, pos = m.span()
        kind = m.lastgroup
        if kind != "ws":
            tokens.append(_Token(kind, text[start:pos], line, start - line_start + 1))
        else:
            nl = text.count("\n", start, pos)
            if nl:
                line += nl
                line_start = text.rindex("\n", start, pos) + 1
    tokens.append(_Token("eof", "", line, pos - line_start + 1))
    return tokens


MAX_NESTING = 100  # parser levels and tree depth; see the module docstring
_PREFIX = {"tilde": Not, "box": Box, "diamond": diamond}
_BINDERS = {"forall": Forall, "exists": exists, "xi": Xi}


class _Parser:
    def __init__(self, tokens: list[_Token], vocab: Optional[Vocabulary]):
        self.tokens = tokens
        self.pos = 0
        self.vocab = vocab
        self.depth = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str, what: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            raise GrammarError(f"expected {what}, found {tok.text!r}" if tok.text else f"expected {what}, found end of input", tok.line, tok.col)
        return self.advance()

    def nested(self, parse_part):
        """`parse_part()` one level deeper; an error past `MAX_NESTING`."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise GrammarError(f"formula nested deeper than {MAX_NESTING} levels", self.peek().line, self.peek().col)
        node = parse_part()
        self.depth -= 1
        return node

    def formula(self) -> Formula:
        left = self.or_level()
        if self.peek().kind == "arrow":
            self.advance()
            return imp(left, self.nested(self.formula))
        return left

    def or_level(self) -> Formula:
        node = self.and_level()
        while self.peek().kind == "pipe":
            self.advance()
            node = or_(node, self.and_level())
        return node

    def and_level(self) -> Formula:
        node = self.unary()
        while self.peek().kind == "amp":
            self.advance()
            node = And(node, self.unary())
        return node

    def unary(self) -> Formula:
        tok = self.peek()
        if tok.kind in _PREFIX:
            self.advance()
            return _PREFIX[tok.kind](self.nested(self.unary))
        if tok.kind == "qopen":
            self.advance()
            body = self.nested(self.formula)
            self.expect("rbrack", "']'")
            return self.query_term(body)
        if tok.kind == "lident" and tok.text in _BINDERS:
            self.advance()
            var = self.binder_name("uident" if tok.text == "xi" else "lident")
            self.expect("dot", "'.'")
            return _BINDERS[tok.text](var, self.nested(self.unary))
        return self.atom()

    def binder_name(self, kind: str) -> str:
        tok = self.expect(kind, "a formula variable" if kind == "uident" else "a model variable")
        if kind == "lident" and tok.text in KEYWORDS:
            raise GrammarError(f"keyword {tok.text!r} cannot be a variable", tok.line, tok.col)
        if kind == "uident" and tok.text in ("T", "F"):
            raise GrammarError(f"{tok.text!r} cannot be a formula variable", tok.line, tok.col)
        return tok.text

    def query_term(self, body: Formula) -> Formula:
        tok = self.peek()
        if tok.kind == "hash":
            self.advance()
            name = self.expect("lident", "a constant name")
            if name.text in KEYWORDS:
                raise GrammarError(f"keyword {name.text!r} cannot be a constant", name.line, name.col)
            if self.vocab is not None and name.text not in self.vocab.constants:
                raise UnknownNameError(f"unknown constant #{name.text}", name.line, name.col)
            return QueryConst(body, name.text)
        if tok.kind == "lident":
            if tok.text in KEYWORDS:
                raise GrammarError(f"keyword {tok.text!r} cannot be a term", tok.line, tok.col)
            self.advance()
            return QueryVar(body, tok.text)
        raise GrammarError(f"expected a term, found {tok.text!r}" if tok.text else "expected a term, found end of input", tok.line, tok.col)

    def atom(self) -> Formula:
        tok = self.peek()
        if tok.kind == "lparen":
            self.advance()
            node = self.nested(self.formula)
            self.expect("rparen", "')'")
            return node
        if tok.kind == "uident":
            self.advance()
            if tok.text == "T":
                return Top()
            if tok.text == "F":
                return bot()
            return FormulaVar(tok.text)
        if tok.kind == "lident":
            self.advance()
            if self.vocab is not None and tok.text not in self.vocab.props:
                raise UnknownNameError(f"unknown proposition {tok.text!r}", tok.line, tok.col)
            return Prop(tok.text)
        raise GrammarError(f"expected a formula, found {tok.text!r}" if tok.text else "expected a formula, found end of input", tok.line, tok.col)


def parse(text: str, vocab: Optional[Vocabulary] = None) -> Formula:
    """Parse `text`; names are checked against `vocab` unless it is None."""
    parser = _Parser(_tokenize(text), vocab)
    node = parser.formula()
    tok = parser.peek()
    if tok.kind != "eof":
        raise GrammarError(f"unexpected trailing input {tok.text!r}", tok.line, tok.col)
    # A token adds at most three tree levels, so short input needs no walk.
    if 3 * len(parser.tokens) > MAX_NESTING:
        level, depth = [node], -1
        while level:
            depth += 1
            level = [child for f in level for child in _children(f)]
        if depth > MAX_NESTING:
            raise GrammarError(f"formula nested deeper than {MAX_NESTING} levels", 1, 1)
    return node


# --------------------------------------------------------------------------
# Printer

_LEVEL_AND = 1
_LEVEL_UNARY = 2

def _level(f: Formula) -> int:
    return _LEVEL_AND if isinstance(f, And) else _LEVEL_UNARY


def format_formula(f: Formula) -> str:
    """Canonical text; `parse(format_formula(f))` is `f`."""
    return _fmt(f, 0)


def _fmt(f: Formula, required: int) -> str:
    if isinstance(f, Not) and isinstance(f.operand, Top):
        return "F"
    if isinstance(f, Top):
        return "T"
    if isinstance(f, (Prop, FormulaVar)):
        return f.name
    if _level(f) < required:
        return "(" + _fmt(f, 0) + ")"
    if isinstance(f, Not):
        return "~" + _fmt(f.operand, _LEVEL_UNARY)
    if isinstance(f, Box):
        return "[]" + _fmt(f.operand, _LEVEL_UNARY)
    if isinstance(f, And):
        return _fmt(f.left, _LEVEL_AND) + " & " + _fmt(f.right, _LEVEL_UNARY)
    if isinstance(f, Forall):
        return f"forall {f.var}. " + _fmt(f.body, _LEVEL_UNARY)
    if isinstance(f, Xi):
        return f"xi {f.var}. " + _fmt(f.body, _LEVEL_UNARY)
    if isinstance(f, QueryVar):
        return "?[" + _fmt(f.body, 0) + "] " + f.var
    if isinstance(f, QueryConst):
        return "?[" + _fmt(f.body, 0) + "] #" + f.const
    raise TypeError(f"not a formula: {f!r}")


# --------------------------------------------------------------------------
# Structure and variable analysis

NodePath = tuple[int, ...]


def _children(f: Formula) -> tuple[Formula, ...]:
    if isinstance(f, (Not, Box)):
        return (f.operand,)
    if isinstance(f, And):
        return (f.left, f.right)
    if isinstance(f, (Forall, Xi, QueryVar, QueryConst)):
        return (f.body,)
    return ()


def subformulas(f: Formula) -> Iterator[tuple[NodePath, Formula]]:
    """All subformulas in preorder, each with its position path from the root."""
    stack = [((), f)]
    while stack:
        path, node = stack.pop()
        yield path, node
        stack.extend(reversed([(path + (i,), child) for i, child in enumerate(_children(node))]))


class Occurrence(Record):
    """One variable occurrence: its node path, its kind ("model" or
    "formula"), the variable's name and whether it is free."""

    __slots__ = __match_args__ = ("path", "kind", "name", "free")


def occurrences(f: Formula) -> list[Occurrence]:
    """Every variable occurrence with its freeness, relative to `f` as root.

    A model variable is bound by any enclosing `forall` of the same name.
    A formula variable occurrence is bound only when it sits inside a
    `?[ ]` application whose innermost such application is itself in the
    scope of a matching `xi`; `xi X. X` therefore leaves X free.
    """
    out: list[Occurrence] = []
    # xi_outer: xi binders above the innermost enclosing query application;
    # xi_inner: xi binders seen since that application (not yet effective).
    stack = [(f, (), frozenset(), frozenset(), frozenset(), False)]
    while stack:
        node, path, mvars, xi_outer, xi_inner, in_query = stack.pop()
        if isinstance(node, FormulaVar):
            out.append(Occurrence(path, "formula", node.name, not (in_query and node.name in xi_outer)))
        elif isinstance(node, Forall):
            mvars = mvars | {node.var}
        elif isinstance(node, Xi):
            xi_inner = xi_inner | {node.var}
        elif isinstance(node, (QueryVar, QueryConst)):
            if isinstance(node, QueryVar):
                out.append(Occurrence(path, "model", node.var, node.var not in mvars))
            xi_outer, xi_inner, in_query = xi_outer | xi_inner, frozenset(), True
        for i, child in enumerate(_children(node)):
            stack.append((child, path + (i,), mvars, xi_outer, xi_inner, in_query))
    out.sort(key=lambda o: o.path)
    return out


class FreeVars(NamedTuple):
    """A node's variable summary, freeness relative to the node itself."""

    model: frozenset[str]  # free model variables
    unguarded: frozenset[str]  # free formula variables with an occurrence under no `?[ ]`
    formula: frozenset[str]  # all free formula variables
    ok: bool  # every `xi` subformula closed, every `?[ ]` body free of model variables


_NONE: frozenset[str] = frozenset()


def free_vars(f: Formula) -> FreeVars:
    """The summary of `f`, built from its children's and cached on each node.

    Agrees with `occurrences`: a `xi X` binds exactly the occurrences of
    X that some `?[ ]` below it guards, so the unguarded ones stay free.
    """
    summary = f._free
    if summary is not None:
        return summary
    if isinstance(f, FormulaVar):
        names = frozenset((f.name,))
        summary = FreeVars(_NONE, names, names, True)
    elif isinstance(f, (Not, Box)):
        summary = free_vars(f.operand)
    elif isinstance(f, And):
        left, right = free_vars(f.left), free_vars(f.right)
        summary = FreeVars(
            left.model | right.model, left.unguarded | right.unguarded, left.formula | right.formula, left.ok and right.ok
        )
    elif isinstance(f, Forall):
        body = free_vars(f.body)
        summary = body._replace(model=body.model - {f.var})
    elif isinstance(f, Xi):
        model, unguarded, formula, ok = free_vars(f.body)
        formula = (formula - {f.var}) | unguarded
        summary = FreeVars(model, unguarded, formula, ok and not model and not formula)
    elif isinstance(f, (QueryVar, QueryConst)):
        model, _, formula, ok = free_vars(f.body)
        own = {f.var} if isinstance(f, QueryVar) else _NONE
        summary = FreeVars(model | own, _NONE, formula, ok and not model)
    else:
        summary = FreeVars(_NONE, _NONE, _NONE, True)
    _set(f, "_free", summary)
    return summary


# --------------------------------------------------------------------------
# Sentence check

C1_FREE_VAR = "C1-free-var"
C2_XI_SUBFORMULA = "C2-xi-subformula"
C3_QUERY_BODY = "C3-query-body"


class SentenceViolation(Record):
    __slots__ = __match_args__ = ("tag", "node", "message")


class SentenceDiagnostics(Record):
    __slots__ = __match_args__ = ("verdict", "violations")


_SENTENCE = SentenceDiagnostics(True, ())


def check_sentence(f: Formula) -> SentenceDiagnostics:
    """Decide whether `f` is a sentence, i.e. admissible for evaluation.

    Three conditions, freeness always computed relative to the subformula
    under inspection: the whole formula is closed; every `xi`-subformula
    is closed; every `?[ ]` body has no free model variables.  The verdict
    is read off the cached `free_vars` summary, and every sentence gets
    the one shared `SentenceDiagnostics(True, ())`; a rejected formula is
    walked on each check, for its violation paths.
    """
    model, _, formula, ok = free_vars(f)
    if ok and not model and not formula:
        return _SENTENCE
    return SentenceDiagnostics(False, _violations(f))


def _violations(f: Formula) -> tuple[SentenceViolation, ...]:
    violations = [
        SentenceViolation(C1_FREE_VAR, occ.path, f"free {occ.kind} variable {occ.name!r}")
        for occ in occurrences(f)
        if occ.free
    ]
    for path, node in subformulas(f):
        if isinstance(node, Xi):
            summary = free_vars(node)
            tag, loose = C2_XI_SUBFORMULA, summary.model | summary.formula
            what = f"xi {node.var}. subformula has free variable(s)"
        elif isinstance(node, (QueryVar, QueryConst)):
            tag, loose = C3_QUERY_BODY, free_vars(node.body).model
            what = "query body has free model variable(s)"
        else:
            continue
        if loose:
            violations.append(SentenceViolation(tag, path, f"{what}: " + ", ".join(sorted(loose))))
    violations.sort(key=lambda v: (v.node, v.tag))
    return tuple(violations)
