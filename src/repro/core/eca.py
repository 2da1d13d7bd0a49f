"""The Event-Condition-Action rule grammar (Section 4.2.2).

Rules are written in a small textual DSL and compiled into
:class:`repro.core.rule.RuleType` objects, which both the software runtime
and the synthesized rule engines execute.  The grammar follows the paper's
ECA clause — ``ON event IF condition DO action`` — with the obligatory
``otherwise`` clause that guarantees liveliness:

.. code-block:: text

    rule conflict(my_index, addr):
        on reach update.setLevel
            if event.addr == addr and event.index < my_index
            do return false
        otherwise return true

Extensions the benchmarks need, all synthesizable as lane pipelines:

* ``requires flag1, flag2`` in the header — the rule returns true once every
  flag has been satisfied (multi-event conjunction, used by COOR-LU);
* the ``satisfy <flag>`` action;
* the infix ``overlaps`` operator testing set intersection (used by the DMR
  cavity-conflict rule; on FPGA it maps to a Bloom-filter/CAM template).

Events are limited to task activations (``activate <taskset>``) and tasks
reaching labelled operations (``reach <taskset>.<label>``), combinable with
``or`` — exactly the restriction Section 4.2.2 imposes.  Actions only return
booleans that steer task tokens at the rendezvous.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

from repro.core.events import Event, EventKind
from repro.core.rule import ClauseSpec, EventPattern, RuleType
from repro.errors import EcaSemanticError, EcaSyntaxError

# ---------------------------------------------------------------------------
# Tokenizer
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<comment>\#[^\n]*)
  | (?P<number>\d+(\.\d+)?)
  | (?P<name>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<op><=|>=|==|!=|[-+*/<>().,:])
    """,
    re.VERBOSE,
)

KEYWORDS = {
    "rule", "on", "if", "do", "otherwise", "return", "satisfy", "requires",
    "activate", "reach", "and", "or", "not", "true", "false", "overlaps",
    "event", "immediately",
}


@dataclass(frozen=True)
class Token:
    kind: str      # "number" | "name" | "op" | "kw" | "eof"
    text: str
    line: int
    column: int


def tokenize(source: str) -> list[Token]:
    """Split rule source text into tokens; raises on unknown characters."""
    tokens: list[Token] = []
    line = 1
    line_start = 0
    pos = 0
    while pos < len(source):
        match = _TOKEN_RE.match(source, pos)
        if match is None:
            column = pos - line_start + 1
            raise EcaSyntaxError(
                f"unexpected character {source[pos]!r}", line, column
            )
        text = match.group(0)
        kind = match.lastgroup
        column = pos - line_start + 1
        if kind not in ("ws", "comment"):
            token_kind = kind
            if kind == "name" and text in KEYWORDS:
                token_kind = "kw"
            tokens.append(Token(token_kind, text, line, column))
        newlines = text.count("\n")
        if newlines:
            line += newlines
            line_start = pos + text.rfind("\n") + 1
        pos = match.end()
    tokens.append(Token("eof", "", line, pos - line_start + 1))
    return tokens


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Literal:
    value: Any


@dataclass(frozen=True)
class ParamRef:
    name: str


@dataclass(frozen=True)
class EventField:
    name: str  # "index" or a payload field


@dataclass(frozen=True)
class UnaryOp:
    op: str
    operand: Any


@dataclass(frozen=True)
class BinaryOp:
    op: str
    left: Any
    right: Any


Expr = Literal | ParamRef | EventField | UnaryOp | BinaryOp


@dataclass(frozen=True)
class EventSpec:
    """One alternative of an ON clause's event disjunction."""

    kind: EventKind
    task_set: str
    label: str  # empty for activate events


@dataclass(frozen=True)
class ClauseAst:
    events: tuple[EventSpec, ...]
    condition: Expr | None
    action: tuple[str, Any]  # ("return", bool) | ("satisfy", flag_name)


@dataclass
class RuleAst:
    name: str
    params: list[str]
    requires: list[str] = field(default_factory=list)
    clauses: list[ClauseAst] = field(default_factory=list)
    otherwise: bool | None = None
    # "otherwise immediately return X": the promise resolves as soon as the
    # parent reaches the rendezvous (optimistic speculation) instead of
    # waiting to become the minimum waiting task.  Sound only when commits
    # are monotone/combining or revalidated — the speculative benchmarks.
    immediate: bool = False


# ---------------------------------------------------------------------------
# Parser (recursive descent)
# ---------------------------------------------------------------------------

class _Parser:
    def __init__(self, tokens: list[Token]) -> None:
        self._tokens = tokens
        self._pos = 0

    # -- token helpers ------------------------------------------------------

    def _peek(self) -> Token:
        return self._tokens[self._pos]

    def _advance(self) -> Token:
        token = self._tokens[self._pos]
        if token.kind != "eof":
            self._pos += 1
        return token

    def _error(self, message: str) -> EcaSyntaxError:
        token = self._peek()
        return EcaSyntaxError(
            f"{message}, found {token.text!r}", token.line, token.column
        )

    def _expect(self, kind: str, text: str | None = None) -> Token:
        token = self._peek()
        if token.kind != kind or (text is not None and token.text != text):
            want = text if text is not None else kind
            raise self._error(f"expected {want!r}")
        return self._advance()

    def _accept(self, kind: str, text: str | None = None) -> Token | None:
        token = self._peek()
        if token.kind == kind and (text is None or token.text == text):
            return self._advance()
        return None

    # -- grammar ------------------------------------------------------------

    def parse_rule(self) -> RuleAst:
        self._expect("kw", "rule")
        name = self._expect("name").text
        self._expect("op", "(")
        params: list[str] = []
        if not self._accept("op", ")"):
            while True:
                params.append(self._expect("name").text)
                if self._accept("op", ")"):
                    break
                self._expect("op", ",")
        ast = RuleAst(name, params)
        if self._accept("kw", "requires"):
            while True:
                ast.requires.append(self._expect("name").text)
                if not self._accept("op", ","):
                    break
        self._expect("op", ":")

        while self._accept("kw", "on"):
            ast.clauses.append(self._parse_clause())
        if self._accept("kw", "otherwise"):
            if self._accept("kw", "immediately"):
                ast.immediate = True
            self._expect("kw", "return")
            ast.otherwise = self._parse_bool_literal()
        self._expect("eof")

        if ast.otherwise is None:
            raise EcaSemanticError(
                f"rule {name!r} lacks the obligatory otherwise clause "
                "(liveliness would be lost)"
            )
        if len(set(params)) != len(params):
            raise EcaSemanticError(f"rule {name!r} has duplicate parameters")
        self._check_semantics(ast)
        return ast

    def _parse_clause(self) -> ClauseAst:
        events = [self._parse_event_spec()]
        while self._accept("kw", "or"):
            # `or` between two event specs continues the disjunction only if
            # the next token starts an event spec; otherwise it belongs to a
            # condition, which is a syntax error here (conditions follow if).
            events.append(self._parse_event_spec())
        condition = None
        if self._accept("kw", "if"):
            condition = self._parse_expr()
        self._expect("kw", "do")
        action = self._parse_action()
        return ClauseAst(tuple(events), condition, action)

    def _parse_event_spec(self) -> EventSpec:
        if self._accept("kw", "activate"):
            task_set = self._expect("name").text
            return EventSpec(EventKind.ACTIVATE, task_set, "")
        if self._accept("kw", "reach"):
            task_set = self._expect("name").text
            self._expect("op", ".")
            label = self._expect("name").text
            return EventSpec(EventKind.REACH, task_set, label)
        raise self._error("expected 'activate' or 'reach'")

    def _parse_action(self) -> tuple[str, Any]:
        if self._accept("kw", "return"):
            return ("return", self._parse_bool_literal())
        if self._accept("kw", "satisfy"):
            return ("satisfy", self._expect("name").text)
        raise self._error("expected 'return' or 'satisfy'")

    def _parse_bool_literal(self) -> bool:
        if self._accept("kw", "true"):
            return True
        if self._accept("kw", "false"):
            return False
        raise self._error("expected 'true' or 'false'")

    # expression precedence: or < and < not < comparison/overlaps < add < mul
    def _parse_expr(self) -> Expr:
        return self._parse_or()

    def _parse_or(self) -> Expr:
        left = self._parse_and()
        while self._accept("kw", "or"):
            left = BinaryOp("or", left, self._parse_and())
        return left

    def _parse_and(self) -> Expr:
        left = self._parse_not()
        while self._accept("kw", "and"):
            left = BinaryOp("and", left, self._parse_not())
        return left

    def _parse_not(self) -> Expr:
        if self._accept("kw", "not"):
            return UnaryOp("not", self._parse_not())
        return self._parse_comparison()

    _COMPARISONS = ("==", "!=", "<=", ">=", "<", ">")

    def _parse_comparison(self) -> Expr:
        left = self._parse_additive()
        token = self._peek()
        if token.kind == "op" and token.text in self._COMPARISONS:
            self._advance()
            return BinaryOp(token.text, left, self._parse_additive())
        if self._accept("kw", "overlaps"):
            return BinaryOp("overlaps", left, self._parse_additive())
        return left

    def _parse_additive(self) -> Expr:
        left = self._parse_multiplicative()
        while True:
            token = self._peek()
            if token.kind == "op" and token.text in ("+", "-"):
                self._advance()
                left = BinaryOp(token.text, left, self._parse_multiplicative())
            else:
                return left

    def _parse_multiplicative(self) -> Expr:
        left = self._parse_primary()
        while True:
            token = self._peek()
            if token.kind == "op" and token.text in ("*", "/"):
                self._advance()
                left = BinaryOp(token.text, left, self._parse_primary())
            else:
                return left

    def _parse_primary(self) -> Expr:
        if self._accept("op", "("):
            inner = self._parse_expr()
            self._expect("op", ")")
            return inner
        if self._accept("kw", "true"):
            return Literal(True)
        if self._accept("kw", "false"):
            return Literal(False)
        token = self._peek()
        if token.kind == "number":
            self._advance()
            value = float(token.text) if "." in token.text else int(token.text)
            return Literal(value)
        if self._accept("kw", "event"):
            self._expect("op", ".")
            return EventField(self._expect("name").text)
        if token.kind == "name":
            self._advance()
            return ParamRef(token.text)
        raise self._error("expected an expression")

    # -- semantic checks -----------------------------------------------------

    def _check_semantics(self, ast: RuleAst) -> None:
        params = set(ast.params)
        flags = set(ast.requires)
        if len(flags) != len(ast.requires):
            raise EcaSemanticError(
                f"rule {ast.name!r} has duplicate requires flags"
            )
        satisfied: set[str] = set()
        for clause in ast.clauses:
            kind, value = clause.action
            if kind == "satisfy":
                if value not in flags:
                    raise EcaSemanticError(
                        f"rule {ast.name!r} satisfies undeclared flag {value!r}"
                    )
                satisfied.add(value)
            if clause.condition is not None:
                _check_expr_names(ast.name, clause.condition, params)
        unsatisfiable = flags - satisfied
        if unsatisfiable:
            raise EcaSemanticError(
                f"rule {ast.name!r} requires flags no clause satisfies: "
                f"{sorted(unsatisfiable)}"
            )


def _check_expr_names(rule_name: str, expr: Expr, params: set[str]) -> None:
    if isinstance(expr, ParamRef):
        if expr.name not in params:
            raise EcaSemanticError(
                f"rule {rule_name!r} references unknown name {expr.name!r}"
            )
    elif isinstance(expr, UnaryOp):
        _check_expr_names(rule_name, expr.operand, params)
    elif isinstance(expr, BinaryOp):
        _check_expr_names(rule_name, expr.left, params)
        _check_expr_names(rule_name, expr.right, params)


def parse_rule(source: str) -> RuleAst:
    """Parse ECA rule source text into an AST."""
    return _Parser(tokenize(source)).parse_rule()


# ---------------------------------------------------------------------------
# Compiler: AST -> executable RuleType
# ---------------------------------------------------------------------------

# Binary operators as Python source over their operands' value names.
# Both operands are evaluated before the operator, ``and``/``or`` included,
# so a raising operand raises either way; only ``bool(b)`` is skipped when
# ``bool(a)`` decides.
_BINARY_OPS = {
    "and": "bool({}) and bool({})",
    "or": "bool({}) or bool({})",
    "==": "{} == {}",
    "!=": "{} != {}",
    "<": "{} < {}",
    "<=": "{} <= {}",
    ">": "{} > {}",
    ">=": "{} >= {}",
    "+": "{} + {}",
    "-": "{} - {}",
    "*": "{} * {}",
    "/": "{} / {}",
    "overlaps": "bool(set({}) & set({}))",
}


def _compile_expr(expr: Expr) -> Callable[[Event, Mapping[str, Any]], Any]:
    """Compile an expression into one generated ``f(event, params)``.

    The function body has one statement per operand and operator node, in
    post-order: a node's operands, left first, before the node itself.
    Literals are bound as the function's globals.
    """
    lines: list[str] = []
    literals: dict[str, Any] = {}

    def emit(node: Expr) -> str:
        """Append ``node``'s statements; return the name of its value."""
        if isinstance(node, Literal):
            name = f"k{len(literals)}"
            literals[name] = node.value
            return name
        if isinstance(node, ParamRef):
            value = f"params[{node.name!r}]"
        elif isinstance(node, EventField):
            value = ("event.index" if node.name == "index"
                     else f"event.payload[{node.name!r}]")
        elif isinstance(node, UnaryOp):
            operand = emit(node.operand)
            if node.op != "not":
                raise EcaSemanticError(f"unknown unary operator {node.op!r}")
            value = f"not {operand}"
        elif isinstance(node, BinaryOp):
            left, right = emit(node.left), emit(node.right)
            template = _BINARY_OPS.get(node.op)
            if template is None:
                raise EcaSemanticError(
                    f"unknown binary operator {node.op!r}"
                )
            value = template.format(left, right)
        else:
            raise EcaSemanticError(f"cannot compile expression node {node!r}")
        name = f"v{len(lines)}"
        lines.append(f"    {name} = {value}")
        return name

    result = emit(expr)
    source = "\n".join(
        ["def condition(event, params):", *lines, f"    return {result}"]
    )
    namespace = {"__name__": __name__, **literals}
    exec(compile(source, "<eca condition>", "exec"), namespace)
    return namespace.pop("condition")


def compile_rule(source: str | RuleAst) -> RuleType:
    """Compile ECA source text (or a parsed AST) into a :class:`RuleType`."""
    ast = parse_rule(source) if isinstance(source, str) else source
    clauses: list[ClauseSpec] = []
    for clause in ast.clauses:
        patterns = tuple(
            EventPattern(spec.kind, spec.task_set, spec.label)
            for spec in clause.events
        )
        condition = (
            _compile_expr(clause.condition)
            if clause.condition is not None
            else None
        )
        clauses.append(ClauseSpec(patterns, condition, clause.action))
    return RuleType(
        name=ast.name,
        params=tuple(ast.params),
        requires=tuple(ast.requires),
        clauses=tuple(clauses),
        otherwise=bool(ast.otherwise),
        immediate=ast.immediate,
        source=source if isinstance(source, str) else "",
    )
