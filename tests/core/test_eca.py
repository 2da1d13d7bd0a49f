"""Tests for the ECA rule grammar: tokenizer, parser, compiler."""

import operator

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.eca import (
    BinaryOp,
    ClauseAst,
    EventField,
    EventSpec,
    Literal,
    ParamRef,
    RuleAst,
    UnaryOp,
    compile_rule,
    parse_rule,
    tokenize,
)
from repro.core.events import Event, EventKind
from repro.core.indexing import TaskIndex
from repro.errors import EcaSemanticError, EcaSyntaxError

SIMPLE = """
rule conflict(my_index, addr):
    on reach update.setLevel
        if event.addr == addr and event.index < my_index
        do return false
    otherwise return true
"""


class TestTokenizer:
    def test_keywords_and_names(self):
        tokens = tokenize("rule foo(bar)")
        kinds = [(t.kind, t.text) for t in tokens]
        assert ("kw", "rule") in kinds
        assert ("name", "foo") in kinds
        assert ("name", "bar") in kinds

    def test_numbers(self):
        tokens = tokenize("42 3.5")
        assert tokens[0].text == "42"
        assert tokens[1].text == "3.5"

    def test_comments_skipped(self):
        tokens = tokenize("rule # a comment\nfoo")
        assert [t.text for t in tokens if t.kind != "eof"] == ["rule", "foo"]

    def test_line_tracking(self):
        tokens = tokenize("a\nb")
        assert tokens[0].line == 1
        assert tokens[1].line == 2

    def test_unknown_character(self):
        with pytest.raises(EcaSyntaxError):
            tokenize("rule @bad")

    def test_two_char_operators(self):
        tokens = tokenize("<= >= == !=")
        assert [t.text for t in tokens[:-1]] == ["<=", ">=", "==", "!="]


class TestParser:
    def test_simple_rule(self):
        ast = parse_rule(SIMPLE)
        assert ast.name == "conflict"
        assert ast.params == ["my_index", "addr"]
        assert len(ast.clauses) == 1
        assert ast.otherwise is True
        assert not ast.immediate

    def test_immediate_otherwise(self):
        ast = parse_rule(
            "rule r():\n  otherwise immediately return false"
        )
        assert ast.immediate
        assert ast.otherwise is False

    def test_missing_otherwise_rejected(self):
        with pytest.raises(EcaSemanticError):
            parse_rule("rule r():\n  on activate t do return true")

    def test_activate_event(self):
        ast = parse_rule(
            "rule r():\n  on activate visit do return true\n"
            "  otherwise return false"
        )
        spec = ast.clauses[0].events[0]
        assert spec.kind is EventKind.ACTIVATE
        assert spec.task_set == "visit"

    def test_event_disjunction(self):
        ast = parse_rule(
            "rule r():\n"
            "  on activate a or reach b.commit do return true\n"
            "  otherwise return false"
        )
        assert len(ast.clauses[0].events) == 2

    def test_requires_and_satisfy(self):
        ast = parse_rule(
            "rule r(k) requires ready:\n"
            "  on reach t.commit if event.k == k do satisfy ready\n"
            "  otherwise return true"
        )
        assert ast.requires == ["ready"]
        assert ast.clauses[0].action == ("satisfy", "ready")

    def test_satisfy_undeclared_flag_rejected(self):
        with pytest.raises(EcaSemanticError):
            parse_rule(
                "rule r():\n"
                "  on reach t.c do satisfy ghost\n"
                "  otherwise return true"
            )

    def test_unsatisfiable_flag_rejected(self):
        with pytest.raises(EcaSemanticError):
            parse_rule(
                "rule r() requires never:\n  otherwise return true"
            )

    def test_unknown_param_in_condition_rejected(self):
        with pytest.raises(EcaSemanticError):
            parse_rule(
                "rule r(a):\n"
                "  on reach t.c if zz == 1 do return false\n"
                "  otherwise return true"
            )

    def test_duplicate_params_rejected(self):
        with pytest.raises(EcaSemanticError):
            parse_rule("rule r(a, a):\n  otherwise return true")

    def test_precedence_and_over_or(self):
        ast = parse_rule(
            "rule r(a, b, c):\n"
            "  on reach t.x if a == 1 or b == 2 and c == 3 "
            "do return false\n"
            "  otherwise return true"
        )
        cond = ast.clauses[0].condition
        assert isinstance(cond, BinaryOp) and cond.op == "or"
        assert isinstance(cond.right, BinaryOp) and cond.right.op == "and"

    def test_arithmetic_in_condition(self):
        ast = parse_rule(
            "rule r(a):\n"
            "  on reach t.x if event.v + 1 < a * 2 do return false\n"
            "  otherwise return true"
        )
        cond = ast.clauses[0].condition
        assert cond.op == "<"

    def test_parenthesized_expression(self):
        ast = parse_rule(
            "rule r(a, b):\n"
            "  on reach t.x if (a or b) and event.v == 1 do return false\n"
            "  otherwise return true"
        )
        assert ast.clauses[0].condition.op == "and"

    def test_syntax_error_reports_position(self):
        with pytest.raises(EcaSyntaxError) as excinfo:
            parse_rule("rule r(:\n  otherwise return true")
        assert excinfo.value.line >= 1


def _event(label="setLevel", task_set="update", index=(0, 0), **payload):
    return Event(EventKind.REACH, task_set, label, TaskIndex(index), payload)


class TestCompiledRules:
    def test_clause_fires_on_matching_event(self):
        rule_type = compile_rule(SIMPLE)
        inst = rule_type.instantiate(TaskIndex((1, 0)), {"addr": 64})
        value = inst.observe(_event(addr=64, index=(0, 0)))
        assert value is False

    def test_clause_ignores_wrong_address(self):
        rule_type = compile_rule(SIMPLE)
        inst = rule_type.instantiate(TaskIndex((1, 0)), {"addr": 64})
        assert inst.observe(_event(addr=128, index=(0, 0))) is None

    def test_clause_ignores_later_task(self):
        rule_type = compile_rule(SIMPLE)
        inst = rule_type.instantiate(TaskIndex((1, 0)), {"addr": 64})
        assert inst.observe(_event(addr=64, index=(5, 0))) is None

    def test_my_index_bound_implicitly(self):
        rule_type = compile_rule(SIMPLE)
        inst = rule_type.instantiate(TaskIndex((3, 0)), {"addr": 8})
        assert inst.arguments["my_index"] == TaskIndex((3, 0))

    def test_otherwise_returns_configured_value(self):
        rule_type = compile_rule(SIMPLE)
        inst = rule_type.instantiate(TaskIndex((0, 0)), {"addr": 8})
        assert inst.trigger_otherwise() is True

    def test_otherwise_does_not_override_clause(self):
        rule_type = compile_rule(SIMPLE)
        inst = rule_type.instantiate(TaskIndex((1, 0)), {"addr": 64})
        inst.observe(_event(addr=64, index=(0, 0)))
        assert inst.trigger_otherwise() is False

    def test_requires_conjunction(self):
        source = (
            "rule gate(k) requires a_done, b_done:\n"
            "  on reach t.commit if event.which == 0 and event.k == k "
            "do satisfy a_done\n"
            "  on reach t.commit if event.which == 1 and event.k == k "
            "do satisfy b_done\n"
            "  otherwise return true"
        )
        rule_type = compile_rule(source)
        inst = rule_type.instantiate(TaskIndex((9,)), {"k": 2})
        assert inst.observe(_event("commit", "t", (0,), which=0, k=2)) is None
        assert inst.observe(
            _event("commit", "t", (1,), which=1, k=2)
        ) is True

    def test_overlaps_operator(self):
        source = (
            "rule c(mine):\n"
            "  on reach t.commit if event.cavity overlaps mine "
            "do return false\n"
            "  otherwise return true"
        )
        rule_type = compile_rule(source)
        inst = rule_type.instantiate(TaskIndex((1,)), {"mine": (3, 4)})
        assert inst.observe(_event("commit", "t", (0,), cavity=(4, 9))) \
            is False

    def test_overlaps_disjoint(self):
        source = (
            "rule c(mine):\n"
            "  on reach t.commit if event.cavity overlaps mine "
            "do return false\n"
            "  otherwise return true"
        )
        rule_type = compile_rule(source)
        inst = rule_type.instantiate(TaskIndex((1,)), {"mine": (3, 4)})
        assert inst.observe(_event("commit", "t", (0,), cavity=(8, 9))) \
            is None

    def test_wrong_arguments_rejected(self):
        rule_type = compile_rule(SIMPLE)
        from repro.errors import SchedulingError
        with pytest.raises(SchedulingError):
            rule_type.instantiate(TaskIndex((0, 0)), {"bogus": 1})

    def test_event_subscriptions(self):
        rule_type = compile_rule(SIMPLE)
        subs = rule_type.event_subscriptions()
        assert len(subs) == 1
        assert next(iter(subs)).label == "setLevel"


class _Unbool:
    """A value whose truth test raises: shows where ``bool()`` runs."""

    def __bool__(self):
        raise LookupError("truth test")


def _evaluate(expr, event, params):
    """Reference semantics: evaluate the AST node by node, both operands
    of every operator first."""
    if isinstance(expr, Literal):
        return expr.value
    if isinstance(expr, ParamRef):
        return params[expr.name]
    if isinstance(expr, EventField):
        return event.index if expr.name == "index" else \
            event.payload[expr.name]
    if isinstance(expr, UnaryOp):
        return not _evaluate(expr.operand, event, params)
    a = _evaluate(expr.left, event, params)
    b = _evaluate(expr.right, event, params)
    return _REFERENCE_OPS[expr.op](a, b)


_REFERENCE_OPS = {
    "and": lambda a, b: bool(a) and bool(b),
    "or": lambda a, b: bool(a) or bool(b),
    "==": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": operator.truediv,
    "overlaps": lambda a, b: bool(set(a) & set(b)),
}

_FIELDS = ("index", "x", "y", "missing")
_VALUES = st.one_of(
    st.integers(-3, 3),
    st.floats(-4.0, 4.0),
    st.booleans(),
    st.none(),
    st.text("ab", max_size=2),
    st.lists(st.integers(0, 4), max_size=3).map(tuple),
    st.builds(_Unbool),
)
_LEAVES = st.one_of(
    st.builds(Literal, _VALUES),
    st.builds(ParamRef, st.sampled_from(("p", "q"))),
    st.builds(EventField, st.sampled_from(_FIELDS)),
)


def _tree(leaves):
    return st.one_of(
        st.builds(UnaryOp, st.just("not"), leaves),
        st.builds(BinaryOp, st.sampled_from(sorted(_REFERENCE_OPS)),
                  leaves, leaves),
    )


_EXPRS = st.recursive(_LEAVES, _tree, max_leaves=6)


def _outcome(fn, *args):
    try:
        return "value", fn(*args)
    except Exception as exc:   # noqa: BLE001 - the type is compared
        return "raises", type(exc)


def _condition(expr):
    ast = RuleAst("r", ["p", "q"], clauses=[ClauseAst(
        (EventSpec(EventKind.REACH, "t", "l"),), expr, ("return", False),
    )], otherwise=True)
    return compile_rule(ast).clauses[0].condition


@pytest.mark.parametrize("op", [*sorted(_REFERENCE_OPS), "not"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_compiled_conditions_match_node_by_node_evaluation(op, data):
    """Every operator, on random operands and payloads: the generated
    condition returns what the reference returns, or raises its type."""
    if op == "not":
        expr = UnaryOp("not", data.draw(_EXPRS))
    else:
        expr = BinaryOp(op, data.draw(_EXPRS), data.draw(_EXPRS))
    payload = {name: data.draw(_VALUES) for name in _FIELDS[1:3]}
    event = Event(EventKind.REACH, "t", "l", data.draw(_VALUES), payload)
    params = {"p": data.draw(_VALUES)}
    if data.draw(st.booleans()):
        params["q"] = data.draw(_VALUES)
    got = _outcome(_condition(expr), event, params)
    want = _outcome(_evaluate, expr, event, params)
    if got[0] == want[0] == "value" and got[1] != got[1]:
        assert want[1] != want[1]   # NaN from both
    else:
        assert got == want


def test_and_or_evaluate_both_operands_but_truth_test_only_as_needed():
    """``bool(b)`` is skipped when ``bool(a)`` decides; ``b`` is not."""
    for op, left, right in (("and", 1, 2), ("or", 0, 2), ("or", 0, 0)):
        condition = _condition(BinaryOp(op, Literal(left), Literal(right)))
        assert condition(_event(), {}) is bool(right)
    unbool = Literal(_Unbool())
    assert _condition(BinaryOp("and", Literal(0), unbool))(_event(), {}) \
        is False
    assert _condition(BinaryOp("or", Literal(1), unbool))(_event(), {}) \
        is True
    with pytest.raises(LookupError):
        _condition(BinaryOp("and", Literal(1), unbool))(_event(), {})
    with pytest.raises(KeyError):
        _condition(BinaryOp("and", Literal(0), ParamRef("q")))(
            _event(), {"p": 1})
