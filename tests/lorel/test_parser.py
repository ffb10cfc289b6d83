"""Tests for the Lorel parser."""

import pytest

from repro.lorel import parse
from repro.lorel.ast_nodes import (
    And,
    Comparison,
    Exists,
    Literal,
    Not,
    Or,
    Path,
)
from repro.lorel.errors import LorelSyntaxError


class TestStructure:
    def test_paper_example_query(self):
        # Section 4.1 example, in standard Lorel form.
        query = parse(
            'select X from ANNODA-GML.Source X where X.Name = "LocusLink"'
        )
        assert query.select_items[0].path == Path("X")
        assert query.from_clauses[0].path == Path("ANNODA-GML", ("Source",))
        assert query.from_clauses[0].variable == "X"
        assert query.where == Comparison(
            "=", Path("X", ("Name",)), Literal("LocusLink")
        )

    def test_multiple_select_items(self):
        query = parse("select X.Name, X.LocusID from DB.Entry X")
        assert len(query.select_items) == 2
        assert query.select_items[1].label == "LocusID"

    def test_alias(self):
        query = parse("select X.Name as GeneName from DB.Entry X")
        assert query.select_items[0].alias == "GeneName"
        assert query.select_items[0].label == "GeneName"

    def test_dependent_from_clauses(self):
        query = parse("select C from DB.Source S, S.Content C")
        assert query.from_clauses[1].path.base == "S"

    def test_from_without_variable_binds_root_name(self):
        query = parse("select X from ANNODA-GML where Source.Name = 'x'")
        # 'where' is a keyword, so the clause gets no explicit variable.
        assert query.from_clauses[0].variable == "ANNODA-GML"

    def test_distinct(self):
        assert parse("select distinct X from DB X").distinct

    def test_duplicate_variable_rejected(self):
        with pytest.raises(LorelSyntaxError):
            parse("select X from A X, B X")


class TestWhereExpressions:
    def test_precedence_and_binds_tighter_than_or(self):
        query = parse(
            "select X from DB X where X.a = 1 or X.b = 2 and X.c = 3"
        )
        assert isinstance(query.where, Or)
        assert isinstance(query.where.right, And)

    def test_parentheses_override(self):
        query = parse(
            "select X from DB X where (X.a = 1 or X.b = 2) and X.c = 3"
        )
        assert isinstance(query.where, And)
        assert isinstance(query.where.left, Or)

    def test_not(self):
        query = parse("select X from DB X where not X.a = 1")
        assert isinstance(query.where, Not)

    def test_exists(self):
        query = parse("select X from DB X where exists X.Links.GO")
        assert query.where == Exists(Path("X", ("Links", "GO")))

    def test_bare_path_is_existential(self):
        query = parse("select X from DB X where X.Links")
        assert isinstance(query.where, Exists)

    def test_like(self):
        query = parse("select X from DB X where X.Name like 'BRCA%'")
        assert query.where.op == "like"
        assert query.where.right == Literal("BRCA%")

    def test_in_list(self):
        query = parse("select X from DB X where X.n in (1, 2, 3)")
        assert query.where.op == "in"
        assert [l.value for l in query.where.right.items] == [1, 2, 3]

    def test_not_in(self):
        query = parse("select X from DB X where X.n not in (1)")
        assert isinstance(query.where, Not)
        assert query.where.operand.op == "in"

    def test_neq_normalized(self):
        query = parse("select X from DB X where X.a <> 1")
        assert query.where.op == "!="

    def test_comparison_of_two_paths(self):
        query = parse("select X from A X, B Y where X.Symbol = Y.GeneSymbol")
        assert query.where.right == Path("Y", ("GeneSymbol",))

    def test_oid_literal(self):
        query = parse("select X from DB X where X = &442")
        assert query.where.right == Literal(442, is_oid=True)

    def test_boolean_literals(self):
        query = parse("select X from DB X where X.flag = true")
        assert query.where.right == Literal(True)


class TestSetOperators:
    @pytest.mark.parametrize("op", ["union", "except", "intersect"])
    def test_set_op_parsed(self, op):
        query = parse(f"select X from A X {op} select Y from B Y")
        assert query.set_op == op
        assert query.set_operand.from_clauses[0].path.base == "B"

    def test_chained_set_ops(self):
        query = parse(
            "select X from A X union select Y from B Y except select Z from C Z"
        )
        assert query.set_op == "union"
        assert query.set_operand.set_op == "except"


class TestErrors:
    @pytest.mark.parametrize(
        "bad",
        [
            "",
            "select",
            "select X",
            "select X from",
            "select from DB X",
            "select X from DB X where",
            "select X from DB X where X.a =",
            "select X from DB X where in (1)",
            "select X from DB X where X.a in ()",
            "select X from DB X where X.a in (Name)",
            "select X from DB X trailing garbage",
            "select X from DB X where (X.a = 1",
        ],
    )
    def test_malformed_queries_rejected(self, bad):
        with pytest.raises(LorelSyntaxError):
            parse(bad)


WHERE = "select L from ANNODA.Locus L where "
CONDITION = "L.LocusID = 1"


class TestNestingDepth:
    """Text nested too deep for the recursive descent, or a tree too
    tall for the evaluator, is a syntax error, never a
    ``RecursionError``."""

    def test_hundred_nested_parentheses_parse(self):
        parse(WHERE + "(" * 100 + CONDITION + ")" * 100)

    def test_hundred_nested_nots_parse(self):
        assert isinstance(parse(WHERE + "not " * 100 + CONDITION).where, Not)

    def test_thousand_nested_parentheses_rejected(self):
        with pytest.raises(LorelSyntaxError, match="nests deeper"):
            parse(WHERE + "(" * 1000 + CONDITION + ")" * 1000)

    def test_thousand_nested_nots_rejected(self):
        with pytest.raises(LorelSyntaxError, match="nests deeper"):
            parse(WHERE + "not " * 1000 + CONDITION)

    def test_thousand_term_and_chain_rejected(self):
        with pytest.raises(LorelSyntaxError, match="nests deeper"):
            parse(WHERE + " and ".join([CONDITION] * 1000))

    def test_thousand_query_union_chain_rejected(self):
        with pytest.raises(LorelSyntaxError, match="nests deeper"):
            parse(" union ".join(["select X from DB X"] * 1000))

    def test_three_hundred_nested_subqueries_rejected(self):
        text = WHERE + (
            "L.LocusID in (select M.LocusID from ANNODA.Locus M where "
        ) * 300 + CONDITION + ")" * 300
        with pytest.raises(LorelSyntaxError, match="nests deeper"):
            parse(text)


class TestUnparse:
    @pytest.mark.parametrize(
        "text",
        [
            'select X from ANNODA-GML.Source X where X.Name = "LocusLink"',
            "select distinct X.Name as N from DB.Entry X",
            "select X from DB X where (X.a = 1 and not (X.b = 2))",
            "select X from DB X where X.n in (1, 2)",
            "select X from A X union select Y from B Y",
            "select X from DB X where exists X.Links.GO",
        ],
    )
    def test_parse_unparse_fixpoint(self, text):
        once = parse(text).unparse()
        assert parse(once).unparse() == once
