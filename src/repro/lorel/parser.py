"""Recursive-descent parser for Lorel select-from-where queries.

Grammar (keywords case-insensitive)::

    query       := select_query (set_op select_query)?
    set_op      := 'union' | 'except' | 'intersect'
    select_query:= 'select' ['distinct'] select_item (',' select_item)*
                   'from' from_clause (',' from_clause)*
                   ['where' or_expr]
    select_item := path ['as' NAME]
    from_clause := path NAME
    or_expr     := and_expr ('or' and_expr)*
    and_expr    := unary_expr ('and' unary_expr)*
    unary_expr  := 'not' unary_expr | '(' or_expr ')' | predicate
    predicate   := 'exists' path
                 | path (op literal-or-path | 'like' STRING
                         | ['not'] 'in' value_list)
    path        := NAME ('.' NAME)*
    value_list  := '(' literal (',' literal)* ')'
"""

from dataclasses import fields, is_dataclass

from repro.lorel.ast_nodes import (
    And,
    Comparison,
    Exists,
    FromClause,
    Literal,
    Not,
    Or,
    OrderBy,
    Path,
    Query,
    SelectItem,
    Subquery,
    ValueList,
)
from repro.lorel.errors import LorelSyntaxError
from repro.lorel.lexer import tokenize

_COMPARISON_OPS = {"=", "!=", "<>", "<", "<=", ">", ">="}

#: How deep a query may nest: both the text's nesting (parentheses,
#: ``not``, subqueries) and the height of the syntax tree it parses to
#: (which long ``and``/``or``/``union`` chains also raise).  A deeper
#: query is a syntax error, not a ``RecursionError`` from the parser or
#: the evaluator.
MAX_NESTING = 200


def parse(text):
    """Parse query text into a :class:`~repro.lorel.ast_nodes.Query`."""
    query = _Parser(tokenize(text)).parse_query()
    if _height(query) > MAX_NESTING:
        raise LorelSyntaxError(
            f"query nests deeper than {MAX_NESTING} levels"
        )
    return query


def _height(root):
    """The height of a syntax tree, walked without recursion."""
    deepest = 0
    stack = [(root, 1)]
    while stack:
        node, depth = stack.pop()
        deepest = max(deepest, depth)
        if isinstance(node, tuple):
            children = node
        elif is_dataclass(node):
            children = [getattr(node, item.name) for item in fields(node)]
        else:
            continue
        stack.extend((child, depth + 1) for child in children)
    return deepest


class _Parser:
    def __init__(self, tokens):
        self._tokens = tokens
        self._index = 0
        self._depth = 0

    # -- token plumbing ------------------------------------------------------

    @property
    def _current(self):
        return self._tokens[self._index]

    def _advance(self):
        token = self._current
        self._index += 1
        return token

    def _check(self, kind, text=None):
        token = self._current
        if token.kind != kind:
            return False
        return text is None or token.text == text

    def _accept(self, kind, text=None):
        if self._check(kind, text):
            return self._advance()
        return None

    def _descend(self, levels=1):
        """Enter ``levels`` nesting levels (left again by decrementing
        ``_depth``; a parse that fails is abandoned whole)."""
        self._depth += levels
        if self._depth > MAX_NESTING:
            raise LorelSyntaxError(
                f"query nests deeper than {MAX_NESTING} levels",
                self._current.position,
            )

    def _expect(self, kind, text=None, what=None):
        token = self._accept(kind, text)
        if token is None:
            expected = what or text or kind
            raise LorelSyntaxError(
                f"expected {expected}, found {self._current.text!r}",
                self._current.position,
            )
        return token

    # -- grammar -------------------------------------------------------------

    def parse_query(self):
        queries = [self._select_query()]
        ops = []
        while self._check("KEYWORD") and self._current.text in (
            "union",
            "except",
            "intersect",
        ):
            ops.append(self._advance().text)
            queries.append(self._select_query())
        self._expect("EOF", what="end of query")
        # Left-to-right chain: each query carries the operator linking it
        # to the next one (the evaluator walks set_operand links in order).
        for index in range(len(ops) - 1, -1, -1):
            left = queries[index]
            queries[index] = Query(
                select_items=left.select_items,
                from_clauses=left.from_clauses,
                where=left.where,
                distinct=left.distinct,
                order_by=left.order_by,
                set_op=ops[index],
                set_operand=queries[index + 1],
            )
        return queries[0]

    def _select_query(self):
        self._expect("KEYWORD", "select")
        distinct = self._accept("KEYWORD", "distinct") is not None
        select_items = [self._select_item()]
        while self._accept("COMMA"):
            select_items.append(self._select_item())
        self._expect("KEYWORD", "from")
        from_clauses = [self._from_clause()]
        while self._accept("COMMA"):
            from_clauses.append(self._from_clause())
        where = None
        if self._accept("KEYWORD", "where"):
            where = self._or_expr()
        order_by = None
        if self._accept("KEYWORD", "order"):
            self._expect("KEYWORD", "by")
            path = self._path()
            descending = False
            if self._accept("KEYWORD", "desc"):
                descending = True
            else:
                self._accept("KEYWORD", "asc")
            order_by = OrderBy(path=path, descending=descending)
        self._validate_variables(from_clauses, select_items)
        return Query(
            select_items=tuple(select_items),
            from_clauses=tuple(from_clauses),
            where=where,
            distinct=distinct,
            order_by=order_by,
        )

    def _validate_variables(self, from_clauses, select_items):
        declared = set()
        for clause in from_clauses:
            if clause.variable in declared:
                raise LorelSyntaxError(
                    f"range variable {clause.variable!r} declared twice"
                )
            declared.add(clause.variable)

    def _select_item(self):
        aggregate = None
        if self._accept("KEYWORD", "count"):
            self._expect("LPAREN", what="'(' after count")
            path = self._path()
            self._expect("RPAREN", what="')'")
            aggregate = "count"
        else:
            path = self._path()
        alias = None
        if self._accept("KEYWORD", "as"):
            alias = self._expect("NAME", what="alias name").text
        return SelectItem(path=path, alias=alias, aggregate=aggregate)

    def _from_clause(self):
        path = self._path()
        variable_token = self._accept("NAME")
        if variable_token is None:
            # 'from ANNODA-GML' with no explicit variable: the database
            # name itself becomes the range variable bound to its root.
            return FromClause(path=path, variable=path.unparse())
        return FromClause(path=path, variable=variable_token.text)

    def _path(self):
        first = self._expect("NAME", what="a path").text
        segments = []
        while self._accept("DOT"):
            # After a dot any word is a label — edge labels in
            # semi-structured data may collide with query keywords
            # ('order', 'count', ...).
            token = self._accept("NAME") or self._accept("KEYWORD")
            if token is None:
                self._expect("NAME", what="a path label")
            segments.append(token.text)
        return Path(base=first, segments=tuple(segments))

    # -- boolean expressions ---------------------------------------------------

    def _or_expr(self):
        left = self._and_expr()
        while self._accept("KEYWORD", "or"):
            left = Or(left, self._and_expr())
        return left

    def _and_expr(self):
        left = self._unary_expr()
        while self._accept("KEYWORD", "and"):
            left = And(left, self._unary_expr())
        return left

    def _unary_expr(self):
        if self._accept("KEYWORD", "not"):
            self._descend()
            expr = Not(self._unary_expr())
        elif self._accept("LPAREN"):
            self._descend()
            expr = self._or_expr()
            self._expect("RPAREN")
        else:
            return self._predicate()
        self._depth -= 1
        return expr

    def _predicate(self):
        if self._accept("KEYWORD", "exists"):
            return Exists(self._path())
        left = self._operand()
        if self._check("OP") and self._current.text in _COMPARISON_OPS:
            op = self._advance().text
            if op == "<>":
                op = "!="
            right = self._operand()
            return Comparison(op=op, left=left, right=right)
        if self._accept("KEYWORD", "like"):
            pattern = self._expect("STRING", what="a like pattern")
            return Comparison(
                op="like", left=left, right=Literal(pattern.text)
            )
        if self._check("KEYWORD", "not") or self._check("KEYWORD", "in"):
            negated = self._accept("KEYWORD", "not") is not None
            self._expect("KEYWORD", "in")
            values = self._value_list()
            comparison = Comparison(op="in", left=left, right=values)
            return Not(comparison) if negated else comparison
        # A bare path is existential shorthand: 'where X.Links' means
        # the path must reach at least one object.
        if isinstance(left, Path):
            return Exists(left)
        raise LorelSyntaxError(
            f"expected a comparison after {left.unparse()}",
            self._current.position,
        )

    def _operand(self):
        literal = self._maybe_literal()
        if literal is not None:
            return literal
        return self._path()

    def _maybe_literal(self):
        token = self._current
        if token.kind == "STRING":
            self._advance()
            return Literal(token.text)
        if token.kind == "INTEGER":
            self._advance()
            return Literal(int(token.text))
        if token.kind == "REAL":
            self._advance()
            return Literal(float(token.text))
        if token.kind == "OID":
            self._advance()
            return Literal(int(token.text), is_oid=True)
        if token.kind == "KEYWORD" and token.text in ("true", "false"):
            self._advance()
            return Literal(token.text == "true")
        return None

    def _value_list(self):
        self._expect("LPAREN", what="'('")
        if self._check("KEYWORD", "select"):
            # A subquery's where clause sits three tree levels below
            # the comparison that holds it (comparison, subquery,
            # query), and its descent takes twice the frames of a
            # parenthesised level.
            self._descend(3)
            inner = self._select_query()
            self._expect("RPAREN", what="')' closing the subquery")
            self._depth -= 3
            return Subquery(query=inner)
        items = []
        literal = self._maybe_literal()
        if literal is None:
            raise LorelSyntaxError(
                "value list requires at least one literal",
                self._current.position,
            )
        items.append(literal)
        while self._accept("COMMA"):
            literal = self._maybe_literal()
            if literal is None:
                raise LorelSyntaxError(
                    "expected a literal after ','", self._current.position
                )
            items.append(literal)
        self._expect("RPAREN", what="')'")
        return ValueList(items=tuple(items))
