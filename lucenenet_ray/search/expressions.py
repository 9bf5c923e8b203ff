"""Scoring expressions: a JavascriptCompiler / SimpleBindings analog.

Reference: ``Lucene.Net.Expressions`` — ``JavascriptCompiler.cs`` compiles a
JavaScript-like arithmetic expression to IL over double-valued bindings;
``SimpleBindings.cs`` maps variable names to ``_score`` or doc-values fields;
the compiled ``Expression`` backs a ``SortField`` / rescoring ValueSource
(``ExpressionComparator``). Tests: ``Lucene.Net.Tests.Expressions/
JS/TestJavascriptCompiler.cs``, ``TestExpressionSorts.cs``.

Here the compile target is a numpy closure: every operator evaluates
vectorized over float64 arrays (the reference is double-valued throughout —
``Expression.Evaluate`` returns double), so one call scores a whole
candidate batch instead of per-doc virtual dispatch.

Grammar (the reference's operator set minus bitwise ops, which its own docs
mark as rarely used):

    ternary := or ('?' expr ':' expr)?
    or      := and ('||' and)*
    and     := cmp ('&&' cmp)*
    cmp     := add (('<'|'<='|'>'|'>='|'=='|'!=') add)?
    add     := mul (('+'|'-') mul)*
    mul     := unary (('*'|'/'|'%') unary)*
    unary   := ('-'|'!') unary | atom
    atom    := NUMBER | IDENT | IDENT '(' expr (',' expr)* ')' | '(' expr ')'

Functions: the JavascriptCompiler builtin table (JavascriptCompiler.cs
``DOC_FUNCTIONS``): abs, sqrt, ln, log10, log2(=ln x/ln 2), exp, pow, min,
max, floor, ceil, sign(=copysign-ish via np.sign), atan2, haversin omitted
(geo-only). Comparison/boolean results are 1.0/0.0 doubles, as in the
reference (IL ``cgt``/``clt`` pushes int → conv.r8).
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+\.?\d*(?:[eE][+-]?\d+)?|\.\d+)"
    r"|(?P<ident>[A-Za-z_][A-Za-z0-9_.]*)"
    r"|(?P<op><=|>=|==|!=|&&|\|\||[-+*/%()<>?:,!]))"
)

_FUNCS = {
    "abs": (1, np.abs),
    "sqrt": (1, np.sqrt),
    "ln": (1, np.log),
    "log10": (1, np.log10),
    "log2": (1, np.log2),
    "exp": (1, np.exp),
    "floor": (1, np.floor),
    "ceil": (1, np.ceil),
    "sign": (1, np.sign),
    "pow": (2, np.power),
    "min": (2, np.minimum),
    "max": (2, np.maximum),
    "atan2": (2, np.arctan2),
}


@dataclass(frozen=True)
class Expression:
    """Compiled expression: source text + the variable names it reads."""

    source: str
    variables: tuple[str, ...]
    _eval: object

    def evaluate(self, bindings: dict[str, np.ndarray | float]) -> np.ndarray:
        """Evaluate over float64 bindings (arrays broadcast; scalars allowed).
        Missing variables raise KeyError — SimpleBindings.GetValueSource does
        the same for an unbound name."""
        env = {k: np.asarray(v, dtype=np.float64) for k, v in bindings.items()}
        for v in self.variables:
            if v not in env:
                raise KeyError(f"unbound expression variable: {v}")
        return np.asarray(self._eval(env), dtype=np.float64)


def _tokenize(src: str) -> list[str]:
    out, i = [], 0
    while i < len(src):
        m = _TOKEN_RE.match(src, i)
        if not m or m.end() == i:
            if src[i:].strip():
                raise ValueError(f"unparsable expression at: {src[i:]!r}")
            break
        out.append(m.group(m.lastgroup))
        i = m.end()
    return out


def compile_expression(src: str) -> Expression:
    """Parse + compile; raises ValueError on syntax errors
    (JavascriptCompiler.Compile throws ParseException)."""
    toks = _tokenize(src)
    pos = 0
    variables: set[str] = set()

    def peek():
        return toks[pos] if pos < len(toks) else None

    def take(expected=None):
        nonlocal pos
        t = peek()
        if t is None or (expected is not None and t != expected):
            raise ValueError(f"expected {expected!r}, got {t!r} in {src!r}")
        pos += 1
        return t

    def ternary():
        c = or_()
        if peek() == "?":
            take("?")
            a = ternary()
            take(":")
            b = ternary()
            return lambda env, c=c, a=a, b=b: np.where(c(env) != 0.0, a(env), b(env))
        return c

    def or_():
        l = and_()
        while peek() == "||":
            take("||")
            r = and_()
            l = (lambda env, l=l, r=r:
                 (((l(env) != 0.0) | (r(env) != 0.0))).astype(np.float64))
        return l

    def and_():
        l = cmp_()
        while peek() == "&&":
            take("&&")
            r = cmp_()
            l = (lambda env, l=l, r=r:
                 (((l(env) != 0.0) & (r(env) != 0.0))).astype(np.float64))
        return l

    _CMP = {"<": np.less, "<=": np.less_equal, ">": np.greater,
            ">=": np.greater_equal, "==": np.equal, "!=": np.not_equal}

    def cmp_():
        l = add()
        if peek() in _CMP:
            op = _CMP[take()]
            r = add()
            return lambda env, l=l, r=r, op=op: op(l(env), r(env)).astype(np.float64)
        return l

    def add():
        l = mul()
        while peek() in ("+", "-"):
            if take() == "+":
                r = mul()
                l = lambda env, l=l, r=r: l(env) + r(env)
            else:
                r = mul()
                l = lambda env, l=l, r=r: l(env) - r(env)
        return l

    def mul():
        l = unary()
        while peek() in ("*", "/", "%"):
            op = take()
            r = unary()
            if op == "*":
                l = lambda env, l=l, r=r: l(env) * r(env)
            elif op == "/":
                l = lambda env, l=l, r=r: l(env) / r(env)
            else:
                l = lambda env, l=l, r=r: np.fmod(l(env), r(env))
        return l

    def unary():
        if peek() == "-":
            take()
            e = unary()
            return lambda env, e=e: -e(env)
        if peek() == "!":
            take()
            e = unary()
            return lambda env, e=e: (e(env) == 0.0).astype(np.float64)
        return atom()

    def atom():
        t = peek()
        if t is None:
            raise ValueError(f"unexpected end of expression: {src!r}")
        if t == "(":
            take("(")
            e = ternary()
            take(")")
            return e
        if re.fullmatch(r"\d+\.?\d*(?:[eE][+-]?\d+)?|\.\d+", t):
            take()
            v = np.float64(t)
            return lambda env, v=v: v
        take()  # identifier
        if peek() == "(":
            if t not in _FUNCS:
                raise ValueError(f"unknown function: {t}")
            arity, fn = _FUNCS[t]
            take("(")
            args = [ternary()]
            while peek() == ",":
                take(",")
                args.append(ternary())
            take(")")
            if len(args) != arity:
                raise ValueError(f"{t}() takes {arity} args, got {len(args)}")
            if arity == 1:
                a0 = args[0]
                return lambda env, a0=a0, fn=fn: fn(a0(env))
            a0, a1 = args
            return lambda env, a0=a0, a1=a1, fn=fn: fn(a0(env), a1(env))
        variables.add(t)
        return lambda env, t=t: env[t]

    root = ternary()
    if pos != len(toks):
        raise ValueError(f"trailing tokens {toks[pos:]} in {src!r}")
    return Expression(source=src, variables=tuple(sorted(variables)), _eval=root)


def expression_sort(reader, query, expr_src: str, k: int = 10,
                    dv_fields: tuple[str, ...] = ()) -> list[tuple[int, float]]:
    """Sort matches by a compiled expression over ``_score`` + doc-values
    bindings — the ``SortField(expression.GetSortField(bindings, reverse))``
    path (``ExpressionComparator``). Per bucket: score matches (BM25
    float32), bind ``_score`` (widened to double, as
    ``scores()`` → DoubleVal does) and each named doc-values field, evaluate
    vectorized, keep the bucket's top-k by (expr desc, doc asc), merge.
    Returns [(doc_id, value)] — value is the double expression result."""
    from lucenenet_ray.search.searcher import _eval_query, plan_query

    expr = compile_expression(expr_src)
    fields = [v for v in expr.variables if v != "_score"]
    for f in fields:
        if dv_fields and f not in dv_fields:
            raise KeyError(f"expression variable {f} not in bindings")
    plan = plan_query(reader, query)
    all_d: list[np.ndarray] = []
    all_v: list[np.ndarray] = []
    for b in reader.bucket_ids:
        bd = reader.bucket(b)
        chunks = bd.chunks_for_terms(list(plan.all_terms))
        lidx, scores = _eval_query(plan.query, chunks, plan, bd)
        live = bd.live_mask(plan.deleted_terms)
        if live is not None and lidx.size:
            keep = live[lidx]
            lidx, scores = lidx[keep], scores[keep]
        if lidx.size == 0:
            continue
        env: dict[str, np.ndarray] = {"_score": scores.astype(np.float64)}
        for f in fields:
            env[f] = reader.numeric_docvalues(b, f)[lidx].astype(np.float64)
        vals = expr.evaluate(env)
        docs = bd.norms()[0][lidx]
        kk = min(k, vals.size)
        keys = np.lexsort((docs, -vals))[:kk]
        all_d.append(docs[keys])
        all_v.append(vals[keys])
    if not all_d:
        return []
    docs = np.concatenate(all_d)
    vals = np.concatenate(all_v)
    order = np.lexsort((docs, -vals))[:k]
    return [(int(docs[i]), float(vals[i])) for i in order]
