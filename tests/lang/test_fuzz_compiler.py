"""Differential fuzzing of the Slang toolchain.

Hypothesis generates random expression trees and statement sequences; each
program runs through the full pipeline (lexer -> parser -> sema -> codegen ->
assembler -> functional interpreter) and the printed result is compared
against a reference evaluator implementing the same 64-bit two's-complement
semantics in Python.  Any divergence is a compiler, assembler or interpreter
bug.
"""

from hypothesis import given, settings, strategies as st

from repro._util import to_signed64, to_unsigned64
from repro.cache import compile_source
from repro.cpu.interp import run_functional

# ---------------------------------------------------------------- expressions

_VARS = ("a", "b", "c")


def _expr(depth):
    """Strategy producing (source_text, eval_fn) pairs."""
    leaf = st.one_of(
        st.integers(-100, 100).map(lambda v: (str(v), lambda env, v=v: v)),
        st.sampled_from(_VARS).map(lambda n: (n, lambda env, n=n: env[n])),
    )
    if depth <= 0:
        return leaf

    sub = _expr(depth - 1)

    def binop(symbol, fn):
        return st.tuples(sub, sub).map(
            lambda pair, symbol=symbol, fn=fn: (
                f"({pair[0][0]} {symbol} {pair[1][0]})",
                lambda env, pair=pair, fn=fn: fn(pair[0][1](env), pair[1][1](env)),
            )
        )

    def c_div(x, y):
        if y == 0:
            return -1
        q = abs(x) // abs(y)
        return to_signed64(-q if (x < 0) != (y < 0) else q)

    def c_rem(x, y):
        if y == 0:
            return x
        r = abs(x) % abs(y)
        return to_signed64(-r if x < 0 else r)

    shift = st.tuples(sub, st.integers(0, 12)).map(
        lambda pair: (
            f"({pair[0][0]} << {pair[1]})",
            lambda env, pair=pair: to_signed64(pair[0][1](env) << pair[1]),
        )
    )
    sra = st.tuples(sub, st.integers(0, 12)).map(
        lambda pair: (
            f"({pair[0][0]} >> {pair[1]})",
            lambda env, pair=pair: pair[0][1](env) >> pair[1],
        )
    )
    neg = sub.map(lambda p: (f"(-{p[0]})", lambda env, p=p: to_signed64(-p[1](env))))
    bnot = sub.map(lambda p: (f"(~{p[0]})", lambda env, p=p: to_signed64(~p[1](env))))
    lnot = sub.map(lambda p: (f"(!{p[0]})", lambda env, p=p: int(p[1](env) == 0)))

    return st.one_of(
        leaf,
        binop("+", lambda x, y: to_signed64(x + y)),
        binop("-", lambda x, y: to_signed64(x - y)),
        binop("*", lambda x, y: to_signed64(x * y)),
        binop("/", c_div),
        binop("%", c_rem),
        binop("&", lambda x, y: x & y),
        binop("|", lambda x, y: x | y),
        binop("^", lambda x, y: x ^ y),
        binop("<", lambda x, y: int(x < y)),
        binop("<=", lambda x, y: int(x <= y)),
        binop("==", lambda x, y: int(x == y)),
        binop("!=", lambda x, y: int(x != y)),
        binop("&&", lambda x, y: int(bool(x) and bool(y))),
        binop("||", lambda x, y: int(bool(x) or bool(y))),
        shift,
        sra,
        neg,
        bnot,
        lnot,
    )


@settings(max_examples=120, deadline=None)
@given(
    expr=_expr(3),
    a=st.integers(-1000, 1000),
    b=st.integers(-1000, 1000),
    c=st.integers(-1000, 1000),
)
def test_expression_differential(expr, a, b, c):
    text, evaluate = expr
    src = f"""
    int main() {{
        int a = {a}; int b = {b}; int c = {c};
        print_int({text});
        return 0;
    }}"""
    result = run_functional(compile_source(src).program, max_instructions=2_000_000)
    expected = to_signed64(evaluate({"a": a, "b": b, "c": c}))
    assert result.int_output == [expected], text


# ----------------------------------------------------------------- statements


@st.composite
def _program(draw):
    """A random straight-line + loop program over three variables, together
    with a Python model of its execution."""
    n_stmts = draw(st.integers(1, 8))
    lines = []
    ops = []
    for _ in range(n_stmts):
        kind = draw(st.sampled_from(["assign", "add", "loop", "cond"]))
        target = draw(st.sampled_from(_VARS))
        value = draw(st.integers(-50, 50))
        source = draw(st.sampled_from(_VARS))
        if kind == "assign":
            lines.append(f"{target} = {value};")
            ops.append(("assign", target, value))
        elif kind == "add":
            lines.append(f"{target} = {target} + {source};")
            ops.append(("add", target, source))
        elif kind == "loop":
            count = draw(st.integers(0, 6))
            lines.append(f"for (int i = 0; i < {count}; i = i + 1) {target} = {target} + {value};")
            ops.append(("loop", target, value, count))
        else:
            lines.append(f"if ({source} > 0) {target} = {target} - {value};")
            ops.append(("cond", target, source, value))
    return lines, ops


@settings(max_examples=60, deadline=None)
@given(prog=_program(), a=st.integers(-20, 20), b=st.integers(-20, 20), c=st.integers(-20, 20))
def test_statement_differential(prog, a, b, c):
    lines, ops = prog
    body = "\n        ".join(lines)
    src = f"""
    int main() {{
        int a = {a}; int b = {b}; int c = {c};
        {body}
        print_int(a); print_int(b); print_int(c);
        return 0;
    }}"""
    env = {"a": a, "b": b, "c": c}
    for op in ops:
        if op[0] == "assign":
            env[op[1]] = op[2]
        elif op[0] == "add":
            env[op[1]] = to_signed64(env[op[1]] + env[op[2]])
        elif op[0] == "loop":
            for _ in range(op[3]):
                env[op[1]] = to_signed64(env[op[1]] + op[2])
        else:
            if env[op[2]] > 0:
                env[op[1]] = to_signed64(env[op[1]] - op[3])
    result = run_functional(compile_source(src).program, max_instructions=2_000_000)
    assert result.int_output == [env["a"], env["b"], env["c"]]
