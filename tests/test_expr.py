import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hessquot.expr import (
    BinOp,
    Call,
    DomainFaultError,
    EvalEnv,
    ExprError,
    Neg,
    Num,
    ParseError,
    Program,
    UnknownIdentifierError,
    Var,
    differentiate,
    evaluate,
    parse,
    to_string,
    variables,
)
from hessquot.grid import Grid, sample_expression


def test_parse_basic_tree():
    tree = parse("2*x1 + exp(u)", 3)
    assert tree == BinOp("+", BinOp("*", Num(2.0), Var("x1")), Call("exp", Var("u")))


def test_variable_index_bound():
    with pytest.raises(UnknownIdentifierError):
        parse("p4", 3)
    parse("p3", 3)  # in range


def test_unknown_identifier_and_function():
    with pytest.raises(UnknownIdentifierError):
        parse("y1 + 2", 3)
    with pytest.raises(UnknownIdentifierError):
        parse("tan(x1)", 3)


def test_power_right_associative():
    tree = parse("x1^2^3", 1)
    assert tree == BinOp("^", Var("x1"), BinOp("^", Num(2.0), Num(3.0)))
    assert evaluate(tree, EvalEnv(x=[2.0])) == 256.0


def test_power_binds_tighter_than_unary_minus():
    tree = parse("-x1^2", 1)
    assert tree == Neg(BinOp("^", Var("x1"), Num(2.0)))
    assert evaluate(tree, EvalEnv(x=[3.0])) == -9.0


def test_negative_exponent():
    assert evaluate(parse("x1^-2", 1), EvalEnv(x=[2.0])) == 0.25


def test_whitespace_insensitive():
    assert parse(" 1 +  2*x1 ", 1) == parse("1+2*x1", 1)


def test_parse_error_offsets():
    with pytest.raises(ParseError) as err:
        parse("2*(x1+", 2)
    assert err.value.offset == 6
    assert "(" in "".join(err.value.expected) or err.value.expected
    with pytest.raises(ParseError) as err:
        parse("x1 x2", 2)
    assert err.value.offset == 3


def test_overflowing_literal_is_a_parse_error():
    # Num(inf) printed as 'inf', which reparsed as an unknown identifier
    for text, offset in (("1e400*x1", 0), ("x1 + 2*-1e400", 8), ("x1^1e999", 3)):
        with pytest.raises(ParseError, match="overflows") as err:
            parse(text, 3)
        assert err.value.offset == offset
    tree = parse("1e308*x1", 3)
    assert parse(to_string(tree), 3) == tree


def test_evaluate_examples():
    assert evaluate(parse("x1*x2", 2), EvalEnv(x=[2.0, 3.0])) == 6.0
    assert evaluate(parse("sqrt(p1^2+p2^2)", 2), EvalEnv(x=[0, 0], p=[3.0, 4.0])) == 5.0


def test_evaluate_broadcasts_arrays():
    tree = parse("x1*x2 + u", 2)
    x = np.array([[1.0, 3.0], [2.0, 4.0]])  # x1 and x2 at two points
    u = np.array([10.0, 20.0])
    assert np.array_equal(evaluate(tree, EvalEnv(x=x, u=u)), [12.0, 32.0])


def test_domain_faults():
    with pytest.raises(DomainFaultError):
        evaluate(parse("log(u)", 1), EvalEnv(x=[0.0], u=0.0))
    with pytest.raises(DomainFaultError):
        evaluate(parse("sqrt(x1)", 1), EvalEnv(x=[-1.0]))
    with pytest.raises(DomainFaultError):
        evaluate(parse("1/x1", 1), EvalEnv(x=[0.0]))
    with pytest.raises(DomainFaultError):
        evaluate(parse("x1^0.5", 1), EvalEnv(x=[-2.0]))
    with pytest.raises(DomainFaultError, match="NaN value"):  # 0 * inf
        evaluate(parse("0*exp(1000*x1)", 1), EvalEnv(x=[1.0]))
    for text in ("(0*exp(1000*x1))^0", "1^(0*exp(1000*x1))"):  # np.power gives 1
        with pytest.raises(DomainFaultError, match="NaN value"):
            evaluate(parse(text, 1), EvalEnv(x=[1.0]))
    with pytest.raises(DomainFaultError, match="NaN value"):  # positive integer power
        evaluate(parse("(0*exp(1000*x1))^2", 1), EvalEnv(x=[1.0]))
    err = None
    try:
        evaluate(parse("2 + log(1 - x1)", 1), EvalEnv(x=[1.0]))
    except DomainFaultError as e:
        err = e
    assert err is not None and "log" in str(err)


def test_missing_environment_entry():
    with pytest.raises(ExprError):
        evaluate(parse("u + 1", 1), EvalEnv(x=[0.0]))


def test_differentiate_power_rule():
    assert differentiate(parse("u^2", 1), "u") == BinOp("*", Num(2.0), Var("u"))


def test_differentiate_product_rule_folds():
    assert differentiate(parse("exp(u)*p1", 2), "p1") == Call("exp", Var("u"))


def test_differentiate_unrelated_variable_is_zero():
    assert differentiate(parse("x1^2 + sin(x2)", 2), "p1") == Num(0.0)


def test_differentiate_rejects_non_variable():
    with pytest.raises(ValueError):
        differentiate(parse("x1", 1), "q1")


def _random_safe_tree(rng, n):
    # guarded composition keeps every evaluation point inside all domains
    leaves = (
        [f"x{i+1}" for i in range(n)]
        + [f"p{i+1}" for i in range(n)]
        + ["u", f"{rng.uniform(0.5, 2.0):.3f}"]
    )

    def leaf():
        return leaves[rng.integers(0, len(leaves))]

    forms = [
        lambda a, b: f"({a}+{b})",
        lambda a, b: f"({a}-{b})",
        lambda a, b: f"({a}*{b})",
        lambda a, b: f"({a}/({b}+3))",
        lambda a, b: f"exp(({a})/8)",
        lambda a, b: f"log({a}^2+2)",
        lambda a, b: f"sin({a})",
        lambda a, b: f"cos({b})",
        lambda a, b: f"sqrt({a}^2+1)",
        lambda a, b: f"({a})^2",
        lambda a, b: f"(-{a})",
    ]
    text = leaf()
    for _ in range(int(rng.integers(2, 6))):
        form = forms[rng.integers(0, len(forms))]
        text = form(text, leaf())
    return parse(text, n)


def test_derivative_matches_finite_differences_on_random_trees():
    rng = np.random.default_rng(7)
    n = 3
    names = [f"x{i+1}" for i in range(n)] + ["u"] + [f"p{i+1}" for i in range(n)]
    for _ in range(60):
        tree = _random_safe_tree(rng, n)
        x = rng.uniform(0.5, 1.5, n)
        uval = float(rng.uniform(0.5, 1.5))
        p = rng.uniform(0.5, 1.5, n)
        var = names[rng.integers(0, len(names))]
        d = differentiate(tree, var)
        exact = float(evaluate(d, EvalEnv(x=x, u=uval, p=p)))
        h = 1e-6

        def at(offset):
            xx, uu, pp = x.copy(), uval, p.copy()
            if var == "u":
                uu += offset
            elif var[0] == "x":
                xx[int(var[1:]) - 1] += offset
            else:
                pp[int(var[1:]) - 1] += offset
            return float(evaluate(tree, EvalEnv(x=xx, u=uu, p=pp)))

        fd = (at(h) - at(-h)) / (2 * h)
        assert abs(fd - exact) <= 1e-6 * max(1.0, abs(exact))


def test_print_parse_round_trip():
    rng = np.random.default_rng(11)
    for _ in range(40):
        tree = _random_safe_tree(rng, 2)
        assert parse(to_string(tree), 2) == tree
        for var in ("x1", "u", "p2"):
            d = differentiate(tree, var)
            assert parse(to_string(d), 2) == d


def test_variables_collection():
    tree = parse("x1*p2 + exp(u)", 2)
    assert variables(tree) == {"x1", "p2", "u"}


def test_variables_of_a_negation():
    assert parse("-x1", 1) == Neg(Var("x1"))
    assert variables(parse("-x1", 1)) == {"x1"}


def test_power_rule_folds_a_zero_exponent():
    # d/dx1 of x1^1 is 1*x1^0*1, and x1^0 folds to the literal 1
    assert parse("x1^1", 1) == BinOp("^", Var("x1"), Num(1.0))
    assert differentiate(parse("x1^1", 1), "x1") == Num(1.0)


def test_zero_to_a_negative_power_is_a_domain_fault_on_the_grid():
    # the grid's first axis node is x1 = 0
    grid = Grid(n=2, lo=(0, 0), hi=(1, 1), res=5)
    with pytest.raises(DomainFaultError, match=r"zero raised to a negative power in '\(x1\^-1.0\)'"):
        sample_expression(parse("x1^-1", 2), grid)


def _reference_evaluate(e, env):
    """A recursive walk of the tree with the program's checks: the
    reference a program of trees must match bit for bit."""
    with np.errstate(all="ignore"):
        value = _walk(e, env)
    if np.isnan(value).any():
        raise DomainFaultError("NaN value", e, np.nan)
    return value


def _walk(e, env):
    if isinstance(e, Num):
        return e.value
    if isinstance(e, Var):
        if e.name == "u":
            return env.u
        return np.asarray((env.x if e.name[0] == "x" else env.p)[int(e.name[1:]) - 1], dtype=float)
    if isinstance(e, Neg):
        return -_walk(e.arg, env)
    if isinstance(e, Call):
        arg = _walk(e.arg, env)
        a = np.asarray(arg, dtype=float)
        if e.func == "log" and np.any(a <= 0.0):
            raise DomainFaultError("log of non-positive value", e, _first(a, a <= 0.0))
        if e.func == "sqrt" and np.any(a < 0.0):
            raise DomainFaultError("sqrt of negative value", e, _first(a, a < 0.0))
        return getattr(np, e.func)(arg)
    left, right = _walk(e.left, env), _walk(e.right, env)
    if e.op == "/" and np.any(np.asarray(right) == 0.0):
        raise DomainFaultError("division by zero", e, 0.0)
    if e.op != "^":
        return {"+": np.add, "-": np.subtract, "*": np.multiply, "/": np.divide}[e.op](left, right)
    if np.ndim(right) == 0 and right >= 1.0 and float(right).is_integer():
        return np.power(left, right)
    base, exponent = np.asarray(left, dtype=float), np.asarray(right, dtype=float)
    if np.isnan(base).any() or np.isnan(exponent).any():
        raise DomainFaultError("NaN value", e, np.nan)
    bad = (base < 0.0) & (exponent != np.floor(exponent))
    if np.any(bad):
        raise DomainFaultError("fractional power of negative base", e, _first(base, bad))
    if np.any((base == 0.0) & (exponent < 0.0)):
        raise DomainFaultError("zero raised to a negative power", e, 0.0)
    return np.power(left, right)


def _first(values, mask):
    return np.broadcast_to(values, np.shape(mask))[mask].flat[0]


def _outcome(thunk):
    try:
        return thunk()
    except DomainFaultError as err:
        return err


def _same(got, want):
    if isinstance(want, DomainFaultError):
        return (
            type(got) is DomainFaultError
            and str(got) == str(want)
            and to_string(got.subexpr) == to_string(want.subexpr)
        )
    return (
        type(got) is type(want)
        and np.shape(got) == np.shape(want)
        and np.asarray(got).dtype == np.asarray(want).dtype
        and np.asarray(got).tobytes() == np.asarray(want).tobytes()
    )


_NAMES = ("x1", "x2", "u", "p1")
# zeros and negatives reach log, sqrt, / and ^; 710 overflows exp, so
# 0*inf and inf - inf give NaN, as does a NaN entry
_VALUES = (0.5, 1.5, 2.0, 3.0, 0.0, -0.0, -1.0, -2.5, 710.0, np.nan)


def _trees():
    leaves = st.builds(Num, st.sampled_from((0.0, -0.0, 1.0, 2.0, -1.0, 0.5, 3.0, 1e300))) | st.builds(
        Var, st.sampled_from(_NAMES)
    )

    def extend(children):
        return (
            st.builds(Neg, children)
            | st.builds(Call, st.sampled_from(("exp", "log", "sin", "cos", "sqrt")), children)
            | st.builds(BinOp, st.sampled_from("+-*/^"), children, children)
            # a repeated subtree, which the program computes once
            | st.builds(lambda op, c: BinOp(op, c, c), st.sampled_from("+-*/^"), children)
        )

    return st.recursive(leaves, extend, max_leaves=10)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(
    tree=_trees(),
    x1=st.lists(st.sampled_from(_VALUES), min_size=3, max_size=3),
    x2=st.lists(st.sampled_from(_VALUES), min_size=2, max_size=2),
    u=st.lists(st.sampled_from(_VALUES), min_size=6, max_size=6),
    p1=st.sampled_from(_VALUES),
)
def test_program_matches_a_recursive_walk(tree, x1, x2, u, p1):
    # a tree with its first derivatives and one second derivative: the
    # program of all of them gives each value with the bits, type and
    # shape of walking each tree in turn, or the first walk's fault
    env = EvalEnv(x=[np.reshape(x1, (3, 1)), np.reshape(x2, (1, 2))], u=np.reshape(u, (3, 2)), p=[p1])
    trees = [tree, *(differentiate(tree, v) for v in _NAMES), differentiate(differentiate(tree, "x1"), "x2")]
    want = _outcome(lambda: [_reference_evaluate(t, env) for t in trees])
    got = _outcome(lambda: Program(trees).run(env))
    assert isinstance(got, list) == isinstance(want, list)
    if isinstance(want, list):
        assert all(_same(g, w) for g, w in zip(got, want))
        # written into arrays: each value broadcast to the shape of the env
        out = Program(trees).run(env, [np.empty((3, 2)) for _ in trees])
        assert all(_same(o, np.broadcast_to(w, (3, 2)).copy()) for o, w in zip(out, want))
    else:
        assert _same(got, want)
    assert _same(_outcome(lambda: evaluate(tree, env)), _outcome(lambda: _reference_evaluate(tree, env)))
