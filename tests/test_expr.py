import numpy as np
import pytest

from hessquot.expr import (
    BinOp,
    Call,
    DomainFaultError,
    EvalEnv,
    ExprError,
    Neg,
    Num,
    ParseError,
    UnknownIdentifierError,
    Var,
    differentiate,
    evaluate,
    parse,
    to_string,
    variables,
)


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
