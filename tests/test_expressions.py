import gc
import json
import sys
import weakref

import numpy as np
import pytest

from stablespec import expressions
from stablespec.expressions import (
    Constant, ExpressionError, Factor, ONE, Product, Quotient, SumOver,
    conditional_of, evaluate, free_vars, from_json, scope, simplify,
    tabulate, to_json, to_text, variables,
)
from stablespec.graph import GraphError, parse
from stablespec.scm import DiscreteJoint
from stablespec.search import InvarianceSpec, stable_candidates
from util import PAG8, PAG10, complete_pag, example_pag


def P(targets, given=()):
    return Factor(targets, given)


def simplify_free(e):
    """``simplify`` on the PAG that separates nothing: only the rewrites
    that hold in every joint."""
    return simplify(e, complete_pag(variables(e)))


class TestStructure:
    def test_scope_and_free_vars(self):
        e = Quotient(Product([P({"Y"}, {"X3"}), P({"X2"}, {"X1", "Y"})]),
                     SumOver({"Y"}, Product([P({"Y"}, {"X3"}),
                                             P({"X2"}, {"X1", "Y"})])))
        assert scope(e) == {"Y"}
        assert free_vars(e) == {"Y", "X1", "X2", "X3"}

    def test_factor_validation(self):
        with pytest.raises(ExpressionError):
            Factor(set(), {"A"})
        with pytest.raises(ExpressionError):
            Factor({"A"}, {"A"})

    def test_conditional_of_joint(self):
        e = conditional_of(P({"A", "B", "C"}), {"A"}, {"B"})
        assert e == Quotient(SumOver({"C"}, P({"A", "B", "C"})),
                             SumOver({"A", "C"}, P({"A", "B", "C"})))

    def test_json_round_trip(self):
        e = Quotient(Product([P({"Y"}, {"X3"}), Constant(2.0)]),
                     SumOver({"Y"}, P({"Y"}, {"X3"})))
        assert from_json(to_json(e)) == e

    def test_text_rendering(self):
        e = SumOver({"Y"}, Product([P({"Y"}, {"X3"}), P({"X2"}, {"X1", "Y"})]))
        assert to_text(e) == "sum_{Y} (P(Y | X3) * P(X2 | X1,Y))"


class TestEvaluate:
    def setup_method(self):
        # A fair, B depends on A
        t = np.array([[0.3, 0.2], [0.1, 0.4]])
        self.joint = DiscreteJoint(("A", "B"), t)

    def test_factor(self):
        got = evaluate(P({"B"}, {"A"}), self.joint, {"A": 0, "B": 1})
        assert got == pytest.approx(0.4)

    def test_sum_is_marginal(self):
        got = evaluate(SumOver({"A"}, P({"A", "B"})), self.joint, {"B": 0})
        assert got == pytest.approx(0.4)

    def test_quotient_and_product(self):
        e = Quotient(Product([P({"A", "B"})]), P({"A"}))
        got = evaluate(e, self.joint, {"A": 1, "B": 1})
        assert got == pytest.approx(0.4 / 0.5)

    def test_unbound_variable(self):
        with pytest.raises(ExpressionError):
            evaluate(P({"B"}, {"A"}), self.joint, {"B": 0})

    def test_normalized_conditional_matches(self):
        e = conditional_of(P({"A", "B"}), {"B"}, {"A"})
        got = evaluate(e, self.joint, {"A": 0, "B": 1})
        assert got == pytest.approx(self.joint.conditional({"B": 1}, {"A": 0}))


class TestTabulate:
    """The cell conventions of whole-table evaluation."""

    def setup_method(self):
        # A = 1 never happens; B depends on nothing
        t = np.array([[0.3, 0.7], [0.0, 0.0]])
        self.joint = DiscreteJoint(("A", "B"), t)

    def test_axes_in_sorted_name_order(self):
        rng = np.random.default_rng(2)
        joint = DiscreteJoint(("C", "A", "B"), rng.random((2, 3, 4)))
        names, values = tabulate(P({"C", "A"}, {"B"}), joint)
        assert names == ("A", "B", "C")
        assert values.shape == (3, 4, 2)
        for a, b, c in np.ndindex(*values.shape):
            want = joint.conditional({"C": c, "A": a}, {"B": b})
            assert values[a, b, c] == pytest.approx(want, abs=1e-15)

    def test_constant_is_a_scalar(self):
        names, values = tabulate(Constant(2.5), self.joint)
        assert names == () and values.shape == () and values == 2.5

    def test_given_with_probability_zero_gives_zero(self):
        names, values = tabulate(P({"B"}, {"A"}), self.joint)
        assert names == ("A", "B")
        assert values[1].tolist() == [0.0, 0.0]
        assert values[0] == pytest.approx([0.3, 0.7])

    def test_zero_over_zero_gives_zero(self):
        _, values = tabulate(Quotient(P({"A", "B"}), P({"A"})), self.joint)
        assert values[1].tolist() == [0.0, 0.0]
        assert evaluate(Quotient(P({"A", "B"}), P({"A"})), self.joint,
                        {"A": 1, "B": 0}) == 0.0

    def test_nonzero_over_zero_raises_only_where_asked(self):
        e = Quotient(P({"B"}), P({"A"}))
        _, values = tabulate(e, self.joint)
        assert np.isnan(values[1]).all()
        assert values[0] == pytest.approx([0.3, 0.7])
        assert evaluate(e, self.joint, {"A": 0, "B": 1}) == pytest.approx(0.7)
        with pytest.raises(ExpressionError, match="zero denominator"):
            evaluate(e, self.joint, {"A": 1, "B": 1})

    def test_sum_over_absent_variable_multiplies_by_cardinality(self):
        joint = DiscreteJoint(("A", "B"), np.ones((3, 2)))
        names, values = tabulate(SumOver({"A"}, P({"B"})), joint)
        assert names == ("B",)
        assert values == pytest.approx([1.5, 1.5])

    def test_unknown_variables_raise(self):
        with pytest.raises(ExpressionError, match="unknown variables"):
            tabulate(SumOver({"Q"}, P({"B"})), self.joint)
        with pytest.raises(ExpressionError, match="unknown variables"):
            tabulate(P({"B"}, {"Q"}), self.joint)

    def test_every_cell_matches_evaluate(self):
        rng = np.random.default_rng(3)
        joint = DiscreteJoint(("A", "B", "C"), rng.random((2, 3, 2)))
        e = conditional_of(Product([P({"A"}), P({"B", "C"}, {"A"})]),
                           {"C"}, {"A"})
        names, values = tabulate(e, joint)
        assert names == ("A", "C")
        for a, c in np.ndindex(*values.shape):
            assert values[a, c] == evaluate(e, joint, {"A": a, "C": c})
            assert values[a, c] == pytest.approx(
                joint.conditional({"C": c}, {"A": a}), abs=1e-15)


class TestSimplify:
    def test_cancellation(self):
        e = Quotient(Product([P({"A"}), P({"B"}, {"A"})]), P({"A"}))
        assert simplify_free(e) == P({"B"}, {"A"})

    def test_marginalize_conditional_to_one(self):
        assert simplify_free(SumOver({"X2"}, P({"X2"}, {"Y"}))) == ONE

    def test_marginalize_joint(self):
        assert simplify_free(SumOver({"A", "B"}, P({"A", "B"}))) == ONE
        assert simplify_free(SumOver({"B"}, P({"A", "B"}))) == P({"A"})

    def test_pull_out_independent_factor(self):
        e = SumOver({"Y"}, Product([P({"X3"}), P({"Y"}, {"X3"})]))
        assert simplify_free(e) == P({"X3"})

    def test_sum_over_unmentioned_variable_is_kept(self):
        e = SumOver({"V"}, P({"A"}))
        got = simplify_free(e)
        assert got == Product([P({"A"}), SumOver({"V"}, ONE)])

    def test_nested_sums_merge(self):
        e = SumOver({"A"}, SumOver({"B"}, P({"A", "B", "C"})))
        assert simplify_free(e) == P({"C"})

    def test_chain_collapse(self):
        e = SumOver({"X1"}, Product([P({"X1"}, {"E"}),
                                     P({"Y"}, {"E", "X1"})]))
        assert simplify_free(e) == P({"Y"}, {"E"})

    def test_chain_collapse_with_independence_extension(self):
        p = example_pag()
        e = SumOver({"X1"}, Product([P({"X1"}, {"E"}),
                                     P({"Y"}, {"E", "X1", "X3"})]))
        # X1 is separated from X3 given E, so the chain closes; afterwards
        # Y is separated from E given X3
        assert simplify(e, graph=p) == P({"Y"}, {"X3"})

    def test_no_collapse_without_independence(self):
        p = example_pag()
        e = SumOver({"Y"}, Product([P({"Y"}, {"X3"}), P({"X2"}, {"X1", "Y"})]))
        got = simplify(e, graph=p)
        assert isinstance(got, SumOver)

    def test_conditioning_reduction(self):
        p = example_pag()
        assert simplify(P({"X2"}, {"E", "X1", "X3", "Y"}), graph=p) == \
            P({"X2"}, {"X1", "Y"})
        # conditioning on the collider X1 keeps E relevant for Y
        assert simplify(P({"Y"}, {"E", "X1", "X3"}), graph=p) == \
            P({"Y"}, {"E", "X1", "X3"})

    def test_chain_expansion_of_joint(self):
        p = example_pag()
        got = simplify(P({"E", "X1", "X2", "X3", "Y"}), graph=p)
        assert got == Product([P({"E"}), P({"X1"}, {"E"}),
                               P({"X2"}, {"X1", "Y"}),
                               P({"X3"}),
                               P({"Y"}, {"E", "X1", "X3"})])

    def test_variable_outside_the_pag_raises(self):
        with pytest.raises(GraphError, match=r"unknown vertices: \['Q'\]"):
            simplify(P({"Y"}, {"Q"}), example_pag())

    def test_constant_folding(self):
        e = Product([Constant(2.0), Constant(3.0), P({"A"})])
        assert simplify_free(e) == Product([Constant(6.0), P({"A"})])
        assert simplify_free(Quotient(P({"A"}), ONE)) == P({"A"})

    def test_canonical_product_order_is_deterministic(self):
        a = Product([P({"Y"}, {"X3"}), P({"X2"}, {"X1", "Y"})])
        b = Product([P({"X2"}, {"X1", "Y"}), P({"Y"}, {"X3"})])
        assert simplify_free(a) == simplify_free(b)

    def test_simplify_preserves_value(self):
        # random joint over three binaries; identities must hold numerically
        rng = np.random.default_rng(4)
        t = rng.random((2, 2, 2))
        joint = DiscreteJoint(("A", "B", "C"), t)
        exprs = [
            SumOver({"B"}, Product([P({"B"}, {"A"}), P({"C"}, {"A", "B"})])),
            Quotient(Product([P({"A"}), P({"B"}, {"A"})]), P({"A"})),
            SumOver({"A", "B", "C"}, P({"A", "B", "C"})),
        ]
        for e in exprs:
            s = simplify_free(e)
            for a in range(2):
                for b in range(2):
                    for c in range(2):
                        env = {"A": a, "B": b, "C": c}
                        assert evaluate(e, joint, env) == \
                            pytest.approx(evaluate(s, joint, env), abs=1e-12)


class TestSharedSubtrees:
    """Identification builds DAGs (``conditional_of`` puts its argument in
    both sums), so the work must follow the distinct nodes, not the paths
    through them: 2**40 here."""

    DEPTH = 40

    @staticmethod
    def spy(monkeypatch, name):
        calls = []
        original = getattr(expressions, name)

        def counted(*args):
            calls.append(args[0])
            if len(calls) > 1000:
                # no traceback: it would render the arguments
                pytest.fail(f"{name} re-walks shared subtrees", pytrace=False)
            return original(*args)

        monkeypatch.setattr(expressions, name, counted)
        return calls

    def shared(self):
        e = P({"A", "B", "C"})
        for _ in range(self.DEPTH):
            s = SumOver({"C"}, e)
            e = Product([Quotient(s, s), P({"A"}, {"B"})])
        return e

    # Assertions below compare plain values: pytest's report of a failed
    # assertion would render the expression, which takes 2**40 steps.

    def test_scope_and_free_vars_read_without_a_walk(self):
        e = self.shared()
        calls, previous = [], sys.getprofile()
        sys.setprofile(lambda frame, event, arg: calls.append(event))
        try:
            got = sorted(scope(e)), sorted(free_vars(e))
        finally:
            sys.setprofile(previous)
        assert got == (["A"], ["A", "B"])
        # a walk would make a Python call per level at least
        n_calls = calls.count("call")
        assert n_calls < self.DEPTH

    @pytest.mark.parametrize("text, mutable, target",
                             [(PAG8, {"V2"}, "V0"), (PAG10, {"V4"}, "V6")],
                             ids=["PAG8", "PAG10"])
    def test_rewrite_once_per_pag_and_node(self, monkeypatch, text, mutable,
                                           target):
        # one rewrite step depends only on the node and the PAG, so a search
        # rewrites each distinct node once over every pass of every
        # expression it simplifies
        calls = []
        uncached = expressions._rewrite

        def spy(expr, graph, rewrite):
            calls.append((expr, id(graph)))   # keeps each node alive
            return uncached(expr, graph, rewrite)

        monkeypatch.setattr(expressions, "_rewrite", spy)
        pag = parse(text)
        found = stable_candidates(InvarianceSpec(pag, mutable), target)
        assert any(c.kind == "interventional" for c in found)
        assert {g for _, g in calls} == {id(pag)}
        assert len(calls) == len(set(calls))
        # a second search on the same PAG rewrites nothing
        del calls[:]
        stable_candidates(InvarianceSpec(pag, mutable), target)
        assert not calls

    def test_tabulate_once_per_node(self, monkeypatch):
        rng = np.random.default_rng(5)
        joint = DiscreteJoint(("A", "B", "C"), rng.random((2, 3, 2)))
        e = self.shared()
        # each SumOver tabulated asks for its child's free variables
        self.spy(monkeypatch, "free_vars")
        names, values = tabulate(e, joint)
        _, want = tabulate(P({"A"}, {"B"}), joint)
        assert names == ("A", "B")
        assert np.allclose(values, want, rtol=1e-12, atol=0)


class TestInterning:
    """Nodes are hash-consed: one live object per content."""

    def test_equal_content_is_one_object(self):
        a, b = P({"A", "B"}, ["C"]), P(["B", "A"], frozenset("C"))
        assert a is b
        s = SumOver(["C"], Product([a, P({"C"})]))
        assert s is SumOver({"C"}, Product(iter([b, P(["C"])])))
        q = conditional_of(s, {"A"}, {"B"})
        assert q is conditional_of(s, ["A"], ("B",))
        for e in (a, s, q, Quotient(q, ONE), Product([])):
            assert from_json(to_json(e)) is e
            assert from_json(json.loads(json.dumps(to_json(e)))) is e
        assert repr(P({"A"})) == \
            "Factor(targets=frozenset({'A'}), given=frozenset())"

    def test_constants_are_keyed_by_float_value(self):
        assert Constant(1) is Constant(1.0) is ONE
        assert Constant(2) is not Constant(3)
        assert json.dumps(to_json(Constant(1))) == \
            '{"kind": "constant", "value": 1.0}'

    def test_nodes_are_immutable(self):
        f = P({"A"}, {"B"})
        with pytest.raises(AttributeError):
            f.targets = frozenset({"C"})
        with pytest.raises(AttributeError):
            f.note = "set"
        with pytest.raises(AttributeError):
            del f.given
        assert f is P({"A"}, {"B"}) and f.targets == {"A"}

    def test_unreferenced_nodes_leave_the_table(self):
        table = expressions.Expression._interned
        gc.collect()
        before = len(table)
        leaf = P({"Unreferenced"})
        e = SumOver({"Unreferenced"}, Product([leaf, P({"A"})]))
        refs = [weakref.ref(leaf), weakref.ref(e)]
        assert len(table) >= before + 3
        del leaf, e
        gc.collect()
        assert [r() for r in refs] == [None, None]
        assert len(table) <= before
        assert (Factor, frozenset({"Unreferenced"}), frozenset()) \
            not in table

    def test_non_expressions_are_rejected(self):
        for read in (scope, free_vars, variables):
            with pytest.raises(ExpressionError):
                read(42)
        with pytest.raises(ExpressionError):
            Product([P({"A"}), 42])
        with pytest.raises(ExpressionError):
            SumOver({"A"}, "P(A)")
        with pytest.raises(ExpressionError):
            simplify(42, example_pag())
