import random
from itertools import combinations

import numpy as np
import pytest

from stablespec.expressions import (
    Factor, ONE, Product, Quotient, SumOver, conditional_of, evaluate,
    simplify, to_json,
)
from stablespec.components import pag_to_mag
from stablespec.fci import (
    SeparationOracle, fci, pooled_fci, possible_children_of_env,
)
from stablespec.graph import (
    ARROW, TAIL, GraphError, parse, possible_ancestors, serialize,
)
from stablespec.identify import (
    FAIL, InvarianceQuery, NotIdentifiable, SearchContext, _absorb,
    _eliminate, _marginal, identify_interventional, invariant_conditional,
    invariant_conditional_mag,
)
from stablespec.scm import DiscreteSCM, interventional_probability
from stablespec.search import InvarianceSpec, stable_candidates
from oracles import (
    closure_by_sets, decompose_by_sets, decompose_targets, induced,
)
from util import (
    environment_tables, example_admg, example_pag, on_masks, random_admg,
)


def P(targets, given=()):
    return Factor(targets, given)


class TestInvarianceQuery:
    def test_overlap_rejected(self):
        with pytest.raises(GraphError):
            InvarianceQuery({"A"}, {"A"}, set())
        with pytest.raises(GraphError):
            InvarianceQuery(set(), {"A"}, {"A"})

    def test_x_may_overlap_z(self):
        q = InvarianceQuery({"A"}, {"B"}, {"A"})
        assert q.x == {"A"} and q.z == {"A"}


class TestInvariantConditional:
    @pytest.mark.parametrize("checker", [invariant_conditional,
                                         invariant_conditional_mag])
    def test_running_example_queries(self, checker):
        p = example_pag()
        assert checker(p, InvarianceQuery({"X1"}, {"Y"}, {"X3"}))
        # conditioning on the collider descendant X2 opens a path into X1
        assert not checker(p, InvarianceQuery({"X1"}, {"Y"}, {"X2", "X3"}))

    @pytest.mark.parametrize("checker", [invariant_conditional,
                                         invariant_conditional_mag])
    def test_empty_intervention_is_vacuous(self, checker):
        p = example_pag()
        assert checker(p, InvarianceQuery(set(), {"Y"}, {"X3"}))

    @pytest.mark.parametrize("checker", [invariant_conditional,
                                         invariant_conditional_mag])
    def test_circle_edge_is_unstable(self, checker):
        p = parse("vars: A,B\nA o-o B\n")
        assert not checker(p, InvarianceQuery({"A"}, {"B"}, set()))

    @pytest.mark.parametrize("checker", [invariant_conditional,
                                         invariant_conditional_mag])
    def test_edgeless(self, checker):
        p = parse("vars: A,B\n")
        assert checker(p, InvarianceQuery({"A"}, {"B"}, set()))

    def test_checkers_agree_on_random_pags(self):
        # oracle PAGs of sparse random ADMGs at |V| = 8-10; for one (x, y)
        # per graph, every z up to size 4, x itself included
        rng = random.Random(20240820)
        verdicts = []
        for _ in range(30):
            g = random_admg(rng, max_vertices=10, min_vertices=8,
                            p_directed=0.15, p_bidirected=0.08, p_both=0.04)
            pag = fci(SeparationOracle(g), g.vertices)
            x, y = rng.sample(sorted(pag.vertices), 2)
            rest = sorted(set(pag.vertices) - {y})
            for k in range(5):
                for z in combinations(rest, k):
                    q = InvarianceQuery({x}, {y}, z)
                    want = invariant_conditional(pag, q)
                    assert invariant_conditional_mag(pag, q) == want, (pag, q)
                    verdicts.append(want)
        assert len(verdicts) > 4000
        assert 0.1 < sum(verdicts) / len(verdicts) < 0.9

    def test_checkers_on_learned_pags(self):
        # PAGs learned by pooled FCI from finite samples need not be valid:
        # a rule the environment's knowledge blocks leaves circles no class
        # member explains, and pag_to_mag may fall back to undirected edges.
        # There the MAG checker may refuse an invariance the path oracle
        # grants, never the reverse.
        rng = random.Random(7)
        n_queries = n_fallback = 0
        for _ in range(40):
            g = random_admg(rng, max_vertices=7, min_vertices=5,
                            p_directed=0.25, p_bidirected=0.1, p_both=0.03)
            for n in (100, 1000):
                pag = pooled_fci(environment_tables(rng, g, n))
                m = possible_children_of_env(pag, "E")
                y = rng.choice(sorted(set(pag.vertices) - m - {"E"}))
                n_fallback += any(e.mark_at_a == e.mark_at_b == TAIL
                                  for x in m
                                  for e in pag_to_mag(pag, {x}).edges)
                rest = sorted(set(pag.vertices) - {y, "E"})
                for k in range(5):
                    for z in combinations(rest, k):
                        q = InvarianceQuery(m, {y}, z)
                        if invariant_conditional_mag(pag, q):
                            assert invariant_conditional(pag, q), (pag, q)
                        n_queries += 1
        assert n_queries > 2000
        assert n_fallback > 0

    def test_checkers_agree_on_a_chordless_circle_cycle(self):
        p = parse("vars: A,B,C,D\nA o-o B\nB o-o C\nC o-o D\nA o-o D\n")
        for q in all_queries(p):
            assert invariant_conditional_mag(p, q) == \
                invariant_conditional(p, q), q

    def test_rule_blocked_by_knowledge(self):
        # V2 o-> V0 o-o E with V2, E nonadjacent: the chain rule would give
        # V0 --> E, which knowledge forbids. E has no causes, so V0 is a
        # collider between E and V2; the path oracle, finding no definite
        # status path, misses it
        p = parse("vars: E,V0,V1,V2\nE o-o V0\nE o-o V1\nV1 o-> V0\n"
                  "V2 o-> V0\n")
        q = InvarianceQuery({"E"}, {"V2"}, {"V0"})
        assert not invariant_conditional_mag(p, q)
        assert invariant_conditional(p, q)
        for q in all_queries(p):
            if invariant_conditional_mag(p, q):
                assert invariant_conditional(p, q), q


def all_queries(p):
    """Every single-vertex x and y with every z not containing y."""
    vs = sorted(p.vertices)
    for x in vs:
        for y in vs:
            if y == x:
                continue
            rest = [v for v in vs if v != y]
            for k in range(len(rest) + 1):
                for z in combinations(rest, k):
                    yield InvarianceQuery({x}, {y}, z)


class TestDecompose:
    def test_empty_targets(self):
        assert decompose_targets(example_pag(), set(), {"X1"}) == []

    def test_running_example_fixture(self):
        got = decompose_targets(example_pag(), {"Y", "X2", "X3"}, {"X1"})
        assert got == [({"Y", "X2", "X3"}, {"X1"})]

    def test_disconnected_halves_split(self):
        p = parse("vars: A,B,C,D\nA o-> B\nC o-> D\n")
        got = decompose_targets(p, {"A", "B", "C", "D"}, set())
        assert len(got) == 2
        assert {frozenset(t) for t, _ in got} == \
            {frozenset({"A", "B"}), frozenset({"C", "D"})}

    def test_overlap_rejected(self):
        with pytest.raises(GraphError):
            decompose_targets(example_pag(), {"Y"}, {"Y"})


class TestAbsorbBuckets:
    def test_singleton_buckets_are_no_ops(self):
        ix, inv, t, z = on_masks(example_pag(), {"Y"}, {"X2", "X3"})
        assert _absorb(ix, inv, t, z) == (t, z)

    def test_straddling_bucket_with_target_parent_fails(self):
        p = parse("vars: A,B,C\nA o-o B\nB --> C\n")
        with pytest.raises(NotIdentifiable):
            _absorb(*on_masks(p, {"C"}, {"A"}))

    def test_full_scope_is_no_op(self):
        p = parse("vars: A,B,C\nA o-o B\nB --> C\n")
        ix, inv, t, z = on_masks(p, {"B", "C"}, {"A"})
        assert _absorb(ix, inv, t, z) == (t, z)

    def test_absorbable_bucket_extends_z(self):
        # bucket {A,B} straddles t | z; its outside part has no possible
        # parent in t, so it is folded into z
        p = parse("vars: A,B,C\nA o-o B\n")
        ix, inv, t, z = on_masks(p, {"C"}, {"A"})
        assert _absorb(ix, inv, t, z) == (t, ix.mask({"A", "B"}))


class TestEliminateBucket:
    def test_running_example_bucket(self):
        p = example_pag()
        v = frozenset(p.vertices)
        q = Factor(v)
        got = _eliminate(p, *on_masks(p, v, {"X2"}), q)
        chain = conditional_of(q, {"X2"}, v - {"X2"})
        assert got == Product([Quotient(q, chain), SumOver({"X2"}, chain)])

    def test_whole_graph_bucket_collapses_to_one(self):
        p = parse("vars: A,B\nA o-o B\n")
        got = _eliminate(p, *on_masks(p, {"A", "B"}, {"A", "B"}),
                         Factor({"A", "B"}))
        assert simplify(got, p) == ONE

    def test_possible_child_outside_bucket_fails(self):
        p = parse("vars: A,B\nA o-> B\n")
        with pytest.raises(NotIdentifiable):
            _eliminate(p, *on_masks(p, {"A", "B"}, {"A"}), Factor({"A", "B"}))


class TestIdentifyMarginal:
    def test_empty_is_one(self):
        p = example_pag()
        assert _marginal(p, *on_masks(p, set(), {"Y"}), Factor({"Y"})) is ONE

    def test_full_set_is_identity(self):
        p = example_pag()
        q = Factor({"Y", "X3"})
        assert _marginal(p, *on_masks(p, {"Y", "X3"}, {"Y", "X3"}), q) is q

    def test_running_example_step(self):
        p = example_pag()
        q = Factor({"Y", "X3", "X2"})
        got = _marginal(p, *on_masks(p, {"Y", "X3"}, {"Y", "X3", "X2"}), q)
        chain = conditional_of(q, {"X2"}, {"Y", "X3"})
        assert got == Product([Quotient(q, chain), SumOver({"X2"}, chain)])


class TestIdentifyInterventional:
    def test_running_example_expression(self):
        p = example_pag()
        got = identify_interventional(p, {"X1"}, {"Y"}, {"X2", "X3"})
        inner = Product([P({"X2"}, {"X1", "Y"}), P({"Y"}, {"X3"})])
        assert got == Quotient(inner, SumOver({"Y"}, inner))

    def test_empty_intervention_is_conditional(self):
        p = example_pag()
        got = identify_interventional(p, set(), {"Y"}, {"X3"})
        assert got == P({"Y"}, {"X3"})

    def test_circle_component_fails(self):
        p = parse("vars: A,B\nA o-o B\n")
        assert identify_interventional(p, {"A"}, {"B"}, set()) is FAIL

    def test_disjointness_enforced(self):
        p = example_pag()
        with pytest.raises(GraphError):
            identify_interventional(p, {"Y"}, {"Y"}, set())

    def test_expression_matches_oracle_on_running_example(self):
        p = example_pag()
        expr = identify_interventional(p, {"X1"}, {"Y"}, {"X2", "X3"})
        for seed in range(5):
            scm = DiscreteSCM.random_for_admg(example_admg(), seed=seed)
            joint = scm.joint()
            for y in (0, 1):
                for x1 in (0, 1):
                    for x2 in (0, 1):
                        for x3 in (0, 1):
                            want = interventional_probability(
                                scm, {"X1": x1}, {"Y": y},
                                {"X2": x2, "X3": x3})
                            env = {"Y": y, "X1": x1, "X2": x2, "X3": x3}
                            got = evaluate(expr, joint, env)
                            assert got == pytest.approx(want, abs=1e-9)

    def test_targets_split_across_pieces(self):
        # identify_interventional stops decomposing once the pieces meeting
        # y cover y; the answer equals one built from every piece
        def relevant(p, x, y, z):
            d = possible_ancestors(induced(p, set(p.vertices) - x), y | z) - z
            return [piece for piece in decompose_targets(p, d, z)
                    if piece[0] & y]

        def from_every_piece(p, x, y, z):
            q = Factor(frozenset(p.vertices))
            factors = []
            try:
                for di, zi in relevant(p, x, y, z):
                    ix, inv, t, c = on_masks(p, di, zi)
                    t, c = _absorb(ix, inv, t, c)
                    e = _marginal(p, ix, inv, t | c, ix.all, q)
                    di = ix.names_of(t)
                    factors.append(Quotient(SumOver(di - y, e),
                                            SumOver(di, e)))
            except NotIdentifiable:
                return FAIL
            return simplify(Product(factors), graph=p)

        def answer(e):
            return "FAIL" if e is FAIL else to_json(e)

        rng = random.Random(20261018)
        split = 0
        for _ in range(6):
            g = random_admg(rng, max_vertices=6, min_vertices=5)
            pag = fci(SeparationOracle(g), g.vertices)
            for x in pag.vertices:
                for y in map(set, combinations(
                        sorted(set(pag.vertices) - {x}), 2)):
                    rest = sorted(set(pag.vertices) - {x} - y)
                    for z in map(set, combinations(rest, min(2, len(rest)))):
                        want = from_every_piece(pag, {x}, y, z)
                        got = identify_interventional(pag, {x}, y, z)
                        assert answer(got) == answer(want)
                        split += want is not FAIL and \
                            len(relevant(pag, {x}, y, z)) > 1
        assert split

    def test_soundness_on_random_graphs(self):
        # when identification succeeds on a learned PAG, the expression must
        # reproduce the exact interventional conditional of the true model
        rng = random.Random(20240821)
        checked = 0
        for i in range(40):
            g = random_admg(rng, max_vertices=5)
            if len(g.vertices) < 3:
                continue
            pag = fci(SeparationOracle(g), g.vertices)
            vs = list(g.vertices)
            rng.shuffle(vs)
            x, y = {vs[0]}, {vs[1]}
            z = set(vs[2:2 + rng.randint(0, 2)])
            expr = identify_interventional(pag, x, y, z)
            if expr is FAIL:
                continue
            scm = DiscreteSCM.random_for_admg(g, seed=1000 + i)
            joint = scm.joint()
            names = sorted(g.vertices)
            for bits in range(2 ** len(names)):
                env = {v: (bits >> k) & 1 for k, v in enumerate(names)}
                try:
                    want = interventional_probability(
                        scm, {v: env[v] for v in x}, {v: env[v] for v in y},
                        {v: env[v] for v in z})
                except Exception:
                    continue
                got = evaluate(expr, joint, env)
                assert got == pytest.approx(want, abs=1e-9), (g, x, y, z)
            checked += 1
        assert checked >= 10

    def test_stable_conditionals_match_plain_conditionals(self):
        # whenever the invariance checker accepts P(Y|Z) under shifts of X1,
        # the identified interventional conditional equals P(Y|Z)
        p = example_pag()
        scm = DiscreteSCM.random_for_admg(example_admg(), seed=11)
        joint = scm.joint()
        for z in ({}, {"X3"}):
            q = InvarianceQuery({"X1"}, {"Y"}, set(z))
            assert invariant_conditional(p, q)
            expr = identify_interventional(p, {"X1"}, {"Y"}, set(z))
            assert expr is not FAIL
            for y in (0, 1):
                for zv in (0, 1):
                    env = {"Y": y, **{v: zv for v in z}}
                    want = joint.conditional({"Y": y},
                                             {v: zv for v in z}) if z else \
                        joint.prob({"Y": y})
                    env.update({"X1": 0, "X2": 0, "X3": zv if z else 0})
                    got = evaluate(expr, joint, env)
                    assert got == pytest.approx(want, abs=1e-9)

    def test_mechanism_shift_invariance_of_identified_expression(self):
        # the identified P_{X1}(Y | X2, X3) must not move when only the
        # mechanism of X1 changes
        p = example_pag()
        expr = identify_interventional(p, {"X1"}, {"Y"}, {"X2", "X3"})
        base = DiscreteSCM.random_for_admg(example_admg(), seed=5)
        shifted = base.random_mechanism("X1", seed=99)
        jb, js = base.joint(), shifted.joint()
        for bits in range(16):
            env = {"Y": bits & 1, "X1": (bits >> 1) & 1,
                   "X2": (bits >> 2) & 1, "X3": (bits >> 3) & 1}
            assert evaluate(expr, jb, env) == \
                pytest.approx(evaluate(expr, js, env), abs=1e-9)

    def test_not_expressible_as_any_plain_conditional(self):
        # the running-example interventional conditional differs from every
        # P(Y|W): genuinely more than observational conditioning
        p = example_pag()
        expr = identify_interventional(p, {"X1"}, {"Y"}, {"X2", "X3"})
        scm = DiscreteSCM.random_for_admg(example_admg(), seed=23)
        joint = scm.joint()
        others = ["E", "X1", "X2", "X3"]
        for r in range(len(others) + 1):
            for w in combinations(others, r):
                disagrees = False
                for bits in range(32):
                    env = {"Y": bits & 1, "E": (bits >> 1) & 1,
                           "X1": (bits >> 2) & 1, "X2": (bits >> 3) & 1,
                           "X3": (bits >> 4) & 1}
                    lhs = evaluate(expr, joint, env)
                    rhs = joint.conditional({"Y": env["Y"]},
                                            {v: env[v] for v in w}) if w \
                        else joint.prob({"Y": env["Y"]})
                    if abs(lhs - rhs) > 1e-6:
                        disagrees = True
                        break
                assert disagrees, f"matched plain conditional given {w}"


# Arrowheads that close a directed cycle: no MAG has these marks.
CYCLIC_PAG = "vars: A,B,C,D\nA --> B\nB --> C\nC --> A\nD o-> A\n"


def answer(expr):
    return "FAIL" if expr is FAIL else to_json(expr)


def all_subsets(vs):
    vs = sorted(vs)
    return [set(c) for k in range(len(vs) + 1) for c in combinations(vs, k)]


class TestSearchContext:
    """One context answers every conditioning set of a search as the
    single-query functions answer each set on a fresh, equal PAG."""

    def test_every_key_equals_a_single_query(self):
        rng = random.Random(11)
        for _ in range(40):
            admg = random_admg(rng, max_vertices=8, min_vertices=5)
            p = fci(SeparationOracle(admg), admg.vertices)
            *mutable, target = rng.sample(sorted(p.vertices),
                                          rng.randint(2, 3))
            fresh = parse(serialize(p))
            ix = p.masks()
            m, y = ix.mask(mutable), ix.bit[target]
            context = SearchContext(p, m)
            outside_m = induced(p, set(p.vertices) - set(mutable))
            for z in all_subsets(set(p.vertices) - set(mutable) - {target}):
                zm = ix.mask(z)
                assert context.invariant(y, zm) == invariant_conditional_mag(
                    fresh, InvarianceQuery(mutable, {target}, z))
                assert answer(context.identify(y, zm)) == answer(
                    identify_interventional(fresh, mutable, {target}, z))
                d = closure_by_sets(outside_m, z | {target},
                                    lambda here, there: there != ARROW) - z
                assert [(ix.names_of(ti), ix.names_of(zi)) for ti, zi in
                        context.decompose(ix.mask(d), zm)] == \
                    decompose_by_sets(p, d, z)

    def test_no_mag_fits_raises_graph_error(self):
        p = parse(CYCLIC_PAG)
        for mutable, target in (({"D"}, "B"), ({"A"}, "C")):
            with pytest.raises(GraphError, match="close a directed cycle"):
                stable_candidates(InvarianceSpec(p, mutable), target)
        context = SearchContext(p, p.masks().mask({"D"}))
        for _ in range(2):   # the failed check is not kept as passed
            with pytest.raises(GraphError, match="close a directed cycle"):
                context.identify(p.masks().bit["B"], 0)

