"""Tableau prover: worked proofs, countermodels, model extraction, verification."""

import copy
import hashlib
import json
import pickle
import sys
import time
from collections import Counter

import pytest

from partlog.core import _components, top
from partlog.corpus import formula_corpus
from partlog.formula import Atom, desugar, parse, subformulas
from partlog.semantics import (
    Assignment, canonical_universe, check_partition_tautology, eval_formula, omega,
)
from partlog.tableau import (
    F, Branch, BranchClosed, BranchIncomplete, ProofTrace, ProverConfig,
    ProverOutcome, SignedStatement, TraceStep, _Prover, extract_model,
    outcome_to_json, prove, replay_trace, stmt, trace_to_json, verify_outcome,
    VerificationFailed,
)

MODUS_PONENS = parse("(s /\\ (s => p)) => p")
PEIRCE = parse("((s => p) => s) => s")


class TestProveGoldens:
    def test_k_axiom_is_proved(self):
        assert prove(parse("p => (s => p)")).verdict == "proved"

    def test_meet_modus_ponens_is_proved(self):
        assert prove(parse("(s /\\ (s => p)) => (s /\\ p)")).verdict == "proved"

    def test_peirce_gives_the_canonical_countermodel(self):
        out = prove(PEIRCE)
        assert out.verdict == "countermodel"
        assert out.pair == ("u0", "u1")
        s = out.assignment.bindings["s"]
        p = out.assignment.bindings["p"]
        assert s.blocks == (("u0", "u1"), ("u2",))
        assert p.is_bottom()  # pi is the blob

    def test_weak_excluded_middle_for_pi_negation_is_proved(self):
        assert prove(parse("(s => p) \\/ ((s => p) => p)")).verdict == "proved"

    def test_uncurried_meet_form_gives_the_canonical_countermodel(self):
        out = prove(parse("s => ((s => p) => (s /\\ p))"))
        assert out.verdict == "countermodel"
        assert out.assignment.bindings["s"].blocks == (("u0", "u2"), ("u1",))
        assert out.assignment.bindings["p"].blocks == (("u0",), ("u1", "u2"))

    def test_modus_ponens_and_nand_orthogonality_proved(self):
        assert prove(MODUS_PONENS).verdict == "proved"
        assert prove(parse("(s | t) | (s /\\ t)")).verdict == "proved"

    def test_negation_bearing_formulas(self):
        # non-contradiction for 0-negation, and the weak excluded middle
        assert prove(parse("~(s /\\ ~s)")).verdict == "proved"
        assert prove(parse("~s \\/ ~~s")).verdict == "proved"
        # plain excluded middle is not a (strict) partition tautology
        out = prove(parse("s \\/ ~s"))
        assert out.verdict == "countermodel"
        assert verify_outcome(parse("s \\/ ~s"), out)

    def test_devils_formula_terminates_with_finite_countermodel(self):
        f = parse("~~((s /\\ t) \\/ (s | t))")
        out = prove(f, ProverConfig(max_elements=5))
        assert out.verdict == "countermodel"
        assert verify_outcome(f, out)
        a = out.assignment
        assert a.universe.size == 5
        from partlog.core import meet, nand, bottom
        s, t = a.bindings["s"], a.bindings["t"]
        assert meet(s, t) == bottom(a.universe) == nand(s, t)

    def test_unknown_on_tiny_budgets(self):
        out = prove(parse("~~((s /\\ t) \\/ (s | t))"),
                    ProverConfig(max_elements=2))
        assert out.verdict == "unknown" and out.reason == "max_elements"
        out = prove(parse("(s /\\ (s => p)) => (s /\\ p)"),
                    ProverConfig(max_steps=5))
        assert out.verdict == "unknown" and out.reason == "max_steps"

    def test_constant_roots(self):
        assert prove(parse("1")).verdict == "proved"
        assert prove(parse("0")).verdict == "countermodel"

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ProverConfig(max_elements=1)


class TestExtractModel:
    def test_devils_branch_at_stage_three(self):
        # atomic F-statements of the Devil's tableau stopped at U_3 = {0..4}
        root = desugar(parse("~~((s /\\ t) \\/ (s | t))"))
        s, t = Atom("s"), Atom("t")
        statements = {}
        for k, item in enumerate([stmt(0, 2, "F", s), stmt(0, 4, "F", s),
                                  stmt(2, 4, "F", s), stmt(1, 2, "F", t),
                                  stmt(3, 4, "F", t)]):
            statements[item] = k
        br = Branch(root=root, n_elements=5, statements=statements)
        model = extract_model(br)
        assert model.bindings["s"].blocks == (("u0", "u2", "u4"), ("u1",), ("u3",))
        assert model.bindings["t"].blocks == (("u0",), ("u1", "u2"), ("u3", "u4"))

    def test_branch_without_atomic_f_statements_maps_atoms_to_top(self):
        root = desugar(parse("s \\/ t"))
        br = Branch(root=root, n_elements=2,
                    statements={stmt(0, 1, "T", Atom("s")): 0})
        model = extract_model(br)
        u = canonical_universe(2)
        assert model.bindings["s"] == top(u)
        assert model.bindings["t"] == top(u)

    def test_closed_branch_rejected(self):
        br = Branch(root=Atom("s"), n_elements=2,
                    statements={stmt(0, 1, "T", Atom("s")): 0,
                                stmt(0, 1, "F", Atom("s")): 1})
        with pytest.raises(BranchClosed):
            extract_model(br)

    def test_incomplete_branch_rejected(self):
        # an unexpanded F-join is a pending rule application
        root = desugar(parse("s \\/ t"))
        br = Branch(root=root, n_elements=2,
                    statements={stmt(0, 1, "F", root): 0})
        with pytest.raises(BranchIncomplete):
            extract_model(br)


class TestBranchPredicates:
    def test_closed_and_complete_predicates(self):
        from partlog.tableau import branch_is_closed, branch_is_complete
        s = Atom("s")
        open_done = Branch(root=s, n_elements=2,
                           statements={stmt(0, 1, "T", s): 0})
        assert not branch_is_closed(open_done)
        assert branch_is_complete(open_done)
        assert open_done.element_names() == ("u0", "u1")
        contradictory = Branch(root=s, n_elements=2,
                               statements={stmt(0, 1, "T", s): 0,
                                           stmt(0, 1, "F", s): 1})
        assert branch_is_closed(contradictory)
        # missing F-transitivity conclusion: (u0,u2) and (u2,u1) without (u0,u1)
        unsaturated = Branch(root=s, n_elements=3,
                             statements={stmt(0, 2, "F", s): 0,
                                         stmt(1, 2, "F", s): 1})
        assert not branch_is_complete(unsaturated)
        assert unsaturated.pending() == [("F-transitivity", stmt(0, 1, "F", s))]
        assert stmt(1, 0, "T", s) == stmt(0, 1, "T", s)  # symmetry by storage

    def test_statement_validation(self):
        with pytest.raises(ValueError):
            stmt(1, 1, "T", Atom("s"))
        with pytest.raises(ValueError):
            SignedStatement(2, 1, "T", Atom("s"))
        with pytest.raises(ValueError):
            SignedStatement(0, 1, "X", Atom("s"))


class TestSignedStatement:
    """A statement is the validated tuple (i, j, sign, formula)."""

    IMPL = desugar(parse("s => t"))

    def test_a_plain_tuple_finds_the_statement_in_a_branch(self):
        s = stmt(0, 1, "T", self.IMPL)
        br = Branch(root=self.IMPL, n_elements=2, statements={s: 7})
        assert br.statements[0, 1, "T", self.IMPL] == 7
        assert (0, 1, "F", self.IMPL) not in br.statements
        assert br.holds(1, 0, "T", self.IMPL)

    def test_equals_and_hashes_like_its_field_tuple(self):
        s = stmt(1, 0, "F", self.IMPL)
        assert s == (0, 1, "F", self.IMPL) and (0, 1, "F", self.IMPL) == s
        assert hash(s) == hash((0, 1, "F", self.IMPL))
        assert s != (0, 1, "T", self.IMPL)
        assert (s.i, s.j, s.sign, s.formula) == (0, 1, "F", self.IMPL)

    @pytest.mark.parametrize("copier", [
        lambda s: pickle.loads(pickle.dumps(s)), copy.copy, copy.deepcopy,
    ], ids=["pickle", "copy", "deepcopy"])
    def test_pickle_and_copy_round_trip(self, copier):
        s = stmt(0, 2, "T", self.IMPL)
        back = copier(s)
        assert type(back) is SignedStatement
        assert back == s and hash(back) == hash(s)
        assert back.formula is self.IMPL

    def test_unpickling_validates(self):
        forged = pickle.dumps(stmt(0, 1, "T", Atom("s")), 0).replace(b"I0\n", b"I5\n")
        with pytest.raises(ValueError):
            pickle.loads(forged)

    @pytest.mark.parametrize("act", [
        lambda s: setattr(s, "i", 5), lambda s: setattr(s, "formula", Atom("t")),
        lambda s: setattr(s, "extra", 1), lambda s: delattr(s, "sign"),
    ], ids=["assign-i", "assign-formula", "new-attribute", "delete-sign"])
    def test_fields_are_read_only(self, act):
        s = stmt(0, 1, "T", Atom("s"))
        with pytest.raises(AttributeError):
            act(s)
        assert s == (0, 1, "T", Atom("s"))

    def test_repr_match_and_opposite(self):
        s = stmt(0, 1, "T", Atom("s"))
        assert repr(s) == ("SignedStatement(i=0, j=1, sign='T', "
                           "formula=Atom(name='s'))")
        match s:
            case SignedStatement(i, j, sign, f):
                assert (i, j, sign, f) == (0, 1, "T", Atom("s"))
            case _:
                pytest.fail("no match")
        assert s.opposite() == stmt(0, 1, "F", Atom("s"))
        assert type(s.opposite()) is SignedStatement


class TestWorklist:
    def test_pending_reports_owed_rules_and_drains_on_completion(self):
        root = desugar(parse("s \\/ t"))
        br = Branch(root=root, n_elements=2,
                    statements={stmt(0, 1, "F", root): 0})
        owed = br.pending()
        assert ("F-or", stmt(0, 1, "F", root)) in owed
        s, t = Atom("s"), Atom("t")
        br.add(stmt(0, 1, "F", s), 1)
        br.add(stmt(0, 1, "F", t), 2)
        assert br.pending() == []

    def test_pending_flags_unwitnessed_falsifying_chains(self):
        f = desugar(parse("s => t"))
        br = Branch(root=f, n_elements=2,
                    statements={stmt(0, 1, "F", f): 0})
        assert [kind for kind, _ in br.pending()] == ["falsifying-chain"]

    def test_pending_names_the_owed_t_or_rule(self):
        f = desugar(parse("s \\/ t"))
        br = Branch(root=f, n_elements=2,
                    statements={stmt(0, 1, "T", f): 0})
        assert br.pending() == [("T-or", stmt(0, 1, "T", f))]


class TestBranchIndexes:
    """The prover's incremental branch indexes against the same indexes
    recomputed from the branch's statements, on every branch it develops."""

    @staticmethod
    def check(br):
        graphs = {}
        for s in br.statements:
            if s.sign == F:
                graphs.setdefault(s.formula, []).append((s.i, s.j))
        assert {f: list(p) for f, p in br.f_graphs.items()} == graphs
        assert list(br.f_graphs) == list(graphs)   # first appearance
        for f, pairs in graphs.items():
            comp = _components(br.n_elements, pairs)
            assert br.f_components(f) == comp
            if f not in br.f_dirty:
                # a clean F-graph is transitively closed
                blocks = Counter(comp)
                assert len(pairs) == sum(m * (m - 1) // 2 for m in blocks.values())
        rebuilt = Branch(br.root, br.id, br.n_elements, dict(br.statements),
                         set(br.processed), br.closed)
        assert rebuilt.unsaturated == br.unsaturated
        assert list(rebuilt.one_shot) == list(br.one_shot)
        assert rebuilt.pending() == br.pending()

    def test_indexes_match_a_rebuild_on_every_developed_branch(self, monkeypatch):
        develop = _Prover._develop
        seen = Counter()

        def checked(prover, br):
            self.check(br)
            result = develop(prover, br)
            self.check(br)
            seen[result if isinstance(result, str) else "split"] += 1
            return result

        monkeypatch.setattr(_Prover, "_develop", checked)
        for f in formula_corpus(seed=5, count=40, max_depth=3):
            prove(f, ProverConfig(max_elements=5, max_steps=2000))
        assert seen["split"] and seen["closed"] and seen["open"]

    @pytest.mark.parametrize("act", ["add", "mark", "saturate"])
    def test_a_child_shares_no_mutable_index_with_its_parent(self, act):
        s, t = Atom("s"), Atom("t")
        s_or_t, p_or_q = desugar(parse("s \\/ t")), desugar(parse("p \\/ q"))
        # an unexpanded F-or, an unmarked T-or and an F-graph with a gap
        parent = Branch(root=s_or_t, n_elements=3, statements={
            stmt(0, 1, F, s_or_t): 0, stmt(0, 2, "T", p_or_q): 1,
            stmt(0, 2, F, s): 2, stmt(1, 2, F, s): 3})
        names = ("statements", "processed", "f_graphs", "f_dirty",
                 "unsaturated", "one_shot")
        before = {name: copy.deepcopy(getattr(parent, name)) for name in names}
        child = parent.child(1)
        if act == "add":
            for k, new in enumerate([stmt(1, 2, F, t), stmt(1, 2, "T", p_or_q),
                                     stmt(1, 2, F, s_or_t)]):
                child.add(new, 4 + k)
        elif act == "mark":
            child.mark(stmt(0, 2, "T", p_or_q))
        else:
            _Prover(s_or_t, ProverConfig())._saturate(child)
        assert any(getattr(child, name) != before[name] for name in names)
        for name in names:
            assert getattr(parent, name) == before[name], name


class TestRecursionLimit:
    def test_prove_leaves_the_recursion_limit_alone(self):
        # pin a known limit, so the check does not depend on what ran before
        saved = sys.getrecursionlimit()
        sys.setrecursionlimit(3000)
        try:
            prove(parse("~~((s /\\ t) \\/ (s | t))"))
            assert sys.getrecursionlimit() == 3000
        finally:
            sys.setrecursionlimit(saved)


class TestEquivalenceChain:
    def test_eleven_links_run_out_of_steps_quickly(self):
        # every statement lookup hashes a formula: a hash that walks the
        # tree takes seconds here
        f = parse(" <=> ".join(["s"] * 12))
        start = time.perf_counter()
        out = prove(f, ProverConfig(4, 300))
        assert time.perf_counter() - start < 0.5
        assert (out.verdict, out.reason) == ("unknown", "max_steps")


class TestTraceGolden:
    """The bytes of ``prove --trace`` JSON on a seeded corpus, lemma on and
    off, including budget-exhausted runs."""

    DIGEST = "65c7a4ab6c39ca731178952d408e127c12c1962f2cffd7327940172fa91ecd27"

    def test_trace_bytes_are_pinned(self):
        digest = hashlib.sha256()
        verdicts = Counter()
        for lemma in (True, False):
            cfg = ProverConfig(max_elements=5, max_steps=300,
                               use_branch_closing_lemma=lemma)
            for f in formula_corpus(seed=3, count=30, max_depth=3,
                                    atom_names=("s", "t")):
                out = prove(desugar(f), cfg)
                verdicts[out.verdict] += 1
                digest.update(json.dumps(outcome_to_json(out, include_trace=True),
                                         sort_keys=True).encode())
        assert verdicts == {"proved": 6, "countermodel": 44, "unknown": 10}
        assert digest.hexdigest() == self.DIGEST


class TestDepthFourCorpusGolden:
    """The bytes of ``prove --trace`` JSON on depth-4 formulas under a larger
    step budget: long developments, where the branch indexes see many
    statements and stages."""

    DIGEST = "101229a07948daf5b43c276e71ce52326f51492b63c0e970c66d284c534a7a5b"

    def test_trace_bytes_are_pinned(self):
        digest = hashlib.sha256()
        verdicts = Counter()
        steps = 0
        for f in formula_corpus(3, 40, max_depth=4):
            out = prove(f, ProverConfig(5, 3000))
            verdicts[out.verdict] += 1
            steps += len(out.trace.steps)
            digest.update(json.dumps(outcome_to_json(out, include_trace=True),
                                     sort_keys=True).encode())
        assert verdicts == {"proved": 6, "countermodel": 28, "unknown": 6}
        assert steps == 15_353
        assert digest.hexdigest() == self.DIGEST


class TestVerifyOutcome:
    def test_real_countermodel_verifies(self):
        out = prove(PEIRCE)
        assert verify_outcome(PEIRCE, out) is True

    def test_real_proof_verifies(self):
        out = prove(MODUS_PONENS)
        assert verify_outcome(MODUS_PONENS, out) is True

    def test_fabricated_countermodel_fails(self):
        u = canonical_universe(2)
        fake = ProverOutcome("countermodel", None,
                             Assignment(u, {"s": top(u), "p": top(u)}),
                             ("u0", "u1"))
        assert verify_outcome(MODUS_PONENS, fake) is False

    def test_fabricated_trace_fails_replay(self):
        out = prove(MODUS_PONENS)
        # splice a step whose premise does not exist yet
        bad = ProofTrace(out.trace.statements, out.trace.parents,
                         [out.trace.steps[0]] +
                         [type(out.trace.steps[0])("T-and", (10 ** 6,), (), 0)] +
                         out.trace.steps[1:])
        fake = ProverOutcome("proved", bad)
        assert verify_outcome(MODUS_PONENS, fake) is False
        with pytest.raises(VerificationFailed):
            replay_trace(bad)

    @pytest.mark.parametrize("other", [omega(3), parse("s")], ids=["omega3", "s"])
    def test_a_proof_of_another_formula_fails(self, other):
        out = prove(parse("(s /\\ (s => t)) => t"))
        assert verify_outcome(parse("(s /\\ (s => t)) => t"), out) is True
        assert verify_outcome(other, out) is False

    def test_a_proof_must_start_from_its_root_step(self):
        out = prove(MODUS_PONENS)
        root, rest = out.trace.steps[0], out.trace.steps[1:]
        for steps in ([], rest, [TraceStep("T-and", root.premises, root.conclusions, 0)]
                      + rest):
            fake = ProverOutcome("proved", ProofTrace(out.trace.statements,
                                                      out.trace.parents, steps))
            assert verify_outcome(MODUS_PONENS, fake) is False
        assert verify_outcome(MODUS_PONENS, ProverOutcome("proved")) is False

    def test_a_constant_root_proof_verifies(self):
        out = prove(parse("1"))
        assert out.trace.statements == []
        assert verify_outcome(parse("1"), out) is True
        assert verify_outcome(parse("s => s"), out) is False

    @staticmethod
    def two_premise_closes(trace):
        return [k for k, st in enumerate(trace.steps)
                if st.rule == "close" and len(st.premises) == 2]

    @staticmethod
    def forged(trace, k, premises):
        steps = list(trace.steps)
        steps[k] = TraceStep("close", premises, (), steps[k].branch)
        return ProofTrace(trace.statements, trace.parents, steps)

    def test_a_close_must_cite_a_contradiction(self):
        # "s => s", and the first seed-0 depth-4 proof that closes on a pair
        cfg = ProverConfig(5, 300)
        deep = next((g, out) for g in formula_corpus(0, 200, max_depth=4,
                                                     atom_names=("s", "t"))
                    for out in [prove(g, cfg)]
                    if out.verdict == "proved" and self.two_premise_closes(out.trace))
        for f, out in ((parse("s => s"), prove(parse("s => s"))), deep):
            closes = self.two_premise_closes(out.trace)
            assert closes and verify_outcome(f, out) is True
            k = closes[0]
            a, b = out.trace.steps[k].premises
            for premises in ((0, 0), (a, a), (0, b), (a,), (a, b, b)):
                bad = self.forged(out.trace, k, premises)
                with pytest.raises(VerificationFailed, match="contradiction"):
                    replay_trace(bad)
                assert verify_outcome(f, ProverOutcome("proved", bad)) is False
            replay_trace(self.forged(out.trace, k, (b, a)))     # either order


def _elements_of_statement(s: SignedStatement):
    return {s.i, s.j}


def _fresh_elements_by_rule(trace: ProofTrace):
    """Per trace step: how many elements appear for the first time on that
    branch lineage in the step's conclusions."""
    def ancestors(b):
        out = set()
        while b != -1:
            out.add(b)
            b = trace.parents[b]
        return out

    out = []
    for step in trace.steps:
        if not step.conclusions:
            continue
        vis = ancestors(step.branch)
        first = min(step.conclusions)
        known = {0, 1}
        for sid, (s, b) in enumerate(trace.statements):
            if sid >= first:
                break
            if b in vis:
                known |= _elements_of_statement(s)
        fresh = set()
        for cid in step.conclusions:
            fresh |= _elements_of_statement(trace.statements[cid][0]) - known
        out.append((step.rule, len(fresh)))
    return out


class TestRuleDiscipline:
    def test_chain_length_caps_per_rule(self):
        caps = {"F-impl": 1, "F-nand": 3, "root": 0, "F-or": 0, "T-and": 0,
                "F-transitivity": 0, "T-or": 0, "T-impl": 0, "T-nand": 0,
                "T-anti-transitivity": 0}
        for text in ["(s /\\ (s => p)) => (s /\\ p)",
                     "((s => p) => s) => s",
                     "(s | t) | (s /\\ t)",
                     "~~((s /\\ t) \\/ (s | t))",
                     "~(s /\\ ~s)"]:
            f = parse(text)
            out = prove(f, ProverConfig(max_elements=5, max_steps=100_000))
            and_cap = len(subformulas(desugar(f)))
            for rule, fresh in _fresh_elements_by_rule(out.trace):
                cap = caps.get(rule, and_cap if rule == "F-and" else 0)
                if rule == "F-and":
                    cap = and_cap
                assert fresh <= cap, (text, rule, fresh)

    def test_traces_replay_and_statements_only_accumulate(self):
        for text in ["(s /\\ (s => p)) => p", "p => (s => p)",
                     "(s | t) | (s /\\ t)"]:
            out = prove(parse(text))
            assert out.verdict == "proved"
            replay_trace(out.trace)  # raises on any violation


class TestSoundnessOnCorpus:
    CFG = ProverConfig(max_elements=5, max_steps=40_000)

    @pytest.mark.parametrize("seed", [1, 2])
    def test_prove_agrees_with_exhaustive_search(self, seed):
        for f in formula_corpus(seed=seed, count=25, max_depth=3,
                                atom_names=("s", "t")):
            g = desugar(f)
            out = prove(g, self.CFG)
            if out.verdict == "proved":
                assert not check_partition_tautology(g, 3).is_countermodel, f
            elif out.verdict == "countermodel":
                assert verify_outcome(g, out), f

    def test_lemma_pruning_does_not_change_verdicts(self):
        on = ProverConfig(max_elements=5, max_steps=60_000)
        off = ProverConfig(max_elements=5, max_steps=60_000,
                           use_branch_closing_lemma=False)
        for f in formula_corpus(seed=3, count=20, max_depth=3,
                                atom_names=("s", "t")):
            g = desugar(f)
            a, b = prove(g, on), prove(g, off)
            if "unknown" in (a.verdict, b.verdict):
                continue  # pruning affects step counts, budgets may differ
            assert a.verdict == b.verdict, f


class TestRuleLocalSoundness:
    """Each rule, fed statements satisfied by a concrete model, must offer at
    least one conclusion branch satisfied by the same model."""

    def test_connective_and_structural_rules(self):
        import itertools
        from partlog.core import dit, make_partition
        u = canonical_universe(3)
        s = make_partition(u, [["u0", "u1"], ["u2"]])
        t = make_partition(u, [["u0"], ["u1", "u2"]])
        model = Assignment(u, {"s": s, "t": t})

        def true_in_model(i, j, sign, f):
            v = eval_formula(f, model)
            distinct = v.same_block("u%d" % i, "u%d" % j) is False
            return distinct if sign == "T" else not distinct

        for f in formula_corpus(seed=9, count=40, max_depth=2,
                                atom_names=("s", "t"), allow_derived=False):
            g = desugar(f)
            for i, j in itertools.combinations(range(3), 2):
                for sign in "TF":
                    if not true_in_model(i, j, sign, g):
                        continue
                    # T-anti-transitivity: for every third element some side holds
                    if sign == "T":
                        for k in range(3):
                            if k in (i, j):
                                continue
                            assert (true_in_model(*sorted((i, k)), "T", g)
                                    or true_in_model(*sorted((k, j)), "T", g))
                    # connective rules at the base pair
                    from partlog.formula import Join, Meet, Impl, Nand
                    pairs = {Join: [("T", "left"), ("T", "right")],
                             Impl: [("F", "left"), ("T", "right")],
                             Nand: [("F", "left"), ("F", "right")]}
                    if sign == "T" and type(g) in pairs:
                        alts = pairs[type(g)]
                        assert any(true_in_model(i, j, sg,
                                                 getattr(g, side))
                                   for sg, side in alts)
                    if sign == "F" and isinstance(g, Join):
                        assert true_in_model(i, j, "F", g.left)
                        assert true_in_model(i, j, "F", g.right)
                    if sign == "T" and isinstance(g, Meet):
                        assert true_in_model(i, j, "T", g.left)
                        assert true_in_model(i, j, "T", g.right)


class TestJsonShapes:
    def test_outcome_json(self):
        out = prove(PEIRCE)
        obj = outcome_to_json(out)
        assert obj["verdict"] == "countermodel"
        assert obj["pair"] == ["u0", "u1"]
        assert obj["model"]["universe"] == ["u0", "u1", "u2"]
        proved = outcome_to_json(prove(MODUS_PONENS), include_trace=True)
        assert proved["verdict"] == "proved"
        assert isinstance(proved["trace"], list) and proved["trace"]

    def test_trace_json_is_replay_shaped(self):
        out = prove(MODUS_PONENS)
        obj = trace_to_json(out.trace)
        assert set(obj) == {"statements", "branches", "steps"}
        assert obj["statements"][0]["pair"] == ["u0", "u1"]

    def test_serialized_trace_replays_independently(self):
        from partlog.tableau import trace_from_json
        out = prove(MODUS_PONENS)
        wire = json.loads(json.dumps(trace_to_json(out.trace)))
        rebuilt = trace_from_json(wire)
        replay_trace(rebuilt)   # raises if the round trip broke anything
        assert rebuilt.parents == out.trace.parents
        assert [s.rule for s in rebuilt.steps] == [s.rule for s in out.trace.steps]
