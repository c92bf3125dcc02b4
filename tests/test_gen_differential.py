"""The differential harness: agreement contracts, the big matrix, shrinking."""

import signal
import time

import pytest

from repro.gen.differential import (
    CONTRACTS,
    METHODS,
    PROPERTIES,
    Disagreement,
    check_contract,
    run_design,
    run_matrix,
    shrink,
    _ShrinkTimeout,
    _time_limit,
)
from repro.gen.topologies import sample_design


class TestContract:
    """check_contract on synthetic matrices: the rules themselves."""

    def test_exact_class_violation_is_a_disagreement(self):
        matrix = {
            "non-blocking": {
                "static": False, "explicit": True, "compiled": False, "symbolic": True
            }
        }
        disagreements, gaps = check_contract(matrix, "synthetic")
        assert len(disagreements) == 1
        assert disagreements[0].kind == "exact"
        assert not gaps

    def test_static_implication_violation_is_a_disagreement(self):
        matrix = {
            "weak-endochrony": {
                "static": True, "explicit": False, "compiled": False, "symbolic": False
            }
        }
        disagreements, _ = check_contract(matrix, "synthetic")
        kinds = {d.kind for d in disagreements}
        assert "implication" in kinds

    def test_static_failing_implies_nothing(self):
        # the criterion is sufficient, not complete: static=False with the
        # model checkers holding is the documented incompleteness, not a bug
        matrix = {
            "weak-endochrony": {
                "static": False, "explicit": True, "compiled": True, "symbolic": True
            }
        }
        disagreements, gaps = check_contract(matrix, "synthetic")
        assert not disagreements and not gaps

    def test_symbolic_weak_endochrony_divergence_is_a_gap_not_a_bug(self):
        # Section 4.1's invariant formulation vs Definition 2's axioms: a
        # recorded formulation gap, not an engine disagreement
        matrix = {
            "weak-endochrony": {
                "static": True, "explicit": True, "compiled": True, "symbolic": False
            }
        }
        disagreements, gaps = check_contract(matrix, "synthetic")
        assert not disagreements
        assert len(gaps) == 1
        assert gaps[0].method == "symbolic"

    def test_contract_covers_all_methods_of_both_properties(self):
        for prop in PROPERTIES:
            contract = CONTRACTS[prop]
            covered = set(contract.exact) | set(contract.related) | {
                method for pair in contract.implications for method in pair
            }
            assert covered == set(METHODS)


class TestHarness:
    def test_run_design_produces_a_full_matrix(self):
        result = run_design(sample_design(0))
        assert set(result.verdicts) == set(PROPERTIES)
        for row in result.verdicts.values():
            assert set(row) == set(METHODS)

    def test_engines_agree_on_200_sampled_designs(self):
        """The acceptance bar: ≥200 seeded designs, zero contract violations."""
        report = run_matrix(range(200), shrink_disagreements=False)
        assert report.designs == 200
        assert report.agreed, [d.describe() for d in report.disagreements]

    def test_known_formulation_gap_is_recorded(self):
        # seed 5 draws an arbiter tree whose leaf arbiters are mutually
        # exclusive: Definition 2 holds, the root-pair invariants do not
        result = run_design(sample_design(5))
        assert result.agreed
        assert any(
            gap.prop == "weak-endochrony" and gap.method == "symbolic"
            for gap in result.gaps
        )


class TestShrinking:
    def test_shrink_reduces_a_divergent_design(self):
        generated = sample_design(5)  # arbiter tree, 3 components
        disagreement = Disagreement(
            prop="weak-endochrony",
            kind="exact",
            methods=("explicit", "symbolic"),
            verdicts={"explicit": True, "symbolic": False},
            design_name=generated.name,
            seed=5,
            family=generated.family,
        )
        result = shrink(generated, disagreement, candidate_timeout=1.0)
        # the divergence needs all three arbiters (the exclusion comes from
        # the root's selector), but most equations are droppable
        assert len(result.components) <= len(generated.components)
        assert result.removed_equations > 0
        total_equations = sum(len(c.equations) for c in result.components)
        original_equations = sum(len(c.equations) for c in generated.components)
        assert total_equations < original_equations
        assert result.sources()

    @pytest.mark.skipif(not hasattr(signal, "SIGALRM"), reason="needs SIGALRM")
    def test_time_limit_outlasts_a_swallowed_alarm(self):
        # an alarm landing in a gc callback or finalizer is dropped by
        # Python; the budget must still end the block
        swallowed = 0
        deadline = time.monotonic() + 2.0
        with pytest.raises(_ShrinkTimeout):
            with _time_limit(0.05):
                while time.monotonic() < deadline:
                    try:
                        while time.monotonic() < deadline:
                            pass
                    except _ShrinkTimeout:
                        swallowed += 1
                        if swallowed > 1:
                            raise
        assert swallowed == 2
        assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
        settle = time.monotonic() + 0.2
        while time.monotonic() < settle:  # no repeat escapes the block
            pass

    def test_shrink_never_returns_an_empty_design(self):
        generated = sample_design(0)
        disagreement = Disagreement(
            prop="non-blocking",
            kind="exact",
            methods=("explicit", "compiled"),
            verdicts={"explicit": True, "compiled": True},  # not actually divergent
            design_name=generated.name,
        )
        result = shrink(generated, disagreement, candidate_timeout=1.0)
        # nothing reproduces a non-divergence, so nothing is removed
        assert len(result.components) == len(generated.components)
        assert result.removed_equations == 0
