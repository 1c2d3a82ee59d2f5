"""Slack scheme policy tests (paper §3.1)."""

import pytest
from hypothesis import given, strategies as st

from repro.core.schemes import (
    INFINITY,
    BoundedSlack,
    CycleByCycle,
    Lookahead,
    OldestFirstBoundedSlack,
    QuantumBased,
    UnboundedSlack,
    parse_scheme,
)
from tests.lattice import SCHEMES


class TestParsing:
    def test_all_paper_schemes_parse(self):
        for spec, cls in [
            ("cc", CycleByCycle),
            ("q10", QuantumBased),
            ("l10", Lookahead),
            ("s9", BoundedSlack),
            ("s9*", OldestFirstBoundedSlack),
            ("s100", BoundedSlack),
            ("su", UnboundedSlack),
        ]:
            assert isinstance(parse_scheme(spec), cls)

    def test_names_roundtrip(self):
        for spec in SCHEMES:
            assert parse_scheme(spec).name == spec

    def test_case_and_whitespace_tolerant(self):
        assert parse_scheme(" S9* ").name == "s9*"

    def test_scheme_object_passthrough(self):
        s = BoundedSlack(5)
        assert parse_scheme(s) is s

    def test_bad_specs_rejected(self):
        for bad in ["", "x9", "s", "q", "s-1", "q0x", "ss9", "9s"]:
            with pytest.raises(ValueError):
                parse_scheme(bad)

    def test_zero_parameters_rejected(self):
        with pytest.raises(ValueError):
            QuantumBased(0)
        with pytest.raises(ValueError):
            BoundedSlack(0)
        with pytest.raises(ValueError):
            Lookahead(0)


class TestWindows:
    def test_cc_window_is_one_cycle(self):
        cc = CycleByCycle()
        assert cc.max_local(0) == 1
        assert cc.max_local(41) == 42
        assert cc.gq_policy == "barrier"

    def test_quantum_window_aligns_to_boundaries(self):
        q = QuantumBased(10)
        assert q.max_local(0) == 10
        assert q.max_local(9) == 10
        assert q.max_local(10) == 20
        assert q.max_local(15) == 20

    def test_bounded_window_slides(self):
        s = BoundedSlack(9)
        assert s.max_local(0) == 9
        assert s.max_local(100) == 109
        assert s.gq_policy == "immediate"

    def test_oldest_first_is_conservative(self):
        s = OldestFirstBoundedSlack(9)
        assert s.max_local(5) == 14
        assert s.gq_policy == "oldest"

    def test_lookahead_bounded_by_oldest_pending(self):
        la = Lookahead(10)
        assert la.max_local(50) == 60
        assert la.max_local(50, oldest_pending_ts=45) == 55
        assert la.max_local(50, oldest_pending_ts=70) == 60  # min(global, oldest)

    def test_unbounded_never_blocks(self):
        su = UnboundedSlack()
        assert su.max_local(0) == INFINITY
        assert su.max_local(10**9) == INFINITY

    @given(st.integers(0, 10**6), st.integers(1, 1000))
    def test_window_invariant_max_exceeds_global(self, global_time, param):
        for scheme in [CycleByCycle(), QuantumBased(param), BoundedSlack(param),
                       OldestFirstBoundedSlack(param), UnboundedSlack()]:
            assert scheme.max_local(global_time) > global_time

    @given(st.integers(0, 10**6), st.integers(1, 100))
    def test_quantum_window_is_next_multiple(self, global_time, q):
        m = QuantumBased(q).max_local(global_time)
        assert m % q == 0 and 0 < m - global_time <= q


class TestAdaptiveQuantum:
    def test_parse(self):
        from repro.core.schemes import AdaptiveQuantum

        s = parse_scheme("aq10-160")
        assert isinstance(s, AdaptiveQuantum)
        assert s.min_quantum == 10 and s.max_quantum == 160
        assert s.gq_policy == "barrier"

    def test_bad_bounds_rejected(self):
        from repro.core.schemes import AdaptiveQuantum

        with pytest.raises(ValueError):
            AdaptiveQuantum(0, 10)
        with pytest.raises(ValueError):
            AdaptiveQuantum(20, 10)

    def test_boundary_is_absolute(self):
        s = parse_scheme("aq10-160")
        assert s.max_local(0) == 10
        assert s.max_local(7) == 10  # does NOT slide with global time

    def test_adapt_grows_when_sparse(self):
        s = parse_scheme("aq10-160")
        s.adapt(requests=0, quantum_cycles=10)   # sparse -> double
        assert s.current_quantum == 20
        assert s.next_boundary == 30

    def test_adapt_shrinks_when_dense(self):
        s = parse_scheme("aq10-160")
        s.adapt(requests=0, quantum_cycles=10)   # 10 -> 20
        s.adapt(requests=50, quantum_cycles=20)  # dense -> halve
        assert s.current_quantum == 10

    def test_quantum_stays_in_bounds(self):
        s = parse_scheme("aq10-40")
        for _ in range(10):
            s.adapt(requests=0, quantum_cycles=10)
        assert s.current_quantum == 40
        for _ in range(10):
            s.adapt(requests=1000, quantum_cycles=10)
        assert s.current_quantum == 10

    def test_runs_and_stays_correct(self):
        from repro.core.engine import run_simulation
        from repro.workloads.registry import make_workload

        w = make_workload("lu", scale="tiny")
        r = run_simulation(w.program, scheme="aq10-160", host_cores=4)
        assert w.verify(r.output)
        q10 = run_simulation(w.program, scheme="q10", host_cores=4)
        assert r.barriers < q10.barriers
