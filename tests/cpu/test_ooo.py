"""Out-of-order core model tests: ILP, forwarding, MSHRs, prediction."""

from unittest import mock

import pytest

import repro.cpu.ooo
from repro.cache import compile_source
from repro.core.config import TargetConfig
from repro.core.engine import run_simulation
from repro.workloads.registry import make_workload
from tests.lattice import BRANCHY, FORWARDING, INDEPENDENT_OPS, build

OOO = TargetConfig(core_model="ooo", num_cores=4)
INORDER = TargetConfig(core_model="inorder", num_cores=4)


def run(src_or_prog, target, scheme="cc", **kw):
    prog = compile_source(src_or_prog).program if isinstance(src_or_prog, str) else src_or_prog
    return run_simulation(prog, scheme=scheme, host_cores=4, target=target, **kw)


DEPENDENT_CHAIN = """
int main() {
    int a = 1;
    for (int i = 0; i < 200; i = i + 1) {
        a = a * 3;     // serial multiply chain
    }
    print_int(a & 1023);
    return 0;
}
"""

class TestILP:
    def test_ooo_beats_inorder_on_parallel_work(self):
        fast = run(INDEPENDENT_OPS, OOO)
        slow = run(INDEPENDENT_OPS, INORDER)
        assert fast.int_output() == slow.int_output()
        assert fast.execution_cycles < slow.execution_cycles * 0.7

    def test_dependent_chain_limits_ooo_gain(self):
        """A serial dependence chain gains much less from OoO than
        independent work does."""
        ooo_par = run(INDEPENDENT_OPS, OOO).execution_cycles
        ino_par = run(INDEPENDENT_OPS, INORDER).execution_cycles
        ooo_ser = run(DEPENDENT_CHAIN, OOO).execution_cycles
        ino_ser = run(DEPENDENT_CHAIN, INORDER).execution_cycles
        gain_par = ino_par / ooo_par
        gain_ser = ino_ser / ooo_ser
        assert gain_par > gain_ser

    def test_functional_equivalence_across_models(self):
        for src in (INDEPENDENT_OPS, DEPENDENT_CHAIN):
            assert run(src, OOO).int_output() == run(src, INORDER).int_output()


class TestMemory:
    def test_store_to_load_forwarding_correctness(self):
        r = run(FORWARDING, OOO)
        assert r.int_output() == [7 * sum(range(8))]

    def test_mshr_overlap_reduces_miss_serialisation(self):
        # Strided walk over a large footprint: every access misses; OoO can
        # overlap several misses, the in-order core cannot.
        src = """
        int main() {
            int* p = (int*) sbrk(8 * 4096);
            int s = 0;
            for (int i = 0; i < 512; i = i + 8) p[i] = i;
            for (int i = 0; i < 512; i = i + 8) s = s + p[i];
            print_int(s);
            return 0;
        }
        """
        fast = run(src, OOO)
        slow = run(src, INORDER)
        assert fast.int_output() == slow.int_output()
        assert fast.execution_cycles < slow.execution_cycles

    def test_amo_is_atomic_and_serialised(self):
        src = """
        int c;
        int main() {
            for (int i = 0; i < 10; i = i + 1) atomic_add(&c, 2);
            print_int(c);
            return 0;
        }
        """
        assert run(src, OOO).int_output() == [20]


class TestBenchmarksUnderOoO:
    @pytest.mark.parametrize("name", ["fft", "lu", "water"])
    def test_benchmarks_verify(self, name):
        w = make_workload(name, scale="tiny")
        target = TargetConfig(core_model="ooo")
        r = run_simulation(w.program, scheme="cc", host_cores=4, target=target)
        assert w.verify(r.output)

    def test_benchmark_correct_under_slack(self):
        w = make_workload("fft", scale="tiny")
        target = TargetConfig(core_model="ooo")
        for scheme in ("s9", "su"):
            r = run_simulation(w.program, scheme=scheme, host_cores=4, target=target)
            assert w.verify(r.output), scheme

    def test_ooo_has_higher_ipc(self):
        w = make_workload("fft", scale="tiny")
        ooo = run_simulation(w.program, scheme="cc", host_cores=4,
                             target=TargetConfig(core_model="ooo"))
        ino = run_simulation(w.program, scheme="cc", host_cores=4,
                             target=TargetConfig(core_model="inorder"))
        assert ooo.execution_cycles < ino.execution_cycles


def _ooo_engine(name, scheme, stepping="batched"):
    return build(name, scheme, model="ooo", stepping=stepping)


def _service_order(engine):
    """Run *engine*; return the requests in the order the manager serviced
    them and, per core, the order the core emitted them."""
    emitted = {}
    for ct in engine.cores:
        inner = ct.model.emit

        def emit(event, inner=inner, log=emitted.setdefault(ct.core_id, [])):
            log.append(event)
            inner(event)

        ct.model.emit = emit
    served = []
    inner_service = engine.manager._service

    def service(event):
        served.append(event)
        inner_service(event)

    engine.manager._service = service
    engine.run()
    return served, emitted


class TestRequestOrder:
    @pytest.mark.parametrize("scheme", ["q10", "s9*"])
    def test_same_cycle_requests_are_serviced_in_emit_order(self, scheme):
        """The OoO core can emit several requests in one cycle.  Under a
        timestamp-ordered GQ they tie on ``(ts, core)`` and are serviced in
        the order the core emitted them — the GQ's push order — and the
        per-cycle oracle services exactly the same sequence."""
        served, emitted = _service_order(_ooo_engine("fft", scheme))
        emit_pos = {id(e): n for log in emitted.values() for n, e in enumerate(log)}
        ties = 0
        for prev, event in zip(served, served[1:]):
            if (prev.ts, prev.core) == (event.ts, event.core):
                ties += 1
                assert emit_pos[id(prev)] < emit_pos[id(event)]
        assert ties > 0
        single, _ = _service_order(_ooo_engine("fft", scheme, stepping="single"))
        key = [(e.kind, e.addr, e.core, e.ts) for e in served]
        assert key == [(e.kind, e.addr, e.core, e.ts) for e in single]


class TestStallHint:
    def test_only_the_per_cycle_oracle_consults_it(self):
        """``advance`` leaves a step only one cycle of room, so the turn loop
        asks ``stall_hint`` only when stepping per cycle: a batched water run
        (locks and barriers: blocked syscalls) never calls it, a single one
        does."""
        calls = {"batched": 0, "single": 0}
        hint = repro.cpu.ooo.OoOCore.stall_hint
        for stepping in calls:

            def counted(self, now, stepping=stepping):
                calls[stepping] += 1
                return hint(self, now)

            with mock.patch.object(repro.cpu.ooo.OoOCore, "stall_hint", counted):
                _ooo_engine("water", "s9", stepping=stepping).run()
        assert calls["batched"] == 0 and calls["single"] > 0


class TestPrediction:
    def test_mispredict_penalty_affects_timing(self):
        cheap = run(BRANCHY, TargetConfig(core_model="ooo", mispredict_penalty=1))
        costly = run(BRANCHY, TargetConfig(core_model="ooo", mispredict_penalty=30))
        assert cheap.int_output() == costly.int_output()
        assert cheap.execution_cycles < costly.execution_cycles
