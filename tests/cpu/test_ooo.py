"""Out-of-order core model tests: ILP, forwarding, MSHRs, prediction."""

import pytest

from repro.core import run_simulation
from repro.core.config import SimConfig, TargetConfig
from repro.lang import compile_source
from repro.workloads import make_workload

OOO = TargetConfig(core_model="ooo", num_cores=4)
INORDER = TargetConfig(core_model="inorder", num_cores=4)


def run(src_or_prog, target, scheme="cc", **kw):
    prog = compile_source(src_or_prog).program if isinstance(src_or_prog, str) else src_or_prog
    return run_simulation(prog, scheme=scheme, host_cores=4, target=target, **kw)


INDEPENDENT_OPS = """
int main() {
    int a = 1; int b = 2; int c = 3; int d = 4;
    int s = 0;
    for (int i = 0; i < 50; i = i + 1) {
        a = a * 3;
        b = b * 5;
        c = c * 7;
        d = d * 11;
    }
    s = a + b + c + d;
    print_int(s & 1023);
    return 0;
}
"""

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

FORWARDING = """
int buf[8];
int main() {
    int s = 0;
    for (int i = 0; i < 8; i = i + 1) {
        buf[i] = i * 7;
        s = s + buf[i];     // load immediately after store
    }
    print_int(s);
    return 0;
}
"""

BRANCHY = """
int main() {
    int s = 0;
    int x = 12345;
    for (int i = 0; i < 300; i = i + 1) {
        x = (x * 1103515245 + 12345) % (1 << 31);
        if ((x >> 7) & 1) s = s + 1;   // data-dependent branch
        else s = s - 1;
    }
    print_int(s);
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


class TestPrediction:
    def test_mispredict_penalty_affects_timing(self):
        cheap = run(BRANCHY, TargetConfig(core_model="ooo", mispredict_penalty=1))
        costly = run(BRANCHY, TargetConfig(core_model="ooo", mispredict_penalty=30))
        assert cheap.int_output() == costly.int_output()
        assert cheap.execution_cycles < costly.execution_cycles
