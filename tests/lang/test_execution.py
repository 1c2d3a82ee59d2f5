"""End-to-end Slang execution tests: compile then run on the functional
interpreter.  These are the compiler's behavioural ground truth."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.cache import compile_source
from repro.cpu.interp import run_functional


def run(src, **kw):
    return run_functional(compile_source(src).program, **kw)


def ints(src, **kw):
    return run(src, **kw).int_output


def floats(src, **kw):
    return run(src, **kw).float_output


class TestBasics:
    def test_return_value_is_exit_code(self):
        assert run("int main() { return 7; }").exit_code == 7

    def test_print_int(self):
        assert ints("int main() { print_int(42); return 0; }") == [42]

    def test_arithmetic(self):
        assert ints("int main() { print_int(2 + 3 * 4 - 6 / 2); return 0; }") == [11]

    def test_unary_minus_and_not(self):
        assert ints("int main() { print_int(-5); print_int(!0); print_int(!3); print_int(~0); return 0; }") == [-5, 1, 0, -1]

    def test_modulo_and_shifts(self):
        assert ints("int main() { print_int(17 % 5); print_int(1 << 10); print_int(-16 >> 2); return 0; }") == [2, 1024, -4]

    def test_bitwise(self):
        assert ints("int main() { print_int(12 & 10); print_int(12 | 10); print_int(12 ^ 10); return 0; }") == [8, 14, 6]

    def test_comparisons(self):
        src = """
        int main() {
            print_int(1 < 2); print_int(2 < 1); print_int(2 <= 2);
            print_int(3 > 2); print_int(2 >= 3); print_int(2 == 2); print_int(2 != 2);
            return 0;
        }"""
        assert ints(src) == [1, 0, 1, 1, 0, 1, 0]

    def test_assignment_chains(self):
        assert ints("int main() { int a; int b; a = b = 5; print_int(a + b); return 0; }") == [10]

    def test_locals_with_initializers(self):
        assert ints("int main() { int a = 3; int b = a * 2; print_int(b); return 0; }") == [6]


class TestControlFlow:
    def test_if_else(self):
        src = """
        int classify(int x) {
            if (x < 0) return -1;
            else if (x == 0) return 0;
            else return 1;
        }
        int main() { print_int(classify(-5)); print_int(classify(0)); print_int(classify(9)); return 0; }
        """
        assert ints(src) == [-1, 0, 1]

    def test_while_loop(self):
        assert ints("int main() { int i = 0; int s = 0; while (i < 10) { s = s + i; i = i + 1; } print_int(s); return 0; }") == [45]

    def test_for_loop(self):
        assert ints("int main() { int s = 0; for (int i = 1; i <= 5; i = i + 1) s = s + i; print_int(s); return 0; }") == [15]

    def test_break_continue(self):
        src = """
        int main() {
            int s = 0;
            for (int i = 0; i < 100; i = i + 1) {
                if (i % 2 == 0) continue;
                if (i > 10) break;
                s = s + i;
            }
            print_int(s);   // 1+3+5+7+9 = 25
            return 0;
        }"""
        assert ints(src) == [25]

    def test_nested_loops(self):
        src = """
        int main() {
            int count = 0;
            for (int i = 0; i < 4; i = i + 1)
                for (int j = 0; j < i; j = j + 1)
                    count = count + 1;
            print_int(count);   // 0+1+2+3
            return 0;
        }"""
        assert ints(src) == [6]

    def test_short_circuit_and(self):
        src = """
        int side;
        int bump() { side = side + 1; return 1; }
        int main() {
            side = 0;
            if (0 && bump()) { }
            print_int(side);       // not evaluated
            if (1 && bump()) { }
            print_int(side);       // evaluated
            return 0;
        }"""
        assert ints(src) == [0, 1]

    def test_short_circuit_or(self):
        src = """
        int side;
        int bump() { side = side + 1; return 0; }
        int main() {
            side = 0;
            if (1 || bump()) { }
            print_int(side);
            if (0 || bump()) { } else { print_int(-1); }
            print_int(side);
            return 0;
        }"""
        assert ints(src) == [0, -1, 1]

    def test_logical_result_is_normalized(self):
        assert ints("int main() { print_int(5 && 7); print_int(0 || 9); print_int(0 || 0); return 0; }") == [1, 1, 0]


class TestFunctions:
    def test_recursion_factorial(self):
        src = """
        int fact(int n) { if (n <= 1) return 1; return n * fact(n - 1); }
        int main() { print_int(fact(10)); return 0; }
        """
        assert ints(src) == [3628800]

    def test_mutual_recursion(self):
        src = """
        int is_odd(int n);
        """  # forward declarations are not supported; use ordering instead
        src = """
        int is_even(int n) { if (n == 0) return 1; return is_odd(n - 1); }
        int is_odd(int n) { if (n == 0) return 0; return is_even(n - 1); }
        int main() { print_int(is_even(10)); print_int(is_odd(7)); return 0; }
        """
        assert ints(src) == [1, 1]

    def test_eight_arguments(self):
        src = """
        int sum8(int a, int b, int c, int d, int e, int f, int g, int h) {
            return a + b + c + d + e + f + g + h;
        }
        int main() { print_int(sum8(1, 2, 3, 4, 5, 6, 7, 8)); return 0; }
        """
        assert ints(src) == [36]

    def test_mixed_int_float_args(self):
        src = """
        float mix(int a, float b, int c, float d) { return a + b * c - d; }
        int main() { print_float(mix(1, 2.0, 3, 0.5)); return 0; }
        """
        assert floats(src) == [6.5]

    def test_void_function(self):
        src = """
        int acc;
        void add(int v) { acc = acc + v; }
        int main() { acc = 0; add(3); add(4); print_int(acc); return 0; }
        """
        assert ints(src) == [7]

    def test_call_in_expression_with_live_temps(self):
        src = """
        int f(int x) { return x * 2; }
        int main() { print_int(1 + f(3) + f(f(2)) * 10); return 0; }
        """
        assert ints(src) == [1 + 6 + 80]

    def test_deep_expression_forces_spills(self):
        # 10 nested additions of call results exceeds the 7 int temporaries.
        src = """
        int one() { return 1; }
        int main() {
            print_int(((((((((one() + one()) + one()) + one()) + one())
                + one()) + one()) + one()) + one()) + one());
            return 0;
        }
        """
        assert ints(src) == [10]

    def test_wide_expression_spills_without_calls(self):
        terms = " + ".join(f"(a{i} * 2)" for i in range(10))
        decls = " ".join(f"int a{i} = {i};" for i in range(10))
        src = f"int main() {{ {decls} print_int({terms}); return 0; }}"
        assert ints(src) == [2 * sum(range(10))]


class TestFloats:
    def test_float_arith(self):
        assert floats("int main() { print_float(1.5 + 2.25 * 2.0); return 0; }") == [6.0]

    def test_float_division(self):
        assert floats("int main() { print_float(7.0 / 2.0); return 0; }") == [3.5]

    def test_promotion_in_mixed_arith(self):
        assert floats("int main() { print_float(1 + 0.5); print_float(3 / 2.0); return 0; }") == [1.5, 1.5]

    def test_casts(self):
        assert ints("int main() { print_int((int) 3.99); print_int((int) -3.99); return 0; }") == [3, -3]
        assert floats("int main() { print_float((float) 7); return 0; }") == [7.0]

    def test_sqrt_fabs_fmin_fmax(self):
        src = """
        int main() {
            print_float(sqrt(16.0));
            print_float(fabs(-2.5));
            print_float(fmin(1.0, 2.0));
            print_float(fmax(1.0, 2.0));
            return 0;
        }"""
        assert floats(src) == [4.0, 2.5, 1.0, 2.0]

    def test_abs_builtin(self):
        assert ints("int main() { print_int(abs(-9)); print_int(abs(9)); print_int(abs(0)); return 0; }") == [9, 9, 0]

    def test_float_compare(self):
        assert ints("int main() { print_int(1.5 < 2.5); print_int(2.5 <= 2.5); print_int(1.5 > 2.5); print_int(2.5 != 2.5); return 0; }") == [1, 1, 0, 0]

    def test_float_globals(self):
        src = """
        float pi = 3.25;
        float zero;
        int main() { print_float(pi); print_float(zero); return 0; }
        """
        assert floats(src) == [3.25, 0.0]

    def test_float_loop_accumulation(self):
        src = """
        int main() {
            float s = 0.0;
            for (int i = 0; i < 4; i = i + 1) s = s + 0.25;
            print_float(s);
            return 0;
        }"""
        assert floats(src) == [1.0]


class TestMemory:
    def test_global_array(self):
        src = """
        int tab[5] = {3, 1, 4, 1, 5};
        int main() {
            int s = 0;
            for (int i = 0; i < 5; i = i + 1) s = s + tab[i];
            print_int(s);
            return 0;
        }"""
        assert ints(src) == [14]

    def test_global_array_partial_init_zero_padded(self):
        src = """
        int tab[4] = {9};
        int main() { print_int(tab[0] + tab[1] + tab[2] + tab[3]); return 0; }
        """
        assert ints(src) == [9]

    def test_local_array(self):
        src = """
        int main() {
            int buf[8];
            for (int i = 0; i < 8; i = i + 1) buf[i] = i * i;
            print_int(buf[7]);
            return 0;
        }"""
        assert ints(src) == [49]

    def test_array_write_via_pointer(self):
        src = """
        int a[4];
        int main() {
            int* p = a;
            *p = 10;
            *(p + 2) = 30;
            p[3] = 40;
            print_int(a[0] + a[1] + a[2] + a[3]);
            return 0;
        }"""
        assert ints(src) == [80]

    def test_pointer_difference(self):
        src = """
        int a[8];
        int main() { int* p = &a[6]; int* q = &a[1]; print_int(p - q); return 0; }
        """
        assert ints(src) == [5]

    def test_addressof_local(self):
        src = """
        void set(int* p, int v) { *p = v; }
        int main() { int x = 0; set(&x, 77); print_int(x); return 0; }
        """
        assert ints(src) == [77]

    def test_pass_array_to_function(self):
        src = """
        int sum(int a[], int n) {
            int s = 0;
            for (int i = 0; i < n; i = i + 1) s = s + a[i];
            return s;
        }
        int main() {
            int v[6];
            for (int i = 0; i < 6; i = i + 1) v[i] = i + 1;
            print_int(sum(v, 6));
            return 0;
        }"""
        assert ints(src) == [21]

    def test_float_array(self):
        src = """
        float xs[3] = {0.5, 1.5, 2.0};
        int main() { print_float(xs[0] + xs[1] + xs[2]); return 0; }
        """
        assert floats(src) == [4.0]

    def test_sbrk_heap_allocation(self):
        src = """
        int main() {
            int* p = (int*) sbrk(8 * 10);
            for (int i = 0; i < 10; i = i + 1) p[i] = i;
            int s = 0;
            for (int i = 0; i < 10; i = i + 1) s = s + p[i];
            print_int(s);
            return 0;
        }"""
        assert ints(src) == [45]

    def test_pointer_to_pointer(self):
        src = """
        int main() {
            int x = 5;
            int* p = &x;
            int** q = &p;
            **q = 9;
            print_int(x);
            return 0;
        }"""
        assert ints(src) == [9]

    def test_atomic_builtins(self):
        src = """
        int c = 10;
        int main() {
            print_int(atomic_add(&c, 5));   // returns old value 10
            print_int(c);                   // 15
            print_int(atomic_swap(&c, 2));  // returns 15
            print_int(c);                   // 2
            return 0;
        }"""
        assert ints(src) == [10, 15, 15, 2]


class TestAlgorithms:
    def test_iterative_fib(self):
        src = """
        int fib(int n) {
            int a = 0; int b = 1;
            while (n > 0) { int t = a + b; a = b; b = t; n = n - 1; }
            return a;
        }
        int main() { print_int(fib(20)); return 0; }
        """
        assert ints(src) == [6765]

    def test_bubble_sort(self):
        src = """
        int a[6] = {5, 2, 9, 1, 7, 3};
        int main() {
            for (int i = 0; i < 6; i = i + 1)
                for (int j = 0; j < 5 - i; j = j + 1)
                    if (a[j] > a[j + 1]) {
                        int t = a[j]; a[j] = a[j + 1]; a[j + 1] = t;
                    }
            for (int i = 0; i < 6; i = i + 1) print_int(a[i]);
            return 0;
        }"""
        assert ints(src) == [1, 2, 3, 5, 7, 9]

    def test_gcd(self):
        src = """
        int gcd(int a, int b) { while (b != 0) { int t = a % b; a = b; b = t; } return a; }
        int main() { print_int(gcd(252, 105)); return 0; }
        """
        assert ints(src) == [21]

    def test_newton_sqrt(self):
        src = """
        int main() {
            float x = 2.0;
            float guess = 1.0;
            for (int i = 0; i < 20; i = i + 1)
                guess = 0.5 * (guess + x / guess);
            print_float(guess * guess);
            return 0;
        }"""
        out = floats(src)
        assert abs(out[0] - 2.0) < 1e-12

    @settings(max_examples=20, deadline=None)
    @given(st.lists(st.integers(-100, 100), min_size=1, max_size=8))
    def test_sum_matches_python(self, values):
        init = ", ".join(str(v) for v in values)
        src = f"""
        int a[{len(values)}] = {{{init}}};
        int main() {{
            int s = 0;
            for (int i = 0; i < {len(values)}; i = i + 1) s = s + a[i];
            print_int(s);
            return 0;
        }}"""
        assert ints(src) == [sum(values)]
