"""Parallel workloads: SPLASH-2-style Slang benchmarks (fft, lu, barnes,
water) with numpy oracles, plus synthetic trace-driven workloads for engine
tests and ablations."""
