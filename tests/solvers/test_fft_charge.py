"""The distributed-FFT cost charge (pencil transposes + butterflies)."""

import numpy as np
import pytest

from repro.simmpi.costmodel import JUQUEEN, JUROPA
from repro.simmpi.machine import Machine
from repro.solvers.p2nfft.solver import charge_parallel_fft


class TestChargeParallelFFT:
    def test_advances_clocks_and_counts(self):
        m = Machine(16, profile=JUROPA)
        charge_parallel_fft(m, 32, 5, "fft")
        st = m.trace.phase("fft")
        assert st.time > 0
        assert st.messages > 0
        assert st.bytes > 0

    def test_compute_scales_inverse_with_p(self):
        """Strong scaling: per-rank butterfly work shrinks with P."""
        times = []
        for P in (4, 64):
            m = Machine(P, cost_model=JUROPA.cost_model)
            charge_parallel_fft(m, 64, 1, "fft")
            times.append(m.elapsed())
        assert times[1] < times[0]

    def test_cost_grows_with_mesh(self):
        t = []
        for M in (16, 64):
            m = Machine(8, profile=JUROPA)
            charge_parallel_fft(m, M, 1, "fft")
            t.append(m.elapsed())
        assert t[1] > 8 * t[0]  # ~M^3 growth

    def test_transforms_linear(self):
        m1 = Machine(8, profile=JUROPA)
        charge_parallel_fft(m1, 32, 1, "fft")
        m5 = Machine(8, profile=JUROPA)
        charge_parallel_fft(m5, 32, 5, "fft")
        assert m5.elapsed() == pytest.approx(5 * m1.elapsed(), rel=0.01)

    def test_torus_costs_more_than_tree(self):
        """The torus pays its limited bisection (and slower cores) on the
        transpose-heavy FFT at every scale."""
        def per_rank_time(profile, P):
            m = Machine(P, profile=profile)
            charge_parallel_fft(m, 128, 1, "fft")
            return m.elapsed()

        for P in (256, 1024):
            assert per_rank_time(JUQUEEN, P) > per_rank_time(JUROPA, P)

    def test_both_platforms_strong_scale(self):
        for profile in (JUROPA, JUQUEEN):
            m_small = Machine(256, profile=profile)
            charge_parallel_fft(m_small, 128, 1, "fft")
            m_big = Machine(4096, profile=profile)
            charge_parallel_fft(m_big, 128, 1, "fft")
            assert m_big.elapsed() < m_small.elapsed()
