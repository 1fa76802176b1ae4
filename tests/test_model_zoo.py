import itertools
import math

import pytest

from markovup import (
    BenchmarkKernel,
    BenchmarkModelSpec,
    FallWindow,
    KappaSpec,
    certify,
    path_stream,
)
from markovup import mc_engine, model_zoo
from markovup.model_zoo import InvalidParameterError

from helpers import distribution_items

# frozen by brute-force product of (1 - 0.5**j), j >= 1, to below 1e-14
KAPPA_INF = 0.288788095086602
Q_BAR = 1.0 - KAPPA_INF


class TestKappaSpec:
    def test_direct_values(self):
        spec = KappaSpec(a=0.5, r=0.5)
        assert spec.at(0) == 0.5
        assert spec.at(1) == 0.75
        assert spec.at(2) == 0.875

    def test_monotone_toward_one(self):
        spec = KappaSpec(a=0.5, r=0.5)
        values = [spec.at(i) for i in range(1001)]
        assert all(b >= a for a, b in zip(values, values[1:]))
        assert all(0.0 < v <= 1.0 for v in values)
        # strictly below 1 until the gap falls under float resolution
        assert all(v < 1.0 for v in values[:50])
        assert values[-1] == pytest.approx(1.0)

    def test_parameter_validation(self):
        for bad in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(InvalidParameterError):
                KappaSpec(a=bad, r=0.5)
            with pytest.raises(InvalidParameterError):
                KappaSpec(a=0.5, r=bad)


class TestBenchmarkKernel:
    def test_pmf_fresh_window(self, benchmark_kernel):
        d = benchmark_kernel.next(FallWindow(0, (7,)))
        assert d.prob(6) == 0.5
        assert d.prob(7) == pytest.approx(0.25)
        assert d.prob(8) == pytest.approx(0.125)
        assert d.prob(5) == 0.0

    def test_pmf_deep_fall(self, benchmark_kernel):
        d = benchmark_kernel.next(FallWindow(0, (9, 8, 7)))
        assert d.prob(6) == pytest.approx(0.875)  # kappa_2

    def test_zero_forces_up_branch(self, benchmark_kernel):
        d = benchmark_kernel.next(FallWindow(0, (0,)))
        assert d.prob(0) == pytest.approx(0.5)  # jump of size 0
        assert d.prob(1) == pytest.approx(0.25)
        assert min(s for s, _ in distribution_items(d, 1e-9)) == 0

    def test_mass_sums_to_one_for_many_windows(self, benchmark_kernel):
        for x in range(0, 40):
            for ell in range(0, min(x, 10) + 1):
                values = tuple(range(x + ell, x - 1, -1))
                d = benchmark_kernel.next(FallWindow(0, values))
                assert abs(d.total_mass() - 1.0) <= 1e-12

    def test_invalid_parameters_rejected(self):
        with pytest.raises(InvalidParameterError):
            BenchmarkModelSpec(kappa=KappaSpec(a=0.5, r=0.5), up_jump_s=1.0, floor_n=5)
        with pytest.raises(InvalidParameterError):
            BenchmarkModelSpec(kappa=KappaSpec(a=0.5, r=0.5), up_jump_s=0.5, floor_n=-1)

    @pytest.mark.parametrize("ell", [0, 1, 2, 3])
    def test_down_frequency_matches_kappa_ell(self, benchmark_kernel, ell):
        # empirical one-step conformance, 1e5 samples per fall length
        n = 100_000
        x = 20
        values = tuple(range(x + ell, x - 1, -1))
        window = FallWindow(0, values)
        kappa = benchmark_kernel.spec.kappa.at(ell)
        rng = path_stream(777, ell)
        draws = rng.random(n)
        dist = benchmark_kernel.next(window)
        downs = sum(1 for u in draws if dist.quantile(u) == x - 1)
        se = math.sqrt(kappa * (1.0 - kappa) / n)
        assert abs(downs / n - kappa) < 3 * se

    def test_law_cache_is_bounded(self, benchmark_spec, monkeypatch):
        # 60 paths from x0 = 1000 meet about 13,000 (fall length, state) pairs;
        # a cache emptied at 64 entries gives the same paths
        class CacheWatchingKernel(BenchmarkKernel):
            """The benchmark law under another type, so the scalar engine steps it; notes the cache's largest size."""

            largest = 0

            def next(self, window):
                dist = super().next(window)
                self.largest = max(self.largest, len(self._cache))
                return dist

        def paths(kernel):
            return [
                (block.states.tolist(), block.steps.tolist(), block.capped.tolist())
                for block in mc_engine.simulate_blocks(kernel, 1000, 60, seed=7)
            ]

        unbounded = CacheWatchingKernel(benchmark_spec)
        expected = paths(unbounded)
        assert unbounded.largest > 10_000
        monkeypatch.setattr(model_zoo, "_CACHE_LIMIT", 64)
        bounded = CacheWatchingKernel(benchmark_spec)
        assert paths(bounded) == expected
        assert 0 < bounded.largest <= 64


class TestCertify:
    def test_structural_assumptions_hold(self, benchmark_spec):
        cert = certify(benchmark_spec, m_max=3)
        for name in ("A1", "A3", "A4", "A5"):
            assert cert.entries[name].holds, name
        assert cert.theorem_ready
        assert cert.q == 0.5

    def test_q_bar_value(self, benchmark_spec):
        cert = certify(benchmark_spec, m_max=3)
        assert cert.q_bar == pytest.approx(Q_BAR, abs=1e-9)
        assert cert.kappa_inf == pytest.approx(KAPPA_INF, abs=1e-9)

    def test_local_mixing_fails_with_witness(self, benchmark_spec):
        tol = 1e-6
        cert = certify(benchmark_spec, m_max=1, tol=tol)
        entry = cert.entries["A2"]
        assert entry.status == "fails"
        assert not entry.required_for_theorem
        ell = entry.data["witness_fall_length"]
        spec = benchmark_spec
        stay = (1.0 - spec.kappa.at(ell)) * spec.up_jump_s
        assert stay < tol
        if ell > 0:
            assert (1.0 - spec.kappa.at(ell - 1)) * spec.up_jump_s >= tol

    def test_witness_is_first_fall_length_below_tol(self):
        # the reference walks up from ell = 0 to the first fall length whose
        # stay probability is below tol; it is fast only where r is not near 1
        def walk(spec, tol):
            ell = 0
            while (1.0 - spec.kappa.at(ell)) * spec.up_jump_s >= tol:
                ell += 1
            return ell

        for a, r, s, tol in itertools.product(
            (1e-9, 1e-3, 0.3, 0.5, 0.9), (1e-9, 0.1, 0.5, 0.9, 0.99, 0.999), (0.01, 0.5, 0.99), (1e-12, 1e-6, 0.5),
        ):
            spec = BenchmarkModelSpec(kappa=KappaSpec(a=a, r=r), up_jump_s=s, floor_n=5)
            data = certify(spec, m_max=1, tol=tol).entries["A2"].data
            ell = walk(spec, tol)
            assert data == {
                "witness_fall_length": ell, "stay_prob_at_witness": (1.0 - spec.kappa.at(ell)) * s,
            }, (a, r, s, tol)

    def test_jump_moments(self, benchmark_spec):
        cert = certify(benchmark_spec, m_max=3)
        assert cert.jump_moments[1] == pytest.approx(1.0, abs=1e-9)
        assert cert.jump_moments[2] == pytest.approx(3.0, abs=1e-9)
        assert cert.jump_moments[3] == pytest.approx(13.0, abs=1e-9)

    def test_certificate_serializes(self, benchmark_spec):
        doc = certify(benchmark_spec, m_max=2).to_dict()
        assert set(doc) == {
            "entries", "q", "q_bar", "kappa_inf", "jump_moments", "theorem_ready",
        }
        assert doc["theorem_ready"] is True
