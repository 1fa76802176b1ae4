import pytest

from markovup import BenchmarkKernel, BenchmarkModelSpec, KappaSpec, build_benchmark


@pytest.fixture(scope="session")
def benchmark_spec():
    return BenchmarkModelSpec(kappa=KappaSpec(a=0.5, r=0.5), up_jump_s=0.5, floor_n=5)


@pytest.fixture()
def benchmark_kernel(benchmark_spec):
    return build_benchmark(benchmark_spec)


class ScalarBenchmarkKernel(BenchmarkKernel):
    """The benchmark law under another type, so the runner steps it with the scalar engine."""


@pytest.fixture()
def scalar_benchmark_kernel(benchmark_spec):
    return ScalarBenchmarkKernel(benchmark_spec)


class FixedDraws:
    """Uniform source returning a preset sequence of draws."""

    def __init__(self, draws):
        self._draws = list(draws)

    def random(self):
        return self._draws.pop(0)


@pytest.fixture()
def fixed_draws():
    return FixedDraws
