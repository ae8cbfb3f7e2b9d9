"""Integer arithmetic against sympy as the oracle.

Covers the edge values, Carmichael numbers, strong pseudoprimes to many
Miller-Rabin bases, the sympy fallback above the deterministic bound, and
that the command line never imports sympy on its common path.
"""
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import factorint, isprime, nextprime, primefactors, primerange

import udisc
from udisc.arith import factor, is_prime, prime_factors, primes_up_to

big = st.integers(min_value=-(10**30), max_value=10**30)
# up to 10^30 with several large prime factors, which rho has to split
products = st.lists(st.integers(2, 10**10), min_size=2, max_size=3).map(math.prod)


def oracle_factor(n):
    return {int(p): e for p, e in factorint(abs(n)).items()}


class TestAgainstSympy:
    @settings(max_examples=60, deadline=None)
    @given(big.filter(lambda n: n != 0))
    def test_factor(self, n):
        got = factor(n)
        assert dict(got) == oracle_factor(n)
        assert [p for p, _ in got] == sorted(p for p, _ in got)

    @settings(max_examples=30, deadline=None)
    @given(products)
    def test_factor_products(self, n):
        assert dict(factor(n)) == oracle_factor(n)

    @settings(max_examples=300, deadline=None)
    @given(big)
    def test_is_prime(self, n):
        assert is_prime(n) == isprime(n)

    @settings(max_examples=60, deadline=None)
    @given(big.filter(lambda n: n != 0))
    def test_prime_factors(self, n):
        assert prime_factors(n) == primefactors(abs(n))

    def test_every_small_integer(self):
        for n in range(-3000, 3000):
            assert is_prime(n) == isprime(n)
            if n:
                assert dict(factor(n)) == oracle_factor(n)

    def test_primes_up_to(self):
        for n in (0, 1, 2, 3, 99, 100, 1000, 7919):
            assert primes_up_to(n) == list(primerange(0, n + 1))


class TestEdgeValues:
    def test_zero(self):
        assert not is_prime(0)
        with pytest.raises(ValueError):
            factor(0)

    @pytest.mark.parametrize("n", [1, -1])
    def test_units(self, n):
        assert not is_prime(n)
        assert factor(n) == ()
        assert prime_factors(n) == []

    def test_negative_primes_are_not_primes(self):
        assert not is_prime(-7)
        assert factor(-7) == ((7, 1),)


class TestHardInputs:
    @pytest.mark.parametrize("n", [561, 41041])
    def test_carmichael(self, n):
        assert not is_prime(n)
        assert dict(factor(n)) == oracle_factor(n)

    @pytest.mark.parametrize(
        "n",
        # strong pseudoprimes to the first 4, 11, 12 and 13 prime bases; the
        # last is the deterministic bound itself, so only sympy rejects it
        [3215031751, 3825123056546413051, 318665857834031151167461,
         3317044064679887385961981],
    )
    def test_strong_pseudoprimes(self, n):
        assert not is_prime(n)
        assert dict(factor(n)) == oracle_factor(n)

    def test_prime_above_the_deterministic_bound(self):
        p = int(nextprime(4 * 10**24))
        assert is_prime(p)
        assert factor(p) == ((p, 1),)
        assert not is_prime(p * 3)

    def test_square_of_a_large_prime(self):
        p = int(nextprime(10**9))
        assert factor(p * p * 12) == ((2, 2), (3, 1), (p, 2))


def test_cli_does_not_import_sympy():
    # import udisc.cli, then run `udisc corpus` through main, in a fresh
    # interpreter: neither may load sympy
    code = (
        "import contextlib, io, sys\n"
        "import udisc.cli\n"
        "assert 'sympy' not in sys.modules, 'import udisc.cli loaded sympy'\n"
        "with contextlib.redirect_stdout(io.StringIO()) as out:\n"
        "    rc = udisc.cli.main(['corpus'])\n"
        "assert rc == 0, out.getvalue()\n"
        "assert 'all pass' in out.getvalue()\n"
        "assert 'sympy' not in sys.modules, 'udisc corpus loaded sympy'\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(udisc.__file__).parent.parent))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
