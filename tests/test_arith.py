"""Integer arithmetic against sympy as the oracle.

Covers the edge values, Carmichael numbers, strong pseudoprimes to many
Miller-Rabin bases, strong Lucas pseudoprimes and the Baillie-PSW test
above the deterministic bound, semiprimes that only ECM splits, the
factoring budget, and that the command line runs without sympy at all.
"""
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import factorint, isprime, nextprime, primefactors, primerange

import udisc
from udisc import arith
from udisc.arith import (
    FactoringLimit,
    _miller_rabin,
    _strong_lucas,
    factor,
    is_prime,
    prime_factors,
    primes_up_to,
)

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
        # last is the deterministic bound itself, which the Lucas step rejects
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


# the strong Lucas pseudoprimes below 30000 for Selfridge's parameters
# (OEIS A217255)
LUCAS_PSEUDOPRIMES = [5459, 5777, 10877, 16109, 18971, 22499, 24569, 25199]
# the product of two 26-digit primes: beyond rho and the ECM budget
HARD = 10000000000000000000000013 * 20000000000000000000000009


class TestBailliePSW:
    @pytest.mark.parametrize("n", LUCAS_PSEUDOPRIMES[:5])
    def test_lucas_pseudoprimes_fail_miller_rabin(self, n):
        assert _strong_lucas(n)
        assert not _miller_rabin(n)
        assert not is_prime(n)

    def test_lucas_passes_exactly_primes_and_pseudoprimes(self):
        passed = [n for n in range(3, 30000, 2) if _strong_lucas(n)]
        assert [n for n in passed if not isprime(n)] == LUCAS_PSEUDOPRIMES
        assert [n for n in passed if isprime(n)] == list(primerange(3, 30000))

    def test_lucas_rejects_the_deterministic_bound(self):
        n = 3317044064679887385961981
        assert _miller_rabin(n)
        assert not _strong_lucas(n)
        assert not is_prime(n)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(10**25, 10**40))
    def test_is_prime_above_the_bound(self, n):
        assert is_prime(n) == isprime(n)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(10**25, 10**40))
    def test_primes_and_semiprimes_above_the_bound(self, n):
        p = int(nextprime(n))
        assert is_prime(p)
        assert not is_prime(p * int(nextprime(p)))


class TestECM:
    @pytest.mark.parametrize("digits", [12, 14, 16])
    def test_splits_semiprimes(self, digits):
        # two prime factors of the given size, beyond rho's budget
        rng = random.Random(digits)
        p, q = sorted(int(nextprime(rng.randrange(10 ** (digits - 1), 10**digits)))
                      for _ in range(2))
        assert p != q
        assert factor(p * q) == ((p, 1), (q, 1))
        assert factor(-12 * p * q) == ((2, 2), (3, 1), (p, 1), (q, 1))

    def test_budget_runs_out(self, monkeypatch):
        monkeypatch.setattr(arith, "_RHO_BUDGET", 1 << 8)
        monkeypatch.setattr(arith, "_ECM_BUDGET", (2, 100))
        with pytest.raises(FactoringLimit) as info:
            factor(7 * HARD)
        assert str(info.value) == (
            "no factor of a 51-digit composite found within the budget of"
            " 2 ECM curves at B1 = 100")
        assert isinstance(info.value, ValueError)

    def test_sign_shares_one_factorization(self, monkeypatch):
        # n and -n share one cache entry, so ECM splits p*q once
        monkeypatch.setattr(arith, "_RHO_BUDGET", 1 << 8)
        calls = []

        def counted(m, _real=arith._ecm):
            calls.append(m)
            return _real(m)

        monkeypatch.setattr(arith, "_ecm", counted)
        p, q = 300000000077, 700000000009
        assert factor(p * q) == factor(-p * q) == ((p, 1), (q, 1))
        assert calls == [p * q]

    def test_known_prime_needs_no_trial_division(self, monkeypatch):
        # a prime the cached primality test has seen is answered at once
        p = 1000000000000037
        assert is_prime(p)
        arith._factor_abs.cache_clear()

        class Refuse:
            def __iter__(self):
                raise AssertionError("factor trial-divided a known prime")

        monkeypatch.setattr(arith, "_SMALL_PRIMES", Refuse())
        assert factor(p) == factor(-p) == ((p, 1),)
        assert prime_factors(p) == [p]

    @pytest.mark.parametrize("b1", [1, 2, 10, 100, 11000])
    def test_ladder_is_lcm(self, b1):
        assert arith._ladder_bits(b1) == bin(math.lcm(*range(1, b1 + 1)))[2:]


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


def test_cli_runs_with_sympy_blocked(tmp_path):
    # `udisc` in fresh interpreters that cannot import sympy: the corpus, a
    # prime past the deterministic bound, and two inputs past the real
    # factoring budget, one on the command line and one in a fact file
    sheet = {
        "id": "hard",
        "character": {"degree": 2, "delta0": 1, "group_order_factors": {"2": 1}},
        "relations": [{"kind": "restriction", "constituents": [
            {"indicator": "+", "degree": 2, "class_ram": [], "ortho_disc": HARD},
        ]}],
    }
    path = tmp_path / "hard.json"
    path.write_text(json.dumps(sheet))
    code = ("import sys\n"
            "sys.modules['sympy'] = None\n"
            "import udisc.cli\n"
            "sys.exit(udisc.cli.main())\n")
    env = dict(os.environ, PYTHONPATH=str(Path(udisc.__file__).parent.parent))
    argvs = [
        ["corpus"],
        ["symbol", str(nextprime(4 * 10**24)), "3"],
        ["symbol", str(HARD), "3"],
        ["deduce", str(path)],
    ]
    # the two hard inputs each spend the whole budget, so run all at once
    procs = [subprocess.Popen([sys.executable, "-c", code, *argv], env=env,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True) for argv in argvs]
    try:
        outs = [p.communicate(timeout=300) for p in procs]
    finally:
        for p in procs:
            p.kill()
    (rc0, rc1, rc2, rc3) = [p.returncode for p in procs]
    (out0, _), (out1, _), (_, err2), (_, err3) = outs
    limit = ("no factor of a 51-digit composite found within the budget of"
             " 80 ECM curves at B1 = 11000\n")
    assert rc0 == 0 and out0.endswith("all pass\n")
    assert rc1 == 0 and out1.startswith("inf:1 ")
    assert rc2 == 1 and err2 == "error: " + limit
    assert rc3 == 1
    assert err3 == "error: relations[0].constituents[0].ortho_disc: " + limit
