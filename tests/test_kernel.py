"""Kernel sign computations against the word-rewriting oracle."""

import random

import ealie
from ealie import kernel
from ealie.linalg import SpanDict
from ealie.quantum_torus import SignMatrix

from oracles import oracle_g, oracle_kappa, oracle_structure_constant

Q3 = SignMatrix.from_upper(3, [-1, 1, -1])
Q2 = SignMatrix.from_upper(2, [-1])


def _draws(nu, count, bound=5, seed=11):
    rng = random.Random(seed)
    return [tuple(rng.randint(-bound, bound) for _ in range(nu)) for _ in range(count)]


def test_structure_constant_matches_word_oracle():
    for q in (Q2, Q3):
        sigmas = _draws(q.nu, 40)
        taus = _draws(q.nu, 40, seed=12)
        for s in sigmas:
            for t in taus:
                got = kernel.structure_constant(s, t, q)
                assert got == oracle_structure_constant(s, t, q)


def test_kappa_matches_word_oracle():
    for q in (Q2, Q3):
        for s in _draws(q.nu, 200):
            assert kernel.kappa(s, q) == oracle_kappa(s, q)


def test_g_cocycle_matches_displayed_product():
    for q in (Q2, Q3):
        for s, t in zip(_draws(q.nu, 120), _draws(q.nu, 120, seed=13)):
            assert kernel.g_cocycle(s, t, q) == oracle_g(s, t, q)


def test_structure_constant_is_g_transposed():
    # c(sigma, tau) = g(tau, sigma): reordering tau past sigma crosses pairwise
    for q in (Q2, Q3):
        for s, t in zip(_draws(q.nu, 80), _draws(q.nu, 80, seed=14)):
            c = kernel.structure_constant(s, t, q)
            assert c == kernel.g_cocycle(t, s, q)


def test_two_cocycle_identity():
    # c(sigma, tau) c(sigma+tau, gamma) = c(tau, gamma) c(sigma, tau+gamma)
    q = Q3
    rng = random.Random(5)
    for _ in range(150):
        s, t, g = (tuple(rng.randint(-4, 4) for _ in range(3)) for _ in range(3))
        st = tuple(a + b for a, b in zip(s, t))
        tg = tuple(a + b for a, b in zip(t, g))
        lhs = kernel.structure_constant(s, t, q) * kernel.structure_constant(st, g, q)
        rhs = kernel.structure_constant(t, g, q) * kernel.structure_constant(s, tg, q)
        assert lhs == rhs


def test_int_rank_known_matrices():
    assert kernel.int_rank([(1, 0), (0, 1)], 2) == 2
    assert kernel.int_rank([(1, 2), (2, 4)], 2) == 1
    assert kernel.int_rank([(2, 4), (1, 2), (0, 0)], 2) == 1
    assert kernel.int_rank([], 3) == 0
    assert kernel.int_rank([(0, 0, 0)], 3) == 0


def test_int_rank_matches_rational_rank():
    rng = random.Random(31)
    for _ in range(60):
        rows = [tuple(rng.randint(-6, 6) for _ in range(4)) for _ in range(rng.randint(1, 5))]
        assert kernel.int_rank(rows, 4) == SpanDict(dict(enumerate(r)) for r in rows).dim


def test_backend_is_python():
    assert ealie.BACKEND == "python"
