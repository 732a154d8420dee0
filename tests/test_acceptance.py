"""Acceptance suite: fourteen structural criteria, one pass/fail line each.

Every criterion rebuilds what it times, checks exact equalities only (the
scalars are rationals and Gaussian rationals, so there are no tolerances to
tune), and prints a single line

    criterion NN <label>: PASS|FAIL <elapsed>s [bound <limit>s]

visible under ``pytest -s`` or in the captured output of a failing run.
Runtime bounds are part of the criteria and are asserted.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction

from ealie.axioms import check_D, check_T, serre_check, tameness_check
from ealie.constructions import TorusMatrixAlgebra, affinize
from ealie.decomp import (
    core_and_center_window,
    decompose_window,
    graded_pieces,
    theta_automorphism,
)
from ealie.ears import check_ears_axioms, support_checks
from ealie.exact_arith import GaussianRational
from ealie.finroot import STRING_SCAN, Root, root_string
from ealie.linalg import SpanDict, span_equal
from ealie.matlie import (
    LieElement,
    _closed_form_case,
    e_mat,
    hdot,
    mat_bracket,
    star,
    trace_form,
    zero_root_component,
)
from ealie.quantum_torus import (
    SignMatrix,
    TorusElement,
    cocycles,
    kappa,
    lattice_box,
)

from conftest import Q_MIXED
from oracles import division_witness, literal_zero_span, probe_flags

_I = GaussianRational(0, 1)


@contextmanager
def criterion(num, label, bound=None):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {num:02d} {label}: FAIL {time.perf_counter() - t0:.2f}s")
        raise
    dt = time.perf_counter() - t0
    within = bound is None or dt < bound
    tail = f"{dt:.2f}s" + (f" [bound {bound:g}s]" if bound is not None else "")
    print(f"criterion {num:02d} {label}: {'PASS' if within else 'FAIL'} {tail}")
    assert within, f"runtime {dt:.2f}s exceeded the {bound:g}s bound"


def test_criterion_01_root_multiplicities():
    with criterion(1, "root multiplicities at window 2", bound=30.0):
        alg = TorusMatrixAlgebra(2, Q_MIXED)
        win = decompose_window(alg, 2)
        points = set(lattice_box(2, 2))
        assert len(points) == 25
        seen_short = set()
        seen_long = set()
        for root in win.nonisotropic_roots():
            if root.finite in win.fin.short_roots():
                assert win.dim(root) == 2, root
                seen_short.add(root.lattice)
            else:
                assert root.finite in win.fin.long_roots()
                assert win.dim(root) == 1, root
                seen_long.add(root.lattice)
        assert seen_short == points
        assert seen_long == points


def test_criterion_02_cocycle_identities():
    with criterion(2, "cocycle identities on 500 triples", bound=1.0):
        q = Q_MIXED
        rng = random.Random(11)
        for _ in range(500):
            sigma, tau, gamma = (
                tuple(rng.randint(-6, 6) for _ in range(2)) for _ in range(3)
            )
            g_st, f_st = cocycles(sigma, tau, q)
            assert kappa(sigma, q) == cocycles(sigma, sigma, q)[0]
            st = tuple(a + b for a, b in zip(sigma, tau))
            assert f_st * kappa(sigma, q) * kappa(tau, q) == kappa(st, q)
            assert cocycles(st, gamma, q)[0] == cocycles(sigma, gamma, q)[0] * cocycles(tau, gamma, q)[0]
            assert cocycles(gamma, st, q)[0] == cocycles(gamma, sigma, q)[0] * cocycles(gamma, tau, q)[0]


def test_criterion_03_involution_identities():
    with criterion(3, "involution identities on 200 draws", bound=5.0):
        q = Q_MIXED
        ell = 2
        one = TorusElement.one(q)
        rng = random.Random(13)

        def rand_mat():
            out = LieElement.zero(ell, q)
            for _ in range(3):
                p, r = rng.randrange(2 * ell), rng.randrange(2 * ell)
                sigma = (rng.randint(-3, 3), rng.randint(-3, 3))
                coeff = GaussianRational(rng.randint(-3, 3), rng.randint(-3, 3))
                out = out + e_mat(ell, q, p, r, sigma, coeff)
            return out

        for _ in range(200):
            sigma = (rng.randint(-6, 6), rng.randint(-6, 6))
            t = TorusElement.monomial(q, sigma)
            t_inv = TorusElement.monomial(q, tuple(-v for v in sigma))
            k = kappa(sigma, q)
            assert t * t_inv == one * k
            assert t.bar() == t * k
            x, y = rand_mat(), rand_mat()
            assert star(x @ y) == star(y) @ star(x)
            assert star(star(x)) == x


def test_criterion_04_bracket_closed_form():
    with criterion(4, "bracket closed form on 50 draws", bound=10.0):
        q = Q_MIXED
        ell = 3
        rng = random.Random(17)

        def a_elem(a, b, sigma, r, s):
            ks = kappa(sigma, q)
            return (e_mat(ell, q, r, s, sigma, a)
                    + e_mat(ell, q, ell + s, ell + r, sigma, -ks * a)
                    + e_mat(ell, q, r, s, sigma, _I * b)
                    + e_mat(ell, q, ell + s, ell + r, sigma, _I * b * ks))

        def m_n(r, st):
            kst = kappa(st, q)
            m = e_mat(ell, q, r, r, st) + e_mat(ell, q, ell + r, ell + r, st, -kst)
            n = e_mat(ell, q, r, r, st) + e_mat(ell, q, ell + r, ell + r, st, kst)
            return m, n

        for _ in range(50):
            a, b, c, d = (Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(4))
            sigma = (rng.randint(-2, 2), rng.randint(-2, 2))
            tau = (rng.randint(-2, 2), rng.randint(-2, 2))
            r, s = rng.sample(range(ell), 2)
            st = tuple(x + y for x, y in zip(sigma, tau))
            # the multiplication convention makes the prefactor the transposed
            # cocycle sign g(tau, sigma); f and kappa are order-independent
            g, f = cocycles(tau, sigma, q)
            mr, nr = m_n(r, st)
            ms, ns = m_n(s, st)
            lhs = mat_bracket(a_elem(a, b, sigma, r, s), a_elem(c, d, tau, s, r))
            rhs = ((mr - ms * Fraction(f)) * (g * (a * c - b * d))
                   + (nr - ns * Fraction(f)) * (_I * (g * (a * d + b * c))))
            assert lhs == rhs


def test_criterion_05_serre_suite():
    with criterion(5, "Serre relations for rank 2 and 3", bound=20.0):
        win2 = decompose_window(TorusMatrixAlgebra(2, Q_MIXED), 1)
        rep2 = serre_check(win2)
        assert rep2.passed, [r.name for r in rep2.results if not r.passed]
        assert rep2.cartan == [[2, -1], [-2, 2]]

        win3 = decompose_window(TorusMatrixAlgebra(3, SignMatrix(0), real_only=True), 0)
        rep3 = serre_check(win3)
        assert rep3.passed, [r.name for r in rep3.results if not r.passed]
        assert rep3.cartan == [[2, -1, 0], [-1, 2, -1], [0, -2, 2]]


def test_criterion_06_form_identities(torus_win2):
    with criterion(6, "toral form values and gradedness"):
        q = Q_MIXED
        for r in range(2):
            for s in range(2):
                hr, hs = hdot(2, q, r), hdot(2, q, s)
                assert trace_form(hr, hs) == (2 if r == s else 0)
                t_er, t_es = hr * Fraction(1, 2), hs * Fraction(1, 2)
                assert trace_form(t_er, t_es) == (Fraction(1, 2) if r == s else 0)
        flat = [(root, x) for root, x in torus_win2.all_basis()]
        for ra, xa in flat:
            for rb, xb in flat:
                if not (ra + rb).is_zero:
                    assert torus_win2.form(xa, xb) == 0, (ra, rb)


def test_criterion_07_axiom_suites():
    with criterion(7, "D, T and tameness suites", bound=120.0):
        for nu, upper in ((1, []), (2, [-1])):
            win = decompose_window(TorusMatrixAlgebra(2, SignMatrix.from_upper(nu, upper)), 1)
            rep = check_D(win, seed=3)
            assert rep.passed, (nu, [r.name for r in rep.results if not r.passed])

        aff = affinize(TorusMatrixAlgebra(2, Q_MIXED))
        win2 = decompose_window(aff, 2)
        rep_t = check_T(win2, seed=3)
        assert rep_t.passed, [r.name for r in rep_t.results if not r.passed]

        core = core_and_center_window(win2)
        rep_tame = tameness_check(win2, core)
        assert rep_tame.passed, [r.name for r in rep_tame.results if not r.passed]


def test_criterion_08_ears_suite(torus_win2):
    with criterion(8, "root system axioms and supports"):
        results = check_ears_axioms(torus_win2)
        assert all(r.passed for r in results), [r.name for r in results if not r.passed]
        sup, sup_results = support_checks(torus_win2)
        assert all(r.passed for r in sup_results), [r.name for r in sup_results if not r.passed]
        interior = frozenset(lattice_box(2, 2))
        assert sup.s_set == interior
        assert sup.l_set == interior


def test_criterion_09_root_strings(torus_win2):
    with criterion(9, "exhaustive root strings at window 2"):
        win = torus_win2
        roots = win.roots()
        for alpha in win.nonisotropic_roots():
            va = tuple(alpha.finite) + tuple(alpha.lattice)
            nn = win.pairing(alpha, alpha)
            for beta in roots:
                vb = tuple(beta.finite) + tuple(beta.lattice)
                c = 2 * win.pairing(beta, alpha) / nn
                assert c.denominator == 1 and abs(c) <= 4, (beta, alpha, c)
                d, u = root_string(vb, va, probe_flags(win.member, vb, va, STRING_SCAN), c)
                assert d - u == c, (beta, alpha)


def test_criterion_10_theta_automorphism(sp4_win):
    with criterion(10, "inner automorphisms permute root spaces"):
        win = sp4_win
        for alpha in win.nonisotropic_roots():
            theta = theta_automorphism(win, alpha)
            for beta in win.roots():
                target = Root(finite=win.fin.reflect(alpha.finite, beta.finite),
                              lattice=beta.lattice)
                image = SpanDict(win.coords(theta(x)) for x in win.basis(beta))
                expected = SpanDict(win.coords(y) for y in win.basis(target))
                assert span_equal(image, expected), (alpha, beta)


def test_criterion_11_core_and_center(aff_alg, aff_win, aff_core):
    with criterion(11, "core splits as graded part plus center"):
        base = aff_alg.base
        c_span = SpanDict(aff_win.coords(aff_alg.c_gen(i)) for i in range(base.nu))
        for root in aff_win.nonisotropic_roots():
            assert span_equal(
                SpanDict(aff_win.coords(x) for x in aff_core.piece_basis(root)),
                SpanDict(aff_win.coords(x) for x in aff_win.basis(root)),
            ), root
        for delta in aff_win.isotropic_roots():
            lifted = SpanDict(
                aff_win.coords(aff_alg.lift(x)) for x in base.root_piece(delta)
            )
            if not any(delta.lattice):
                for i in range(base.nu):
                    lifted.add(aff_win.coords(aff_alg.c_gen(i)))
            assert span_equal(
                SpanDict(aff_win.coords(x) for x in aff_core.piece_basis(delta)),
                lifted,
            ), delta
        center_span = SpanDict(aff_win.coords(z) for z in aff_core.center)
        assert span_equal(center_span, c_span)
        iso_span = SpanDict(
            aff_win.coords(x)
            for delta in aff_win.isotropic_roots()
            for x in aff_win.basis(delta)
        )
        for z in aff_core.center:
            assert iso_span.contains(aff_win.coords(z))


def test_criterion_12_division_example(sqrt_alg):
    with criterion(12, "square-root extension is strictly division", bound=30.0):
        win = decompose_window(sqrt_alg, 0)
        assert win.alg.nu == 0
        rep = check_T(win, seed=5)
        assert rep.passed, [r.name for r in rep.results if not r.passed]
        iso = win.isotropic_roots()
        assert len(iso) == 1 and iso[0].is_zero
        for root in win.nonisotropic_roots():
            assert win.dim(root) == 4, root
            t = win.rep_t(root)
            for x in win.basis(root):
                y = division_witness(win, root, x)
                assert sqrt_alg.bracket(x, y) == t


def test_criterion_13_jacobi_sampling(aff_alg, aff_win):
    with criterion(13, "Jacobi identity on 200 sampled triples"):
        rng = random.Random(19)

        def jacobi(alg, pool):
            for _ in range(200):
                x, y, z = (rng.choice(pool) for _ in range(3))
                acc = (alg.bracket(alg.bracket(x, y), z)
                       + alg.bracket(alg.bracket(y, z), x)
                       + alg.bracket(alg.bracket(z, x), y))
                assert acc.is_zero()

        full = TorusMatrixAlgebra(2, Q_MIXED, derived=False)
        full_pool = [x for sigma in lattice_box(2, 1)
                     for basis in graded_pieces(full, sigma).values() for x in basis]
        jacobi(full, full_pool)
        aff_pool = [x for _, x in aff_win.all_basis()]
        aff_pool += [aff_alg.c_gen(i) for i in range(2)]
        aff_pool += [aff_alg.d_gen(i) for i in range(2)]
        jacobi(aff_alg, aff_pool)


def test_criterion_14_zero_weight_four_cases():
    with criterion(14, "weight-zero slices follow the four-case table"):
        q = Q_MIXED
        kappas = set()
        table = {
            "even degree, odd-product property": 4,
            "odd degree, even-product property": 4,
            "even degree, no odd-product property": 3,
            "odd degree, no even-product property": 3,
        }
        for gamma in lattice_box(2, 2):
            basis = zero_root_component(2, q, gamma)
            case = _closed_form_case(2, q, gamma)[0]
            span, _, nonzero_pair_dim = literal_zero_span(2, q, gamma, 1)
            assert span_equal(span, SpanDict(b.coords() for b in basis)), gamma
            assert len(basis) == span.dim
            assert nonzero_pair_dim == span.dim, gamma
            assert span.dim == table[case], (gamma, case)
            kappas.add(kappa(gamma, q))
        assert kappas == {1, -1}
