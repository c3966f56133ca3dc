"""Acceptance suite: the end-to-end criteria for this package.

Each criterion is one test, timed against its wall-clock budget, and
prints a single ACCEPTANCE <k>: PASS/FAIL line (visible with -s, or in
the captured output of a failing run).  All equality checks are exact;
there are no tolerances anywhere.
"""
import random
from fractions import Fraction
from time import perf_counter

from youngops import (
    AlgebraElement,
    YoungDiagram,
    YoungTableau,
    embed_element,
    enumerate_syt,
    hermitian_young,
    orthogonality_report,
    realize,
    young_operator,
)

F = Fraction


def T(text):
    return YoungTableau.from_string(text)


def _criterion(k, label, budget_s, fn):
    start = perf_counter()
    try:
        fn()
    except BaseException:
        print(f"ACCEPTANCE {k}: FAIL - {label}")
        raise
    elapsed = perf_counter() - start
    ok = elapsed < budget_s
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {k}: {status} ({elapsed:.3f}s, budget {budget_s}s) - {label}")
    assert ok, f"criterion {k} exceeded its {budget_s}s budget ({elapsed:.3f}s)"


def test_criterion_1_hook_product():
    def body():
        assert YoungDiagram([3, 2]).hook_product() == 24
    _criterion(1, "hook product of shape (3,2) is 24", 0.001, body)


def test_criterion_2_transversality_counterexample():
    def body():
        a = young_operator(T("135/24"))
        b = young_operator(T("123/45"))
        assert (a * b).is_zero()
        assert not (b * a).is_zero()
    _criterion(2, "one product order of the n=5 pair vanishes, "
                  "the other does not", 1.0, body)


def test_criterion_3_conventional_transversality_window():
    def body():
        for n in (2, 3, 4):
            ops = [young_operator(t) for t in enumerate_syt(n)]
            for i, yi in enumerate(ops):
                for j, yj in enumerate(ops):
                    want = yi if i == j else AlgebraElement.zero(n)
                    assert yi * yj == want, f"n={n} pair ({i},{j})"
        # at n = 5 the scan fails on exactly two ordered pairs: the
        # classical counterexample and its column-row mirror image
        tableaux = enumerate_syt(5)
        ops = {t.to_string(): young_operator(t) for t in tableaux}
        failing = set()
        for si, yi in ops.items():
            for sj, yj in ops.items():
                want = yi if si == sj else AlgebraElement.zero(5)
                if yi * yj != want:
                    failing.add((si, sj))
        assert failing == {("123/45", "135/24"), ("12/34/5", "14/25/3")}
    _criterion(3, "conventional operators transversal for n <= 4, "
                  "failing at n=5 only on the known pairs", 10.0, body)


def test_criterion_4_hermitian_operator_properties():
    def body():
        for n in (2, 3, 4, 5):
            tableaux = enumerate_syt(n)
            ops = [hermitian_young(t) for t in tableaux]
            # (i) transversality across all ordered pairs
            for i, pi in enumerate(ops):
                for j, pj in enumerate(ops):
                    want = pi if i == j else AlgebraElement.zero(n)
                    assert pi * pj == want, f"n={n} pair ({i},{j})"
            # (ii) exact trace polynomials, shared with the conventional family
            for t, p in zip(tableaux, ops):
                shape = t.shape
                want = shape.dimension_polynomial() / shape.hook_product()
                assert p.trace_polynomial() == want
                assert young_operator(t).trace_polynomial() == want
            # (iii) completeness
            total = AlgebraElement.zero(n)
            for p in ops:
                total = total + p
            assert total == AlgebraElement.one(n)
            # (iv) Hermiticity
            for p in ops:
                assert p.involution() == p
    _criterion(4, "transversality, traces, completeness and Hermiticity "
                  "for all tableaux with 2..5 boxes", 60.0, body)


def test_criterion_5_three_box_sum_identity():
    # build the operators first; the criterion times the identity itself
    p1, p2 = hermitian_young(T("12/3")), hermitian_young(T("13/2"))
    y1, y2 = young_operator(T("12/3")), young_operator(T("13/2"))

    def body():
        assert p1 + p2 == y1 + y2
    _criterion(5, "the two mixed-symmetry operators at n=3 have equal sums "
                  "in both families", 0.001, body)


def test_criterion_6_partial_trace_recursion():
    def body():
        # tr' X = N A + B, so tr' X = (N + p - q) r X' holds iff
        # A = r X' and B = (p - q) r X'.
        for n in (2, 3, 4, 5):
            for t in enumerate_syt(n):
                parent, p, q = t.parent()
                r = F(parent.shape.hook_product(), t.shape.hook_product())
                for build in (young_operator, hermitian_young):
                    looped, spliced = build(t).partial_trace()
                    assert looped == build(parent).scale(r), t
                    assert spliced == build(parent).scale((p - q) * r), t
    _criterion(6, "last-slot partial trace reduces every operator to "
                  "(N+p-q) (|T'|/|T|) times its parent", 30.0, body)


def test_criterion_7_shortcut_and_squaring():
    def body():
        p123 = embed_element(hermitian_young(T("123")), 5)
        y = young_operator(T("123/45"))
        assert p123 * y * p123 == hermitian_young(T("123/45"))
        p12 = embed_element(hermitian_young(T("1/2")), 4)
        y2 = young_operator(T("13/24"))
        assert p12 * y2 * p12 == hermitian_young(T("13/24"))
        y135 = young_operator(T("135/24"))
        assert (y135 / 2) * (y135 / 2) == y135 / 4
    _criterion(7, "single-sandwich shortcut builds, and squaring fixes "
                  "normalization", 5.0, body)


def test_criterion_8_tensor_cross_validation():
    def body():
        for N in (2, 3):
            for n in (1, 2, 3, 4, 5):
                tableaux = enumerate_syt(n)
                names = [t.to_string() for t in tableaux]
                mats = [realize(hermitian_young(t), N) for t in tableaux]
                failures = [c for c in orthogonality_report(mats, names)
                            if not c.passed]
                assert not failures, failures[:3]
                for t, m in zip(tableaux, mats):
                    shape = t.shape
                    want = F(shape.dimension_polynomial()(N),
                             shape.hook_product())
                    assert m.trace() == want, (N, t)
                    assert m.rank() == want, (N, t)
                    if shape.row_count > N:
                        assert want == 0 and m.is_zero()
        # spot-frozen dimensions at N=3, n=5
        dims = sorted(t.shape.dimension(3) for t in enumerate_syt(5))
        assert set(dims) == {0, 3, 6, 15, 21, 24}
        assert sum(dims) == 3 ** 5
    _criterion(8, "matrix realizations are complete orthogonal symmetric "
                  "projectors with the predicted trace and rank", 180.0, body)


def test_criterion_9_realization_property_suites():
    def body():
        rng = random.Random(20250825)
        perms = list(__import__("itertools").permutations(range(1, 5)))

        def random_element():
            terms = {}
            for _ in range(rng.randint(1, 5)):
                p = perms[rng.randrange(len(perms))]
                terms[p] = F(rng.randint(-6, 6), rng.randint(1, 6))
            return AlgebraElement(4, terms)

        samples = 120
        for _ in range(samples):
            a, b = random_element(), random_element()
            for N in (2, 3):
                da, db = realize(a, N), realize(b, N)
                assert realize(a * b, N) == da @ db
                assert da.transpose() == realize(a.involution(), N)
                assert da.trace() == a.trace_polynomial()(N)
    _criterion(9, "homomorphism, adjoint and trace faithfulness on 120 "
                  "random samples", 30.0, body)
