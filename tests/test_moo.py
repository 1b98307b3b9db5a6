import tracemalloc

import numpy as np
import pytest

from hvgan.moo import (
    MAX_HV_DIM,
    MAX_HV_POINTS,
    MC_BLOCK_VALUES,
    PARETO_BLOCK_BYTES,
    Orientation,
    PointSet,
    hypervolume_exact,
    hypervolume_mc,
    pareto_filter,
)

from oracles import (
    hv_inclusion_exclusion,
    hv_sweep_plain,
    hypervolume_mc_one_draw,
    pareto_brute,
)

MIN = Orientation.MINIMIZE
MAX = Orientation.MAXIMIZE


def pset(rows, orientation=MIN):
    return PointSet(rows, orientation)


def survivors(rows, orientation=MIN):
    """The rows ``pareto_filter`` keeps, as lists of floats."""
    return pareto_filter(pset(rows, orientation)).values.tolist()


class TestDominates:
    """Dominance between two points as ``pareto_filter`` applies it: a pair
    keeps only its dominating point, and both points when neither dominates."""

    def test_irreflexive_on_equal_points(self):
        assert survivors([(1, 1), (1, 1)]) == [[1, 1], [1, 1]]

    def test_strict_improvement_everywhere(self):
        assert survivors([(2, 3), (1, 2)]) == [[1, 2]]

    def test_incomparable_pair(self):
        assert survivors([(1, 3), (3, 1)]) == [[1, 3], [3, 1]]

    def test_weak_improvement_with_one_strict(self):
        assert survivors([(1, 3), (1, 2)]) == [[1, 2]]

    def test_maximize_flips_the_sense(self):
        assert survivors([(1, 2), (2, 3)], MAX) == [[2, 3]]
        assert survivors([(1, 2), (2, 3)], MIN) == [[1, 2]]

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="PointSet: .*inhomogeneous"):
            pset([(1, 2), (1, 2, 3)])
        with pytest.raises(
            ValueError, match="reference point has length 3, point set has dimension 2"
        ):
            hypervolume_exact(pset([(1, 2)]), (3, 3, 3))

    def test_non_finite_component_rejected_at_construction(self):
        with pytest.raises(ValueError, match="point 1 must be finite"):
            pset([(1.0, 2.0), (1.0, np.nan)])
        with pytest.raises(ValueError, match="point 0 must be finite"):
            pset([(-np.inf, 0.0)], MAX)
        with pytest.raises(
            ValueError,
            match=r"^reference point: components must be finite, got \(3\.0, inf\)$",
        ):
            hypervolume_mc(pset([(1.0, 2.0)]), (3, np.inf), 10, seed=0)

    def test_strict_partial_order_on_random_triples(self):
        def dominates(a, b):
            return survivors([a, b]) == [a.astype(float).tolist()]

        rng = np.random.default_rng(7)
        for _ in range(200):
            a, b, c = (rng.integers(0, 4, size=3) for _ in range(3))
            assert not dominates(a, a)
            if dominates(a, b):
                assert not dominates(b, a)
            if dominates(a, b) and dominates(b, c):
                assert dominates(a, c)

    def test_orientation_duality_on_random_pairs(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            a = rng.standard_normal(3)
            b = rng.standard_normal(3)
            negated = [[-v for v in row] for row in survivors([-a, -b], MIN)]
            assert survivors([a, b], MAX) == negated


class TestPointSet:
    def test_values_are_a_read_only_copy(self):
        rows = np.array([[1.0, 2.0], [2.0, 1.0]])
        s = PointSet(rows, MIN)
        rows[0, 0] = 9.0
        assert s.values.tolist() == [[1.0, 2.0], [2.0, 1.0]]
        with pytest.raises(ValueError):
            s.values[0, 0] = 0.0

    def test_minimized_negates_maximize_data_only(self):
        rows = [(1, -2), (3, 4)]
        assert pset(rows, MIN).minimized().tolist() == [[1, -2], [3, 4]]
        assert pset(rows, MAX).minimized().tolist() == [[-1, 2], [-3, -4]]

    def test_orientation_must_be_an_orientation(self):
        with pytest.raises(ValueError, match="Orientation"):
            PointSet([(1, 2)], "min")

    @pytest.mark.parametrize("call, message", [
        (lambda: PointSet(np.zeros((1, 2, 3)), MIN),
         r"PointSet: need a \(k, n\) array, got shape \(1, 2, 3\)"),
        (lambda: PointSet(np.zeros((2, 0)), MIN),
         "PointSet: points need at least one component"),
        (lambda: hypervolume_exact(pset([(1, 2)]), ()),
         "reference point: need at least one component"),
    ], ids=["three_d", "no_components", "empty_reference"])
    def test_shapeless_points_rejected(self, call, message):
        with pytest.raises(ValueError, match=message):
            call()


class TestParetoFilter:
    def test_contract_example(self):
        out = pareto_filter(pset([(1, 2), (2, 1), (2, 2)]))
        assert out.values.tolist() == [[1, 2], [2, 1]]

    def test_singleton_survives(self):
        out = pareto_filter(pset([(5, 5)]))
        assert out.values.tolist() == [[5, 5]]

    def test_duplicates_of_nondominated_all_kept(self):
        out = pareto_filter(pset([(1, 1), (1, 1)]))
        assert out.values.tolist() == [[1, 1], [1, 1]]

    def test_empty_set_passes_through(self):
        assert len(pareto_filter(PointSet([], MIN))) == 0

    def test_preserves_input_order(self):
        rows = [(3, 0), (0, 3), (1, 1), (2, 2)]
        out = pareto_filter(pset(rows))
        assert out.values.tolist() == [[3, 0], [0, 3], [1, 1]]

    def test_matches_brute_force_on_random_sets(self):
        rng = np.random.default_rng(11)
        sets = [rng.integers(0, 5, size=(int(rng.integers(1, 10)), int(rng.integers(2, 5))))
                for _ in range(100)]
        # ties and duplicates across several row blocks of the mask, the last
        # one partial
        grid = rng.integers(0, 6, size=(300, 3))
        assert 2 * (PARETO_BLOCK_BYTES // grid.size) < len(grid)
        sets.append(grid)
        # edge shapes: no point, one point, one objective
        sets += [np.zeros((0, 3)), np.array([[2, 1, 3]]), rng.integers(0, 4, size=(40, 1))]
        for arr in sets:
            rows = [tuple(r) for r in arr.tolist()]
            expect = [rows[i] for i in pareto_brute(rows)]
            got = pareto_filter(PointSet(arr, MIN)).values.tolist()
            assert got == [[float(v) for v in r] for r in expect]

    def test_maximize_matches_negated_minimize(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            rows = rng.standard_normal((6, 3))
            got_max = pareto_filter(pset(rows, MAX)).values
            got_min = pareto_filter(pset(-rows, MIN)).values
            assert got_max.tolist() == (-got_min).tolist()

    def test_mixed_dimensions_rejected(self):
        with pytest.raises(ValueError, match="PointSet: .*inhomogeneous"):
            pset([(1, 2), (1, 2, 3)])


class TestHypervolumeExact:
    def test_single_box(self):
        assert hypervolume_exact(pset([(1, 1)]), (2, 2)) == pytest.approx(1.0)

    def test_two_point_front_matches_inclusion_exclusion(self):
        # oracle: 2*1 + 1*2 - 1*1 = 3
        assert hv_inclusion_exclusion(
            np.array([[1.0, 2.0], [2.0, 1.0]]), np.array([3.0, 3.0])
        ) == pytest.approx(3.0)
        assert hypervolume_exact(pset([(1, 2), (2, 1)]), (3, 3)) == pytest.approx(3.0)

    def test_empty_set_is_zero(self):
        assert hypervolume_exact(PointSet([], MIN), (3, 3)) == 0.0

    def test_point_touching_reference_contributes_nothing(self):
        assert hypervolume_exact(pset([(1, 3)]), (3, 3)) == 0.0

    def test_matches_inclusion_exclusion_on_random_sets(self):
        rng = np.random.default_rng(21)
        for _ in range(150):
            n = int(rng.integers(2, 5))
            k = int(rng.integers(1, 9))
            pts = rng.uniform(0.0, 1.0, size=(k, n))
            ref = np.full(n, 1.25)
            got = hypervolume_exact(pset(pts), ref)
            want = hv_inclusion_exclusion(pts, ref)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-14)
        # Integer grids: duplicate rows, ties in the last objective and
        # points on the reference face, which continuous draws never give.
        for _ in range(120):
            n = int(rng.integers(3, 7))
            k = int(rng.integers(1, 11))
            pts = rng.integers(0, 4, size=(k, n)).astype(float)
            ref = np.full(n, float(rng.integers(3, 5)))
            got = hypervolume_exact(pset(pts), ref)
            want = hv_inclusion_exclusion(pts, ref)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-14)

    def test_bits_match_the_sweep_without_reuse(self):
        # Sub-volumes reused within one call give the bits of the plain
        # sweep, on continuous, spherical and integer-grid fronts (ties in
        # every objective, duplicates, points on the reference face), and
        # on the same rows shuffled.
        rng = np.random.default_rng(27)
        for trial in range(240):
            n = 3 + trial % 4
            kind = trial // 4 % 3
            if kind == 0:
                rows = rng.uniform(0.0, 1.0, size=(int(rng.integers(1, 25)), n))
                ref = np.full(n, 1.25)
            elif kind == 1:
                g = np.abs(rng.standard_normal((int(rng.integers(1, 17)), n)))
                rows = g / np.linalg.norm(g, axis=1, keepdims=True)
                ref = np.full(n, 1.0)
            else:
                rows = rng.integers(0, 4, size=(int(rng.integers(1, 31)), n)).astype(float)
                ref = np.full(n, float(rng.integers(3, 5)))
            tuples = [tuple(r) for r in rows.tolist()]
            front = list({tuples[i] for i in pareto_brute(tuples)})
            want = hv_sweep_plain(front, tuple(ref.tolist())).hex()
            assert hv_sweep_plain(front[::-1], tuple(ref.tolist())).hex() == want
            assert hypervolume_exact(pset(rows), ref).hex() == want
            shuffled = rows[rng.permutation(len(rows))]
            assert hypervolume_exact(pset(shuffled), ref).hex() == want

    def test_matches_inclusion_exclusion_in_six_dimensions(self):
        rng = np.random.default_rng(22)
        for _ in range(10):
            pts = rng.uniform(0.0, 1.0, size=(6, 6))
            got = hypervolume_exact(pset(pts), np.full(6, 1.5))
            want = hv_inclusion_exclusion(pts, np.full(6, 1.5))
            assert got == pytest.approx(want, rel=1e-12)

    def test_adding_points_never_decreases(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            pts = rng.uniform(0.0, 1.0, size=(5, 3)).tolist()
            base = hypervolume_exact(pset(pts[:-1]), (1.5, 1.5, 1.5))
            grown = hypervolume_exact(pset(pts), (1.5, 1.5, 1.5))
            assert grown >= base - 1e-15

    def test_adding_a_dominated_point_changes_nothing(self):
        rng = np.random.default_rng(24)
        for _ in range(50):
            pts = rng.uniform(0.0, 0.8, size=(4, 3))
            dominated = pts[0] + rng.uniform(0.01, 0.15, size=3)
            base = hypervolume_exact(pset(pts), (1.5, 1.5, 1.5))
            grown = hypervolume_exact(
                pset(np.vstack([pts, dominated[None]])), (1.5, 1.5, 1.5)
            )
            assert grown == pytest.approx(base, rel=1e-12)

    def test_equals_hypervolume_of_pareto_subset_exactly(self):
        rng = np.random.default_rng(25)
        for _ in range(50):
            s = pset(rng.uniform(0.0, 1.0, size=(7, 3)))
            ref = (1.25, 1.25, 1.25)
            assert hypervolume_exact(s, ref) == hypervolume_exact(
                pareto_filter(s), ref
            )

    def test_translation_covariance(self):
        rng = np.random.default_rng(26)
        for _ in range(50):
            pts = rng.uniform(0.0, 1.0, size=(5, 3))
            shift = rng.standard_normal(3)
            a = hypervolume_exact(pset(pts), np.full(3, 1.5))
            b = hypervolume_exact(pset(pts + shift), np.full(3, 1.5) + shift)
            assert b == pytest.approx(a, rel=1e-12)

    def test_maximize_orientation(self):
        s = pset([(2, 1), (1, 2)], MAX)
        assert hypervolume_exact(s, (0, 0)) == pytest.approx(3.0)

    def test_reference_violation_names_the_point(self):
        with pytest.raises(ValueError, match="point 1"):
            hypervolume_exact(pset([(1, 1), (4, 1)]), (3, 3))

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="length"):
            hypervolume_exact(pset([(1, 1)]), (3, 3, 3))

    def test_dimension_limit_enforced(self):
        pts = [tuple([0.0] * (MAX_HV_DIM + 1))]
        ref = tuple([1.0] * (MAX_HV_DIM + 1))
        with pytest.raises(ValueError, match="objectives"):
            hypervolume_exact(pset(pts), ref)

    def test_point_limit_counts_nondominated_only(self):
        # 40 points on a 2-d antichain: too many survivors
        rows = [(float(i), float(40 - i)) for i in range(40)]
        with pytest.raises(ValueError, match="nondominated"):
            hypervolume_exact(pset(rows), (100.0, 100.0))
        # 40 points in a dominated chain reduce to one survivor: fine
        chain = [(float(i), float(i)) for i in range(40)]
        assert hypervolume_exact(pset(chain), (100.0, 100.0)) == pytest.approx(
            100.0 * 100.0, rel=1e-12
        )

    def test_point_limit_counts_distinct_points(self):
        # 33 copies of one point are a one-point front
        assert hypervolume_exact(pset([(1.0, 2.0)] * 33), (3.0, 3.0)) == 2.0
        antichain = [(float(i), float(40 - i)) for i in range(40)]
        with pytest.raises(ValueError, match="at most 32 nondominated points, got 40"):
            hypervolume_exact(pset(antichain), (100.0, 100.0))

    def test_point_limit_value(self):
        assert MAX_HV_POINTS == 32 and MAX_HV_DIM == 6


class TestHypervolumeMC:
    def test_single_point_filling_the_box(self):
        est, stderr = hypervolume_mc(pset([(0, 0)]), (1, 1), 10**5, seed=3)
        assert est == 1.0
        assert stderr == 0.0

    def test_empty_set(self):
        assert hypervolume_mc(PointSet([], MIN), (1, 1), 100, seed=0) == (0.0, 0.0)

    def test_two_point_front_within_four_stderr(self):
        est, stderr = hypervolume_mc(pset([(1, 2), (2, 1)]), (3, 3), 10**6, seed=5)
        assert abs(est - 3.0) <= 4.0 * stderr

    def test_deterministic_for_fixed_seed(self):
        s = pset([(1, 2), (2, 1)])
        assert hypervolume_mc(s, (3, 3), 10**4, seed=9) == hypervolume_mc(
            s, (3, 3), 10**4, seed=9
        )

    def test_seed_changes_the_estimate(self):
        s = pset([(0.3, 0.7), (0.6, 0.2)])
        a = hypervolume_mc(s, (1, 1), 10**4, seed=1)
        b = hypervolume_mc(s, (1, 1), 10**4, seed=2)
        assert a != b

    def test_matches_exact_within_four_stderr_on_random_sets(self):
        rng = np.random.default_rng(31)
        hits = 0
        trials = 20
        for _ in range(trials):
            n = int(rng.integers(2, 4))
            k = int(rng.integers(2, 9))
            pts = rng.uniform(0.0, 1.0, size=(k, n))
            s = pset(pts)
            ref = np.full(n, 1.1)
            exact = hypervolume_exact(s, ref)
            est, stderr = hypervolume_mc(s, ref, 10**5, seed=int(rng.integers(1 << 30)))
            if abs(est - exact) <= 4.0 * max(stderr, 1e-30):
                hits += 1
        assert hits >= trials - 1

    def test_sample_count_validated(self):
        with pytest.raises(ValueError, match="samples"):
            hypervolume_mc(pset([(0, 0)]), (1, 1), 0, seed=0)

    def test_reference_precondition_shared_with_exact(self):
        with pytest.raises(ValueError, match="point 0"):
            hypervolume_mc(pset([(2, 2)]), (1, 1), 100, seed=0)

    def test_maximize_orientation(self):
        est, stderr = hypervolume_mc(pset([(1, 1)], MAX), (0, 0), 10**5, seed=4)
        assert est == 1.0 and stderr == 0.0

    @pytest.mark.parametrize("dim", [1, 2, 3, 4, 5, 6])
    @pytest.mark.parametrize("extra", [-1, 0, 1, "2B+3"])
    def test_blocks_give_the_estimate_of_one_draw(self, dim, extra):
        block = MC_BLOCK_VALUES // dim
        samples = 2 * block + 3 if extra == "2B+3" else block + extra
        pts = np.random.default_rng([41, dim]).uniform(size=(8, dim))
        ref = np.full(dim, 1.0)
        got = hypervolume_mc(pset(pts), ref, samples, seed=17)
        assert got == hypervolume_mc_one_draw(pts, ref, samples, seed=17)

    def test_maximize_blocks_give_the_estimate_of_one_draw(self):
        samples = 2 * (MC_BLOCK_VALUES // 4) + 3
        pts = np.random.default_rng(42).uniform(1.0, 3.0, size=(8, 4))
        ref = np.array([0.5, 1.0, 0.0, 0.75])
        got = hypervolume_mc(pset(pts, MAX), ref, samples, seed=23)
        assert got == hypervolume_mc_one_draw(-pts, -ref, samples, seed=23)

    def test_pinned_bits_with_dominated_and_duplicate_points(self):
        # 10 nondominated points, 4 dominated ones and 3 duplicates in 6
        # objectives; the estimate and its error were recorded with the
        # counter comparing every sample against all 17 rows.
        rng = np.random.default_rng(47)
        front = rng.uniform(0.0, 0.8, size=(10, 6))
        dominated = front[:4] + rng.uniform(0.01, 0.15, size=(4, 6))
        pts = np.vstack([front, dominated, front[:3]])
        est, stderr = hypervolume_mc(pset(pts), np.full(6, 1.0), 50_000, seed=19)
        assert (est.hex(), stderr.hex()) == (
            "0x1.9398a4042bfa8p-3", "0x1.57b71e1158f8fp-10"
        )

    def test_memory_does_not_grow_with_the_sample_count(self):
        pts = np.random.default_rng(43).uniform(size=(8, 6))
        s = pset(pts)
        tracemalloc.start()
        try:
            hypervolume_mc(s, np.full(6, 1.0), 10**6, seed=5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # one draw of 10**6 x 6 doubles alone would be 48 MB
        assert peak < 8e6
