"""Unit tests for adaptive thread-block assignment (paper §3.2.2)."""

import pytest

from repro.kernels.assignment import (
    AssignmentProfile,
    KernelVariant,
    ProfileKey,
    default_variants,
    profile_division_points,
    select_division_point,
)


class TestVariants:
    def test_default_variants_range(self):
        variants = default_variants(132)
        ncs = [v.nc for v in variants]
        assert min(ncs) == 2
        assert max(ncs) <= 132 * 0.6 + 4
        assert len(ncs) > 5

    def test_negative_nc_rejected(self):
        with pytest.raises(ValueError):
            KernelVariant(-1)

    def test_tiny_gpu_rejected(self):
        with pytest.raises(ValueError):
            default_variants(2)

    @pytest.mark.parametrize("step", (0, 2.5, True, -4), ids=repr)
    def test_step_must_be_a_positive_integer(self, step):
        # 0 and 2.5 used to fail inside range(), True built the step-1
        # library and -4 an empty one.
        with pytest.raises(ValueError, match="step must be a positive integer"):
            default_variants(132, step=step)


class TestProfileKey:
    def test_bucket_rounds_up_to_power_of_two(self):
        assert ProfileKey.bucket_tokens(4096) == 4096
        assert ProfileKey.bucket_tokens(5000) == 8192
        assert ProfileKey.bucket_tokens(1) == 1
        assert ProfileKey.bucket_tokens(0) == 1

    def test_make_validates_layer(self):
        with pytest.raises(ValueError):
            ProfileKey.make(2, 1, 8, 4096)

    def test_keys_hashable_and_distinct(self):
        k1 = ProfileKey.make(0, 1, 8, 4096)
        k2 = ProfileKey.make(1, 1, 8, 4096)
        assert k1 != k2
        assert len({k1, k2}) == 2


class TestProfiling:
    @staticmethod
    def quadratic(nc: int) -> float:
        """Synthetic U-curve with minimum at nc = 26."""
        return (nc - 26) ** 2 + 100.0

    def test_finds_minimum(self):
        sweep = profile_division_points(self.quadratic, default_variants(132))
        assert abs(sweep.best_nc - 26) <= 2  # quantised library

    def test_curve_sorted(self):
        sweep = profile_division_points(self.quadratic, default_variants(132))
        ncs = [nc for nc, _ in sweep.curve()]
        assert ncs == sorted(ncs)

    def test_invalid_variants_skipped(self):
        def sim(nc: int) -> float:
            if nc > 10:
                raise ValueError("too many blocks")
            return float(100 - nc)

        sweep = profile_division_points(sim, default_variants(132))
        assert sweep.best_nc <= 10

    def test_all_invalid_raises(self):
        def sim(nc: int) -> float:
            raise ValueError("never works")

        with pytest.raises(ValueError):
            profile_division_points(sim, default_variants(132))

    def test_best_duration(self):
        sweep = profile_division_points(self.quadratic, default_variants(132))
        assert sweep.best_duration_us == min(sweep.durations_us.values())


class TestSelection:
    def make_profile(self):
        profile = AssignmentProfile()
        sweep_small = profile_division_points(
            lambda nc: (nc - 18) ** 2 + 1, default_variants(132)
        )
        sweep_large = profile_division_points(
            lambda nc: (nc - 26) ** 2 + 1, default_variants(132)
        )
        profile.record(ProfileKey.make(1, 8, 1, 4096), sweep_small)
        profile.record(ProfileKey.make(1, 8, 1, 16384), sweep_large)
        return profile

    def test_exact_hit(self):
        profile = self.make_profile()
        nc = select_division_point(profile, ProfileKey.make(1, 8, 1, 4096))
        assert abs(nc - 18) <= 2

    def test_optimal_shifts_with_tokens(self):
        """The paper's headline adaptivity: optimal nc moves with M."""
        profile = self.make_profile()
        nc_small = select_division_point(profile, ProfileKey.make(1, 8, 1, 4096))
        nc_large = select_division_point(profile, ProfileKey.make(1, 8, 1, 16384))
        assert nc_large > nc_small

    def test_nearest_bucket_fallback(self):
        profile = self.make_profile()
        nc = select_division_point(profile, ProfileKey.make(1, 8, 1, 6000))
        # 6000 buckets to 8192; nearest profiled bucket is 4096.
        assert abs(nc - 18) <= 2

    def test_cold_start_fallback(self):
        profile = self.make_profile()
        nc = select_division_point(
            profile, ProfileKey.make(0, 4, 2, 4096), fallback_nc=13
        )
        assert nc == 13

    def test_contains(self):
        profile = self.make_profile()
        assert ProfileKey.make(1, 8, 1, 4096) in profile
        assert ProfileKey.make(0, 8, 1, 4096) not in profile
