import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from loopsim import mesh
from loopsim.mesh import (
    DecompositionError,
    MeshNoise,
    MeshPlan,
    clements_decompose,
    embed_cell,
    forward_arrays,
    imperfect_mzi,
    mesh_forward,
    mzi_transfer,
    noise_offsets,
    plan_from_json,
    plan_to_json,
)
from conftest import haar_unitary

angles = st.floats(0.0, 2.0 * np.pi)


def zero_plan(dim):
    los = tuple(lo for col in range(dim) for lo in range(col % 2, dim - 1, 2))
    zeros = (0.0,) * len(los)
    return MeshPlan(dim, los, zeros, zeros, (0.0,) * dim)


class TestTransfer:
    def test_known_value(self):
        # frozen: theta = pi/4, phi = pi/2 gives [[i, -1], [i, 1]] / sqrt(2)
        t = mzi_transfer(np.pi / 4.0, np.pi / 2.0)
        s = 0.7071067811865476
        expected = np.array([[1j * s, -s], [1j * s, s]])
        assert np.max(np.abs(t - expected)) < 1e-15

    def test_zero_settings_identity(self):
        assert np.array_equal(mzi_transfer(0.0, 0.0), np.eye(2))

    @settings(max_examples=100, deadline=None)
    @given(angles, angles)
    def test_unitary(self, theta, phi):
        t = mzi_transfer(theta, phi)
        assert np.max(np.abs(t.conj().T @ t - np.eye(2))) < 1e-14

    def test_embed_identity_elsewhere(self):
        u = embed_cell(1, 0.4, 1.1, 5)
        mask = np.ones((5, 5), dtype=bool)
        mask[np.ix_([1, 2], [1, 2])] = False
        assert np.array_equal(u[mask], np.eye(5, dtype=complex)[mask])
        assert np.array_equal(u[np.ix_([1, 2], [1, 2])], mzi_transfer(0.4, 1.1))

    def test_cell_validation(self):
        with pytest.raises(ValueError):
            embed_cell(-1, 0.0, 0.0, 5)
        with pytest.raises(ValueError):
            embed_cell(4, 0.0, 0.0, 5)


class TestImperfectCell:
    def test_zero_error_matches_ideal(self):
        for theta, phi in [(0.0, 0.0), (0.3, 1.1), (np.pi / 2, 4.0), (1.2, 6.1)]:
            d = np.max(np.abs(imperfect_mzi(theta, phi) - mzi_transfer(theta, phi)))
            assert d < 5e-16

    @settings(max_examples=100, deadline=None)
    @given(angles, angles, st.floats(-0.2, 0.2), st.floats(-0.2, 0.2),
           st.floats(-0.05, 0.05), st.floats(-0.05, 0.05))
    def test_unitary_under_error(self, theta, phi, dt, dp, s1, s2):
        m = imperfect_mzi(theta, phi, dt, dp, s1, s2)
        assert np.max(np.abs(m.conj().T @ m - np.eye(2))) < 1e-14

    def test_phase_error_stays_in_family(self):
        # a pure phase offset is the ideal cell at shifted settings
        m = imperfect_mzi(0.4, 1.0, d_theta=0.07, d_phi=-0.2)
        assert np.max(np.abs(m - mzi_transfer(0.47, 0.8))) < 1e-15

    def test_splitter_error_changes_moduli(self):
        # splitter imbalance leaves the ideal family: moduli shift
        m = imperfect_mzi(0.4, 1.0, d_split1=0.04, d_split2=-0.03)
        ideal = mzi_transfer(0.4, 1.0)
        assert np.max(np.abs(np.abs(m) - np.abs(ideal))) > 1e-3

    @pytest.mark.parametrize("d_split1, d_split2", [(0.7, 0.0), (0.0, -0.6)])
    def test_ratio_outside_unit_interval_raises(self, d_split1, d_split2):
        with pytest.raises(ValueError, match="outside"):
            imperfect_mzi(0.4, 1.0, d_split1=d_split1, d_split2=d_split2)

    def test_extreme_ratios_allowed(self):
        # a ratio of exactly 0 or 1 is a valid (if useless) coupler
        m = imperfect_mzi(0.4, 1.0, d_split1=0.5, d_split2=-0.5)
        assert np.max(np.abs(m.conj().T @ m - np.eye(2))) < 1e-14


class TestDecompose:
    def test_identity_gives_canonical_zero_plan(self):
        plan = clements_decompose(np.eye(6))
        assert len(plan.los) == 15
        assert plan.thetas == plan.phis == (0.0,) * 15
        assert plan.output_phases == (0.0,) * 6

    def test_single_cell_recovered(self):
        theta, phi = 0.7, 2.3
        plan = clements_decompose(embed_cell(0, theta, phi, 2))
        assert plan.los == (0,)
        assert plan.thetas[0] == pytest.approx(theta, abs=1e-12)
        assert plan.phis[0] == pytest.approx(phi, abs=1e-12)
        assert np.max(np.abs(np.asarray(plan.output_phases))) < 1e-12

    def test_roundtrip_haar(self, rng):
        for _ in range(20):
            u = haar_unitary(6, rng)
            plan = clements_decompose(u)
            rebuilt = mesh_forward(plan)
            assert np.linalg.norm(rebuilt - u) < 1e-9

    def test_explicit_product_oracle(self, rng):
        # oracle: multiply embedded cells one by one, output phases last
        u = haar_unitary(6, rng)
        plan = clements_decompose(u)
        acc = np.eye(6, dtype=complex)
        for lo, theta, phi in zip(plan.los, plan.thetas, plan.phis):
            acc = embed_cell(lo, theta, phi, 6) @ acc
        acc = np.diag(np.exp(1j * np.asarray(plan.output_phases))) @ acc
        assert np.max(np.abs(acc - u)) < 1e-10
        assert np.max(np.abs(mesh_forward(plan) - acc)) < 1e-12

    @pytest.mark.parametrize("dim", [2, 4, 6, 8])
    def test_cell_count_law(self, dim, rng):
        plan = clements_decompose(haar_unitary(dim, rng))
        assert len(plan.los) == len(plan.thetas) == len(plan.phis) == dim * (dim - 1) // 2

    def test_canonical_ranges_and_columns(self, rng):
        plan = clements_decompose(haar_unitary(6, rng))
        assert all(0.0 <= t <= np.pi / 2.0 + 1e-12 for t in plan.thetas)
        assert all(0.0 <= p < 2.0 * np.pi for p in plan.phis + plan.output_phases)
        # rectangular layout, as plan.json records it: no mode used twice in
        # one column, depth <= dim
        by_col = {}
        for c in json.loads(plan_to_json(plan))["cells"]:
            assert c["hi"] == c["lo"] + 1
            by_col.setdefault(c["column"], []).append(c)
        assert sorted(by_col) == list(range(6))
        for cells in by_col.values():
            modes = [m for c in cells for m in (c["lo"], c["hi"])]
            assert len(modes) == len(set(modes))

    def test_theta_stable_under_redecomposition(self, rng):
        u = haar_unitary(6, rng)
        plan1 = clements_decompose(u)
        plan2 = clements_decompose(mesh_forward(plan1))
        t1 = np.array(plan1.thetas)
        t2 = np.array(plan2.thetas)
        assert np.max(np.abs(t1 - t2)) < 1e-8

    def test_rejects_non_unitary(self):
        with pytest.raises(DecompositionError, match="not unitary"):
            clements_decompose(np.ones((4, 4)))
        nan_entry = np.eye(4, dtype=complex)
        nan_entry[2, 1] = np.nan
        with pytest.raises(DecompositionError, match="not unitary"):
            clements_decompose(nan_entry)
        with pytest.raises(DecompositionError):
            clements_decompose(np.ones((3, 4)))


class TestNoise:
    def test_offsets_deterministic_and_per_cell(self):
        noise = MeshNoise(seed=3)
        a = noise_offsets(noise, 15)
        b = noise_offsets(noise, 15)
        assert np.array_equal(a, b)
        # cell i's draws do not depend on the number of cells
        short = noise_offsets(noise, 5)
        assert np.array_equal(a[:5], short)
        assert not a.flags.writeable

    def test_forward_deterministic(self, rng):
        plan = clements_decompose(haar_unitary(6, rng))
        noise = MeshNoise(seed=9)
        assert np.array_equal(mesh_forward(plan, noise), mesh_forward(plan, noise))
        other = mesh_forward(plan, MeshNoise(seed=10))
        assert np.max(np.abs(other - mesh_forward(plan, noise))) > 1e-6

    def test_zero_sigma_bitwise_noiseless(self, rng):
        plan = clements_decompose(haar_unitary(6, rng))
        silent = MeshNoise(0.0, 0.0, 0.0, seed=77)
        assert np.array_equal(mesh_forward(plan, silent), mesh_forward(plan))

    @settings(max_examples=25, deadline=None)
    @given(st.floats(0.0, 0.3), st.floats(0.0, 0.3), st.floats(0.0, 0.05),
           st.integers(0, 2 ** 31))
    def test_noisy_forward_unitary(self, st_, sp, ss, seed):
        plan = zero_plan(4)
        noise = MeshNoise(st_, sp, ss, seed)
        m = mesh_forward(plan, noise)
        assert np.max(np.abs(m.conj().T @ m - np.eye(4))) < 1e-12

    def test_noiseless_zero_plan_is_phase_screen(self):
        plan = zero_plan(6)
        assert np.max(np.abs(mesh_forward(plan) - np.eye(6))) < 1e-14

    def test_noise_validation(self):
        with pytest.raises(ValueError):
            MeshNoise(sigma_theta=-0.1)


@st.composite
def mesh_cases(draw):
    """A dim, an arbitrary cell order on it (repeats and gaps allowed), phases and
    offsets whose coupler ratios stay inside [0, 1]."""
    dim = draw(st.integers(1, 16))
    los = draw(st.lists(st.integers(0, dim - 2), max_size=3 * dim)) if dim > 1 else []
    n = len(los)
    phases = draw(st.lists(angles, min_size=2 * n + dim, max_size=2 * n + dim))
    splits = st.floats(-0.5, 0.5)
    offsets = [draw(st.tuples(st.floats(-0.2, 0.2), st.floats(-0.2, 0.2), splits, splits))
               for _ in range(n)]
    return dim, tuple(los), phases, np.array(offsets, dtype=float).reshape(n, 4)


class TestColumnKernel:
    @settings(max_examples=200, deadline=None)
    @given(mesh_cases())
    @example((1, (), [0.3], np.zeros((0, 4))))
    @example((2, (0,), [0.4, 1.0, 0.2, 2.0], np.array([[0.01, -0.02, 0.5, -0.5]])))
    @example((3, (1, 1, 1), [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.0, 1.0, 2.0], np.zeros((3, 4))))
    def test_matches_ordered_cell_product(self, case):
        dim, los, phases, offsets = case
        n = len(los)
        thetas, phis, out = (np.array(phases[:n]), np.array(phases[n:2 * n]),
                             np.array(phases[2 * n:]))
        expected = np.eye(dim, dtype=complex)
        for k, lo in enumerate(los):
            cell = np.eye(dim, dtype=complex)
            cell[lo:lo + 2, lo:lo + 2] = imperfect_mzi(thetas[k], phis[k], *offsets[k])
            expected = cell @ expected
        expected = np.diag(np.exp(1j * out)) @ expected
        got = forward_arrays(dim, los, thetas, phis, out, offsets)
        assert np.max(np.abs(got - expected)) <= 1e-15 * (n + 1)

    def test_out_of_range_draw_raises_on_every_call(self):
        offsets = np.array([[0.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.6, 0.0]])
        for _ in range(2):
            with pytest.raises(ValueError, match="cell 1: coupler power ratio 1.1"):
                forward_arrays(3, (0, 1), np.zeros(2), np.zeros(2), np.zeros(3), offsets)

    def test_offsets_mutated_in_place_give_fresh_products(self, rng):
        plan = clements_decompose(haar_unitary(4, rng))
        offsets = noise_offsets(MeshNoise(seed=4), len(plan.los)).copy()
        args = (plan.dim, plan.los, np.array(plan.thetas), np.array(plan.phis), plan.output_phases)
        before = forward_arrays(*args, offsets)
        offsets[:, 2:] *= -1.0
        after = forward_arrays(*args, offsets)
        assert np.max(np.abs(after - before)) > 1e-4
        mesh._coupler_products.cache_clear()
        assert np.array_equal(forward_arrays(*args, offsets), after)

    def test_cached_arrays_read_only(self):
        _, stack, _ = mesh._columns(4, (0, 2, 1, 0))
        assert stack.shape == (3, 4, 4) and not stack.flags.writeable
        splits = np.array([[0.01, -0.02]]).tobytes()
        assert not any(a.flags.writeable for a in mesh._coupler_products(splits))


class TestPlanSerialization:
    def test_roundtrip_exact(self, rng):
        plan = clements_decompose(haar_unitary(6, rng))
        again = plan_from_json(plan_to_json(plan))
        assert again == plan

    def test_seventeen_digit_numbers(self):
        plan = MeshPlan(2, (0,), (np.pi / 3.0,), (1.0 / 3.0,), (0.1234567890123456789, 0.0))
        text = plan_to_json(plan)
        assert '"theta":1.0471975511965976' in text
        assert '"phi":0.33333333333333331' in text
        assert "0.12345678901234568" in text

    def test_columns_follow_cell_order(self):
        # cells on (0,1), (2,3), (1,2), (0,1): the third waits for both neighbours
        plan = MeshPlan(4, (0, 2, 1, 0), (0.1,) * 4, (0.2,) * 4, (0.0,) * 4)
        cells = json.loads(plan_to_json(plan))["cells"]
        assert [c["column"] for c in cells] == [0, 0, 1, 2]

    def test_plan_validation(self):
        with pytest.raises(ValueError, match="exceeds dim"):
            MeshPlan(2, (1,), (0.0,), (0.0,), (0.0, 0.0))
        with pytest.raises(ValueError, match="exceeds dim"):
            MeshPlan(2, (-1,), (0.0,), (0.0,), (0.0, 0.0))
        with pytest.raises(ValueError, match="exceeds dim"):
            MeshPlan(3, (0.5,), (0.0,), (0.0,), (0.0,) * 3)
        with pytest.raises(ValueError, match="output_phases"):
            MeshPlan(2, (), (), (), (0.0,))
        with pytest.raises(ValueError, match="equal lengths"):
            MeshPlan(3, (0, 1), (0.0,), (0.0, 0.0), (0.0,) * 3)
        with pytest.raises(ValueError, match="finite"):
            MeshPlan(3, (0,), (float("nan"),), (0.0,), (0.0,) * 3)

    def test_from_json_rejects_non_adjacent_cell(self, rng):
        doc = json.loads(plan_to_json(clements_decompose(haar_unitary(4, rng))))
        doc["cells"][2]["hi"] += 1
        with pytest.raises(ValueError, match="adjacent"):
            plan_from_json(json.dumps(doc))
