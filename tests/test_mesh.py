import json
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from loopsim import mesh
from loopsim.mesh import (
    DecompositionError,
    MeshNoise,
    MeshPlan,
    cell_entries,
    clements_decompose,
    forward_arrays,
    mesh_forward,
    meshes,
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


def ideal_cell(theta, phi):
    """Oracle: T(theta, phi) as the module docstring of loopsim.mesh writes it."""
    return np.array([[np.exp(1j * phi) * np.cos(theta), -np.sin(theta)],
                     [np.exp(1j * phi) * np.sin(theta), np.cos(theta)]])


def coupler(r):
    """Directional coupler of power ratio r."""
    return np.array([[np.sqrt(r), 1j * np.sqrt(1.0 - r)], [1j * np.sqrt(1.0 - r), np.sqrt(r)]])


def realized_cell(theta, phi, d_theta=0.0, d_phi=0.0, d_split1=0.0, d_split2=0.0):
    """Oracle: the realized cell as its five optical elements, the first on the right:
    input phase, coupler, internal phase, coupler, compensation phases."""
    th = theta + d_theta
    comp = np.diag([-np.exp(-1j * th), np.exp(-1j * th)])
    return (comp @ coupler(0.5 + d_split2) @ np.diag([-np.exp(2j * th), 1.0])
            @ coupler(0.5 + d_split1) @ np.diag([np.exp(1j * (phi + d_phi)), 1.0]))


def embed(cell, lo, dim):
    """A 2x2 cell on modes (lo, lo + 1) as a dim x dim matrix, identity elsewhere."""
    u = np.eye(dim, dtype=complex)
    u[lo:lo + 2, lo:lo + 2] = cell
    return u


def rotated_identity(lo, theta, phi, dim):
    """The decomposition's ideal rotation applied to the identity."""
    w = np.eye(dim, dtype=complex)
    mesh._apply_left(w, lo, theta, phi)
    return w


def realized(theta, phi, d_theta=0.0, d_phi=0.0, d_split1=0.0, d_split2=0.0):
    """One realized cell as the mesh evaluates it: a 2-mode mesh of one cell."""
    entries = cell_entries(np.array([theta]), np.array([phi]),
                           np.array([[d_theta, d_phi, d_split1, d_split2]]))
    return forward_arrays(2, (0,), scattered_columns(2, (0,), entries))[-1]


class TestTransfer:
    def test_known_value(self):
        # frozen: theta = pi/4, phi = pi/2 gives [[i, -1], [i, 1]] / sqrt(2)
        s = 0.7071067811865476
        expected = np.array([[1j * s, -s], [1j * s, s]])
        for t in (ideal_cell(np.pi / 4.0, np.pi / 2.0),
                  rotated_identity(0, np.pi / 4.0, np.pi / 2.0, 2)):
            assert np.max(np.abs(t - expected)) < 1e-15

    def test_zero_settings_identity(self):
        assert np.array_equal(rotated_identity(0, 0.0, 0.0, 2), np.eye(2))

    @settings(max_examples=100, deadline=None)
    @given(angles, angles)
    def test_unitary(self, theta, phi):
        t = rotated_identity(0, theta, phi, 2)
        assert np.max(np.abs(t.conj().T @ t - np.eye(2))) < 1e-14

    def test_embed_identity_elsewhere(self):
        u = rotated_identity(1, 0.4, 1.1, 5)
        mask = np.ones((5, 5), dtype=bool)
        mask[np.ix_([1, 2], [1, 2])] = False
        assert np.array_equal(u[mask], np.eye(5, dtype=complex)[mask])
        assert np.array_equal(u[np.ix_([1, 2], [1, 2])], ideal_cell(0.4, 1.1))


class TestImperfectCell:
    def test_zero_error_matches_ideal(self):
        for theta, phi in [(0.0, 0.0), (0.3, 1.1), (np.pi / 2, 4.0), (1.2, 6.1)]:
            d = np.max(np.abs(realized(theta, phi) - ideal_cell(theta, phi)))
            assert d < 5e-16

    @settings(max_examples=100, deadline=None)
    @given(angles, angles, st.floats(-0.2, 0.2), st.floats(-0.2, 0.2),
           st.floats(-0.05, 0.05), st.floats(-0.05, 0.05))
    def test_unitary_under_error(self, theta, phi, dt, dp, s1, s2):
        m = realized(theta, phi, dt, dp, s1, s2)
        assert np.max(np.abs(m.conj().T @ m - np.eye(2))) < 1e-14

    def test_phase_error_stays_in_family(self):
        # a pure phase offset is the ideal cell at shifted settings
        m = realized(0.4, 1.0, d_theta=0.07, d_phi=-0.2)
        assert np.max(np.abs(m - ideal_cell(0.47, 0.8))) < 1e-15

    def test_splitter_error_changes_moduli(self):
        # splitter imbalance leaves the ideal family: moduli shift
        m = realized(0.4, 1.0, d_split1=0.04, d_split2=-0.03)
        ideal = ideal_cell(0.4, 1.0)
        assert np.max(np.abs(np.abs(m) - np.abs(ideal))) > 1e-3

    @pytest.mark.parametrize("d_split1, d_split2", [(0.7, 0.0), (0.0, -0.6)])
    def test_ratio_outside_unit_interval_raises(self, d_split1, d_split2):
        with pytest.raises(ValueError, match="outside"):
            realized(0.4, 1.0, d_split1=d_split1, d_split2=d_split2)

    def test_extreme_ratios_allowed(self):
        # a ratio of exactly 0 or 1 is a valid (if useless) coupler
        m = realized(0.4, 1.0, d_split1=0.5, d_split2=-0.5)
        assert np.max(np.abs(m.conj().T @ m - np.eye(2))) < 1e-14


class TestDecompose:
    def test_identity_gives_canonical_zero_plan(self):
        plan = clements_decompose(np.eye(6))
        assert len(plan.los) == 15
        assert plan.thetas == plan.phis == (0.0,) * 15
        assert plan.output_phases == (0.0,) * 6

    def test_single_cell_recovered(self):
        theta, phi = 0.7, 2.3
        plan = clements_decompose(ideal_cell(theta, phi))
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
            acc = embed(ideal_cell(theta, phi), lo, 6) @ acc
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

    def test_no_noise_is_read_only_zeros(self):
        zeros = noise_offsets(None, 15)
        assert zeros.shape == (15, 4) and not np.any(zeros)
        assert not zeros.flags.writeable

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


def scattered_columns(dim, los, entries):
    """Oracle: one mesh's column matrices, its (4, n) entries scattered into a copy of the
    identity stack at the cells' (4, n) flat positions."""
    _, stack, positions = mesh._columns(dim, los)
    mats = stack.copy()
    mats.reshape(-1)[positions] = entries
    return mats


def column_chain(dim, los, entries):
    """Oracle: the products of columns 0..k, for every k, formed with @."""
    mats = scattered_columns(dim, los, entries)
    chain = [mats[0]]
    for column in mats[1:]:
        chain.append(column @ chain[-1])
    return chain


class TestColumnKernel:
    @settings(max_examples=200, deadline=None)
    @given(mesh_cases())
    @example((1, (), [0.3], np.zeros((0, 4))))
    @example((2, (0,), [0.4, 1.0, 0.2, 2.0], np.array([[0.01, -0.02, 0.5, -0.5]])))
    @example((3, (1, 1, 1), [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.0, 1.0, 2.0], np.zeros((3, 4))))
    def test_matches_ordered_cell_product(self, case):
        dim, los, phases, offsets = case
        n = len(los)
        thetas, phis = np.array(phases[:n]), np.array(phases[n:2 * n])
        expected = np.eye(dim, dtype=complex)
        for k, lo in enumerate(los):
            expected = embed(realized_cell(thetas[k], phis[k], *offsets[k]), lo, dim) @ expected
        got = forward_arrays(dim, los, scattered_columns(dim, los, cell_entries(thetas, phis, offsets)))[-1]
        assert np.max(np.abs(got - expected)) <= 1e-15 * (n + 1)

    @settings(max_examples=100, deadline=None)
    @given(mesh_cases(), st.integers(0, 2 ** 32 - 1))
    def test_mesh_forward_matches_ordered_cell_product(self, case, seed):
        # oracle: the plan's realized cells under its noise draws, in order, output phases last
        dim, los, phases, _ = case
        n = len(los)
        plan = MeshPlan(dim, los, tuple(phases[:n]), tuple(phases[n:2 * n]), tuple(phases[2 * n:]))
        noise = MeshNoise(seed=seed)
        expected = np.eye(dim, dtype=complex)
        for k, (lo, offsets) in enumerate(zip(los, noise_offsets(noise, n))):
            expected = embed(realized_cell(phases[k], phases[n + k], *offsets), lo, dim) @ expected
        expected = np.diag(np.exp(1j * np.array(plan.output_phases))) @ expected
        assert np.max(np.abs(mesh_forward(plan, noise) - expected)) <= 1e-15 * (n + 1)

    @settings(max_examples=200, deadline=None)
    @given(mesh_cases())
    @example((1, (), [-0.0], np.zeros((0, 4))))
    @example((3, (0, 1, 0), [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, -0.0, -1.0, 0.0],
              np.array([[0.01, -0.02, 0.003, -0.004]] * 3)))
    def test_equals_matmul_chain_bitwise(self, case):
        dim, los, phases, offsets = case
        n = len(los)
        entries = cell_entries(np.array(phases[:n]), np.array(phases[n:2 * n]), offsets)
        # oracle: the column chain formed with @
        chain = column_chain(dim, los, entries)
        got = forward_arrays(dim, los, scattered_columns(dim, los, entries))
        assert [m.tobytes() for m in got] == [m.tobytes() for m in chain]
        # mesh_forward is the noiseless chain's last product times the exponentiated output phases
        plan = MeshPlan(dim, los, tuple(phases[:n]), tuple(phases[n:2 * n]), tuple(phases[2 * n:]))
        plain = cell_entries(np.array(plan.thetas), np.array(plan.phis), np.zeros((n, 4)))
        expected = column_chain(dim, los, plain)[-1] * np.exp(1j * np.array(plan.output_phases))[:, None]
        assert mesh_forward(plan).tobytes() == expected.tobytes()

    def test_out_of_range_draw_raises_on_every_call(self):
        offsets = np.array([[0.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.6, 0.0]])
        for _ in range(2):
            with pytest.raises(ValueError, match="cell 1: coupler power ratio 1.1"):
                entries = cell_entries(np.zeros(2), np.zeros(2), offsets)
                forward_arrays(3, (0, 1), scattered_columns(3, (0, 1), entries))

    def test_offsets_mutated_in_place_give_fresh_products(self, rng):
        plan = clements_decompose(haar_unitary(4, rng))
        offsets = noise_offsets(MeshNoise(seed=4), len(plan.los)).copy()

        def forward():
            entries = cell_entries(np.array(plan.thetas), np.array(plan.phis), offsets)
            return forward_arrays(plan.dim, plan.los, scattered_columns(plan.dim, plan.los, entries))[-1]

        before = forward()
        offsets[:, 2:] *= -1.0
        after = forward()
        assert np.max(np.abs(after - before)) > 1e-4
        mesh._cell_coefficients.cache_clear()
        assert np.array_equal(forward(), after)

    def test_output_phases_mutated_in_place_give_fresh_products(self, rng):
        # a plan built from output phases mutated in place after an earlier call moves only
        # the mutated phase's row
        plan = clements_decompose(haar_unitary(4, rng))
        noise = MeshNoise(seed=4)
        before = mesh_forward(plan, noise)
        phases = list(plan.output_phases)
        phases[1] += 0.5
        after = mesh_forward(replace(plan, output_phases=tuple(phases)), noise)
        assert np.allclose(after[1], before[1] * np.exp(0.5j), rtol=0.0, atol=1e-15)
        assert np.array_equal(np.delete(after, 1, axis=0), np.delete(before, 1, axis=0))

    def test_cached_arrays_read_only(self):
        _, stack, _ = mesh._columns(4, (0, 2, 1, 0))
        assert stack.shape == (3, 4, 4) and not stack.flags.writeable
        splits = np.array([[0.01, -0.02]]).tobytes()
        assert not any(a.flags.writeable for a in mesh._cell_coefficients(splits))


class TestResume:
    """forward_arrays resumes its chain from another mesh's at a column s."""

    @settings(max_examples=200, deadline=None)
    @given(mesh_cases(), st.integers(0, 2 ** 32 - 1))
    @example((1, (), [0.3], np.zeros((0, 4))), 0)
    @example((3, (1, 1, 1), [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.0, 1.0, 2.0], np.zeros((3, 4))), 1)
    def test_resumed_chain_equals_plain_chain_bitwise(self, case, seed):
        dim, los, phases, offsets = case
        n = len(los)
        cols, stack, _ = mesh._columns(dim, los)
        entries = cell_entries(np.array(phases[:n]), np.array(phases[n:2 * n]), offsets)
        other = cell_entries(*np.random.default_rng(seed).uniform(-7.0, 7.0, (2, n)), offsets)
        prefix = forward_arrays(dim, los, scattered_columns(dim, los, entries))
        assert len(prefix) == len(stack)
        assert [m.tobytes() for m in prefix] == [m.tobytes() for m in column_chain(dim, los, entries)]
        for s in range(len(stack) + 1):
            # a mesh sharing the columns before s with the prefix's, other's entries after
            mixed = np.where(np.array(cols, dtype=int) < s, entries, other)
            columns = scattered_columns(dim, los, mixed)
            plain = forward_arrays(dim, los, columns)
            got = forward_arrays(dim, los, columns, resume=(s, prefix))
            assert [m.tobytes() for m in got] == [m.tobytes() for m in plain]
            # s = 0 reads nothing from the chain
            assert [m.tobytes() for m in forward_arrays(dim, los, columns, (0, []))] \
                == [m.tobytes() for m in plain]
        # resuming after the last column keeps the whole prefix chain
        other_columns = scattered_columns(dim, los, other)
        assert [m.tobytes() for m in forward_arrays(dim, los, other_columns, resume=(len(stack), prefix))] \
            == [m.tobytes() for m in prefix]


def moved_rows(draw, base):
    """1-70 phase vectors that each move a random set of base's phases (none and all
    included) to new values."""
    rows = draw(st.integers(1, 70))
    kinds = draw(st.lists(st.sampled_from(("none", "all", "some")), min_size=rows, max_size=rows))
    some = draw(hnp.arrays(bool, (len(kinds), base.size)))
    moved = np.array([row if kind == "some" else np.full(base.size, kind == "all")
                      for kind, row in zip(kinds, some)])
    new = draw(hnp.arrays(float, moved.shape, elements=st.floats(-20.0, 20.0)))
    return np.where(moved, new, base)


@st.composite
def moved_points(draw):
    """A plan on mesh_cases' cells, a noise seed, its phase vector, and two stacks of
    moved_rows of it."""
    dim, los, phases, _ = draw(mesh_cases())
    n = len(los)
    plan = MeshPlan(dim, los, tuple(phases[:n]), tuple(phases[n:2 * n]), tuple(phases[2 * n:]))
    base = np.array(phases[:2 * n], dtype=float)
    return plan, draw(st.integers(0, 2 ** 32 - 1)), base, moved_rows(draw, base), moved_rows(draw, base)


def point_plan(plan, point):
    """plan with its thetas and phis replaced by a phase vector's."""
    n = len(plan.los)
    return replace(plan, thetas=tuple(point[:n].tolist()), phis=tuple(point[n:].tolist()))


class TestMeshes:
    @settings(max_examples=200, deadline=None)
    @given(moved_points())
    def test_rows_equal_mesh_forward_bitwise(self, case):
        # resumed from the base point's state, from another stack's last row (its columns a
        # view of that stack's last chunk) or computed from scratch, each row is its own plan's
        # mesh_forward, and the state holds the last row's columns and plain chain
        plan, seed, base, points, others = case
        noise = MeshNoise(seed=seed)
        n = len(plan.los)
        _, at = meshes(plan, noise, base[None])
        _, after_stack = meshes(plan, noise, others, at)
        last = scattered_columns(plan.dim, plan.los,
                                 cell_entries(points[-1, :n], points[-1, n:], noise_offsets(noise, n)))
        plain_chain = forward_arrays(plan.dim, plan.los, last)
        for state in (at, after_stack, None):
            stack, (x, columns, chain) = meshes(plan, noise, points, state)
            assert stack.shape == (len(points), plan.dim, plan.dim)
            for row, point in zip(stack, points):
                assert row.tobytes() == mesh_forward(point_plan(plan, point), noise).tobytes()
            assert x.tobytes() == points[-1].tobytes() and columns.tobytes() == last.tobytes()
            assert [m.tobytes() for m in chain] == [m.tobytes() for m in plain_chain]

    def test_chunked_column_builds_keep_the_bits_and_the_budget(self, monkeypatch, rng):
        # meshes builds at most _COLUMN_BYTES of column matrices per call (one mesh's at least);
        # one row per call, a ragged last chunk or one call for all give the same stack and state
        plan = clements_decompose(haar_unitary(5, rng))
        noise = MeshNoise(seed=3)
        x = np.array(plan.thetas + plan.phis)
        points = x + rng.normal(size=(7, x.size)) * (rng.random((7, x.size)) < 0.2)
        _, at = meshes(plan, noise, x[None])
        one_mesh = mesh._columns(plan.dim, plan.los)[1].nbytes
        built, results = [], []

        def recording_forward(dim, los, columns, resume=None):
            # a row's columns are a view of the chunk built with them
            if not any(columns.base is chunk for chunk in built):
                built.append(columns.base)
            return forward_arrays(dim, los, columns, resume)

        monkeypatch.setattr(mesh, "forward_arrays", recording_forward)
        for budget, calls in ((1, 7), (one_mesh, 7), (3 * one_mesh + 1, 3), (100 * one_mesh, 1)):
            monkeypatch.setattr(mesh, "_COLUMN_BYTES", budget)
            built.clear()
            stack, (_, _, chain) = meshes(plan, noise, points, at)
            assert len(built) == calls and max(c.nbytes for c in built) <= max(budget, one_mesh)
            results.append((stack.tobytes(), [m.tobytes() for m in chain]))
        assert all(r == results[0] for r in results)

    def test_one_stencil_peaks_below_its_products_and_two_column_chunks(self, rng):
        # at n_boson 8 (16 modes, 480 rows) one stencil from a one-row state holds its products,
        # the columns of at most two chunks and small index arrays, not a copy of every row's
        # entries or columns
        plan = clements_decompose(haar_unitary(16, rng))
        noise = MeshNoise(seed=2)
        x = np.array(plan.thetas + plan.phis)
        stencil = np.concatenate([x + 1e-6 * np.eye(x.size), x - 1e-6 * np.eye(x.size)])
        _, at = meshes(plan, noise, x[None])
        meshes(plan, noise, stencil, at)  # fills the caches
        tracemalloc.start()
        try:
            meshes(plan, noise, stencil, at)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(stencil) == 480
        assert peak < 480 * 16 * 16 * 16 + 2 * mesh._COLUMN_BYTES + 2 ** 20

    def test_rejects_a_malformed_stack_by_name(self):
        # an empty stack, a bare phase vector and a row of the wrong width, on one cell
        plan = MeshPlan(2, (0,), (0.1,), (0.2,), (0.0, 0.0))
        for points, shape in ((np.zeros((0, 2)), r"\(0, 2\)"), (np.zeros(2), r"\(2,\)"),
                              (np.zeros((1, 3)), r"\(1, 3\)")):
            with pytest.raises(ValueError, match=r"points must have shape \(B >= 1, 2 \* n_cells = 2\), "
                               r"got " + shape):
                meshes(plan, None, points)


class TestResumeColumns:
    """meshes resumes each row's chain at the first column holding a changed cell."""

    def test_first_changed_column_or_column_count(self, monkeypatch):
        # cells on (0,1), (2,3), (1,2), (0,1) sit in columns 0, 0, 1, 2; an unmoved row keeps
        # the whole chain (the column count), and without a state every row starts at column 0
        plan = MeshPlan(4, (0, 2, 1, 0), (0.1, 0.2, 0.3, 0.4), (0.5, 0.6, 0.7, 0.8), (0.0,) * 4)
        changed = np.array([[0, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 1], [0, 1, 0, 0], [1, 0, 0, 1]],
                           dtype=bool)
        base = np.array(plan.thetas + plan.phis)
        points = base + np.concatenate([changed, np.zeros_like(changed)], axis=1)
        starts = []

        def recording_forward(dim, los, columns, resume=None):
            starts.append(resume[0])
            return forward_arrays(dim, los, columns, resume)

        monkeypatch.setattr(mesh, "forward_arrays", recording_forward)
        _, at = meshes(plan, None, base[None])
        meshes(plan, None, points, at)
        meshes(plan, None, points)
        assert starts == [0] + [3, 2, 1, 0, 0] + [0] * 5
        # a mesh of no cells has one identity column; the columns are integers either way
        starts.clear()
        empty = MeshPlan(3, (), (), (), (0.0, 0.1, 0.2))
        stack, _ = meshes(empty, None, np.zeros((2, 0)))
        assert starts == [1, 1] and all(type(s) is int for s in starts)
        assert stack.tobytes() == np.stack([mesh_forward(empty)] * 2).tobytes()


@st.composite
def stacked_cases(draw):
    """mesh_cases' offsets under a (B, n) stack of thetas and one of phis, B >= 1."""
    _, los, _, offsets = draw(mesh_cases())
    rows = draw(st.integers(1, 5))
    phases = draw(hnp.arrays(float, (2, rows, len(los)), elements=st.floats(-20.0, 20.0)))
    return phases[0], phases[1], offsets


class TestCellEntries:
    @settings(max_examples=200, deadline=None)
    @given(stacked_cases())
    @example((np.zeros((3, 0)), np.zeros((3, 0)), np.zeros((0, 4))))
    def test_stack_equals_single_rows_bitwise(self, case):
        thetas, phis, offsets = case
        stack = cell_entries(thetas, phis, offsets)
        assert stack.shape == (thetas.shape[0], 4, thetas.shape[1])
        for b in range(thetas.shape[0]):
            assert stack[b].tobytes() == cell_entries(thetas[b], phis[b], offsets).tobytes()

    @settings(max_examples=200, deadline=None)
    @given(mesh_cases())
    def test_matches_realized_cell_oracle(self, case):
        _, los, phases, offsets = case
        n = len(los)
        entries = cell_entries(np.array(phases[:n]), np.array(phases[n:2 * n]), offsets)
        assert entries.shape == (4, n)
        for k in range(n):
            oracle = realized_cell(phases[k], phases[n + k], *offsets[k])
            assert np.max(np.abs(entries[:, k] - oracle.ravel())) <= 1e-15


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

    def test_plan_rejects_bools_as_integers(self):
        # as check_fields does: a bool is not an int, whatever its value
        with pytest.raises(ValueError, match="cell 0: lo True exceeds dim"):
            MeshPlan(3, (True,), (0.0,), (0.0,), (0.0,) * 3)
        with pytest.raises(ValueError, match="dim must be an integer >= 1, got True"):
            MeshPlan(True, (), (), (), (0.0,))
        with pytest.raises(ValueError, match="mode 1: output phase must be a finite number"):
            MeshPlan(2, (0,), (0.0,), (0.0,), (0.0, True))

    def test_from_json_rejects_non_adjacent_cell(self, rng):
        doc = json.loads(plan_to_json(clements_decompose(haar_unitary(4, rng))))
        doc["cells"][2]["hi"] += 1
        with pytest.raises(ValueError, match="adjacent"):
            plan_from_json(json.dumps(doc))

    @pytest.mark.parametrize("edit, message", [
        (lambda d: d["cells"][1].update(lo=True), r"cell 1: lo True exceeds dim or is not an int"),
        (lambda d: d["cells"][1].update(lo=0.0), r"cell 1: lo 0.0 exceeds dim or is not an int"),
        (lambda d: d["cells"][1].update(lo="0"), r"cell 1: lo '0' exceeds dim or is not an int"),
        (lambda d: d["cells"][2].pop("theta"), r"cell 2: theta must be a finite number, got None"),
        (lambda d: d["cells"][2].pop("lo"), r"cell 2: lo None exceeds dim or is not an int"),
        (lambda d: d["cells"][0].update(phi="1.5"), r"cell 0: phi must be a finite number, got '1.5'"),
        (lambda d: d["cells"][0].update(theta=False), r"cell 0: theta must be a finite number, got False"),
        (lambda d: d["output_phases"].__setitem__(3, None),
         r"mode 3: output phase must be a finite number, got None"),
        (lambda d: d.update(dim=True), r"dim must be an integer >= 1, got True"),
        (lambda d: d.pop("dim"), r"dim must be an integer >= 1, got None"),
        (lambda d: d["cells"].__setitem__(4, [0, 1, 0.2, 0.3]), r"cell 4 must be a JSON object"),
        (lambda d: d.update(cells={}), r"a plan is a JSON object with dim, cells \(a list\)"),
        (lambda d: d.pop("output_phases"), r"a plan is a JSON object"),
    ])
    def test_from_json_names_the_malformed_field(self, rng, edit, message):
        doc = json.loads(plan_to_json(clements_decompose(haar_unitary(4, rng))))
        edit(doc)
        with pytest.raises(ValueError, match=message):
            plan_from_json(json.dumps(doc))

    def test_from_json_rejects_a_non_object_document(self):
        for text in ("[]", "[1, 2]", "3", "null", '"plan"'):
            with pytest.raises(ValueError, match="a plan is a JSON object"):
                plan_from_json(text)
