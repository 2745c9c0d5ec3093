import itertools
import re

import numpy as np
import pytest

from paulient import entpower, operators, paulis, spinchain
from paulient.entpower import pauli_entangling_power
from paulient.errors import NotHermitian, NotUnitary, SizeLimitExceeded
from paulient.mpu import mpu_shift, mpu_to_dense
from paulient.operators import Bipartition, operator_entanglement
from paulient.paulis import _SectorLayout, random_pauli
from paulient.spinchain import (
    HamiltonianPropagator,
    TFIMModel,
    XYZModel,
    build_hamiltonian,
    run_sweep_experiment,
)
from paulient.stats import run_until_converged

from conftest import dense_pauli, oracle_elin


def dense_unitary(ham, t):
    """exp(-i H t) from one dense complex eigh."""
    energies, modes = np.linalg.eigh(ham.astype(complex))
    return (modes * np.exp(-1j * energies * t)) @ modes.conj().T


class TestHamiltonians:
    def test_decoupled_field_spectrum(self):
        h = build_hamiltonian(XYZModel(n_sites=2, j_x=0, j_y=0, j_z=0, h=1.0))
        assert np.allclose(h, dense_pauli("ZI") + dense_pauli("IZ"))
        assert np.allclose(np.sort(np.linalg.eigvalsh(h)), [-2, 0, 0, 2])

    def test_tfim_transverse_only(self):
        h = build_hamiltonian(TFIMModel(n_sites=2, j=0, h=0, g=1.0))
        assert np.allclose(h, -(dense_pauli("XI") + dense_pauli("IX")))
        assert np.allclose(np.sort(np.linalg.eigvalsh(h)), [-2, 0, 0, 2])

    def test_periodic_wrap_term(self):
        # at N = 3 the zz part of the TFIM couples all three cyclic pairs
        h = build_hamiltonian(TFIMModel(n_sites=3, j=1.0, h=0.0, g=0.0))
        expected = -(dense_pauli("ZZI") + dense_pauli("IZZ") + dense_pauli("ZIZ"))
        assert np.allclose(h, expected)

    def test_reference_parameters_hermitian_translation_invariant(self):
        shift = mpu_to_dense(mpu_shift(), 5)
        for model in (XYZModel(n_sites=5, j_z=0.8), TFIMModel(n_sites=5, h=0.5)):
            h = build_hamiltonian(model)
            assert np.linalg.norm(h - h.conj().T) < 1e-10
            assert np.linalg.norm(h @ shift - shift @ h) < 1e-10

    def test_xyz_all_couplings_match_dense_sum(self):
        model = XYZModel(n_sites=4, j_x=0.75, j_y=-0.25, j_z=1.3, h=0.5)
        expected = np.zeros((16, 16), dtype=complex)
        for i in range(4):
            for letter, coeff in (("X", model.j_x), ("Y", model.j_y), ("Z", model.j_z)):
                bond = ["I"] * 4
                bond[i] = bond[(i + 1) % 4] = letter
                expected += coeff * dense_pauli("".join(bond))
            field = ["I"] * 4
            field[i] = "Z"
            expected += model.h * dense_pauli("".join(field))
        assert np.allclose(build_hamiltonian(model), expected, rtol=0.0, atol=1e-14)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_couplings_rejected(self, bad):
        for model in (XYZModel(n_sites=4, j_x=bad), XYZModel(n_sites=4, h=bad),
                      TFIMModel(n_sites=4, j=bad), TFIMModel(n_sites=4, g=bad)):
            match = "couplings must be finite.*" + re.escape(repr(bad))
            with pytest.raises(ValueError, match=match):
                build_hamiltonian(model)

    def test_site_limit(self):
        with pytest.raises(SizeLimitExceeded):
            build_hamiltonian(XYZModel(n_sites=13))


class TestEvolution:
    def test_time_zero_is_identity(self):
        h = build_hamiltonian(XYZModel(n_sites=2, j_z=0.5))
        assert np.array_equal(HamiltonianPropagator(h).unitary_at(0.0), np.eye(4))

    def test_one_parameter_group(self):
        prop = HamiltonianPropagator(build_hamiltonian(XYZModel(n_sites=3, j_z=0.7)))
        u1, u2 = prop.unitary_at(0.31), prop.unitary_at(0.52)
        assert np.linalg.norm(u1 @ u2 - prop.unitary_at(0.83)) < 1e-10

    def test_sigma_z_closed_form(self):
        # two 1 x 1 parity sectors
        u = HamiltonianPropagator(np.diag([1.0, -1.0]).astype(complex)).unitary_at(np.pi / 2)
        assert np.allclose(u, np.diag([np.exp(-1j * np.pi / 2), np.exp(1j * np.pi / 2)]))

    def test_energy_conservation(self, rng):
        h = build_hamiltonian(TFIMModel(n_sites=3, h=0.4))
        prop = HamiltonianPropagator(h)
        for _ in range(5):
            u = prop.unitary_at(float(rng.uniform(0, 20)))
            assert np.linalg.norm(u.conj().T @ h @ u - h) < 1e-9

    def test_unitarity(self):
        prop = HamiltonianPropagator(build_hamiltonian(XYZModel(n_sites=4, j_z=1.0)))
        u = prop.unitary_at(3.7)
        assert np.linalg.norm(u.conj().T @ u - np.eye(16)) < 1e-10

    def test_non_hermitian_rejected(self, monkeypatch):
        with pytest.raises(NotHermitian):
            HamiltonianPropagator(np.array([[0.0, 1.0], [0.0, 0.0]]))
        # a NaN or inf entry makes the Hermiticity norm NaN, which must fail
        # the check rather than reach eigh
        for bad in (np.nan, np.inf, -np.inf):
            h = build_hamiltonian(XYZModel(n_sites=3))
            h[2, 2] = bad
            with pytest.raises(NotHermitian), np.errstate(invalid="ignore"):
                HamiltonianPropagator(h)
            # a non-finite coupling is rejected before H is built
            with pytest.raises(ValueError, match="couplings must be finite"):
                HamiltonianPropagator(build_hamiltonian(XYZModel(n_sites=4, j_z=bad)))
        for shape in ((4, 2), (4,), (2, 2, 2)):
            with pytest.raises(ValueError, match=re.escape(f"shape {shape}")):
                HamiltonianPropagator(np.zeros(shape))
        builds = []
        monkeypatch.setattr(spinchain, "build_hamiltonian",
                            lambda model: builds.append(model) or build_hamiltonian(model))
        for bad in (np.nan, np.inf, -np.inf):
            for mode in ("exact", "sampled"):
                with pytest.raises(ValueError, match="sweep values must be finite"):
                    run_sweep_experiment("xyz", [0.5, bad], 4, mode=mode, seed=1, workers=1)
        assert builds == []

    def test_sector_propagator_matches_dense_eigh(self):
        # XYZ has two real parity sectors, TFIM with g != 0 one real sector;
        # a complex H (adding XY - YX on one bond keeps the sectors)
        for n in range(1, 10):
            for model in (XYZModel(n_sites=n, j_z=0.3), TFIMModel(n_sites=n, h=0.5)):
                h = build_hamiltonian(model)
                prop = HamiltonianPropagator(h)
                assert len(prop.sectors.index) == (2 if isinstance(model, XYZModel) else 1)
                assert all(np.isrealobj(v) for v in prop.modes)
                for t in (0.2, 1.3, 7.9):
                    assert np.abs(prop.unitary_at(t) - dense_unitary(h, t)).max() <= 1e-12
        h = build_hamiltonian(XYZModel(n_sites=4))
        h = h + 0.3 * (dense_pauli("XYII") - dense_pauli("YXII"))
        prop = HamiltonianPropagator(h)
        assert len(prop.sectors.index) == 2 and all(np.iscomplexobj(v) for v in prop.modes)
        assert np.abs(prop.unitary_at(1.3) - dense_unitary(h, 1.3)).max() <= 1e-12

    def test_sectors_of_h_are_the_sectors_of_every_u_t(self):
        # the sweep hands prop.sectors to the kernels at every step in place
        # of a scan of U_t, which would find the same layout for t > 0
        def sectors(layout):
            return [list(s) for s in layout.index]

        for n in range(2, 9):
            for model in (XYZModel(n_sites=n, j_z=0.3), TFIMModel(n_sites=n, h=0.5),
                          TFIMModel(n_sites=n, h=0.0, g=0.7)):
                prop = HamiltonianPropagator(build_hamiltonian(model))
                assert len(prop.sectors.index) == (2 if isinstance(model, XYZModel) else 1)
                for t in (0.2, 1.3, 7.9):
                    u = prop.unitary_at(t)
                    assert sectors(_SectorLayout.find(u)) == sectors(prop.sectors), (n, model)

    def test_tiny_cross_sector_coupling_joins_the_sectors(self):
        # no tolerance: a 1e-300 coupling between the sectors is kept
        n = 6
        h = build_hamiltonian(XYZModel(n_sites=n, j_z=0.3))
        h[0, 1] = h[1, 0] = 1e-300
        prop = HamiltonianPropagator(h)
        assert len(prop.sectors.index) == 1 and len(prop.modes) == 1
        u = prop.unitary_at(1.3)
        assert np.abs(u - dense_unitary(h, 1.3)).max() <= 1e-12
        bp = Bipartition(3, 3)
        assert abs(operator_entanglement(u, bp, "linear") - oracle_elin(u, 3, 3)) <= 1e-12
        est = pauli_entangling_power(u, bp, mode="sampled", rng=np.random.default_rng(2),
                                     n_samples=16)
        rng = np.random.default_rng(2)
        want = np.mean([oracle_elin(u.conj().T @ dense_pauli(str(random_pauli(n, rng))[1:]) @ u,
                                    3, 3) for _ in range(16)])
        assert abs(est.value - want) <= 1e-12


def sweep_long_time_average(values, max_steps=spinchain.DEFAULT_MAX_STEPS):
    """The long-time average a sweep point takes: run_until_converged at the
    sweep's default threshold and floor, z = 1.96."""
    return run_until_converged(values, spinchain.DEFAULT_SEM_THRESHOLD, 1.96,
                               spinchain.DEFAULT_N_MIN, max_steps)


class TestLongTimeAverage:
    def test_constant_series_stops_at_floor(self):
        acc, converged = sweep_long_time_average(iter([0.3] * 1000))
        assert acc.mean == 0.3 and acc.n == spinchain.DEFAULT_N_MIN == 25 and converged

    def test_max_step_cap_flagged(self):
        rng = np.random.default_rng(0)
        noisy = (rng.normal(scale=5.0) for _ in itertools.count())
        acc, converged = sweep_long_time_average(noisy, max_steps=50)
        assert not converged and acc.n == 50

    def test_series_shorter_than_floor_not_converged(self):
        acc, converged = sweep_long_time_average(iter([0.1, 0.2, 0.3] * 4))
        assert not converged and acc.n == 12
        assert abs(acc.mean - 0.2) < 1e-15

    def test_pair_series_waits_for_both_entries(self):
        # the first entry is constant, the second needs more steps
        rng = np.random.default_rng(3)
        pairs = [np.array([0.5, v]) for v in rng.uniform(size=5000)]
        acc, converged = sweep_long_time_average(iter(pairs))
        alone, converged_alone = sweep_long_time_average(iter(p[1] for p in pairs))
        assert converged and converged_alone and acc.n == alone.n > 25
        assert acc.mean[0] == 0.5 and acc.mean[1] == alone.mean
        half_width = acc.half_width(1.96)
        assert half_width[0] == 0.0 and half_width[1] == alone.half_width(1.96)


class TestObservables:
    def test_initial_values_exactly_zero(self):
        prop = HamiltonianPropagator(build_hamiltonian(XYZModel(n_sites=4, j_z=1.0)))
        bp = Bipartition(2, 2)
        u0 = prop.unitary_at(0.0)
        assert pauli_entangling_power(u0, bp).value == 0.0
        assert operator_entanglement(u0, bp, "linear") == 0.0

    def test_range_along_trajectory(self):
        prop = HamiltonianPropagator(build_hamiltonian(TFIMModel(n_sites=4, h=0.5)))
        bp = Bipartition(2, 2)
        for k in range(8):
            u = prop.unitary_at(0.2 * k)
            pe = pauli_entangling_power(u, bp).value
            el = operator_entanglement(u, bp, "linear")
            assert 0.0 <= pe < 1.0 and 0.0 <= el < 1.0


class TestSweep:
    def test_exact_row_is_long_time_average_of_direct_series(self):
        (row,) = run_sweep_experiment("xyz", [1.0], 4, mode="exact", seed=7)
        prop = HamiltonianPropagator(build_hamiltonian(XYZModel(n_sites=4, j_z=1.0)))
        bp = Bipartition(2, 2)
        pairs = []
        for k in range(row.n_steps):
            u = prop.unitary_at(0.2 * k)
            pairs.append(np.array([pauli_entangling_power(u, bp).value,
                                   operator_entanglement(u, bp, "linear")]))
        rule = (spinchain.DEFAULT_SEM_THRESHOLD, 1.96, spinchain.DEFAULT_N_MIN,
                spinchain.DEFAULT_MAX_STEPS)
        acc, converged = run_until_converged(iter(pairs), *rule)
        assert row.converged and converged and acc.n == row.n_steps
        assert (row.mean_pe, row.mean_e) == tuple(acc.mean)
        assert (row.pe_half_width, row.e_half_width) == tuple(acc.half_width(1.96))
        assert row.total_samples == row.n_steps * 4**4
        # one step fewer must not have stopped: the row stops at the first firing
        _, shorter = run_until_converged(iter(pairs[:-1]), *rule)
        assert not shorter

    def test_integrability_breaking_ordering_small(self):
        # the integrable point has strictly smaller long-time means already
        # at N = 6 (the N = 8 statement is covered by the acceptance suite)
        rows = run_sweep_experiment("xyz", [0.0, 1.0], 6, mode="exact", seed=1)
        assert rows[1].mean_pe > rows[0].mean_pe
        assert rows[1].mean_e > rows[0].mean_e

    def test_subsystem_bound_at_sampled_times(self, rng):
        from paulient.entpower import local_pauli_magic_bound

        prop = HamiltonianPropagator(build_hamiltonian(XYZModel(n_sites=4, j_z=1.0)))
        bp = Bipartition(2, 2)
        for _ in range(5):
            u = prop.unitary_at(float(rng.uniform(0.5, 10)))
            pe = pauli_entangling_power(u, bp).value
            ba, bb = local_pauli_magic_bound(u, bp)
            assert pe <= min(ba, bb) + 1e-10

    def test_step_cap_below_one_rejected(self, monkeypatch):
        # the propagator is built on the first step, so no eigh runs
        builds = []
        monkeypatch.setattr(spinchain, "build_hamiltonian",
                            lambda model: builds.append(model) or build_hamiltonian(model))
        for cap in (0, -1):
            with pytest.raises(ValueError, match="cap must be at least 1"):
                run_sweep_experiment("xyz", [0.0], 3, mode="exact", max_steps=cap, workers=1)
        assert builds == []

    @pytest.mark.parametrize("dt", [float("nan"), float("inf"), -float("inf"), 0.0, -0.5])
    def test_unusable_dt_rejected_before_any_build(self, dt, monkeypatch):
        # NaN stepped on to nan means; 0 made every U_t the identity
        builds = []
        monkeypatch.setattr(spinchain, "build_hamiltonian",
                            lambda model: builds.append(model) or build_hamiltonian(model))
        with pytest.raises(ValueError, match="dt must be finite and positive"):
            run_sweep_experiment("xyz", [0.0], 3, dt=dt, workers=1)
        assert builds == []

    @pytest.mark.parametrize("target", [0.0, -1e-3, float("nan")])
    def test_unusable_pe_sem_target_rejected_before_any_build(self, target, monkeypatch):
        builds = []
        monkeypatch.setattr(spinchain, "build_hamiltonian",
                            lambda model: builds.append(model) or build_hamiltonian(model))
        with pytest.raises(ValueError, match="pe_sem_target"):
            run_sweep_experiment("xyz", [0.0], 3, mode="sampled", seed=1,
                                 pe_sem_target=target, workers=1)
        assert builds == []

    @pytest.mark.parametrize("workers", [0, -3])
    def test_unusable_workers_rejected_before_any_build(self, workers, monkeypatch):
        builds = []
        monkeypatch.setattr(spinchain, "build_hamiltonian",
                            lambda model: builds.append(model) or build_hamiltonian(model))
        with pytest.raises(ValueError, match="workers must be at least 1"):
            run_sweep_experiment("xyz", [0.0], 3, mode="sampled", seed=1, workers=workers)
        assert builds == []

    def test_exact_past_the_limit_rejected_before_any_build(self, monkeypatch):
        builds = []
        monkeypatch.setattr(spinchain, "build_hamiltonian",
                            lambda model: builds.append(model) or build_hamiltonian(model))
        with pytest.raises(SizeLimitExceeded, match=f"limit is {entpower.DEFAULT_EXACT_LIMIT} qubits"):
            run_sweep_experiment("xyz", [0.0, 1.0], entpower.DEFAULT_EXACT_LIMIT + 1,
                                 mode="exact", workers=1)
        assert builds == []

    def test_one_unitarity_check_per_point(self, monkeypatch):
        counts = {"sweep": 0, "public": 0}

        def counting(key, check):
            def counted(matrix, *args):
                counts[key] += 1
                return check(matrix, *args)
            return counted

        # every public check (is_unitary and the checks of pauli_entangling_power
        # and operator_entanglement) goes through operators._unitary_layout
        monkeypatch.setattr(spinchain, "_within_unitary",
                            counting("sweep", operators._within_unitary))
        for module in (operators, entpower):
            monkeypatch.setattr(module, "_unitary_layout",
                                counting("public", operators._unitary_layout))
        rows = run_sweep_experiment("xyz", [0.0, 1.0], 4, mode="exact", seed=7, max_steps=30)
        # one check per parity sector of each point's propagator
        assert counts == {"sweep": 2 * 2, "public": 0}
        assert all(r.n_steps == 30 for r in rows)

    def test_non_unitary_modes_rejected(self, monkeypatch):
        class Skewed(HamiltonianPropagator):
            def __init__(self, ham):
                super().__init__(ham)
                self.modes = tuple(modes * 1.01 for modes in self.modes)

        monkeypatch.setattr(spinchain, "HamiltonianPropagator", Skewed)
        with pytest.raises(NotUnitary):
            run_sweep_experiment("xyz", [0.0], 3, mode="exact", seed=1, workers=1)

    def test_sector_rows_match_dense_eigh_rows(self, monkeypatch):
        # XYZ (two parity sectors) and TFIM h = 0.5 (one sector) against a
        # propagator from dense complex eigh, whose U_t has no exact zeros
        class DenseEigh:
            def __init__(self, ham):
                self.ham = ham
                self.modes = (np.linalg.eigh(ham.astype(complex))[1],)
                self.sectors = _SectorLayout.of(len(ham), False)

            def unitary_at(self, t):
                return dense_unitary(self.ham, t)

        for n, (family, value) in itertools.product(range(4, 9), [("xyz", 0.4), ("tfim", 0.5)]):
            mode = "exact" if n < 8 else "sampled"
            kwargs = dict(mode=mode, seed=3, max_steps=4, n_min=5, workers=1)
            (row,) = run_sweep_experiment(family, [value], n, **kwargs)
            with monkeypatch.context() as m:
                m.setattr(spinchain, "HamiltonianPropagator", DenseEigh)
                (dense,) = run_sweep_experiment(family, [value], n, **kwargs)
            assert (row.n_steps, row.total_samples) == (dense.n_steps, dense.total_samples)
            for a, b in ((row.mean_pe, dense.mean_pe), (row.mean_e, dense.mean_e),
                         (row.pe_half_width, dense.pe_half_width),
                         (row.e_half_width, dense.e_half_width)):
                assert abs(a - b) <= 1e-12, (n, family)

    def test_sectors_found_once_per_public_call_and_per_point(self, monkeypatch):
        calls = []
        find = _SectorLayout.find.__func__

        def counted(cls, m):
            calls.append(m.shape)
            return find(cls, m)

        monkeypatch.setattr(paulis._SectorLayout, "find", classmethod(counted))
        prop = HamiltonianPropagator(build_hamiltonian(XYZModel(n_sites=6, j_z=0.4)))
        assert len(calls) == 1
        u, bp = prop.unitary_at(1.1), Bipartition(3, 3)
        for call in (lambda: pauli_entangling_power(u, bp),
                     lambda: pauli_entangling_power(u, bp, mode="sampled",
                                                    rng=np.random.default_rng(1)),
                     lambda: operator_entanglement(u, bp, "linear")):
            calls[:] = []
            call()
            assert calls == [(64, 64)]
        for family, mode in itertools.product(("xyz", "tfim"), ("exact", "sampled")):
            calls[:] = []
            rows = run_sweep_experiment(family, [0.2, 0.7], 4, mode=mode, seed=5, n_min=6,
                                        max_steps=6, workers=1)
            # one find per point, on its H, and none per step
            assert [r.n_steps for r in rows] == [6, 6]
            assert calls == [(16, 16)] * 2, (family, mode)

    def test_seeded_determinism(self):
        a = run_sweep_experiment("tfim", [0.5], 3, mode="sampled", seed=11)
        b = run_sweep_experiment("tfim", [0.5], 3, mode="sampled", seed=11)
        assert a[0].mean_pe == b[0].mean_pe
        assert a[0].total_samples == b[0].total_samples

    @pytest.mark.parametrize("family, value", [("xyz", 0.0), ("tfim", 0.5)])
    def test_sampled_sweep_matches_exact_sweep(self, family, value):
        # the per-step sampled estimates carry their SEM into the time
        # series, so the sampled half-width covers the string spread too
        (exact,) = run_sweep_experiment(family, [value], 6, mode="exact", seed=42)
        (sampled,) = run_sweep_experiment(family, [value], 6, mode="sampled", seed=42)
        assert exact.converged and sampled.converged
        pe_bound = 3 * np.hypot(exact.pe_half_width, sampled.pe_half_width)
        e_bound = 3 * np.hypot(exact.e_half_width, sampled.e_half_width)
        assert abs(sampled.mean_pe - exact.mean_pe) <= pe_bound
        assert abs(sampled.mean_e - exact.mean_e) <= e_bound
        assert sampled.total_samples >= entpower.DEFAULT_MIN_SAMPLES * sampled.n_steps

    def test_exact_vs_sampled_at_eight_qubits(self):
        # the sampled pipeline reproduces exact values within 3 sem at
        # random timesteps
        rng = np.random.default_rng(88)
        prop = HamiltonianPropagator(build_hamiltonian(XYZModel(n_sites=8, j_z=1.0)))
        bp = Bipartition(4, 4)
        for t in rng.uniform(0.5, 20.0, size=10):
            u = prop.unitary_at(float(t))
            exact = pauli_entangling_power(u, bp).value
            est = pauli_entangling_power(u, bp, mode="sampled", rng=rng,
                                         sem_target=2e-2, min_samples=64)
            assert abs(est.value - exact) <= 3 * max(est.sem, 1e-3)
