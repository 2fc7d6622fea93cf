"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one `criterion N PASS` line when its assertions hold, so
`pytest tests/test_acceptance.py -v -s` doubles as the acceptance report.
"""

import numpy as np
import pytest

import pnovqe as pq
from pnovqe.ansatz import build_paired_ansatz
from pnovqe.simulator import _sector_state

from ci_oracle import (
    ci_matrix,
    embed,
    finite_difference_gradient,
    kron_ansatz_state,
    random_integral_set,
    reference_matrix,
    reference_register_shift_gradient,
    seniority_zero_projection,
    symmetry_leaks,
)
from conftest import h2_big_integrals, lih_like_pipeline, sector_matrix
from test_ansatz import bh12_space, bh22_space, lih12_space, lih22_space
from test_workbench import H2_INLINE, h2_config


@pytest.fixture(scope="module")
def lih_like_diag12():
    """LiH-like pipeline truncated to 12 qubits with diagonal-only PNOs."""
    base = lih_like_pipeline()
    mo = base["mo"]
    amps = pq.mp2_amplitudes(mo)
    pnos = pq.select_pnos(pq.pair_densities(amps), 12, diagonal_only=True)
    space = pq.orthonormalize(pnos)
    final = pq.build_final_integrals(mo, space)
    hamiltonian = pq.jordan_wigner(pq.build_hamiltonian(final), 12)
    return {"space": space, "final": final, "hamiltonian": hamiltonian,
            "integral_hamiltonian": pq.IntegralHamiltonian(final)}


def test_criterion_1_parameter_counts():
    assert pq.build_upccgsd(6, 4).n_parameters == 45
    assert pq.build_upccgsd(11, 4).n_parameters == 165
    expected = {
        "LiH(4,12)": (lih12_space, 4, 12),
        "BH(6,12)": (bh12_space, 3, 9),
        "LiH(4,22)": (lih22_space, 9, 27),
        "BH(6,22)": (bh22_space, 7, 21),
    }
    for label, (space_fn, n_d, n_sd) in expected.items():
        space = space_fn()
        assert pq.build_pno_ansatz(space, "UpCCD").n_parameters == n_d, label
        assert pq.build_pno_ansatz(space, "UpCCSD").n_parameters == n_sd, label
    print("criterion 1 PASS: parameter counts 45/165 and 4/12, 3/9, 9/27, 7/21")


def test_criterion_2_cnot_counts():
    assert pq.count_resources(pq.build_upccgsd(6, 4)).n_cnots == 1280
    assert pq.count_resources(pq.build_upccgsd(11, 4)).n_cnots == 6160
    expected_upccd = {
        "LiH(4,12)": (lih12_space, 192),
        "BH(6,12)": (bh12_space, 144),
        "LiH(4,22)": (lih22_space, 432),
        "BH(6,22)": (bh22_space, 336),
    }
    for label, (space_fn, cnots) in expected_upccd.items():
        report = pq.count_resources(pq.build_pno_ansatz(space_fn(), "UpCCD"))
        assert report.n_cnots == cnots, label
        assert all(c == 48 for g, c in report.breakdown), label
    report = pq.count_resources(pq.build_pno_ansatz(lih12_space(), "UpCCSD"))
    assert report.n_cnots == 352
    print("criterion 2 PASS: naive CNOT counts 1280/6160, 192/144/432/336, 352")


def test_criterion_3_spectrum_equivalence():
    worst = 0.0
    for seed in range(25):
        n_orb = 2 + seed % 2
        n_elec = 2 if n_orb == 2 else (2 if seed % 4 < 2 else 4)
        mo = random_integral_set(n_orb, n_elec, seed)
        dense = reference_matrix(
            pq.jordan_wigner(pq.build_hamiltonian(mo), 2 * n_orb), np.arange(1 << 2 * n_orb)
        ).toarray()
        oracle = ci_matrix(mo)
        diff = np.max(
            np.abs(np.linalg.eigvalsh(dense) - np.linalg.eigvalsh(oracle))
        )
        worst = max(worst, diff)
    assert worst < 1e-10
    print(f"criterion 3 PASS: 25 seeded JW spectra match CI oracle (worst {worst:.2e})")


def test_criterion_4_vqe_exactness_curve():
    scan = tuple(np.round(np.linspace(0.5, 2.3, 10), 6))
    config = h2_config(xyz=H2_INLINE, scan=scan)
    curve = pq.run_curve(config)
    assert curve.failures == 0
    errors = [p["error_vs_fci"] for p in curve.points]
    assert max(abs(e) for e in errors) <= 1e-7
    assert pq.npe(errors) <= 1e-7
    print(
        "criterion 4 PASS: 10-point H2 curve |E_vqe - E_fci| <= 1e-7 "
        f"(worst {max(abs(e) for e in errors):.2e}, NPE {pq.npe(errors):.2e})"
    )


def test_criterion_5_gradient_correctness(h2_sto3g, lih_like_diag12):
    rng = np.random.default_rng(2024)
    worst = worst_oracle = 0.0

    hq = h2_sto3g["hamiltonian"]
    h2 = pq.IntegralHamiltonian(h2_sto3g["mo"])
    h2_ansatz = pq.build_upccgsd(2, 2)
    for _ in range(20):
        theta = rng.uniform(-1.0, 1.0, h2_ansatz.n_parameters)
        grad = pq.gradient(h2, h2_ansatz, theta)
        fd = finite_difference_gradient(h2, h2_ansatz, theta)
        oracle = reference_register_shift_gradient(hq, h2_ansatz, theta)
        worst = max(worst, np.max(np.abs(grad - fd)))
        worst_oracle = max(worst_oracle, np.max(np.abs(grad - oracle)))

    big = lih_like_diag12
    ansatz = pq.build_pno_ansatz(big["space"], "UpCCSD")
    assert ansatz.n_qubits == 12 and ansatz.n_parameters == 12
    for _ in range(20):
        theta = rng.uniform(-0.6, 0.6, ansatz.n_parameters)
        fd = finite_difference_gradient(big["integral_hamiltonian"], ansatz, theta)
        grad = pq.gradient(big["integral_hamiltonian"], ansatz, theta)
        worst = max(worst, np.max(np.abs(grad - fd)))
    assert worst < 1e-6
    assert worst_oracle < 1e-10
    print(
        f"criterion 5 PASS: adjoint gradient vs finite differences (worst {worst:.2e}) "
        f"and vs the register shift rule on H2 (worst {worst_oracle:.2e})"
    )


def test_criterion_6_pno_compactness(h2_sto3g):
    big = h2_big_integrals(1.4)
    assert big.n_orb >= 10
    densities = pq.pair_densities(pq.mp2_amplitudes(big))
    energies = {}
    for nq in (4, 6, 8, 10):
        space = pq.orthonormalize(pq.select_pnos(densities, nq))
        final = pq.build_final_integrals(big, space)
        energies[nq], _ = pq.exact_ground_energy(
            pq.IntegralHamiltonian(final), pq.sector_basis(nq, 2, two_sz=0)
        )
    e_sto3g, _ = pq.exact_ground_energy(
        pq.IntegralHamiltonian(h2_sto3g["mo"]), pq.sector_basis(4, 2, two_sz=0)
    )
    assert energies[4] < e_sto3g - 1e-9
    for a, b in zip((4, 6, 8), (6, 8, 10)):
        assert energies[b] < energies[a] - 1e-9
    print(
        "criterion 6 PASS: ingested-basis N_q=4 FCI "
        f"{energies[4]:.6f} < STO-3G {e_sto3g:.6f}; monotone over N_q=4..10"
    )


def test_criterion_7_seniority_zero(lih_like_diag12):
    worst = 0.0
    for seed in range(10):
        n_orb = 2 + seed % 2
        mo = random_integral_set(n_orb, 2, 100 + seed)
        h_full = pq.jordan_wigner(pq.build_hamiltonian(mo), 2 * n_orb)
        h_pair = pq.build_paired_hamiltonian(mo)
        paired = [np.linalg.eigvalsh(sector_matrix(h_pair, pq.sector_basis(n_orb, k)))
                  for k in range(n_orb + 1)]
        diff = np.max(
            np.abs(
                np.linalg.eigvalsh(seniority_zero_projection(h_full, n_orb))
                - np.sort(np.concatenate(paired))
            )
        )
        worst = max(worst, diff)
    assert worst < 1e-10

    big = lih_like_diag12
    ansatz = pq.build_pno_ansatz(big["space"], "UpCCD")
    res_full = pq.run_vqe(big["integral_hamiltonian"], ansatz)
    doubles = [g.orbitals for g in ansatz.generators]
    n_orb = big["final"].n_orb
    res_pair = pq.run_vqe(
        pq.build_paired_hamiltonian(big["final"]),
        build_paired_ansatz(range(big["final"].n_occ), doubles, n_orb),
    )
    gap = abs(res_full.fun - res_pair.fun)
    assert gap < 1e-8
    print(
        f"criterion 7 PASS: paired spectra match (worst {worst:.2e}); "
        f"12-qubit vs 6-qubit optimized energies differ by {gap:.2e}"
    )


def test_paired_circuit_cost(lih_like_diag12):
    # the same pair excitations as 2 weight-2 rotations on 6 qubits (4 CNOTs
    # each) against 8 weight-4 rotations on 12 qubits (48 CNOTs each)
    space, final = lih_like_diag12["space"], lih_like_diag12["final"]
    ansatz = pq.build_pno_ansatz(space, "UpCCD")
    doubles = [g.orbitals for g in ansatz.generators]
    paired = build_paired_ansatz(range(final.n_occ), doubles, final.n_orb)
    assert (ansatz.n_qubits, paired.n_qubits, len(doubles)) == (12, 6, 4)
    for gen in paired.generators:
        assert [(x | z).bit_count() for (x, z), _ in gen.strings] == [2, 2]
    full_report, paired_report = pq.count_resources(ansatz), pq.count_resources(paired)
    assert paired_report.n_parameters == full_report.n_parameters == 4
    assert paired_report.breakdown == tuple((f"P({i}->{a})", 4) for i, a in doubles)
    assert full_report.breakdown == tuple((f"D({i}->{a})", 48) for i, a in doubles)
    assert (paired_report.n_cnots, full_report.n_cnots) == (16, 192)


def test_criterion_8_symmetry_suite(h2_sto3g, lih_like_diag12):
    hams = [h2_sto3g["hamiltonian"], lih_like_diag12["hamiltonian"]]
    for seed in range(3):
        mo = random_integral_set(3, 2, 200 + seed)
        hams.append(pq.jordan_wigner(pq.build_hamiltonian(mo), 6))
    for hq in hams:
        assert max(symmetry_leaks(hq)) < 1e-12

    # the engine's sector state against the register state of expm_multiply
    # on Kronecker generators; N is diagonal there, popcount per bitmask
    rng = np.random.default_rng(5)
    small = pq.build_upccgsd(2, 2)
    big = pq.build_pno_ansatz(lih_like_diag12["space"], "UpCCSD")
    draws = [(small, 2.0, rng.uniform(-2, 2, 3)) for _ in range(10)]
    draws.append((big, 4.0, rng.uniform(-0.5, 0.5, 12)))
    for ansatz, n_elec, theta in draws:
        basis, _, psi = _sector_state(ansatz, theta)
        oracle = kron_ansatz_state(ansatz, theta)
        assert abs(abs(np.vdot(embed(basis, psi), oracle)) - 1.0) < 1e-10
        assert abs(np.linalg.norm(oracle) - 1.0) < 1e-10
        occupation = np.bitwise_count(np.arange(oracle.size))
        assert abs(np.sum(occupation * np.abs(oracle) ** 2) - n_elec) < 1e-10
    print("criterion 8 PASS: no entry of H between states of different N or S_z above 1e-12; "
          "sector states match the "
          "register oracle, norm and N conserved")


def test_criterion_9_metric_units():
    assert pq.npe([0.1, 0.1, 0.1]) == 0.0
    assert pq.npe([1.0, 3.0, 2.0]) == 2.0
    assert pq.max_error([1.0, 3.0, 2.0]) == 3.0
    errors = [0.25, -1.5, 0.75]
    assert pq.npe([e + 3.125 for e in errors]) == pq.npe(errors)
    assert pq.barrier(-56.0, -56.01) == (-56.0) - (-56.01)  # exact IEEE subtraction
    assert pq.barrier(-56.0, -56.01) == pytest.approx(0.01, abs=1e-12)
    assert pq.barrier(2.5, 2.5) == 0.0
    print("criterion 9 PASS: npe/max/barrier exact on hand-computed values")


def test_criterion_10_determinism(tmp_path):
    out = tmp_path / "run"
    config = h2_config(
        xyz=H2_INLINE, scan=(0.6, 0.9), output_dir=str(out), workers=1
    )
    blobs = []
    for _ in range(2):
        pq.run_curve(config)
        blobs.append(
            (out / "run.json").read_bytes() + (out / "curve.csv").read_bytes()
        )
    assert blobs[0] == blobs[1]
    print("criterion 10 PASS: serial reruns produce byte-identical JSON and CSV")
