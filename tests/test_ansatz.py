"""Excitation generators, ansatz construction, and naive resource counts."""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings

import pnovqe as pq
from pnovqe.pno import OrbitalSpace
from pnovqe.simulator import _sector_state

from ci_oracle import embed, kron_sum, reference_generator_strings, symmetry_leaks
from conftest import excitation_generators


def space_with_assignment(n_occ, assignment) -> OrbitalSpace:
    """Synthetic orbital space carrying only the PNO pair structure."""
    n_total = n_occ + len(assignment)
    return OrbitalSpace(
        n_total=n_total,
        occupied=tuple(range(n_occ)),
        pno_assignment=dict(assignment),
        transform=np.eye(n_total),
    )


def lih12_space():
    # 2 occupied + 4 PNOs, all attached to the valence diagonal pair (1, 1)
    return space_with_assignment(2, {a: (1, 1) for a in (2, 3, 4, 5)})


def bh12_space():
    # 3 occupied + 3 PNOs, one per diagonal pair
    return space_with_assignment(3, {3: (0, 0), 4: (1, 1), 5: (2, 2)})


def lih22_space():
    return space_with_assignment(2, {a: (1, 1) for a in range(2, 11)})


def bh22_space():
    # 8 PNOs of which 7 diagonal; the off-diagonal one is a spectator
    assignment = {3: (0, 0), 4: (0, 0), 5: (1, 1), 6: (1, 1), 7: (2, 2),
                  8: (2, 2), 9: (2, 2), 10: (0, 1)}
    return space_with_assignment(3, assignment)


class TestPairDouble:
    def test_adjacent_pair_structure(self):
        gen = pq.make_pair_double(0, 1, 2)
        assert len(gen.strings) == 8
        assert all(s.weight == 4 for s, _ in gen.strings)
        assert sorted(c for _, c in gen.strings) == [-0.125] * 4 + [0.125] * 4

    def test_distant_pair_z_chain_cancellation(self):
        gen = pq.make_pair_double(0, 5, 6)
        support = set()
        for s, _ in gen.strings:
            assert s.weight == 4
            support |= {j for j in range(12) if ((s.x | s.z) >> j) & 1}
        assert support == {0, 1, 10, 11}

    def test_weight_four_for_all_placements(self):
        for n in (4, 11):
            for i in range(n):
                for a in range(n):
                    if i == a:
                        continue
                    gen = pq.make_pair_double(i, a, n)
                    assert all(s.weight == 4 for s, _ in gen.strings)

    def test_full_period_on_basis_states(self):
        gen = pq.make_pair_double(0, 1, 2)
        u = scipy.linalg.expm(-1j * np.pi * kron_sum(gen.strings, 4))
        for basis in range(16):
            column = np.abs(u[:, basis])
            assert column[basis] == pytest.approx(1.0, abs=1e-12)

    def test_same_orbital_rejected(self):
        with pytest.raises(ValueError):
            pq.make_pair_double(2, 2, 4)


class TestSingle:
    def test_adjacent_weight(self):
        gen = pq.make_single(0, 1, 0, 2)
        assert [s.weight for s, _ in gen.strings] == [3, 3]
        support = set()
        for s, _ in gen.strings:
            support |= {j for j in range(4) if ((s.x | s.z) >> j) & 1}
        assert support == {0, 1, 2}  # X/Y on qubits 0 and 2, Z chain on 1

    @pytest.mark.parametrize("p,q,expected", [(0, 2, 5), (1, 3, 5), (0, 3, 7)])
    def test_weight_formula(self, p, q, expected):
        gen = pq.make_single(p, q, 0, 4)
        assert all(s.weight == expected for s, _ in gen.strings)

    def test_exponential_matches_expm(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            p, q = sorted(rng.choice(4, size=2, replace=False))
            spin = int(rng.integers(0, 2))
            theta = float(rng.uniform(-2, 2))
            gen = pq.make_single(int(p), int(q), spin, 4)
            dense = kron_sum(gen.strings, 8)
            expected = scipy.linalg.expm(-0.5j * theta * dense)
            ansatz = pq.Ansatz(generators=(gen,), n_qubits=8, reference=(0, 1, 2), name="one")
            basis, _, psi = _sector_state(ansatz, [theta])
            ref = np.zeros(256, dtype=complex)
            ref[0b111] = 1.0
            np.testing.assert_allclose(embed(basis, psi), expected @ ref, atol=1e-12)


class TestGeneratorKinds:
    def test_each_kind_has_its_own_label(self):
        assert pq.make_pair_double(0, 2, 3).label == "D(0->2)"
        assert pq.make_single(0, 2, 0, 3).label == "Su(0->2)"
        assert pq.make_single(0, 2, 1, 3).label == "Sd(0->2)"
        assert pq.make_paired_rotation(0, 2, 4).label == "P(0->2)"

    def test_unknown_kind_rejected(self):
        # the simulator builds a factor from the kind, so there is none for another one
        with pytest.raises(ValueError, match="unknown excitation kind 'hop'"):
            pq.ExcitationGenerator(kind="hop", orbitals=(0, 1), spin=0, n_qubits=4)

    @pytest.mark.parametrize("make", [
        lambda: pq.make_pair_double(1, 1, 3),
        lambda: pq.make_single(2, 2, 0, 3),
        lambda: pq.make_paired_rotation(0, 0, 2),
    ], ids=["pair_double", "single", "paired_double"])
    def test_equal_orbitals_rejected(self, make):
        with pytest.raises(ValueError, match="^excitation needs two distinct orbitals$"):
            make()

    @pytest.mark.parametrize("kind, orbitals, spin, n_qubits", [
        ("pair_double", (0, 2), None, 5),     # qubit 5
        ("pair_double", (3, 0), None, 6),     # qubits 6 and 7
        ("single", (0, 2), 1, 5),             # qubit 5
        ("single", (2, 0), 0, 4),             # qubit 4
        ("paired_double", (0, 3), None, 3),
        ("paired_double", (-1, 1), None, 3),
        ("single", (0, -1), 0, 6),
    ])
    def test_orbital_outside_the_register_rejected(self, kind, orbitals, spin, n_qubits):
        with pytest.raises(ValueError, match="^excitation orbital outside the register$"):
            pq.ExcitationGenerator(kind, orbitals, spin, n_qubits)

    def test_register_edge_is_inside(self):
        # spin-up qubit 2a of a single fits an odd register whose last qubit is 2a
        gen = pq.ExcitationGenerator("single", (0, 2), 0, 5)
        assert gen.masks == (0b00001, 0b10000, 0b01110)

    @pytest.mark.parametrize("kind, spin", [
        ("single", None), ("single", 2), ("pair_double", 0), ("paired_double", 1),
    ])
    def test_spin_that_disagrees_with_the_kind_rejected(self, kind, spin):
        with pytest.raises(ValueError, match="excitation cannot have spin"):
            pq.ExcitationGenerator(kind, (0, 1), spin, 4)

    def test_ansatz_refuses_a_generator_of_another_register(self):
        with pytest.raises(ValueError, match="generator register differs"):
            pq.Ansatz(generators=(pq.make_pair_double(0, 1, 3),), n_qubits=4,
                      reference=(0, 1), name="mixed")


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(excitation_generators())
def test_strings_are_the_jordan_wigner_image_of_the_fermionic_generator(gen):
    # the strings derive from the masks; the reference from the ladder
    # products (written out for a pair rotation), never from the masks
    expected = reference_generator_strings(gen)
    assert [string for string, _ in gen.strings] == [string for string, _ in expected]
    assert [type(coeff) for _, coeff in gen.strings] == [float] * len(expected)
    assert [coeff for _, coeff in gen.strings] == [coeff for _, coeff in expected]


class TestGeneratorInvariants:
    def gens_for(self, n):
        out = []
        for i in range(n):
            for a in range(i + 1, n):
                out.append(pq.make_pair_double(i, a, n))
                out.append(pq.make_single(i, a, 0, n))
                out.append(pq.make_single(i, a, 1, n))
        return out

    def test_strings_mutually_commute(self):
        for gen in self.gens_for(4):
            for s1, _ in gen.strings:
                for s2, _ in gen.strings:
                    # an even count of qubits where one has X and the other Z
                    assert ((s1.x & s2.z).bit_count() + (s1.z & s2.x).bit_count()) % 2 == 0

    def test_cube_equals_generator(self):
        for gen in self.gens_for(3):
            m = kron_sum(gen.strings, 6)
            np.testing.assert_allclose(m @ m @ m, m, atol=1e-12)

    def test_commute_with_number_and_spin(self):
        for gen in self.gens_for(3):
            assert max(symmetry_leaks(kron_sum(gen.strings, 6))) < 1e-12


class TestBuildUpccgsd:
    @pytest.mark.parametrize("n,expected", [(2, 3), (6, 45), (11, 165)])
    def test_parameter_counts(self, n, expected):
        ansatz = pq.build_upccgsd(n, 2)
        assert ansatz.n_parameters == expected

    def test_parameter_formula_sweep(self):
        for n in range(2, 9):
            assert pq.build_upccgsd(n, 2).n_parameters == 3 * (n * (n - 1) // 2)

    def test_block_ordering(self):
        ansatz = pq.build_upccgsd(3, 2)
        kinds = [g.kind for g in ansatz.generators]
        assert kinds == ["pair_double"] * 3 + ["single"] * 6

    def test_reference_occupation(self):
        ansatz = pq.build_upccgsd(4, 4)
        assert ansatz.reference == (0, 1, 2, 3)

    def test_layers(self):
        assert pq.build_upccgsd(3, 2, layers=2).n_parameters == 18

    def test_invalid_electron_count(self):
        with pytest.raises(ValueError):
            pq.build_upccgsd(2, 3)
        with pytest.raises(ValueError):
            pq.build_upccgsd(2, 6)


class TestBuildPNOAnsatz:
    def test_lih12_upccd(self):
        ansatz = pq.build_pno_ansatz(lih12_space(), "UpCCD")
        assert ansatz.n_parameters == 4
        assert all(g.kind == "pair_double" for g in ansatz.generators)
        assert [g.orbitals for g in ansatz.generators] == [
            (1, 2), (1, 3), (1, 4), (1, 5)
        ]

    def test_lih12_upccsd(self):
        ansatz = pq.build_pno_ansatz(lih12_space(), "UpCCSD")
        assert ansatz.n_parameters == 12

    def test_bh12_upccd(self):
        assert pq.build_pno_ansatz(bh12_space(), "UpCCD").n_parameters == 3

    def test_upccgd_appends_generalized_block(self):
        space = space_with_assignment(1, {1: (0, 0), 2: (0, 0)})
        ansatz = pq.build_pno_ansatz(space, "UpCCGD")
        assert [g.orbitals for g in ansatz.generators] == [(0, 1), (0, 2), (1, 2)]

    def test_spectators_contribute_no_generators(self):
        ansatz = pq.build_pno_ansatz(bh22_space(), "UpCCD")
        assert ansatz.n_parameters == 7

    def test_triple_ratio_upccsd(self):
        for space in (lih12_space(), bh12_space(), lih22_space(), bh22_space()):
            d = pq.build_pno_ansatz(space, "UpCCD").n_parameters
            sd = pq.build_pno_ansatz(space, "UpCCSD").n_parameters
            assert sd == 3 * d

    def test_missing_metadata_rejected(self):
        space = OrbitalSpace(
            n_total=2, occupied=(0,), pno_assignment=None, transform=np.eye(2)
        )
        with pytest.raises(ValueError, match="PNO metadata"):
            pq.build_pno_ansatz(space, "UpCCD")

    def test_unknown_variant(self):
        with pytest.raises(ValueError, match="variant"):
            pq.build_pno_ansatz(lih12_space(), "UCCSD")


class TestCountResources:
    def test_upccgsd_n6(self):
        report = pq.count_resources(pq.build_upccgsd(6, 2))
        assert report.n_parameters == 45
        assert report.n_cnots == 1280

    def test_upccgsd_n11(self):
        report = pq.count_resources(pq.build_upccgsd(11, 2))
        assert report.n_parameters == 165
        assert report.n_cnots == 6160

    def test_pair_double_costs_48(self):
        for i, a, n in [(0, 1, 2), (0, 5, 6), (3, 7, 11)]:
            gen = pq.make_pair_double(i, a, n)
            ansatz = pq.Ansatz(
                generators=(gen,), n_qubits=2 * n, reference=(0, 1), name="d"
            )
            assert pq.count_resources(ansatz).n_cnots == 48

    @pytest.mark.parametrize("space_fn,upccd,upccsd_cnots", [
        (lih12_space, 192, 352),
        (bh12_space, 144, None),
        (lih22_space, 432, None),
        (bh22_space, 336, None),
    ])
    def test_pno_cnot_counts(self, space_fn, upccd, upccsd_cnots):
        space = space_fn()
        report = pq.count_resources(pq.build_pno_ansatz(space, "UpCCD"))
        assert report.n_cnots == upccd
        if upccsd_cnots is not None:
            report_sd = pq.count_resources(pq.build_pno_ansatz(space, "UpCCSD"))
            assert report_sd.n_cnots == upccsd_cnots

    def test_breakdown_sums_to_total(self):
        report = pq.count_resources(pq.build_upccgsd(4, 2))
        assert sum(c for _, c in report.breakdown) == report.n_cnots

    def test_table_formatting(self):
        rows = [
            ("LiH(4,12)", {
                "PNO-UpCCD": pq.count_resources(
                    pq.build_pno_ansatz(lih12_space(), "UpCCD")
                ),
                "UpCCGSD": pq.count_resources(pq.build_upccgsd(6, 4)),
            }),
        ]
        table = pq.format_resource_table(rows)
        assert "4 (192)" in table
        assert "45 (1280)" in table
