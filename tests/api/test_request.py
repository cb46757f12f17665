"""CalculationRequest: canonical identity, cache-key stability, execution."""

import json

import numpy as np
import pytest

from repro import api
from repro.api import (
    CalculationRequest,
    RTConfig,
    SCFConfig,
    TDDFTConfig,
    execute_request,
    structure_from_dict,
    structure_to_dict,
)
from repro.pw.cell import UnitCell


@pytest.fixture()
def cell():
    # Irrational-ish coordinates: the floats must survive repr round-trips.
    return UnitCell(
        10.0 * np.eye(3),
        ("H", "H"),
        np.array([[1 / 3, 0.1, 0.1], [2 / 3, 0.1, 0.1 + 1e-15]]),
    )


@pytest.fixture()
def scf_request(cell):
    return CalculationRequest(
        kind="scf", structure=cell, scf=SCFConfig(ecut=4.0, tol=1e-6)
    )


class TestConstruction:
    def test_kind_validated(self, cell):
        with pytest.raises(ValueError, match="kind"):
            CalculationRequest(kind="md", structure=cell)

    @pytest.mark.parametrize(
        ("kind", "extra"),
        [
            ("scf", {"tddft": TDDFTConfig()}),
            ("scf", {"rt": RTConfig()}),
            ("tddft", {"rt": RTConfig()}),
            ("rt", {"tddft": TDDFTConfig()}),
        ],
    )
    def test_irrelevant_configs_rejected(self, cell, kind, extra):
        with pytest.raises(ValueError, match="does not consume"):
            CalculationRequest(kind=kind, structure=cell, **extra)

    def test_batch_rejects_single_cell(self, cell):
        with pytest.raises(ValueError, match="sequence"):
            CalculationRequest(kind="batch", structure=cell)

    def test_scf_rejects_cell_list(self, cell):
        with pytest.raises(ValueError, match="single UnitCell"):
            CalculationRequest(kind="scf", structure=[cell, cell])

    def test_batch_structure_normalized_to_tuple(self, cell):
        request = CalculationRequest(kind="batch", structure=[cell, cell])
        assert isinstance(request.structure, tuple)
        assert request.batch is not None


class TestCacheKeyStability:
    def test_json_round_trip_is_identity(self, scf_request):
        """serialize -> parse -> rebuild reproduces the exact key."""
        rebuilt = CalculationRequest.from_dict(
            json.loads(scf_request.canonical_json())
        )
        assert rebuilt.cache_key() == scf_request.cache_key()
        assert rebuilt.canonical_json() == scf_request.canonical_json()

    def test_invariant_under_dict_key_ordering(self, scf_request):
        payload = scf_request.to_dict()
        shuffled = {k: payload[k] for k in reversed(sorted(payload))}
        shuffled["scf"] = {
            k: payload["scf"][k] for k in reversed(sorted(payload["scf"]))
        }
        assert (
            CalculationRequest.from_dict(shuffled).cache_key()
            == scf_request.cache_key()
        )

    def test_default_vs_explicit_config_is_canonical(self, cell):
        implicit = CalculationRequest(kind="scf", structure=cell)
        explicit = CalculationRequest(kind="scf", structure=cell, scf=SCFConfig())
        assert implicit.cache_key() == explicit.cache_key()

    def test_default_vs_explicit_field_value(self, cell):
        bare = CalculationRequest(kind="scf", structure=cell, scf=SCFConfig())
        spelled = CalculationRequest(
            kind="scf", structure=cell, scf=SCFConfig(ecut=10.0, mixer="anderson")
        )
        assert bare.cache_key() == spelled.cache_key()

    def test_structure_floats_exact(self, cell):
        rebuilt = structure_from_dict(structure_to_dict(cell))
        np.testing.assert_array_equal(
            rebuilt.fractional_positions, cell.fractional_positions
        )
        np.testing.assert_array_equal(rebuilt.lattice, cell.lattice)

    def test_different_structures_never_alias(self, cell):
        moved = UnitCell(
            cell.lattice,
            cell.species,
            cell.fractional_positions + np.array([[0.0, 0.0, 1e-12], [0, 0, 0]]),
        )
        a = CalculationRequest(kind="scf", structure=cell)
        b = CalculationRequest(kind="scf", structure=moved)
        assert a.cache_key() != b.cache_key()

    def test_config_difference_changes_key(self, cell):
        a = CalculationRequest(kind="scf", structure=cell, scf=SCFConfig(tol=1e-6))
        b = CalculationRequest(kind="scf", structure=cell, scf=SCFConfig(tol=1e-7))
        assert a.cache_key() != b.cache_key()

    def test_kind_changes_key(self, cell):
        scf = CalculationRequest(kind="scf", structure=cell)
        td = CalculationRequest(kind="tddft", structure=cell)
        assert scf.cache_key() != td.cache_key()

    def test_precision_tier_is_part_of_the_key(self, cell):
        # strict64 and mixed results are (deliberately) not interchangeable
        # in the content-addressed cache: the tier must enter the key, and
        # the default tier must alias its explicit spelling.
        strict = CalculationRequest(
            kind="tddft", structure=cell, tddft=TDDFTConfig()
        )
        explicit = CalculationRequest(
            kind="tddft", structure=cell,
            tddft=TDDFTConfig(precision="strict64"),
        )
        mixed = CalculationRequest(
            kind="tddft", structure=cell,
            tddft=TDDFTConfig(precision="mixed"),
        )
        assert strict.cache_key() == explicit.cache_key()
        assert strict.cache_key() != mixed.cache_key()

    def test_resilience_is_part_of_the_key(self, cell):
        plain = CalculationRequest(kind="scf", structure=cell)
        degraded = CalculationRequest(
            kind="scf",
            structure=cell,
            resilience=api.ResilienceConfig(dense_fallback_max_pairs=0),
        )
        assert plain.cache_key() != degraded.cache_key()

    def test_scf_subrequest_matches_plain_scf_request(self, cell):
        scf = SCFConfig(ecut=5.0)
        td = CalculationRequest(
            kind="tddft", structure=cell, scf=scf, tddft=TDDFTConfig()
        )
        rt = CalculationRequest(kind="rt", structure=cell, scf=scf)
        plain = CalculationRequest(kind="scf", structure=cell, scf=scf)
        assert td.scf_subrequest().cache_key() == plain.cache_key()
        assert rt.scf_subrequest().cache_key() == plain.cache_key()

    def test_from_dict_rejects_unknown_keys(self, scf_request):
        payload = scf_request.to_dict()
        payload["tenant"] = "a"
        with pytest.raises(ValueError, match="unknown"):
            CalculationRequest.from_dict(payload)


class TestExecution:
    def test_compute_runs_scf(self, scf_request):
        gs = scf_request.compute()
        assert gs.converged

    def test_execute_skips_scf_with_ground_state(self, cell, scf_request):
        gs = scf_request.compute()
        td = CalculationRequest(
            kind="tddft",
            structure=cell,
            scf=scf_request.scf,
            tddft=TDDFTConfig(n_excitations=2, n_valence=1, n_conduction=2, seed=0),
        )
        outcome = execute_request(td, ground_state=gs)
        assert outcome.scf_iterations == 0
        assert outcome.result.energies.shape == (2,)

    def test_progress_events_are_staged(self, scf_request):
        events = []
        execute_request(scf_request, progress=events.append)
        assert events, "no progress events published"
        assert {e["stage"] for e in events} == {"scf"}
        iterations = [e["iteration"] for e in events]
        assert iterations == sorted(iterations)
        assert events[-1]["converged"]


class TestCasidaFullSpace:
    def test_si2_request_at_stalling_lattice_converges(self):
        """Regression: a cold Si2 tddft request at lattice a*(1 + 2e-4*116)
        has n_pairs = 16 and k = 10, so LOBPCG's [X, W, P] could hold 30
        columns in a 16-dimensional space.  It used to stall near the
        tolerance for all 400 iterations; the full-space Rayleigh-Ritz
        solves it exactly in one step."""
        from repro.api import SCFConfig
        from repro.api import request as request_module
        from repro.atoms.structures import SILICON_A_BOHR, silicon_primitive_cell

        cell = silicon_primitive_cell(SILICON_A_BOHR * (1.0 + 2e-4 * 116))
        request = api.CalculationRequest(kind="tddft", structure=cell, scf=SCFConfig())
        result = request_module.execute_request(request).result
        assert result.converged
        assert result.eigensolver_iterations == 1
