"""Config objects: round-trip, immutability, validation, deprecation warnings."""

import dataclasses
import warnings

import pytest

from repro import api
from repro.atoms import silicon_primitive_cell
from repro.core import LRTDDFTSolver
from repro.synthetic import synthetic_ground_state
from repro.utils.deprecation import reset_deprecation_warnings, warn_once


@pytest.fixture(scope="module")
def tiny_gs():
    return synthetic_ground_state(
        silicon_primitive_cell(), ecut=4.0, n_valence=4, n_conduction=4, seed=5
    )


@pytest.mark.parametrize(
    "cls", [api.SCFConfig, api.TDDFTConfig, api.ResilienceConfig, api.BatchConfig]
)
class TestRoundTrip:
    def test_default_round_trip(self, cls):
        cfg = cls()
        assert cls.from_dict(cfg.to_dict()) == cfg

    def test_modified_round_trip(self, cls):
        field = dataclasses.fields(cls)[0].name
        cfg = cls()
        d = cfg.to_dict()
        assert field in d
        assert cls.from_dict(d) == cfg

    def test_frozen(self, cls):
        cfg = cls()
        field = dataclasses.fields(cls)[0].name
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(cfg, field, None)

    def test_unknown_key_rejected(self, cls):
        with pytest.raises(ValueError, match="unknown"):
            cls.from_dict({"definitely_not_a_field": 1})


class TestValidation:
    def test_scf_bad_mixer(self):
        with pytest.raises(ValueError, match="mixer"):
            api.SCFConfig(mixer="magic")

    def test_scf_bad_ecut(self):
        with pytest.raises(ValueError, match="ecut"):
            api.SCFConfig(ecut=-1.0)

    def test_tddft_bad_method(self):
        with pytest.raises(ValueError, match="unknown method"):
            api.TDDFTConfig(method="quantum-leap")

    def test_tddft_bad_spin(self):
        with pytest.raises(ValueError, match="spin"):
            api.TDDFTConfig(spin="doublet")

    def test_resilience_bad_fallback(self):
        with pytest.raises(ValueError, match="selection_fallback"):
            api.ResilienceConfig(selection_fallback="prayer")

    def test_batch_nested_configs_rehydrate(self):
        cfg = api.BatchConfig(
            scf=api.SCFConfig(ecut=6.0, tol=1e-7),
            tddft=api.TDDFTConfig(n_excitations=3),
            n_ranks=2,
            spmd_backend="thread",
        )
        back = api.BatchConfig.from_dict(cfg.to_dict())
        assert back == cfg
        assert isinstance(back.scf, api.SCFConfig)
        assert isinstance(back.tddft, api.TDDFTConfig)
        assert back.scf.ecut == 6.0

    def test_batch_bad_extrapolation(self):
        with pytest.raises(ValueError, match="density_extrapolation"):
            api.BatchConfig(density_extrapolation="cubic")

    def test_batch_bad_drift_threshold(self):
        with pytest.raises(ValueError, match="isdf_drift_threshold"):
            api.BatchConfig(isdf_drift_threshold=2.0)

    def test_batch_bad_backend(self):
        with pytest.raises(ValueError, match="spmd_backend"):
            api.BatchConfig(spmd_backend="mpi")

    def test_batch_scf_must_be_config(self):
        with pytest.raises(ValueError, match="scf"):
            api.BatchConfig(scf={"ecut": 6.0})

    def test_scf_bad_precision(self):
        with pytest.raises(ValueError, match="precision"):
            api.SCFConfig(precision="half")

    def test_tddft_bad_precision(self):
        with pytest.raises(ValueError, match="precision"):
            api.TDDFTConfig(precision="fp32")

    def test_batch_bad_precision(self):
        with pytest.raises(ValueError, match="precision"):
            api.BatchConfig(precision="mixed64")

    def test_replace(self):
        cfg = api.TDDFTConfig()
        other = cfg.replace(method="naive", n_excitations=3)
        assert other.method == "naive"
        assert other.n_excitations == 3
        assert cfg.method == "implicit-kmeans-isdf-lobpcg"

    def test_checkpointer_disabled_without_dir(self):
        assert api.ResilienceConfig().checkpointer("scf") is None

    def test_checkpointer_tagged(self, tmp_path):
        ck = api.ResilienceConfig(checkpoint_dir=str(tmp_path)).checkpointer("scf")
        assert ck.tag == "scf"


class TestPrecisionThreading:
    def test_default_tier_is_strict64(self):
        assert api.SCFConfig().precision == "strict64"
        assert api.TDDFTConfig().precision == "strict64"
        assert api.BatchConfig().precision is None

    def test_batch_precision_pushes_down_to_both_stages(self):
        cfg = api.BatchConfig(precision="mixed")
        assert cfg.scf.precision == "mixed"
        assert cfg.tddft.precision == "mixed"

    def test_batch_none_preserves_nested_tiers(self):
        cfg = api.BatchConfig(
            scf=api.SCFConfig(precision="fast32"),
            tddft=api.TDDFTConfig(precision="mixed"),
        )
        assert cfg.scf.precision == "fast32"
        assert cfg.tddft.precision == "mixed"

    def test_precision_survives_the_dict_round_trip(self):
        cfg = api.TDDFTConfig(precision="mixed")
        assert api.TDDFTConfig.from_dict(cfg.to_dict()).precision == "mixed"


class TestDeprecationShims:
    def test_warn_once_is_once(self):
        reset_deprecation_warnings()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert warn_once("test:key", "legacy thing")
            assert not warn_once("test:key", "legacy thing")
        dep = [w for w in caught if issubclass(w.category, DeprecationWarning)]
        assert len(dep) == 1

    def test_solver_legacy_kwargs_warn_exactly_once(self, tiny_gs):
        reset_deprecation_warnings()
        solver = LRTDDFTSolver(tiny_gs, seed=0)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            solver.solve("naive", n_excitations=2)
            solver.solve("naive", n_excitations=2)
        dep = [w for w in caught if issubclass(w.category, DeprecationWarning)]
        assert len(dep) == 1
