"""Tests for array-backend selection and the namespace contract.

Pinned here:

* ``get_namespace`` name resolution: numpy default, ``"auto"`` preference
  order (torch, cupy, numpy) restricted to importable packages, unknown
  names rejected with the full choice list;
* a missing soft dependency raises :class:`BackendNotAvailable` whose
  message names the backend, the pip package, and the numpy fallback;
* the numpy namespace's transfer ops are identity (device round-trips
  return the same numpy data) and its portable ops are the numpy
  functions themselves — the bitwise guarantee is by construction;
* ``NNBO`` builds its surrogate bank on the backend named by its
  :class:`SurrogateConfig` (``backend=``);
* when torch is importable, the torch posterior matches numpy within the
  1e-5 accelerator-equivalence gate (skips cleanly otherwise).
"""

import numpy as np
import pytest

import repro.backend as backend_mod
from repro.backend import (
    BACKEND_NAMES,
    BackendNotAvailable,
    available_backends,
    default_namespace,
    get_namespace,
    resolve_namespace,
)

pytestmark = pytest.mark.backend


class TestGetNamespace:
    def test_default_is_numpy(self):
        assert get_namespace().name == "numpy"
        assert get_namespace(None).name == "numpy"
        assert get_namespace("numpy").is_numpy

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown array backend"):
            get_namespace("tensorflow")

    def test_available_backends_always_has_numpy(self):
        names = available_backends()
        assert names[0] == "numpy"
        assert set(names) <= set(BACKEND_NAMES)

    def test_auto_prefers_first_importable_accelerator(self):
        """``"auto"`` walks torch, cupy, numpy and takes the first importable."""
        expected = "numpy"
        for candidate in backend_mod._AUTO_ORDER:
            if candidate == "numpy" or candidate in available_backends():
                expected = candidate
                break
        assert get_namespace("auto").name == expected

    def test_auto_falls_back_to_numpy_when_nothing_importable(self, monkeypatch):
        monkeypatch.setattr(backend_mod, "_package_importable", lambda name: False)
        assert get_namespace("auto").name == "numpy"

    def test_missing_soft_dependency_raises_helpfully(self):
        missing = [n for n in ("torch", "cupy") if n not in available_backends()]
        if not missing:
            pytest.skip("both accelerator packages installed")
        for name in missing:
            with pytest.raises(BackendNotAvailable) as excinfo:
                get_namespace(name)
            message = str(excinfo.value)
            assert name in message
            assert f"pip install {name}" in message
            assert "backend='numpy'" in message
            assert excinfo.value.backend == name
            # BackendNotAvailable subclasses ImportError so plain
            # ``except ImportError`` guards keep working
            assert isinstance(excinfo.value, ImportError)


class TestResolveNamespace:
    def test_none_is_default_singleton(self):
        assert resolve_namespace(None) is default_namespace()

    def test_instance_passes_through(self):
        xb = get_namespace("numpy")
        assert resolve_namespace(xb) is xb

    def test_name_resolves(self):
        assert resolve_namespace("numpy").is_numpy

    def test_bad_type_rejected(self):
        with pytest.raises(TypeError, match="backend must be"):
            resolve_namespace(42)


class TestNumpyNamespaceContract:
    def test_device_round_trip_is_identity(self):
        xb = get_namespace("numpy")
        arr = np.arange(6.0).reshape(2, 3)
        on_device = xb.to_device(arr)
        assert on_device is arr  # numpy transfer ops are identity
        back = xb.from_device(on_device)
        assert isinstance(back, np.ndarray)
        np.testing.assert_array_equal(back, arr)

    def test_portable_ops_are_numpy_functions(self):
        """Bitwise identity by construction: the ops ARE numpy's."""
        xb = get_namespace("numpy")
        assert xb.stack is np.stack
        assert xb.concatenate is np.concatenate
        assert xb.exp is np.exp
        assert xb.where is np.where

    def test_device_validation(self):
        assert get_namespace("numpy", device="cpu").device == "cpu"
        with pytest.raises(ValueError, match="CPU only"):
            get_namespace("numpy", device="cuda:0")


class TestConfigWiring:
    def test_surrogate_config_fields(self):
        from repro.bo.config import SurrogateConfig

        cfg = SurrogateConfig(backend="numpy")
        xb = cfg.resolve_backend()
        assert xb.is_numpy
        with pytest.raises(ValueError, match="backend"):
            SurrogateConfig(backend="mlx")

    def test_nnbo_bank_uses_configured_backend(self):
        from repro.benchfns import toy_constrained_quadratic
        from repro.bo.config import SurrogateConfig
        from repro.core import NNBO

        bo = NNBO(
            toy_constrained_quadratic(2),
            n_initial=4,
            max_evaluations=6,
            surrogate=SurrogateConfig(backend="numpy"),
        )
        assert bo.surrogate_config.backend == "numpy"
        bank = bo.surrogate_bank_factory(np.random.default_rng(0), 2)
        assert bank.gp.xb.is_numpy


class TestTorchEquivalence:
    """Accelerator gate: torch posterior within 1e-5 of the numpy path."""

    def test_torch_posterior_matches_numpy(self):
        pytest.importorskip("torch")
        from repro.core.batched_gp import SurrogateBank
        from repro.core.trainer import BatchedFeatureGPTrainer

        rng = np.random.default_rng(0)
        x = rng.uniform(size=(24, 3))
        targets = np.stack([np.sin(x).sum(axis=1), (x**2).sum(axis=1)])

        def tf():
            return BatchedFeatureGPTrainer(epochs=25, patience=10)

        banks = {}
        for name in ("numpy", "torch"):
            bank = SurrogateBank(
                3,
                2,
                n_members=3,
                hidden_dims=(12, 12),
                n_features=8,
                seed=9,
                trainer_factory=tf,
                backend=get_namespace(name),
            )
            bank.fit(x, targets)
            banks[name] = bank
        xq = rng.uniform(size=(10, 3))
        for t in range(2):
            m_np, v_np = banks["numpy"].predict_target(t, xq)
            m_th, v_th = banks["torch"].predict_target(t, xq)
            np.testing.assert_allclose(m_th, m_np, rtol=1e-5, atol=1e-5)
            np.testing.assert_allclose(v_th, v_np, rtol=1e-5, atol=1e-5)
