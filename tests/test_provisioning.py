"""Tests for the identity-provisioning subsystem (keypair pool, lazy
sign-up, and the knobs that thread them through the experiment
harness)."""

import pytest

from repro.alleyoop.cloud import CloudService
from repro.bench.traceid import trace_lines
from repro.crypto.drbg import HmacDrbg
from repro.crypto.rsa import generate_keypair
from repro.experiments import DensitySweep, GainesvilleStudy, ScenarioConfig
from repro.experiments.density_sweep import _run_sweep_point
from repro.pki.provisioning import (
    PROVISIONING_MODES,
    KeypairPool,
    provision_user,
    signup_drbg_seed,
)

BITS = 512  # fast keygen; fine for pool tests (no OAEP involved)


class TestKeypairPool:
    def test_matches_eager_generation(self):
        """The pool's whole point: its keys equal the eager flow's keys."""
        pool = KeypairPool()
        cached = pool.get(BITS, seed=2017, index=3)
        direct = generate_keypair(BITS, rng=HmacDrbg.from_int(signup_drbg_seed(2017, 3)))
        assert cached.public == direct.public
        assert cached.private == direct.private

    def test_memory_hit_returns_same_object(self):
        pool = KeypairPool()
        first = pool.get(BITS, seed=1, index=0)
        second = pool.get(BITS, seed=1, index=0)
        assert first is second
        assert pool.stats == {"memory_hits": 1, "disk_hits": 0, "generated": 1}

    def test_distinct_indices_distinct_keys(self):
        pool = KeypairPool()
        assert pool.get(BITS, seed=1, index=0).public != pool.get(BITS, seed=1, index=1).public

    def test_disk_round_trip(self, tmp_path):
        warm = KeypairPool(str(tmp_path))
        original = warm.get(BITS, seed=9, index=4)
        cold = KeypairPool(str(tmp_path))  # fresh process, warm disk
        loaded = cold.get(BITS, seed=9, index=4)
        assert cold.stats["disk_hits"] == 1
        assert cold.stats["generated"] == 0
        assert loaded.private == original.private

    def test_corrupt_cache_file_regenerates(self, tmp_path):
        warm = KeypairPool(str(tmp_path))
        original = warm.get(BITS, seed=9, index=0)
        (files,) = list(tmp_path.iterdir())
        files.write_text("garbage\nnot a key\n")
        cold = KeypairPool(str(tmp_path))
        regenerated = cold.get(BITS, seed=9, index=0)
        assert cold.stats["generated"] == 1
        assert regenerated.private == original.private  # deterministic redo


class TestProvisionUser:
    def _cloud(self):
        return CloudService(rng=HmacDrbg.from_int(11), now=0.0, key_bits=1024)

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError, match="unknown provisioning mode"):
            provision_user(self._cloud(), "alice", seed=1, index=0, now=0.0, mode="psychic")

    @pytest.mark.parametrize("mode", PROVISIONING_MODES)
    def test_all_modes_keystore_provisioned(self, mode):
        signup = provision_user(
            self._cloud(), "alice", seed=1, index=0, now=0.0, key_bits=1024, mode=mode
        )
        assert signup.keystore.provisioned

    def test_lazy_defers_until_first_use(self):
        cloud = self._cloud()
        signup = provision_user(
            cloud, "alice", seed=1, index=0, now=0.0, key_bits=1024, mode="lazy"
        )
        assert signup.certificate is None
        assert not signup.keystore.materialized
        assert cloud.stats["certificates_issued"] == 0
        # First private-key access pays keygen + issuance, exactly once.
        key = signup.keystore.private_key
        assert signup.keystore.materialized
        assert cloud.stats["certificates_issued"] == 1
        assert signup.keystore.own_certificate.public_key == key.public_key()
        assert cloud.account_for("alice").certificate_serial == 1

    def test_lazy_materialises_with_cloud_offline(self):
        """The D2D property: after sign-up the cloud goes dark, and the
        deferred issuance (a simulator optimisation) must still complete."""
        cloud = self._cloud()
        signup = provision_user(
            cloud, "alice", seed=1, index=0, now=0.0, key_bits=1024, mode="lazy"
        )
        cloud.online = False
        assert signup.keystore.private_key is not None
        assert signup.keystore.own_certificate.user_id == signup.user_id

    def test_lazy_certificate_byte_identical_to_eager(self):
        """Reserved serials + recorded sign-up time make the lazily-issued
        certificate the same bytes the eager flow would have produced."""
        eager_cloud = CloudService(rng=HmacDrbg.from_int(11), now=0.0, key_bits=1024)
        lazy_cloud = CloudService(rng=HmacDrbg.from_int(11), now=0.0, key_bits=1024)
        eager = provision_user(
            eager_cloud, "alice", seed=4, index=0, now=0.0, key_bits=1024, mode="eager"
        )
        lazy = provision_user(
            lazy_cloud, "alice", seed=4, index=0, now=0.0, key_bits=1024, mode="lazy"
        )
        assert lazy.keystore.own_certificate.encode() == eager.certificate.encode()

    def test_failed_materialisation_raises_every_time(self):
        """Regression: a failing materialiser must raise on *every*
        access, not fail once and then degrade to None credentials."""
        from repro.pki.keystore import KeyStore

        cloud = self._cloud()
        keystore = KeyStore()
        calls = []

        def explode():
            calls.append(1)
            raise RuntimeError("keygen backend down")

        keystore.provision_deferred(explode, root=cloud.root_certificate)
        for _ in range(2):
            with pytest.raises(RuntimeError, match="keygen backend down"):
                keystore.private_key
        assert len(calls) == 2  # retried, not silently dropped
        assert not keystore.materialized


class TestConfigValidation:
    def test_scenario_config_rejects_bad_mode(self):
        with pytest.raises(ValueError, match=r"provisioning .*\('eager', 'lazy'\)"):
            ScenarioConfig(provisioning="telepathy")

    def test_density_sweep_rejects_zero_workers(self):
        with pytest.raises(ValueError, match="workers"):
            DensitySweep(workers=0)


class TestStudyIntegration:
    BASE = dict(num_users=4, duration_days=1, total_posts=12, seed=77)

    def test_eager_and_lazy_trace_identical(self, tmp_path):
        traces = {}
        materialized = {}
        for mode in PROVISIONING_MODES:
            study = GainesvilleStudy(
                ScenarioConfig(provisioning=mode, key_cache_dir=str(tmp_path), **self.BASE)
            )
            result = study.run()
            traces[mode] = trace_lines(study.sim)
            materialized[mode] = result.security_stats["keystores_materialized"]
        assert traces["eager"] == traces["lazy"]
        assert any("|message|" in line for line in traces["eager"])
        assert materialized["eager"] == self.BASE["num_users"]
        assert materialized["lazy"] <= self.BASE["num_users"]

    def test_lazy_study_reuses_disk_cache(self, tmp_path, monkeypatch):
        """A warm key cache serves every lazy key from disk, and the pool
        counts each lookup exactly once, inside ``KeypairPool.get`` — the
        accounting perfbench cross-checks against its ``get`` spans."""
        calls = []
        original_get = KeypairPool.get

        def counting_get(pool, bits, seed, index):
            calls.append(index)
            return original_get(pool, bits, seed, index)

        monkeypatch.setattr(KeypairPool, "get", counting_get)
        config = ScenarioConfig(
            provisioning="lazy", key_cache_dir=str(tmp_path), **self.BASE
        )
        runs = []
        for _ in ("cold", "warm"):
            calls.clear()
            study = GainesvilleStudy(config)
            result = study.run()
            stats = dict(study.keypair_pool.stats)
            assert sum(stats.values()) == len(calls)
            runs.append((study, result, stats))
        (_, _, cold), (warm_study, warm_result, warm) = runs
        materialized = warm_result.security_stats["keystores_materialized"]
        assert materialized > 0
        assert cold["generated"] == materialized
        assert warm["generated"] == 0
        assert warm["disk_hits"] == materialized
        eager = GainesvilleStudy(ScenarioConfig(provisioning="eager", **self.BASE))
        eager.run()
        assert trace_lines(warm_study.sim) == trace_lines(eager.sim)

    def test_parallel_sweep_matches_serial(self, tmp_path):
        base = ScenarioConfig(
            num_users=4, duration_days=1, total_posts=10, seed=31,
            provisioning="lazy", key_cache_dir=str(tmp_path),
        )
        serial = DensitySweep(base_config=base, populations=(4, 5), workers=1)
        parallel = DensitySweep(base_config=base, populations=(4, 5), workers=2)
        assert serial.run() == parallel.run()

    def test_sweep_point_is_pure(self, tmp_path):
        config = ScenarioConfig(
            num_users=4, duration_days=1, total_posts=10, seed=31,
            provisioning="lazy", key_cache_dir=str(tmp_path),
        )
        assert _run_sweep_point(config) == _run_sweep_point(config)
