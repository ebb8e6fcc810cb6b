"""Result cache: digests, round-trips, invalidation, journal."""

import json

import numpy as np
import pytest

from repro.core import surrogate_fingerprint
from repro.experiments import (
    ExperimentConfig,
    ResultCache,
    RunJournal,
    execute_job_lanes,
    job_digest,
)
from repro.experiments.jobs import JobKey

MICRO = ExperimentConfig(
    seeds=(1,), max_epochs=12, patience=12, n_mc_train=2, n_test=4, max_train=50,
)
KEY = JobKey("iris", True, True, 0.05, 1)


def execute_key(surrogates):
    """Train :data:`KEY` as a one-lane batch."""
    (outcome,) = execute_job_lanes([KEY], MICRO, surrogates)
    return outcome


def store_entry(tmp_path, surrogates, outcome):
    """A fresh cache holding ``outcome`` under its digest: ``(cache, digest)``."""
    cache = ResultCache(tmp_path / "cache")
    digest = job_digest(KEY, MICRO, surrogate_fingerprint(surrogates))
    cache.store(digest, outcome, surrogates)
    return cache, digest


class TestDigest:
    def test_stable(self, analytic_surrogates):
        fp = surrogate_fingerprint(analytic_surrogates)
        assert job_digest(KEY, MICRO, fp) == job_digest(KEY, MICRO, fp)
        assert len(job_digest(KEY, MICRO, fp)) == 64

    def test_changes_with_job_key(self, analytic_surrogates):
        fp = surrogate_fingerprint(analytic_surrogates)
        other = JobKey("iris", True, True, 0.05, 2)
        assert job_digest(KEY, MICRO, fp) != job_digest(other, MICRO, fp)

    def test_invalidated_by_training_config_change(self, analytic_surrogates):
        fp = surrogate_fingerprint(analytic_surrogates)
        changed = MICRO.with_overrides(max_epochs=13)
        assert job_digest(KEY, MICRO, fp) != job_digest(KEY, changed, fp)

    def test_not_invalidated_by_evaluation_budget(self, analytic_surrogates):
        # n_test and the seed list don't affect a trained design.
        fp = surrogate_fingerprint(analytic_surrogates)
        changed = MICRO.with_overrides(n_test=100, seeds=(1, 2, 3))
        assert job_digest(KEY, MICRO, fp) == job_digest(KEY, changed, fp)

    def test_invalidated_by_surrogates_and_split_seed(self, analytic_surrogates):
        fp = surrogate_fingerprint(analytic_surrogates)
        assert job_digest(KEY, MICRO, fp) != job_digest(KEY, MICRO, "deadbeef")
        assert job_digest(KEY, MICRO, fp) != job_digest(KEY, MICRO, fp, split_seed=1)


class TestRoundTrip:
    @pytest.fixture(scope="class")
    def outcome(self, analytic_surrogates):
        return execute_key(analytic_surrogates)

    def test_miss_then_hit(self, tmp_path, analytic_surrogates, outcome):
        cache = ResultCache(tmp_path / "cache")
        fp = surrogate_fingerprint(analytic_surrogates)
        digest = job_digest(KEY, MICRO, fp)
        assert not cache.contains(digest)
        assert cache.load_outcome(digest) is None

        cache.store(digest, outcome, analytic_surrogates)
        assert cache.contains(digest)
        assert len(cache) == 1

        restored = cache.load_outcome(digest)
        assert restored.key == KEY
        assert restored.cache_hit and restored.params is None
        assert restored.val_loss == outcome.val_loss
        assert restored.epochs_run == outcome.epochs_run

    @pytest.fixture(scope="class")
    def mlp_outcome(self, tiny_bundle):
        return execute_key(tiny_bundle)

    @pytest.mark.parametrize(
        "surrogates_name, outcome_name",
        [("analytic_surrogates", "outcome"), ("tiny_bundle", "mlp_outcome")],
    )
    def test_design_roundtrip_is_exact(self, request, tmp_path, surrogates_name, outcome_name):
        from repro.datasets import load_splits

        surrogates = request.getfixturevalue(surrogates_name)
        outcome = request.getfixturevalue(outcome_name)
        cache, digest = store_entry(tmp_path, surrogates, outcome)

        # The surrogate snapshots come from the live surrogates, not the entry.
        loaded = cache.load_design(digest, surrogates)
        assert loaded.content_digest() == outcome.params.content_digest()
        splits = load_splits("iris", seed=0, max_train=MICRO.max_train)
        np.testing.assert_array_equal(
            loaded.predict(splits.x_test), outcome.params.predict(splits.x_test)
        )

    def test_stored_entry_is_the_design_only(self, tmp_path, tiny_bundle, mlp_outcome):
        cache, digest = store_entry(tmp_path, tiny_bundle, mlp_outcome)
        with np.load(cache.design_path(digest)) as archive:
            members = set(archive.files)
        assert not any(name.startswith("surrogate.") for name in members)
        layers = {f"layer{i}.{field}"
                  for i in range(len(mlp_outcome.topology) - 1)
                  for field in ("theta", "act_omega", "neg_omega", "apply_activation")}
        assert members == layers | {
            "params_version", "layer_sizes", "per_neuron_activation",
            "activation_on_output", "surrogate_fingerprint",
        }

    def test_full_format_entry_still_loads(self, tmp_path, tiny_bundle, mlp_outcome):
        # Entries written before design-only entries hold the whole
        # save_params archive, surrogate snapshots included.
        from repro.core import save_params

        cache, digest = store_entry(tmp_path, tiny_bundle, mlp_outcome)
        save_params(mlp_outcome.params, cache.design_path(digest), surrogates=tiny_bundle)
        with np.load(cache.design_path(digest)) as archive:
            assert "surrogate.act.kind" in archive.files

        assert cache.load_outcome(digest).val_loss == mlp_outcome.val_loss
        loaded = cache.load_design(digest, tiny_bundle)
        assert loaded.content_digest() == mlp_outcome.params.content_digest()

    def test_fingerprint_mismatch_raises(self, tmp_path, analytic_surrogates, tiny_bundle, outcome):
        cache, digest = store_entry(tmp_path, analytic_surrogates, outcome)
        with pytest.raises(ValueError, match="mismatch"):
            cache.load_design(digest, tiny_bundle)

    def test_load_params_refuses_an_entry_naming_it(self, tmp_path, analytic_surrogates, outcome):
        from repro.core import load_params

        cache, digest = store_entry(tmp_path, analytic_surrogates, outcome)
        path = cache.design_path(digest)
        with pytest.raises(ValueError, match="without surrogate snapshots") as info:
            load_params(path, analytic_surrogates)
        assert str(path) in str(info.value)

    @pytest.mark.parametrize("kept", [0.5, 0.0], ids=["half", "empty"])
    def test_truncated_entry_fails_naming_it(self, tmp_path, analytic_surrogates, outcome, kept):
        # Fault injection: a write cut short leaves half an archive, or an
        # empty file when a crash follows the rename before the data is on disk.
        cache, digest = store_entry(tmp_path, analytic_surrogates, outcome)
        path = cache.design_path(digest)
        blob = path.read_bytes()
        path.write_bytes(blob[: int(len(blob) * kept)])

        assert cache.load_outcome(digest) is not None
        with pytest.raises(ValueError, match="corrupt result-cache entry") as info:
            cache.load_design(digest, analytic_surrogates)
        message = str(info.value)
        assert str(path) in message
        assert f"delete {digest}.npz and {digest}.json" in message
        assert "retrains" in message

    def test_legacy_module_state_entry_fails_naming_the_archive(
        self, tmp_path, analytic_surrogates, outcome, pnn_state
    ):
        # Entries written before the PNNParams snapshots hold the raw
        # module state (param.* members); load_design refuses them loudly
        # instead of rebuilding, and the error names the archive.
        from repro.core import PrintedNeuralNetwork

        cache = ResultCache(tmp_path / "cache")
        fp = surrogate_fingerprint(analytic_surrogates)
        digest = job_digest(KEY, MICRO, fp)
        pnn = PrintedNeuralNetwork(
            list(outcome.topology), analytic_surrogates,
            per_neuron_activation=outcome.per_neuron_activation,
            rng=np.random.default_rng(KEY.seed),
        )
        path = cache.design_path(digest)
        np.savez(path, layer_sizes=np.asarray(pnn.layer_sizes),
                 **{f"param.{name}": value for name, value in pnn_state(pnn).items()})

        with pytest.raises(ValueError, match="not a PNNParams snapshot") as info:
            cache.load_design(digest, analytic_surrogates)
        assert str(path) in str(info.value)

    def test_entry_recording_a_kernel_backend_still_hits(
        self, tmp_path, analytic_surrogates, outcome
    ):
        # Entries written while a kernel-backend option existed carry a
        # "backend" field in their sidecar and journal line.  The digest
        # never covered it, so such caches must keep serving their designs.
        fp = surrogate_fingerprint(analytic_surrogates)
        digest = job_digest(KEY, MICRO, fp)
        assert digest == "b6c3b4dd5d3ec36a13c096f800bea9a11d20b7dafaf6e612cc0c420e9a1a2460"
        cache = ResultCache(tmp_path / "cache")
        cache.store(digest, outcome, analytic_surrogates)
        meta = json.loads(cache.meta_path(digest).read_text())
        cache.meta_path(digest).write_text(json.dumps({**meta, "backend": "fused"}))
        record = {"dataset": KEY.dataset, "seed": KEY.seed, "cache_hit": False,
                  "digest": digest, "backend": "fused"}
        cache.journal_path.write_text(json.dumps(record) + "\n")

        restored = cache.load_outcome(digest)
        assert restored is not None and restored.cache_hit
        assert restored.key == KEY and restored.val_loss == outcome.val_loss
        design = cache.load_design(digest, analytic_surrogates)
        for mine, ref in zip(design.layers, outcome.params.layers):
            np.testing.assert_array_equal(mine.theta, ref.theta)
        assert RunJournal.read(cache.journal_path) == [record]

    def test_config_change_misses(self, tmp_path, analytic_surrogates, outcome):
        cache = ResultCache(tmp_path / "cache")
        fp = surrogate_fingerprint(analytic_surrogates)
        cache.store(job_digest(KEY, MICRO, fp), outcome, analytic_surrogates)
        changed = MICRO.with_overrides(lr_theta=0.05)
        assert cache.load_outcome(job_digest(KEY, changed, fp)) is None


class TestJournal:
    def test_records_round_trip(self, tmp_path, analytic_surrogates):
        outcome = execute_key(analytic_surrogates)
        outcome.digest = "abc123"
        journal = RunJournal(tmp_path / "journal.jsonl")
        journal.record(outcome)
        outcome.cache_hit = True
        journal.record(outcome)

        records = RunJournal.read(journal.path)
        assert len(records) == 2
        assert records[0]["cache_hit"] is False
        assert records[1]["cache_hit"] is True
        for record in records:
            assert record["dataset"] == "iris"
            assert record["seed"] == 1
            assert record["train_eps"] == 0.05
            assert record["epochs_run"] == outcome.epochs_run
            assert record["val_loss"] == outcome.val_loss
            assert record["digest"] == "abc123"
            assert record["wall_time"] >= 0.0

    def test_read_missing_is_empty(self, tmp_path):
        assert RunJournal.read(tmp_path / "nope.jsonl") == []

    def test_read_skips_truncated_final_line(self, tmp_path, analytic_surrogates):
        outcome = execute_key(analytic_surrogates)
        journal = RunJournal(tmp_path / "journal.jsonl")
        journal.record(outcome)
        journal.record(outcome)
        # A worker killed mid-record leaves a torn final line; the reader
        # must warn and keep the complete records instead of crashing.
        with open(journal.path, "a") as handle:
            handle.write('{"ts": 1.0, "dataset": "ir')
        with pytest.warns(RuntimeWarning, match="truncated"):
            records = RunJournal.read(journal.path)
        assert len(records) == 2
        assert all(r["dataset"] == "iris" for r in records)

    def test_lines_are_plain_json(self, tmp_path, analytic_surrogates):
        outcome = execute_key(analytic_surrogates)
        journal = RunJournal(tmp_path / "journal.jsonl")
        journal.record(outcome)
        line = (tmp_path / "journal.jsonl").read_text().strip()
        assert json.loads(line)["dataset"] == "iris"
