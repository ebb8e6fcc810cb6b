"""The lane tier of the experiment harness: grouping, execution, scheduling.

Pins the contracts documented in ``docs/TRAINING.md``:

- :func:`group_jobs_into_lanes` makes one batch per training group, in
  first-appearance order, and never mixes groups in one batch;
- :func:`execute_job_lanes` on an ``L``-key batch returns outcomes
  **bitwise identical** to ``L`` one-key (one-lane) batches — losses,
  epochs, parameter snapshots and cache digests — so a seed's result
  does not depend on which seeds share its batch;
- a one-key batch, and every lane of a wider batch, reproduces the
  outcomes recorded from the per-job serial executor it replaced;
- :func:`run_table2_parallel` batches only a group's pending seeds when
  the cache already holds the others, and its cells do not change.
"""

import hashlib

import numpy as np
import pytest

from repro import telemetry
from repro.core import PrintedNeuralNetwork, snapshot_params, surrogate_fingerprint, train_pnn
from repro.datasets import load_splits
from repro.experiments import (
    ExperimentConfig,
    JobKey,
    ResultCache,
    enumerate_jobs,
    execute_job_lanes,
    group_jobs_into_lanes,
    job_digest,
    run_table2_parallel,
)
from repro.experiments.jobs import SPLIT_SEED, _train_config
from repro.telemetry import read_events

MICRO = ExperimentConfig(
    seeds=(1, 2, 3), max_epochs=15, patience=15, n_mc_train=2, n_test=6, max_train=50,
)

#: Width-1 outcomes of the iris learnable + variation-aware group (ϵ = 5 %)
#: under MICRO and the analytic surrogates, recorded from the per-job
#: serial executor before width-1 batches became one-lane batches:
#: ``(val_loss.hex(), best_epoch, epochs_run, params sha256)``.
RECORDED_WIDTH_ONE = {
    ("default", 1): ("0x1.6b806808b63fep-3", 14, 15,
                     "b9437696fa0c9ec5d2da9f34e8a5f19d04abf6c4eee618efd2fd2a71f16266b2"),
    ("default", 2): ("0x1.df1cab02fd89ap-5", 12, 15,
                     "6e52375c85120b60bb46c36dcb1a35412563a0712f97cf2bbe309606f7ef77a5"),
    ("default", 3): ("0x1.3855fda87aa43p-4", 14, 15,
                     "49b67d2ff25b7f9106710a55cf957122a6b08d105f97a167a61449735ad34b13"),
    ("stuck-1pct", 1): ("0x1.68b9172b7b065p-3", 14, 15,
                        "62e57917e22cc3e4a92806136c72a6c6e0683793e9bbda669ba73dfe2d5dcac8"),
    ("stuck-1pct", 2): ("0x1.ff51ca53a7ed0p-5", 14, 15,
                        "391b86687959cf896c82a710925ce97f2a2a5baaa69e55e32d4dc573065475fd"),
    ("stuck-1pct", 3): ("0x1.b7e3f300c721cp-3", 13, 15,
                        "e8cb809c3ace5dcf1a2420e9e775a71188b27f32b7a58aa52992a1048fcc1011"),
}


def params_sha256(params):
    digest = hashlib.sha256()
    for layer in params.layers:
        for array in (layer.theta, layer.act_omega, layer.neg_omega):
            array = np.ascontiguousarray(array)
            digest.update(array.dtype.str.encode())
            digest.update(repr(array.shape).encode())
            digest.update(array.tobytes())
    return digest.hexdigest()


class TestGrouping:
    def test_batches_never_mix_groups(self):
        jobs = enumerate_jobs(["iris", "seeds"], MICRO)
        for batch in group_jobs_into_lanes(jobs):
            assert len({key.group for key in batch}) == 1

    def test_one_batch_per_group(self):
        jobs = enumerate_jobs(["iris", "seeds"], MICRO)
        batches = group_jobs_into_lanes(jobs)
        assert len(batches) == len({key.group for key in jobs}) == 12
        assert [len(batch) for batch in batches] == [len(MICRO.seeds)] * 12

    def test_batches_cover_all_jobs_exactly_once(self):
        jobs = enumerate_jobs(["iris"], MICRO)
        batches = group_jobs_into_lanes(jobs)
        flattened = [key for batch in batches for key in batch]
        assert flattened == jobs

    def test_deterministic_first_appearance_order(self):
        jobs = enumerate_jobs(["iris"], MICRO)
        batches = group_jobs_into_lanes(jobs)
        assert [batch[0].group for batch in batches] == [
            key.group for i, key in enumerate(jobs) if i % len(MICRO.seeds) == 0
        ]

    def test_interleaved_groups_keep_input_order(self):
        a1, a2 = (JobKey("iris", True, True, 0.05, seed) for seed in (1, 2))
        b1, b2 = (JobKey("iris", False, False, 0.0, seed) for seed in (1, 2))
        assert group_jobs_into_lanes([b2, a1, b1, a2]) == [[b2, b1], [a1, a2]]


@pytest.mark.slow
class TestLaneExecutionBitIdentity:
    @pytest.fixture(scope="class")
    def batch(self):
        jobs = enumerate_jobs(["iris"], MICRO)
        batches = group_jobs_into_lanes(jobs)
        # A learnable + variation-aware group exercises every moving part.
        return next(b for b in batches if b[0].learnable and b[0].variation_aware)

    def test_outcomes_bitwise_equal_serial(self, analytic_surrogates, batch):
        one_lane = [execute_job_lanes([key], MICRO, analytic_surrogates)[0] for key in batch]
        laned = execute_job_lanes(batch, MICRO, analytic_surrogates)
        fingerprint = surrogate_fingerprint(analytic_surrogates)
        assert len(laned) == len(one_lane)
        for s, l in zip(one_lane, laned):
            assert l.key == s.key
            assert l.topology == s.topology
            assert l.val_loss == s.val_loss       # exact — no tolerance
            assert l.best_epoch == s.best_epoch
            assert l.epochs_run == s.epochs_run
            for sl, ll in zip(s.params.layers, l.params.layers):
                np.testing.assert_array_equal(ll.theta, sl.theta)
                np.testing.assert_array_equal(ll.act_omega, sl.act_omega)
                np.testing.assert_array_equal(ll.neg_omega, sl.neg_omega)
            # The cache digest ignores the batch, so a seed lands on the
            # same cache entry whichever seeds it trained beside.
            assert (
                job_digest(l.key, MICRO, fingerprint)
                == job_digest(s.key, MICRO, fingerprint)
            )

    def test_width_one_matches_recording(self, analytic_surrogates):
        """One-key batches and ``train_pnn`` both reproduce the recording."""
        splits = load_splits("iris", seed=SPLIT_SEED, max_train=MICRO.max_train)
        topology = [splits.n_features, MICRO.hidden, splits.n_classes]
        for (scenario, seed), recorded in RECORDED_WIDTH_ONE.items():
            key = JobKey("iris", True, True, 0.05, seed, scenario)
            (outcome,) = execute_job_lanes([key], MICRO, analytic_surrogates)
            assert (
                outcome.val_loss.hex(), outcome.best_epoch, outcome.epochs_run,
                params_sha256(outcome.params),
            ) == recorded, key

            pnn = PrintedNeuralNetwork(
                topology, analytic_surrogates,
                per_neuron_activation=MICRO.per_neuron_activation,
                rng=np.random.default_rng(seed),
            )
            result = train_pnn(
                pnn, splits.x_train, splits.y_train, splits.x_val, splits.y_val,
                _train_config(key, MICRO),
            )
            assert (
                result.best_val_loss.hex(), result.best_epoch, result.epochs_run,
                params_sha256(snapshot_params(pnn)),
            ) == recorded, key

    @pytest.mark.parametrize("width", [2, 3])
    @pytest.mark.parametrize("scenario", ["default", "stuck-1pct"])
    def test_wider_batches_match_recording(self, analytic_surrogates, scenario, width):
        """Each lane of a wider batch reproduces the serial recording too."""
        keys = [JobKey("iris", True, True, 0.05, seed, scenario) for seed in MICRO.seeds]
        batches = [keys[start:start + width] for start in range(0, len(keys), width)]
        assert max(len(batch) for batch in batches) == width
        for batch in batches:
            for outcome in execute_job_lanes(batch, MICRO, analytic_surrogates):
                assert (
                    outcome.val_loss.hex(), outcome.best_epoch, outcome.epochs_run,
                    params_sha256(outcome.params),
                ) == RECORDED_WIDTH_ONE[(scenario, outcome.key.seed)], outcome.key

    def test_mixed_group_batch_rejected(self, analytic_surrogates):
        jobs = enumerate_jobs(["iris"], MICRO)
        mixed = [jobs[0], next(k for k in jobs if k.group != jobs[0].group)]
        with pytest.raises(ValueError, match="group"):
            execute_job_lanes(mixed, MICRO, analytic_surrogates)

    def test_empty_batch_returns_empty(self, analytic_surrogates):
        assert execute_job_lanes([], MICRO, analytic_surrogates) == []


@pytest.mark.slow
class TestSchedulerBatches:
    def test_resume_batches_only_the_pending_seeds(self, analytic_surrogates, tmp_path):
        """A group with one cached seed trains its other two as one batch."""
        def signature(results):
            return [
                (c.dataset, c.setup.learnable, c.setup.variation_aware, c.eps_test,
                 c.mean, c.std, c.best_seed, c.best_val_loss)
                for c in results
            ]

        cache = ResultCache(tmp_path / "cache")
        jobs = enumerate_jobs(["iris"], MICRO)
        cached = JobKey("iris", True, True, 0.1, 2)
        (outcome,) = execute_job_lanes([cached], MICRO, analytic_surrogates)
        digest = job_digest(cached, MICRO, surrogate_fingerprint(analytic_surrogates))
        cache.store(digest, outcome, analytic_surrogates)

        telemetry.enable(tmp_path / "tel")
        try:
            resumed = run_table2_parallel(["iris"], MICRO, surrogates=analytic_surrogates,
                                          workers=1, cache=cache)
        finally:
            telemetry.disable()
        events = read_events(tmp_path / "tel")
        (plan,) = [e["attrs"] for e in events if e.get("name") == "lanes.plan"]
        groups = list(dict.fromkeys(key.group for key in jobs))
        assert plan["widths"] == [2 if group == cached.group else 3 for group in groups]
        batch_seeds = {
            (a["dataset"], a["learnable"], a["variation_aware"], a["train_eps"],
             a["scenario"]): a["seeds"]
            for a in (e["attrs"] for e in events
                      if e.get("kind") == "span" and e.get("name") == "job.lanes")
        }
        assert batch_seeds.pop(cached.group) == [1, 3]
        assert list(batch_seeds.values()) == [[1, 2, 3]] * (len(groups) - 1)

        uncached = run_table2_parallel(["iris"], MICRO, surrogates=analytic_surrogates,
                                       workers=1)
        assert signature(resumed) == signature(uncached)
