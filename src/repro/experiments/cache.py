"""On-disk result cache and run journal for the Table-II engine.

Training is by far the dominant cost of the Sec. IV protocol, and every
training job is a pure function of ``(job key, training config, surrogate
parameters, split seed)``.  This module fingerprints exactly that tuple
with SHA-256 and persists each trained design next to a small metadata
sidecar, so that:

- an interrupted ``table2`` run resumes for free — already-solved jobs
  are served from disk;
- re-running at the same profile is a 100% cache hit (zero re-trainings);
- *any* change that could alter a result (different budget, retrained
  surrogates, another split seed) changes the digest and cleanly misses.

Layout of a cache directory::

    <cache-dir>/
        <digest>.npz       # the trained design (repro.core.serialization)
        <digest>.json      # metadata: key fields, val loss, epochs, ...
        journal.jsonl      # one record per completed job, append-only

The journal is the observability substrate: each record carries the job
key, wall time, epochs run, best validation loss and whether the job was
a cache hit, so later benchmarking/monitoring work can consume it
directly.

**Entry format.**  An entry is the design only
(:func:`repro.core.serialization.save_design`): ``params_version``
(``PNN_PARAMS_VERSION``), the layer sizes and flags, every layer's θ,
activation ω and negation ω, and the surrogate fingerprint — 13 ``.npz``
members, about 4 KB for a two-layer design.  The surrogate snapshots are
not stored: the fingerprint, which the digest also covers, names them, and
:meth:`ResultCache.load_design` attaches snapshots of the live surrogates
whose fingerprint matched.  Entries written in the full
:func:`~repro.core.serialization.save_params` format (79 members, about
34 KB with the MLP bundle) load the same way; their surrogate members are
never read.  An entry written before ``PNNParams`` snapshots (raw module
state, no ``params_version``) or a corrupt archive fails
:meth:`ResultCache.load_design` with an error naming the archive; delete
the entry (or the cache directory) to re-train.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
import warnings
import zipfile
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro import telemetry
from repro.core import load_design, save_design
from repro.core.params import PNNParams
from repro.core.variation import DEFAULT_SCENARIO
from repro.experiments.config import ExperimentConfig
from repro.experiments.jobs import SPLIT_SEED, JobKey, JobOutcome

#: Bump when the digest payload or sidecar format changes incompatibly.
CACHE_SCHEMA = 1


def job_digest(
    key: JobKey,
    config: ExperimentConfig,
    surrogate_fp: str,
    split_seed: int = SPLIT_SEED,
) -> str:
    """SHA-256 cache key for one training job.

    The digest covers everything that determines the trained design:

    - the job key ``(dataset, setup flags, train ϵ, seed)`` — plus the
      scenario name for non-default scenarios.  Default-scenario keys
      hash the historical 5-element tuple, so every digest recorded
      before scenarios existed still hits;
    - the training-relevant :class:`ExperimentConfig` fields (see
      :meth:`ExperimentConfig.training_fingerprint` — ``seeds`` and
      ``n_test`` are deliberately *not* part of it);
    - the surrogate parameter fingerprint
      (:func:`repro.core.serialization.surrogate_fingerprint`);
    - the dataset split seed.

    Parameters
    ----------
    key:
        The job identity.
    config:
        The experiment profile the job runs under.
    surrogate_fp:
        Fingerprint of the surrogate pair/bundle the job trains against.
    split_seed:
        Seed of the 60/20/20 dataset split (the protocol fixes it to 0).

    Returns
    -------
    str
        A 64-hex-digit digest; equal digests ⇒ bit-identical outcomes.
    """
    job = key.astuple()
    if key.scenario == DEFAULT_SCENARIO:
        job = job[:5]
    payload = {
        "schema": CACHE_SCHEMA,
        "job": job,
        "train": config.training_fingerprint(),
        "surrogates": surrogate_fp,
        "split_seed": split_seed,
    }
    blob = json.dumps(payload, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()


class ResultCache:
    """Persistent store of trained Table-II designs, keyed by digest.

    Parameters
    ----------
    root:
        Cache directory; created on first use.

    Notes
    -----
    Writes are atomic per entry (tempfile + ``os.replace``) and the
    metadata sidecar is written *after* the design, so a killed run never
    leaves an entry that looks complete but is not loadable.
    """

    def __init__(self, root: Union[str, Path]):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def design_path(self, digest: str) -> Path:
        """Path of the ``.npz`` design for ``digest``."""
        return self.root / f"{digest}.npz"

    def meta_path(self, digest: str) -> Path:
        """Path of the JSON metadata sidecar for ``digest``."""
        return self.root / f"{digest}.json"

    @property
    def journal_path(self) -> Path:
        """Default journal location inside this cache directory."""
        return self.root / "journal.jsonl"

    def contains(self, digest: str) -> bool:
        """Whether a complete (design + metadata) entry exists."""
        return self.design_path(digest).exists() and self.meta_path(digest).exists()

    def load_meta(self, digest: str) -> Optional[Dict]:
        """The metadata sidecar for ``digest``, or ``None`` on a miss."""
        if not self.contains(digest):
            return None
        with open(self.meta_path(digest)) as handle:
            return json.load(handle)

    def load_outcome(self, digest: str) -> Optional[JobOutcome]:
        """Rebuild a (state-less) :class:`JobOutcome` from the sidecar.

        The returned outcome has ``params=None`` and ``cache_hit=True``;
        materialize the design itself with :meth:`load_design` only when
        it is actually needed (i.e. for the best seed of a group).
        Sidecars written before scenarios existed carry a 5-element key
        list; :class:`JobKey` fills the trailing scenario with its
        default.
        """
        meta = self.load_meta(digest)
        tel = telemetry.get()
        if meta is None:
            tel.count("cache.miss")
            return None
        tel.count("cache.hit")
        return JobOutcome(
            key=JobKey(*meta["key"]),
            topology=tuple(meta["topology"]),
            per_neuron_activation=bool(meta["per_neuron_activation"]),
            val_loss=float(meta["val_loss"]),
            best_epoch=int(meta["best_epoch"]),
            epochs_run=int(meta["epochs_run"]),
            wall_time=0.0,
            params=None,
            cache_hit=True,
            digest=digest,
        )

    def load_design(self, digest: str, surrogates) -> PNNParams:
        """Load the trained design for ``digest`` as a frozen snapshot.

        Reads the design members only and attaches snapshots of the live
        ``surrogates``.  The surrogate fingerprint recorded at save time is
        checked strictly — the digest already encodes it, so a mismatch
        means the cache directory was tampered with or mixed between
        setups.  An entry from before ``PNNParams`` snapshots (module
        state) or a corrupt archive fails loudly, naming the archive,
        instead of being rebuilt.
        """
        path = self.design_path(digest)
        try:
            return load_design(path, surrogates)
        except (zipfile.BadZipFile, EOFError) as exc:
            raise ValueError(
                f"corrupt result-cache entry {path} ({exc}); delete "
                f"{digest}.npz and {digest}.json from {self.root} so the next "
                "run retrains the job"
            ) from exc

    def store(self, digest: str, outcome: JobOutcome, surrogates) -> None:
        """Persist a finished job: design ``.npz`` first, then metadata.

        The design is the outcome's frozen ``params`` snapshot without its
        surrogate snapshots, which must be those of ``surrogates`` (see
        *Entry format* in the module docstring).  Both
        files are staged under temporary names and moved into place with
        ``os.replace`` so concurrent readers never observe a partial
        entry.
        """
        if outcome.params is None:
            raise ValueError(f"outcome for {outcome.key} carries no params snapshot")
        # Stage under a dotted name that keeps the .npz suffix (np.savez
        # appends it otherwise) and stays invisible to the *.npz glob.
        design_tmp = self.root / f".{digest}.tmp.npz"
        save_design(outcome.params, design_tmp, surrogates)
        os.replace(design_tmp, self.design_path(digest))

        meta = {
            "schema": CACHE_SCHEMA,
            "digest": digest,
            "key": list(outcome.key.astuple()),
            "topology": list(outcome.topology),
            "per_neuron_activation": outcome.per_neuron_activation,
            "val_loss": outcome.val_loss,
            "best_epoch": outcome.best_epoch,
            "epochs_run": outcome.epochs_run,
            "wall_time": outcome.wall_time,
        }
        meta_tmp = self.meta_path(digest).with_suffix(".json.tmp")
        meta_tmp.write_text(json.dumps(meta, sort_keys=True))
        os.replace(meta_tmp, self.meta_path(digest))
        telemetry.get().count("cache.store")

    def __len__(self) -> int:
        """Number of complete entries in the cache."""
        return sum(1 for p in self.root.glob("*.npz") if self.meta_path(p.stem).exists())


class RunJournal:
    """Append-only JSONL log of completed jobs (the run's flight recorder).

    One :meth:`record` call per finished job writes a single line::

        {"ts": ..., "dataset": ..., "learnable": ..., "variation_aware": ...,
         "train_eps": ..., "seed": ..., "wall_time": ..., "epochs_run": ...,
         "best_epoch": ..., "val_loss": ..., "cache_hit": ..., "digest": ...}

    Parameters
    ----------
    path:
        Journal file; parent directories are created on demand.
    """

    def __init__(self, path: Union[str, Path]):
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)

    def record(self, outcome: JobOutcome) -> None:
        """Append one journal line for ``outcome`` and flush it."""
        entry = {
            "ts": time.time(),
            "dataset": outcome.key.dataset,
            "learnable": outcome.key.learnable,
            "variation_aware": outcome.key.variation_aware,
            "train_eps": outcome.key.train_eps,
            "seed": outcome.key.seed,
            "scenario": outcome.key.scenario,
            "wall_time": outcome.wall_time,
            "epochs_run": outcome.epochs_run,
            "best_epoch": outcome.best_epoch,
            "val_loss": outcome.val_loss,
            "cache_hit": outcome.cache_hit,
            "digest": outcome.digest,
        }
        with open(self.path, "a") as handle:
            handle.write(json.dumps(entry, sort_keys=True) + "\n")
            handle.flush()

    @staticmethod
    def read(path: Union[str, Path]) -> List[Dict]:
        """All journal records at ``path`` (empty list if absent).

        A worker killed mid-:meth:`record` can leave a truncated final
        line; such lines are skipped with a :class:`RuntimeWarning`
        instead of crashing the reader, so ``--resume`` survives
        interrupted runs without manual journal surgery.
        """
        path = Path(path)
        if not path.exists():
            return []
        records = []
        with open(path) as handle:
            for lineno, line in enumerate(handle, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    records.append(json.loads(line))
                except json.JSONDecodeError:
                    warnings.warn(
                        f"{path}:{lineno}: skipping truncated/corrupt journal "
                        "record (worker killed mid-write?)",
                        RuntimeWarning,
                        stacklevel=2,
                    )
        return records
