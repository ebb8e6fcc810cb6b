"""Monte-Carlo evaluation under printing variation (Sec. IV-C).

Every trained pNN is tested with ``N_test = 100`` variation samples: each
sample instantiates one fabricated circuit (perturbed conductances and
nonlinear-circuit components), classifies the whole test set, and yields
one accuracy.  Table II reports the mean and standard deviation over these
samples — the standard deviation is the paper's robustness measure.

Evaluation runs the printed layer training runs,
:func:`repro.core.kernels.layer_forward`, through
:func:`~repro.core.kernels.network_forward` over a
:class:`~repro.core.params.PNNParams` design.

**Sampling stream.**  The ε factors for all ``n_test`` fabrications are
drawn *up front*, in fixed blocks of :data:`SAMPLE_BLOCK` samples (per
block, per layer: θ, activation ω, negative-weight ω — the canonical
order).  Compute chunking (``batch_mc``) then merely slices the pre-drawn
factors, so results are exactly invariant to ``batch_mc``.  The block size
is a frozen constant, not a tunable: it reproduces the historical noise
stream (the sampler used to be consumed per evaluation chunk with the
default ``batch_mc = 20``), keeping every recorded Table-II number
bit-identical.  Changing it would silently re-roll all MC results.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple, Union

import numpy as np

from repro import telemetry
from repro.core import kernels
from repro.core.params import PNNParams, snapshot_params
from repro.core.pnn import PrintedNeuralNetwork
from repro.core.variation import DEFAULT_SCENARIO, active_scenario_model, eps_concat

#: Frozen width of the ε pre-draw blocks (see the module docstring).
SAMPLE_BLOCK = 20

#: Ceiling on the default compute-chunk width inside one shard
#: (``batch_mc=None``).  Five ε blocks per chunk amortizes kernel dispatch
#: on small test sets; results are chunk-invariant anyway.
SHARD_BATCH_MC = 5 * SAMPLE_BLOCK

#: Per-chunk intermediate budget behind the adaptive default: the kernel
#: path materializes roughly ``batch_mc × batch × (features + 2)`` doubles
#: per chunk, and chunks sized past the cache pay an mmap/page-fault round
#: trip per temporary (measured: batch 2048 runs ~1.3× faster at chunk 20
#: than at chunk 100).
_SHARD_TARGET_BYTES = 16 << 20


def _default_shard_batch(span: int, x: np.ndarray) -> int:
    """Largest ε-block multiple whose intermediates fit the cache budget."""
    per_row = max(1, x.shape[0] * (x.shape[1] + 2) * 8)
    rows = min(_SHARD_TARGET_BYTES // per_row, SHARD_BATCH_MC)
    blocks = max(1, rows // SAMPLE_BLOCK)
    return max(1, min(span, blocks * SAMPLE_BLOCK))


@dataclass
class MonteCarloAccuracy:
    """Accuracy distribution over simulated fabrications."""

    accuracies: np.ndarray

    @property
    def mean(self) -> float:
        return float(self.accuracies.mean())

    @property
    def std(self) -> float:
        return float(self.accuracies.std())

    def __str__(self) -> str:
        return f"{self.mean:.3f} ± {self.std:.3f}"


def draw_variation_samples(
    params: PNNParams,
    variation,
    n_test: int,
) -> List[kernels.LayerEpsilons]:
    """Pre-draw all variation perturbations for ``n_test`` fabrications.

    Consumes the model's stream in blocks of :data:`SAMPLE_BLOCK` samples
    (each block draws θ, activation ω, negative-weight ω per layer, in
    order) and concatenates each slot's
    :class:`~repro.core.variation.Perturbation` blocks field-wise.  Works
    for any :class:`~repro.core.variation.NonIdealityModel`.  Returns one
    :data:`~repro.core.kernels.LayerEpsilons` triple per layer, each with
    leading axis ``n_test``.
    """
    per_layer = [[[], [], []] for _ in params.layers]
    remaining = n_test
    while remaining > 0:
        chunk = min(SAMPLE_BLOCK, remaining)
        for slots, triple in zip(
            per_layer, kernels.sample_params_epsilons(variation, chunk, params)
        ):
            for slot, eps in zip(slots, triple):
                slot.append(eps)
        remaining -= chunk
    return [
        (
            eps_concat(theta_parts, axis=0),
            eps_concat(act_parts, axis=0),
            eps_concat(neg_parts, axis=0),
        )
        for theta_parts, act_parts, neg_parts in per_layer
    ]


def _nominal_accuracy(params: PNNParams, x: np.ndarray,
                      y: np.ndarray) -> MonteCarloAccuracy:
    predictions = kernels.predict(params, x)              # (1, B)
    accuracy = float((predictions[0] == y).mean())
    return MonteCarloAccuracy(accuracies=np.asarray([accuracy]))


def _accuracy_rows(params: PNNParams, x: np.ndarray, epsilons, y: np.ndarray,
                   start: int, stop: int, batch_mc: int, out: np.ndarray) -> None:
    """Fill ``out`` with per-fabrication accuracies for rows [start, stop).

    Slices the pre-drawn ε stream at *global* positions, writes at local
    ones — the shared inner loop of :func:`evaluate_mc` (start = 0) and of
    every shard in :func:`evaluate_mc_sharded`.
    """
    for chunk_start in range(start, stop, batch_mc):
        chunk_stop = min(chunk_start + batch_mc, stop)
        chunk = [
            (theta[chunk_start:chunk_stop], act[chunk_start:chunk_stop],
             neg[chunk_start:chunk_stop])
            for theta, act, neg in epsilons
        ]
        predictions = kernels.predict(params, x, epsilons=chunk)   # (chunk, B)
        np.mean(predictions == y, axis=1,
                out=out[chunk_start - start:chunk_stop - start])


def evaluate_mc(
    design: Union[PrintedNeuralNetwork, PNNParams],
    x: np.ndarray,
    y: np.ndarray,
    epsilon: float,
    n_test: int = 100,
    seed: int = 0,
    batch_mc: int = 20,
    scenario: str = DEFAULT_SCENARIO,
) -> MonteCarloAccuracy:
    """Evaluate accuracy over ``n_test`` fabricated-circuit samples.

    ``design`` may be a live :class:`PrintedNeuralNetwork` (snapshotted
    once) or an already-frozen :class:`~repro.core.params.PNNParams`.
    ``epsilon = 0`` collapses to a single nominal evaluation.  Monte-Carlo
    samples are *computed* in chunks of ``batch_mc`` to bound memory; the
    ε stream is pre-drawn in fixed :data:`SAMPLE_BLOCK` blocks, so the
    result is independent of ``batch_mc``.

    ``scenario`` selects the non-ideality model
    (:data:`repro.core.variation.SCENARIOS`), built at ``(epsilon,
    seed)``.  The default scenario's uniform ε model is nominal at ε = 0;
    other scenarios may not be (stuck-at defects still fabricate broken
    devices).
    """
    if n_test < 1:
        raise ValueError(f"n_test must be >= 1, got {n_test!r}")
    params = snapshot_params(design)
    y = np.asarray(y, dtype=np.int64)
    variation = active_scenario_model(scenario, epsilon, seed=seed)
    if variation is None:
        return _nominal_accuracy(params, x, y)

    epsilons = draw_variation_samples(params, variation, n_test)
    batch_mc = max(1, int(batch_mc))
    accuracies = np.empty(n_test, dtype=np.float64)
    with telemetry.get().span(
        "mc.evaluate",
        scenario=scenario,
        epsilon=epsilon,
        n_test=int(n_test),
        batch_mc=batch_mc,
    ):
        _accuracy_rows(params, x, epsilons, y, 0, n_test, batch_mc, accuracies)
    return MonteCarloAccuracy(accuracies=accuracies)


def plan_shards(n_test: int, shards: int,
                block: int = SAMPLE_BLOCK) -> List[Tuple[int, int]]:
    """Split ``n_test`` fabrications into shard spans on ε-block boundaries.

    Every boundary except the final stop is a multiple of ``block``
    (:data:`SAMPLE_BLOCK`), so each shard consumes whole pre-drawn ε
    blocks and the concatenated shard outputs reproduce the serial stream
    exactly.  Blocks spread as evenly as possible; ``shards`` is clamped
    to the number of blocks so every span is non-empty.
    """
    if n_test < 1:
        raise ValueError("n_test must be >= 1")
    shards = max(1, int(shards))
    n_blocks = -(-n_test // block)
    shards = min(shards, n_blocks)
    per_shard, remainder = divmod(n_blocks, shards)
    spans: List[Tuple[int, int]] = []
    cursor = 0
    for index in range(shards):
        width = (per_shard + (1 if index < remainder else 0)) * block
        start, cursor = cursor, min(n_test, cursor + width)
        spans.append((start, cursor))
    return spans


def _evaluate_shard(params: PNNParams, x: np.ndarray, y: np.ndarray, epsilons,
                    start: int, stop: int, batch_mc: Optional[int]) -> np.ndarray:
    """Shard entry point — runs in pool workers (fork or spawn) or inline.

    ``epsilons`` is this shard's own slice of the pre-drawn stream (rows
    ``[start, stop)`` of it); ``start``/``stop`` are the global positions
    the ``mc.shard`` span records.  Returns the shard's accuracy rows.
    """
    if batch_mc is None:
        batch_mc = _default_shard_batch(stop - start, x)
    batch_mc = max(1, int(batch_mc))
    out = np.empty(stop - start, dtype=np.float64)
    with telemetry.get().span(
        "mc.shard",
        start=int(start),
        stop=int(stop),
        batch_mc=batch_mc,
    ):
        _accuracy_rows(params, x, epsilons, y, 0, stop - start, batch_mc, out)
    return out


def evaluate_mc_sharded(
    design: Union[PrintedNeuralNetwork, PNNParams],
    x: np.ndarray,
    y: np.ndarray,
    epsilon: float,
    n_test: int = 100,
    seed: int = 0,
    batch_mc: Optional[int] = None,
    scenario: str = DEFAULT_SCENARIO,
    shards: int = 1,
    pool=None,
) -> MonteCarloAccuracy:
    """Shard-parallel :func:`evaluate_mc`.

    Pre-draws the *complete* ε stream exactly as the serial loop does and
    splits it into :func:`plan_shards` spans — each aligned to
    :data:`SAMPLE_BLOCK` boundaries, so each shard consumes whole
    pre-drawn blocks.  Each shard gets its own arrays: design, test set
    and its ε slice, passed directly when inline and pickled by the pool
    otherwise.  Per-shard accuracy rows are merged by ordered
    concatenation; because the kernels are chunk-invariant, the result is
    **bitwise identical** to serial :func:`evaluate_mc` at every shard
    count, pooled or not.

    Parameters beyond :func:`evaluate_mc`'s:

    - ``batch_mc=None`` picks the shard-local compute chunk adaptively:
      the largest ε-block multiple (capped at :data:`SHARD_BATCH_MC`)
      whose per-chunk intermediates fit the cache budget; an explicit
      value is honored as-is.  Either way results do not change.
    - ``shards`` — requested shard count (clamped to whole ε blocks).
    - ``pool`` — optional executor (``fork`` or ``spawn``) to spread the
      shards over; ``None`` evaluates them inline.

    Nominal evaluations (``ε = 0`` in the default scenario, or a nominal
    scenario model) early-return exactly like the serial path.
    """
    params = snapshot_params(design)
    y = np.asarray(y, dtype=np.int64)
    variation = active_scenario_model(scenario, epsilon, seed=seed)
    if variation is None:
        return _nominal_accuracy(params, x, y)

    epsilons = draw_variation_samples(params, variation, n_test)
    tasks = [
        (params, x, y,
         [(theta[start:stop], act[start:stop], neg[start:stop])
          for theta, act, neg in epsilons],
         start, stop, batch_mc)
        for start, stop in plan_shards(n_test, shards)
    ]
    with telemetry.get().span(
        "mc.evaluate_sharded",
        scenario=scenario,
        epsilon=epsilon,
        n_test=int(n_test),
        shards=len(tasks),
        pooled=pool is not None,
    ):
        if pool is None:
            rows = [_evaluate_shard(*task) for task in tasks]
        else:
            futures = [pool.submit(_evaluate_shard, *task) for task in tasks]
            rows = [future.result() for future in futures]
    return MonteCarloAccuracy(accuracies=np.concatenate(rows))

