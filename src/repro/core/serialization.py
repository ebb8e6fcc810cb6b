"""Saving and loading trained pNN designs.

Two on-disk forms of a design live here, sharing one design codec:

- :func:`save_params` / :func:`load_params` persist a frozen
  :class:`~repro.core.params.PNNParams` inference snapshot — printable θ/ω
  plus the surrogate snapshots, i.e. everything the autograd-free kernel
  path needs, self-contained.  The format is stamped with
  :data:`~repro.core.params.PNN_PARAMS_VERSION`; loading any other version
  raises.  This is what ``cli export --params`` reads.
- :func:`save_design` / :func:`load_design` persist the same archive
  without the surrogate snapshots: the design members (version, sizes,
  flags, per-layer θ and ω) and the fingerprint of the surrogates, which
  loading re-attaches from the live ones the fingerprint names.  This is
  what the experiment result cache stores.  :func:`load_design` also
  reads a :func:`save_params` archive that carries a fingerprint.

An archive without a ``params_version`` (the raw module state older
versions saved) is refused by both loaders.
"""

from __future__ import annotations

import hashlib
from pathlib import Path
from typing import Union

import numpy as np

from repro.core.params import (
    PNN_PARAMS_VERSION,
    LayerParams,
    PNNParams,
    SurrogateParams,
    snapshot_surrogate,
)


def _surrogate_pair(surrogates) -> tuple:
    """``(activation, negation)`` of a bundle or of a plain pair."""
    if hasattr(surrogates, "ptanh"):
        return surrogates.ptanh, surrogates.negweight
    return tuple(surrogates)


def surrogate_fingerprint(surrogates) -> str:
    """Stable hash of the surrogate parameters a pNN was trained against.

    Accepts either a :class:`~repro.surrogate.pipeline.SurrogateBundle` or
    a plain ``(activation, negation)`` pair.  NN surrogates are hashed over
    their full parameter state, analytic surrogates over their affine
    calibration, so any retraining or recalibration changes the digest.
    The experiment result cache (:mod:`repro.experiments.cache`) folds this
    digest into every cache key.
    """
    hasher = hashlib.sha256()
    for surrogate in _surrogate_pair(surrogates):
        if hasattr(surrogate, "model"):
            state = getattr(surrogate.model, "state_dict", None)
            if callable(state):
                for name, value in sorted(state().items()):
                    hasher.update(name.encode())
                    hasher.update(np.ascontiguousarray(value).tobytes())
                continue
        # Analytic surrogate: hash its calibration.
        hasher.update(np.ascontiguousarray(surrogate.scale).tobytes())
        hasher.update(np.ascontiguousarray(surrogate.shift).tobytes())
    return hasher.hexdigest()[:16]


# --------------------------------------------------------------------- #
# PNNParams snapshot format                                             #
# --------------------------------------------------------------------- #


def _surrogate_payload(prefix: str, surrogate: SurrogateParams) -> dict:
    payload = {
        f"{prefix}.kind": np.asarray(surrogate.kind),
        f"{prefix}.backend": np.asarray(surrogate.backend),
    }
    if surrogate.backend == "mlp":
        payload[f"{prefix}.n_linear"] = np.asarray(len(surrogate.weights), dtype=np.int64)
        for j, (weight, bias) in enumerate(zip(surrogate.weights, surrogate.biases)):
            payload[f"{prefix}.weight{j}"] = weight
            payload[f"{prefix}.bias{j}"] = bias
        payload[f"{prefix}.input_min"] = surrogate.input_min
        payload[f"{prefix}.input_span"] = surrogate.input_span
        payload[f"{prefix}.eta_min"] = surrogate.eta_min
        payload[f"{prefix}.eta_span"] = surrogate.eta_span
    else:
        payload[f"{prefix}.scale"] = surrogate.scale
        payload[f"{prefix}.shift"] = surrogate.shift
        payload[f"{prefix}.constants"] = np.asarray(
            [surrogate.k_prime, surrogate.v_threshold,
             surrogate.vdd, surrogate.second_stage_load]
        )
    return payload


def _surrogate_from_archive(prefix: str, archive) -> SurrogateParams:
    kind = str(archive[f"{prefix}.kind"])
    backend = str(archive[f"{prefix}.backend"])
    if backend == "mlp":
        n_linear = int(archive[f"{prefix}.n_linear"])
        return SurrogateParams(
            kind=kind,
            backend="mlp",
            weights=tuple(archive[f"{prefix}.weight{j}"] for j in range(n_linear)),
            biases=tuple(archive[f"{prefix}.bias{j}"] for j in range(n_linear)),
            input_min=archive[f"{prefix}.input_min"],
            input_span=archive[f"{prefix}.input_span"],
            eta_min=archive[f"{prefix}.eta_min"],
            eta_span=archive[f"{prefix}.eta_span"],
        )
    constants = archive[f"{prefix}.constants"]
    return SurrogateParams(
        kind=kind,
        backend="analytic",
        scale=archive[f"{prefix}.scale"],
        shift=archive[f"{prefix}.shift"],
        k_prime=float(constants[0]),
        v_threshold=float(constants[1]),
        vdd=float(constants[2]),
        second_stage_load=float(constants[3]),
    )


def _design_payload(params: PNNParams, surrogates=None) -> dict:
    """The design members of a snapshot archive.

    ``params_version``, the sizes and flags and every layer's θ, activation
    ω and negation ω, plus the fingerprint of ``surrogates`` when given.
    """
    payload = {
        "params_version": np.asarray(params.version, dtype=np.int64),
        "layer_sizes": np.asarray(params.layer_sizes, dtype=np.int64),
        "per_neuron_activation": np.asarray(params.per_neuron_activation, dtype=np.int64),
        "activation_on_output": np.asarray(params.activation_on_output, dtype=np.int64),
    }
    for i, layer in enumerate(params.layers):
        payload[f"layer{i}.theta"] = layer.theta
        payload[f"layer{i}.act_omega"] = layer.act_omega
        payload[f"layer{i}.neg_omega"] = layer.neg_omega
        payload[f"layer{i}.apply_activation"] = np.asarray(layer.apply_activation, dtype=np.int64)
    if surrogates is not None:
        payload["surrogate_fingerprint"] = np.frombuffer(
            surrogate_fingerprint(surrogates).encode(), dtype=np.uint8
        )
    return payload


def _design_from_archive(path, archive, surrogates, strict_fingerprint: bool) -> dict:
    """Check the design members and read them as :class:`PNNParams` fields.

    Returns every field but the two surrogate snapshots.  Refuses archives
    without a ``params_version`` (legacy module state, naming ``path``) and
    of any other :data:`PNN_PARAMS_VERSION`; with ``strict_fingerprint``
    the recorded fingerprint must match ``surrogates``.
    """
    if "params_version" not in archive.files:
        raise ValueError(
            f"{path} is not a PNNParams snapshot (legacy module state?)"
        )
    version = int(archive["params_version"])
    if version != PNN_PARAMS_VERSION:
        raise ValueError(
            f"snapshot has params version {version}, "
            f"this build expects {PNN_PARAMS_VERSION}"
        )
    if strict_fingerprint:
        if surrogates is None:
            raise ValueError("strict_fingerprint requires surrogates")
        if "surrogate_fingerprint" not in archive.files:
            raise ValueError("snapshot was saved without a surrogate fingerprint")
        recorded = bytes(archive["surrogate_fingerprint"]).decode()
        current = surrogate_fingerprint(surrogates)
        if recorded != current:
            raise ValueError(
                f"surrogate mismatch: snapshot taken against {recorded}, "
                f"got {current}"
            )
    layer_sizes = tuple(int(s) for s in archive["layer_sizes"])
    layers = tuple(
        LayerParams(
            theta=archive[f"layer{i}.theta"],
            act_omega=archive[f"layer{i}.act_omega"],
            neg_omega=archive[f"layer{i}.neg_omega"],
            apply_activation=bool(archive[f"layer{i}.apply_activation"]),
        )
        for i in range(len(layer_sizes) - 1)
    )
    return dict(
        layer_sizes=layer_sizes,
        per_neuron_activation=bool(archive["per_neuron_activation"]),
        activation_on_output=bool(archive["activation_on_output"]),
        layers=layers,
        version=version,
    )


def save_params(params: PNNParams, path: Union[str, Path], surrogates=None) -> Path:
    """Write a frozen inference snapshot to ``path`` (``.npz``).

    The snapshot is self-contained (surrogate snapshots included); passing
    the live ``surrogates`` additionally records their fingerprint so
    :func:`load_params` can verify provenance strictly.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = _design_payload(params, surrogates)
    payload.update(_surrogate_payload("surrogate.act", params.act_surrogate))
    payload.update(_surrogate_payload("surrogate.neg", params.neg_surrogate))
    np.savez(path, **payload)
    return path


def load_params(
    path: Union[str, Path],
    surrogates=None,
    strict_fingerprint: bool = False,
) -> PNNParams:
    """Rebuild an inference snapshot saved with :func:`save_params`.

    Refuses snapshots of any other :data:`PNN_PARAMS_VERSION` (the struct
    they describe would be interpreted wrongly), and design-only archives
    (:func:`save_design`), which hold no surrogate snapshots.  With
    ``strict_fingerprint=True`` the surrogate fingerprint recorded at save
    time must match ``surrogates``.
    """
    with np.load(Path(path)) as archive:
        design = _design_from_archive(path, archive, surrogates, strict_fingerprint)
        if "surrogate.act.kind" not in archive.files:
            raise ValueError(
                f"{path} is a design without surrogate snapshots "
                "(a result-cache entry? load it with load_design and the "
                "surrogates it was trained against)"
            )
        return PNNParams(
            **design,
            act_surrogate=_surrogate_from_archive("surrogate.act", archive),
            neg_surrogate=_surrogate_from_archive("surrogate.neg", archive),
        )


def save_design(params: PNNParams, path: Union[str, Path], surrogates) -> Path:
    """Write only the design of ``params`` to ``path`` (``.npz``).

    The archive holds the members :func:`save_params` writes minus the
    surrogate snapshots: the fingerprint of ``surrogates`` names them
    instead, and :func:`load_design` re-attaches them from the live
    surrogates.  ``params`` must have been snapshotted against
    ``surrogates``.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    np.savez(path, **_design_payload(params, surrogates))
    return path


def load_design(path: Union[str, Path], surrogates) -> PNNParams:
    """Rebuild a design saved with :func:`save_design` (or :func:`save_params`).

    Reads only the design members, requires the recorded surrogate
    fingerprint to match ``surrogates`` and attaches snapshots of the live
    ``surrogates`` — the ones the fingerprint names.  A
    :func:`save_params` archive with a fingerprint loads the same way; its
    surrogate members are never read.
    """
    with np.load(Path(path)) as archive:
        design = _design_from_archive(path, archive, surrogates, strict_fingerprint=True)
    act, neg = _surrogate_pair(surrogates)
    return PNNParams(
        **design,
        act_surrogate=snapshot_surrogate(act),
        neg_surrogate=snapshot_surrogate(neg),
    )
