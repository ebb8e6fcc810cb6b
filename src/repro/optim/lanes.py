"""Lane-aware optimizer: per-lane Adam state over stacked parameters.

The lane training engine (:mod:`repro.core.lanes`) stacks ``L`` independent
jobs' parameters on a leading axis — one :class:`~repro.optim.RawParameter`
holds ``(L, ...)`` data and receives ``(L, ...)`` gradients.  Because the
Adam update is elementwise, a single stacked update *is* ``L`` independent
per-lane updates, bitwise: lane ``l`` of a stacked step equals a serial
step on lane ``l``'s slice (pinned by ``tests/optim/test_lane_optimizers.py``).

Adam's scalar bias-correction step counter is deliberately shared across
the stack: all lanes of a batch start at step 0 and step together every
epoch until they are *removed* (never skipped), so the shared counter
always equals each surviving lane's private counter.

:meth:`LaneAdam.compact` mirrors the active-set compaction of
``solve_dc_batch``: when lanes early-stop, the caller slices ``param.data``
down to the surviving lanes and calls ``compact(keep)`` so the optimizer
moments follow.  Slicing is a gather (fancy-index copy) —
surviving lanes' state is byte-identical before and after.
"""

from __future__ import annotations

from typing import Sequence

from repro.optim.adam import Adam


class LaneAdam(Adam):
    """Adam over lane-stacked parameters with active-set compaction.

    Identical update math to :class:`~repro.optim.Adam` (the elementwise
    update vectorizes over the lane axis for free); adds :meth:`compact`
    to drop early-stopped lanes from the first/second-moment buffers in
    sync with the caller slicing ``param.data``.
    """

    def compact(self, keep: Sequence[int]) -> None:
        """Keep only lanes ``keep`` (positions in the current stack).

        Call *after* rebinding every ``param.data`` to its ``[keep]``
        gather; moments are gathered with the same index list so state and
        data stay aligned.  The scalar ``step`` counter is untouched —
        survivors have stepped exactly that many times.
        """
        keep = list(keep)
        for _, param in self.iter_params():
            state = self._state.get(id(param))
            if state is not None:
                state["m"] = state["m"][keep]
                state["v"] = state["v"][keep]

