"""Closed-form instantaneous CSI-adaptive beamforming.

For given phase shifts v and estimated CSI (g_hat, h_hat), the matched
filter on the estimated combined channel

    w = (g_hat^H v + h_hat) / ||g_hat^H v + h_hat||

maximizes the expected received signal power among unit-norm beamformers
(Cauchy-Schwarz equality case) and costs O(M0 * Mr) per slot, so it can
track per-slot CSI while the phase shifts stay quasi-static.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import CsiSample
from .rate import BeamformingPolicy, PhaseLike, phase_array


@dataclass(frozen=True)
class Beamformer:
    """Unit-norm transmit beamforming vector."""

    w: np.ndarray

    def __post_init__(self):
        arr = np.array(self.w, dtype=complex, copy=True).reshape(-1)
        arr.setflags(write=False)
        object.__setattr__(self, "w", arr)
        nrm = np.linalg.norm(arr)
        if not (abs(nrm - 1.0) <= 1e-9):  # rejects NaN too
            raise ValueError(f"beamformer must be unit-norm, got ||w|| = {nrm}")

    def __len__(self) -> int:
        return self.w.shape[0]


def mrt_equivalent_beamformer(v: PhaseLike, sample: CsiSample) -> Beamformer:
    """Matched filter on the estimated combined channel.

    Raises ValueError on an exactly zero combined channel (probability-zero
    under the continuous models); batched policies substitute a fixed unit
    vector instead, see `mrt_policy`.
    """
    varr = phase_array(v)
    e = sample.g_hat.conj().T @ varr + sample.h_hat
    nrm = np.linalg.norm(e)
    if nrm == 0.0:
        raise ValueError("combined channel is zero; beamformer undefined")
    return Beamformer(e / nrm)


def mrt_policy(v: PhaseLike) -> BeamformingPolicy:
    """Batched matched-filter policy for the Monte Carlo evaluator.

    Returns a callable mapping the estimated combined channels
    e_hat = g_hat^H v + h_hat (n, M0) to unit-norm rows e_hat / ||e_hat||
    (n, M0).  The matched filter needs only e_hat, which the evaluator
    draws for v; the policy reads nothing else, and v stays the argument so
    that a policy is still built per design.  Zero combined channels (only
    reachable in degenerate synthetic scenarios) fall back to the first
    standard basis vector.
    """
    def policy(e_hat: np.ndarray) -> np.ndarray:
        nrm = np.linalg.norm(e_hat, axis=1)
        dead = nrm == 0.0
        if np.any(dead):
            e_hat = e_hat.copy()
            e_hat[dead, 0] = 1.0
            nrm = np.where(dead, 1.0, nrm)
        return e_hat / nrm[:, None]

    return policy
