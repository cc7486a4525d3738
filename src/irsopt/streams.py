"""Named, splittable random streams.

Every sampling routine in this package takes an explicit integer seed
(the ``rng`` or ``eval_rng`` argument).  A seed is expanded into
independent child streams keyed by a purpose name, so the values drawn for
one quantity do not shift when an unrelated quantity changes shape.  That
property is what makes common-random-number pairing across parameter
sweeps work: two runs with the same seed share the draws of every
same-shaped quantity, and two calls with the same seed draw the same
values.  Any other seed type, a Generator or SeedSequence included, raises
TypeError: a Generator advances between calls, so two evaluations given
the same Generator would not share their draws.
"""
from __future__ import annotations

import hashlib
import math
import numbers
import operator
from typing import Iterator, Sequence

import numpy as np


def _name_key(name: str) -> int:
    """Stable 64-bit key for a stream name."""
    digest = hashlib.blake2s(name.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


def check_seed(seed: int) -> int:
    """The seed as a plain int.  Raises TypeError for anything that is not
    an integer (a Generator, a SeedSequence or a float) and ValueError for
    a negative one."""
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    return seed


def check_count(value: int, name: str, minimum: int = 1) -> int:
    """A count as a plain int >= minimum.  Raises ValueError naming the
    field for anything else, a float (3.0 too) or a bool included."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")
    return int(value)


def named_child(seed: int, name: str) -> np.random.Generator:
    """Derive one child generator for the given purpose name; it depends
    only on (seed, name)."""
    seed = check_seed(seed)
    return np.random.default_rng(np.random.SeedSequence([seed, _name_key(name)]))


def named_children(seed: int, names: Sequence[str]) -> dict[str, np.random.Generator]:
    """One independent child generator per name."""
    return {name: named_child(seed, name) for name in names}


def child_seed(seed: int, name: str) -> int:
    """A derived integer seed, for APIs that persist seeds in artifacts."""
    seed = check_seed(seed)
    mixed = hashlib.blake2s(
        seed.to_bytes(16, "big", signed=False) + name.encode("utf-8"), digest_size=8
    ).digest()
    return int.from_bytes(mixed, "big") >> 1  # keep it positive in signed contexts


def crandn(rng: np.random.Generator, shape, var: float) -> np.ndarray:
    """Circularly-symmetric complex Gaussian draws with per-element variance ``var``.

    The real parts are drawn first, then the imaginary parts, and both are
    scaled straight into the complex output; the values are bit-identical to
    ``scale * (re + 1j * im)`` for ``var > 0``."""
    if var < 0:
        raise ValueError(f"variance must be non-negative, got {var}")
    scale = np.sqrt(var / 2.0)
    # output before scratch: the freed scratch then leaves no hole below the
    # output that later, larger arrays cannot reuse (lower peak RSS)
    out = np.empty(shape, dtype=complex)
    part = rng.standard_normal(shape)
    np.multiply(part, scale, out=out.real)
    rng.standard_normal(out=part)
    np.multiply(part, scale, out=out.imag)
    return out


def crandn_blocks(rngs: Sequence[np.random.Generator], shapes: Sequence[tuple],
                  steps: int, block: int) -> Iterator[tuple]:
    """Per step, one CN(0, 1) array (S, *shape) per shape, row i equal to
    ``crandn(rngs[i], shape, 1.0)`` called once per shape and step, but
    drawn `block` steps at a time in one ``standard_normal`` call per
    generator.  The arrays are views that the next block overwrites."""
    sizes = [math.prod(shape) for shape in shapes]
    normals = np.empty((len(rngs), max(1, min(block, steps)), 2 * sum(sizes)))
    values = np.empty(normals.shape[:2] + (sum(sizes),), dtype=complex)
    for start in range(0, steps, normals.shape[1]):
        draws, out = normals[:, :steps - start], values[:, :steps - start]
        for rng, own in zip(rngs, draws):
            rng.standard_normal(out=own)
        parts, at = [], 0
        for shape, size in zip(shapes, sizes):      # real parts, then imaginary parts
            for part, first in ((out.real, 2 * at), (out.imag, 2 * at + size)):
                np.multiply(draws[..., first:first + size], math.sqrt(0.5),
                            out=part[..., at:at + size])
            parts.append(out[..., at:at + size].reshape(out.shape[:2] + tuple(shape)))
            at += size
        yield from zip(*(part.swapaxes(0, 1) for part in parts))
