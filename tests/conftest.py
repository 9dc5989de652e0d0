"""Shared test inputs."""

from __future__ import annotations

import numpy as np
import pytest

from hermipir.codes import from_matrix


def _sample_covered_genus_one_inputs(n_samples: int, seed: int) -> list[tuple]:
    """Sample (field_order, point_count, gamma, x_sec, t_priv) tuples with
    full x-coverage, i.e. ``point_count = 2q + 1 - gamma``.

    These feed ``atlas.genus_one_formulas_agree``; such profiles satisfy the
    pairing parity automatically.
    """
    rng = np.random.default_rng(seed)
    orders = (5, 7, 9, 11, 13, 17, 19, 23, 25, 27, 29, 31, 37, 41,
              43, 47, 49, 53, 59, 61, 67, 71, 73, 79, 81, 83, 89, 97)
    out = []
    for _ in range(n_samples):
        q = int(rng.choice(orders))
        gamma = int(rng.integers(0, 4))
        point_count = 2 * q + 1 - gamma
        x_sec = int(rng.integers(1, 9))
        t_priv = int(rng.integers(1, 9))
        out.append((q, point_count, gamma, x_sec, t_priv))
    return out


@pytest.fixture
def sample_covered_genus_one_inputs():
    return _sample_covered_genus_one_inputs


def _slot_storage_code(instance, frag_index: int):
    """Storage slot `frag_index`'s own code: ``secbase`` with server row j
    scaled by ``inv_info[j, frag_index]``, transposed.  This is the per-slot
    reference against which certify's single family check is compared."""
    field = instance.field
    sec_eval = field.mul_arr(instance.inv_info[:, frag_index : frag_index + 1], instance.secbase)
    return from_matrix(field, sec_eval.T, instance.params.genus, instance.sec_pole)


@pytest.fixture
def slot_storage_code():
    return _slot_storage_code
