"""Seed derivation: the generator state against the list-entropy oracle."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from nettwin.seeding import SeedError, derive_seed, make_rng

from oracles import reference_make_rng

#: integers at and around the 32-bit word boundaries
WORD_EDGES = [0, 1, 2**32 - 1, 2**32, 2**32 + 1, 2**64 - 1, 2**64, 2**96 + 5]

PARTS = st.one_of(
    st.integers(0, 2**64 - 1),
    st.sampled_from(WORD_EDGES),
    st.booleans(),
    st.integers(0, 2**63 - 1).map(np.int64),
    st.integers(0, 2**64 - 1).map(np.uint64),
    st.integers(0, 2**32 - 1).map(np.uint32),
    st.text(max_size=16),
)


class TestMakeRng:
    @settings(max_examples=300)
    @given(parts=st.lists(PARTS, min_size=1, max_size=5))
    @example(parts=[0])
    @example(parts=[2**32 - 1, 2**32, 2**64 - 1])
    @example(parts=[True, False, np.uint64(2**64 - 1), np.int64(0), "routing", ""])
    def test_state_matches_list_entropy(self, parts):
        got = make_rng(*parts).bit_generator.state
        assert got == reference_make_rng(*parts).bit_generator.state

    def test_rejected_parts(self):
        for part in (-1, np.int64(-3)):
            with pytest.raises(SeedError, match="non-negative"):
                derive_seed(5, part)
        with pytest.raises(TypeError, match="float"):
            derive_seed(1.5)
        with pytest.raises(ValueError, match="at least one"):
            derive_seed()
