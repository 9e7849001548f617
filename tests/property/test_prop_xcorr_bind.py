"""Xcorr's batched binding is the per-spectrum preprocessing, bitwise.

``XCorrScorer.bind(batch)`` preprocesses a batch's members together, in
groups of ``xcorr.GROUP_ROWS`` by ascending bin count, each group one
zero-padded matrix.  Member ``k``'s vector,
``processed[bases[k] : bases[k] + limits[k]]``, must equal
``tests/reference.py::xcorr_preprocessed`` of that spectrum byte for
byte, and ``limits[k]`` its length (0 for a member without peaks).

Cases: members without peaks; one-peak spectra; vectors of 1, 2, ``w``,
``w + 1``, ``2w + 1`` and ``2w + 2`` bins and longer; several peaks in
one bin; a peak in the last bin and one past it (a huge m/z whose
``+ 2`` rounds away); zero and ``-0.0`` intensities; lengths far apart
in one group; batches of one to three groups and one member more, under
group sizes of 1, 2, 3 and the default; slices of a bound batch.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.scoring import xcorr as xcorr_module
from repro.scoring.xcorr import XCorrScorer
from repro.spectra.spectrum import Spectrum
from repro.spectra.spectrum_batch import SpectrumBatch
from tests.reference import xcorr_preprocessed

#: A bin width wide enough that a vector of one bin has room for a peak:
#: ``(n - 1) * BIN < mz_max = top + 2 <= n * BIN`` keeps ``n`` bins.
BIN = 4.0


def assert_binding_is_the_oracle(scorer, batch, binding):
    assert binding.processed.dtype == np.float64
    assert len(binding.limits) == len(binding.bases) == len(batch)
    for k, spectrum in enumerate(batch.spectra):
        want = xcorr_preprocessed(scorer, spectrum) if spectrum.num_peaks else np.empty(0)
        assert int(binding.limits[k]) == len(want), (k, binding.limits[k], len(want))
        base = int(binding.bases[k])
        got = binding.processed[base : base + len(want)]
        assert got.tobytes() == want.tobytes(), (k, got, want)


@st.composite
def members(draw, w):
    """One spectrum with peaks and ``n`` bins, for an ``n`` drawn from the
    edge lengths of a window of ``w`` or anything: peaks in chosen bins
    (several in one, the last one), intensities that may be zero or
    ``-0.0``."""
    n = draw(st.one_of(st.sampled_from([1, 2, w, w + 1, 2 * w + 1, 2 * w + 2]), st.integers(1, 90)))
    # max(precursor x charge, last peak): mz_max = top + 2 ends on the
    # vector's last bin edge or inside its last bin
    top = (n - draw(st.sampled_from([0.0, 0.25, 0.5, 0.9]))) * BIN - 2.0
    if not top > 0:
        top = n * BIN - 2.0
    charge = draw(st.sampled_from([1, 2, 3]))
    count = draw(st.integers(1, 12))
    bins = draw(st.lists(st.integers(0, n - 1), min_size=count, max_size=count))
    fractions = draw(st.lists(st.sampled_from([0.0, 0.1, 0.2, 0.25]), min_size=count, max_size=count))
    mz = np.unique(np.minimum([(b + f) * BIN for b, f in zip(bins, fractions)], top))
    mz = mz[mz > 0]
    if not len(mz):
        mz = np.array([top])
    intensity = np.array(
        draw(
            st.lists(
                st.one_of(st.sampled_from([0.0, -0.0, 1.0, 2.0]), st.floats(0.0, 1e4)),
                min_size=len(mz),
                max_size=len(mz),
            )
        )
    )
    return Spectrum(mz, intensity, top / charge, charge)


@st.composite
def bound_batches(draw):
    """A scorer with a small window, a group size, and a batch of one to
    three groups' worth of members with peaks plus at most one more, empty
    members mixed in."""
    w = draw(st.integers(1, 4))
    group = draw(st.sampled_from([1, 2, 3, xcorr_module.GROUP_ROWS]))
    live = draw(st.integers(1, 3)) * group + draw(st.integers(0, 1))
    spectra = draw(st.lists(members(w), min_size=live, max_size=live))
    for _ in range(draw(st.integers(0, 3))):  # members without peaks
        at = draw(st.integers(0, len(spectra)))
        spectra.insert(at, Spectrum(np.empty(0), np.empty(0), 100.0, 2))
    return XCorrScorer(bin_width=BIN, offset_range=w), group, spectra


@given(bound_batches())
@settings(max_examples=300, deadline=None)
def test_binding_is_the_per_spectrum_vector(case):
    scorer, group, spectra = case
    batch = SpectrumBatch(spectra)
    with mock.patch.object(xcorr_module, "GROUP_ROWS", group):
        binding = batch.bound(scorer)
    assert_binding_is_the_oracle(scorer, batch, binding)


@given(bound_batches(), st.data())
@settings(max_examples=150, deadline=None)
def test_a_slice_of_a_bound_batch_reads_the_oracle(case, data):
    scorer, group, spectra = case
    batch = SpectrumBatch(spectra)
    with mock.patch.object(xcorr_module, "GROUP_ROWS", group):
        batch.bound(scorer)
        for _ in range(data.draw(st.integers(1, 2))):
            a = data.draw(st.integers(0, len(batch) - 1))
            batch = batch.slice(a, data.draw(st.integers(a + 1, len(batch))))
            assert_binding_is_the_oracle(scorer, batch, batch.bound(scorer))


def test_lengths_far_apart_in_one_group():
    """One group holding vectors of 1, 2 and 300 bins: the short rows'
    pads reach far past their windows."""
    scorer = XCorrScorer(bin_width=BIN, offset_range=3)
    spectra = [
        Spectrum(np.array([1.0]), np.array([4.0]), 1.0, 1),
        Spectrum(np.array([1.0, 4.5, 5.0]), np.array([1.0, 9.0, 0.5]), 2.0, 3),
        Spectrum(np.array([8.0, 600.0, 1190.0]), np.array([2.0, 0.0, 3.0]), 1197.0, 1),
    ]
    batch = SpectrumBatch(spectra)
    with mock.patch.object(xcorr_module, "GROUP_ROWS", 3):
        binding = scorer.bind(batch)
    assert binding.limits.tolist() == [1, 2, 300]
    assert_binding_is_the_oracle(scorer, batch, binding)


def test_a_peak_past_the_last_bin_is_dropped():
    """At m/z 1e17 (and 2e16), ``+ 2`` rounds away: ``mz_max / bin_width``
    is exactly 10 (2), so the last peak's bin is one past the vector, and
    the scalar drops it."""
    scorer = XCorrScorer(bin_width=1e16, offset_range=2)
    spectra = [
        Spectrum(np.array([3.5e16, 9.9e16, 1e17]), np.array([1.0, 2.0, 5.0]), 1.0, 1),
        Spectrum(np.array([2e16]), np.array([1.0]), 1.0, 1),
    ]
    batch = SpectrumBatch(spectra)
    binding = scorer.bind(batch)
    assert binding.limits.tolist() == [10, 2]
    assert_binding_is_the_oracle(scorer, batch, binding)


@pytest.mark.parametrize("spectra", [[], [Spectrum(np.empty(0), np.empty(0), 500.0, 2)] * 3])
def test_no_peaks_binds_empty_vectors(spectra):
    binding = XCorrScorer().bind(SpectrumBatch(spectra))
    assert binding.limits.tolist() == [0] * len(spectra) and len(binding.processed) == 0
