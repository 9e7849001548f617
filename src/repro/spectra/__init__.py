"""Mass-spectrometry substrate: spectra, ion models, simulation, binning."""

from repro.spectra.spectrum import Spectrum
from repro.spectra.theoretical import theoretical_spectrum, fragment_mz, IonSeries
from repro.spectra.experimental import SpectrumSimulator, SimulatorConfig
from repro.spectra.binning import bin_spectrum
from repro.spectra.isotopes import envelope_probabilities, expand_with_isotopes
from repro.spectra.mgf import iter_mgf, read_mgf, write_mgf
from repro.spectra.preprocess import (
    DEFAULT_PIPELINE,
    deisotope,
    keep_top_k_per_window,
    preprocess,
    remove_low_intensity,
    remove_precursor_peaks,
    sqrt_transform,
)

__all__ = [
    "Spectrum",
    "theoretical_spectrum",
    "fragment_mz",
    "IonSeries",
    "SpectrumSimulator",
    "SimulatorConfig",
    "bin_spectrum",
    "envelope_probabilities",
    "iter_mgf",
    "read_mgf",
    "write_mgf",
    "expand_with_isotopes",
    "DEFAULT_PIPELINE",
    "deisotope",
    "keep_top_k_per_window",
    "preprocess",
    "remove_low_intensity",
    "remove_precursor_peaks",
    "sqrt_transform",
]
