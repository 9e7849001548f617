"""Mass-spectrometry substrate: spectra, ion models, simulation, binning."""

from repro.spectra.spectrum import Spectrum
from repro.spectra.theoretical import theoretical_spectrum, fragment_mz, IonSeries
from repro.spectra.experimental import SpectrumSimulator, SimulatorConfig
from repro.spectra.mgf import iter_mgf, read_mgf, write_mgf

__all__ = [
    "Spectrum",
    "theoretical_spectrum",
    "fragment_mz",
    "IonSeries",
    "SpectrumSimulator",
    "SimulatorConfig",
    "iter_mgf",
    "read_mgf",
    "write_mgf",
]
