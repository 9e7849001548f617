"""Experimental-spectrum simulator.

The paper's queries are 1,210 real human MS/MS spectra we cannot obtain
offline, so the workload generator fabricates experimental spectra with
the statistical defects real instruments produce — the same defects the
scoring models exist to absorb:

* *peak dropout* — only a fraction of the theoretical b/y ladder is
  observed ("de novo ... handicapped by the large number of peaks that
  can be missing", Section I.A);
* *m/z jitter* — measured fragment masses deviate from theory within the
  instrument tolerance;
* *noise peaks* — chemical/electronic noise adds peaks explained by no
  fragment;
* *intensity variation* — observed intensities are log-normally scattered
  around the model intensities;
* *precursor error* — the reported parent m/z deviates slightly, which is
  why candidate selection uses the ``m(q) +/- delta`` window.

All draws derive from an explicit seed (see :mod:`repro.utils.rng`), so a
workload is a pure function of its configuration.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.chem.peptide import peptide_mz, peptide_mass
from repro.spectra.spectrum import Spectrum
from repro.spectra.theoretical import theoretical_spectrum
from repro.utils.rng import make_rng


@dataclass(frozen=True)
class SimulatorConfig:
    """Knobs of the experimental-spectrum simulator.

    Attributes:
        peak_dropout: probability each theoretical fragment peak is *not*
            observed.
        mz_jitter_sd: standard deviation (Da) of Gaussian fragment-mass
            error.
        noise_peaks: expected number of uniform noise peaks added.
        intensity_sd: sigma of the log-normal intensity scatter.
        precursor_jitter_sd: standard deviation (Da) of parent m/z error;
            must stay well below the search tolerance delta for the true
            peptide to remain inside its own candidate window.
        min_peaks: spectra that end up with fewer observed peaks are
            regenerated with reduced dropout, mirroring instrument
            quality filters that discard near-empty scans.
    """

    peak_dropout: float = 0.3
    mz_jitter_sd: float = 0.01
    noise_peaks: float = 10.0
    intensity_sd: float = 0.5
    precursor_jitter_sd: float = 0.005
    min_peaks: int = 5

    def __post_init__(self) -> None:
        if not 0.0 <= self.peak_dropout < 1.0:
            raise ValueError(f"peak_dropout must be in [0, 1), got {self.peak_dropout}")
        for name in ("mz_jitter_sd", "noise_peaks", "intensity_sd", "precursor_jitter_sd"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")


class SpectrumSimulator:
    """Generates experimental spectra from known target peptides."""

    def __init__(self, config: SimulatorConfig = SimulatorConfig(), seed: int = 0):
        self.config = config
        self.seed = seed

    def simulate(
        self,
        encoded_peptide: np.ndarray,
        query_id: int,
        charge: int = 1,
        mod_site: int = -1,
        mod_delta: float = 0.0,
    ) -> Spectrum:
        """Simulate one experimental spectrum for a target peptide.

        The result depends only on ``(seed, query_id)``, not on call
        order, so workloads are reproducible piecewise.
        ``mod_site``/``mod_delta`` simulate a peptide carrying a variable
        PTM: the fragment ladder and the precursor mass both shift.
        """
        cfg = self.config
        rng = make_rng(self.seed, "spectrum", query_id)
        mz, intensity = theoretical_spectrum(
            encoded_peptide, charges=(1,), mod_site=mod_site, mod_delta=mod_delta
        )
        dropout = cfg.peak_dropout
        for _attempt in range(8):
            observed = rng.random(len(mz)) >= dropout
            if int(observed.sum()) >= min(cfg.min_peaks, len(mz)):
                break
            dropout *= 0.5
        obs_mz = mz[observed] + rng.normal(0.0, cfg.mz_jitter_sd, int(observed.sum()))
        obs_int = intensity[observed] * rng.lognormal(0.0, cfg.intensity_sd, len(obs_mz))

        n_noise = int(rng.poisson(cfg.noise_peaks))
        if n_noise and len(mz):
            lo, hi = float(mz[0]) * 0.5, float(mz[-1]) * 1.1
            noise_mz = rng.uniform(lo, hi, n_noise)
            noise_int = rng.exponential(0.1 * max(float(obs_int.max(initial=1.0)), 1e-9), n_noise)
            obs_mz = np.concatenate((obs_mz, noise_mz))
            obs_int = np.concatenate((obs_int, noise_int))

        true_mass = peptide_mass(encoded_peptide)
        if mod_site >= 0:
            true_mass += mod_delta
        precursor = peptide_mz(true_mass, charge) + rng.normal(0.0, cfg.precursor_jitter_sd)
        # Guard against jitter producing non-positive fragment masses.
        keep = obs_mz > 0
        return Spectrum.from_peaks(obs_mz[keep], obs_int[keep], precursor, charge, query_id)
