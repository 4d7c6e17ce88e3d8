"""Biphoton amplitudes and coincidence rates for an absorbing planar crystal.

Layered-media two-photon optics for parametric down-conversion in a lossy
nonlinear slab: complex dispersion and Fresnel stacks (:mod:`.materials`),
vector wave functions and the chi2 polarization patterns (:mod:`.greens`),
adaptive oscillatory quadrature (:mod:`.quadrature`), the biphoton amplitude
pipeline (:mod:`.amplitude`), and parameter scans with figure presets and a
CLI (:mod:`.scan`, :mod:`.cli`).
"""

from .materials import (C_LIGHT, EPS0, HBAR, TE, TEM, TM, BUILTIN_MATERIALS,
                        CrystalSlab, DispersionRangeError, FresnelSet,
                        MaterialDispersion, ModeKinematics,
                        absorption_to_n_imag, bbo_ordinary, branch_sqrt,
                        dispersion_eval, fresnel, kinematics, local_field,
                        noise_factor, vacuum)
from .quadrature import (ConvergenceError, QuadratureSpec, integrate_angular,
                         integrate_radial)
from .greens import (Chi2Geometry, WaveFunction, contract_chi2,
                     dyadic_product, f_factor, scattering_green_point,
                     vector_wave_M, vector_wave_N)
from .amplitude import (BiphotonAmplitude, ExperimentConfig, PhaseMatch,
                        amplitude_farfield, amplitude_numeric, complex_sinc,
                        integrand_typeI, integrand_typeII, phase_terms, rate,
                        sinc_profile, x_factor)
from .scan import (PRESET_NAMES, ConfigError, ScanError, ScanRequest,
                   ScanResult, emit, load_config, preset, preset_text,
                   run_scan, scan_request_from_config, __version__)

__all__ = [
    "C_LIGHT", "EPS0", "HBAR", "TE", "TM", "TEM", "BUILTIN_MATERIALS",
    "CrystalSlab", "DispersionRangeError", "FresnelSet", "MaterialDispersion",
    "ModeKinematics", "absorption_to_n_imag", "bbo_ordinary", "branch_sqrt",
    "dispersion_eval", "fresnel", "kinematics", "local_field",
    "noise_factor", "vacuum",
    "ConvergenceError", "QuadratureSpec", "integrate_angular",
    "integrate_radial",
    "Chi2Geometry", "WaveFunction", "contract_chi2", "dyadic_product",
    "f_factor", "scattering_green_point", "vector_wave_M", "vector_wave_N",
    "BiphotonAmplitude", "ExperimentConfig", "PhaseMatch",
    "amplitude_farfield", "amplitude_numeric", "complex_sinc",
    "integrand_typeI", "integrand_typeII", "phase_terms", "rate",
    "sinc_profile", "x_factor",
    "PRESET_NAMES", "ConfigError", "ScanError", "ScanRequest", "ScanResult",
    "emit", "load_config", "preset", "preset_text", "run_scan",
    "scan_request_from_config", "__version__",
]
