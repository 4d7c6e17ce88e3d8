"""Biphoton amplitudes and coincidence rates for an absorbing planar crystal.

Layered-media two-photon optics for parametric down-conversion in a lossy
nonlinear slab: complex dispersion and Fresnel stacks (:mod:`.materials`),
the biphoton amplitude pipeline and its far field (:mod:`.amplitude`), the
numeric amplitude's radial engine (:mod:`.radial`), vector wave functions
and the slab Green tensor (:mod:`.greens`), adaptive oscillatory quadrature
(:mod:`.quadrature`), and parameter scans with figure presets and a CLI
(:mod:`.scan`, :mod:`.cli`).

Every module loads on first use: ``import slabpdc`` imports none of them,
and each export below imports its module on its first access (PEP 562). A
far-field process (``slabpdc preset``, the default ``slabpdc rate``) loads
materials, amplitude, scan and cli. radial loads with the first numeric
amplitude or Green tensor, and greens and quadrature, the Green-tensor
oracle and its GK15 driver, with the first use of one of their names.
"""

from importlib import import_module

# Each module's exports, in the order of __all__.
_EXPORTS = {
    "materials": (
        "C_LIGHT", "EPS0", "HBAR", "TE", "TM", "TEM", "BUILTIN_MATERIALS",
        "CrystalSlab", "DispersionRangeError", "FresnelSet",
        "MaterialDispersion", "ModeKinematics", "absorption_to_n_imag",
        "bbo_ordinary", "branch_sqrt", "dispersion_eval", "fresnel",
        "kinematics", "local_field", "noise_factor", "vacuum",
        "ConvergenceError"),
    "quadrature": ("QuadratureSpec", "integrate_angular", "integrate_radial"),
    "greens": ("WaveFunction", "contract_chi2", "dyadic_product", "f_factor",
               "scattering_green_point", "vector_wave_M", "vector_wave_N"),
    "amplitude": (
        "Chi2Geometry", "BiphotonAmplitude", "ExperimentConfig", "PhaseMatch",
        "amplitude_farfield", "amplitude_numeric", "complex_sinc",
        "integrand_typeI", "integrand_typeII", "phase_terms", "rate",
        "sinc_profile", "x_factor"),
    "scan": ("PRESET_NAMES", "ConfigError", "ScanError", "ScanRequest",
             "ScanResult", "emit", "load_config", "preset", "preset_text",
             "run_scan", "scan_request_from_config", "__version__"),
}
_SUBMODULES = ("materials", "quadrature", "greens", "amplitude", "radial",
               "scan", "cli")
_HOME = {name: module for module, names in _EXPORTS.items()
         for name in names}

__all__ = list(_HOME)


def __getattr__(name):
    module = _HOME.get(name)
    if module is not None:
        value = getattr(import_module(f"{__name__}.{module}"), name)
        globals()[name] = value     # later lookups skip this function
        return value
    if name in _SUBMODULES:
        return import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__) | set(_SUBMODULES))
