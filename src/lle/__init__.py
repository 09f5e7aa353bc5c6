"""Boundary coefficients and spectral simulation of localized Landau-level projections."""

__version__ = "0.1.0"

from .coeffs import (
    SpectralFunction,
    coeff_with_error,
    renyi_h,
)
from .disk_spectra import (
    LocalSpectrum,
    disk_spectrum,
    entropy_from_spectrum,
)
from .errors import (
    AccuracyError,
    CapabilityError,
    DomainError,
    FitError,
    LleError,
    NumericError,
    UsageError,
    WindowError,
)
from .geometry import (
    Disk,
    Polygon,
    Region,
    SmoothStar,
    TranslateFamily,
    intersect_translates_area,
    region_from_json,
    roccaforte_first_order,
    roccaforte_second_order,
)
from .landau import (
    LevelSelector,
    MagneticSetup,
    nu_from_mu,
)
from .region_sim import (
    AsymptoticFit,
    region_spectrum,
    scaling_fit,
)

__all__ = [
    "AccuracyError", "AsymptoticFit", "CapabilityError", "Disk", "DomainError",
    "FitError", "LevelSelector", "LleError", "LocalSpectrum", "MagneticSetup",
    "NumericError", "Polygon", "Region", "SmoothStar",
    "SpectralFunction", "TranslateFamily", "UsageError", "WindowError",
    "__version__", "coeff_with_error",
    "disk_spectrum", "entropy_from_spectrum",
    "intersect_translates_area", "nu_from_mu", "region_from_json",
    "region_spectrum", "renyi_h", "roccaforte_first_order",
    "roccaforte_second_order", "scaling_fit",
]
