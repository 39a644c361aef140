"""Unit conversions and physical constants (atomic units internally).

Energies are hartree, lengths bohr, masses electron masses, time atomic time
units; hbar = 1 throughout.  Laser parameters enter in laboratory units
(wavelength in nm, intensity in W/cm^2) and are converted on the boundary.
"""

from __future__ import annotations

import math

# hbar * omega [hartree] = PHOTON_HARTREE_NM / lambda [nm]
PHOTON_HARTREE_NM = 45.56335

# peak field E0 [a.u.] = sqrt(I [W/cm^2] / INTENSITY_AU_WCM2)
INTENSITY_AU_WCM2 = 3.50944e16

# one unit of the parameter-plane intensity (EP records, loops) in W/cm^2
INTENSITY_UNIT = 1.0e13

HARTREE_TO_INVCM = 219474.63

# one atomic time unit in femtoseconds
FS_PER_AU_TIME = 2.4188843265e-2

PROTON_MASS_AU = 1836.1527
H2P_REDUCED_MASS = PROTON_MASS_AU / 2.0  # 918.0764 for H2+


def photon_energy(wavelength_nm: float) -> float:
    """Photon energy in hartree for a vacuum wavelength in nm."""
    if wavelength_nm <= 0.0:
        raise ValueError(f"wavelength must be positive, got {wavelength_nm}")
    return PHOTON_HARTREE_NM / wavelength_nm


def field_amplitude(intensity_wcm2: float) -> float:
    """Peak electric field in a.u. for a cycle-averaged intensity in W/cm^2."""
    if intensity_wcm2 < 0.0:
        raise ValueError(f"intensity must be non-negative, got {intensity_wcm2}")
    return math.sqrt(intensity_wcm2 / INTENSITY_AU_WCM2)
