"""Relativistic Bohmian mechanics for single particles.

Natural units throughout: hbar = c = m0 = 1, so lengths are Compton
wavelengths and times Compton times.
"""

__version__ = "0.1.0"
