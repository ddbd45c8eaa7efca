"""Lambert W spectra and eigenvalue assignment for scalar delay systems."""

# the public surface is each module's __all__ plus every error class
from .errors import *
from .assign import *
from .oracle import *
from .lambertw import *
from .spectrum import *
from .sim import *

__version__ = "0.1.0"
