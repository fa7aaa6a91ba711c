"""obslab: desk-scale laboratory for geometric control conditions,
uncertainty principles, resolvent estimates, and Schrodinger observability
costs on periodic boxes."""

__version__ = "0.1.0"

from . import construct, covering, evolution, fields, geometry, spectral
