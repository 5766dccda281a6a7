"""Exact-arithmetic homological algebra of bicomplexes and twisted
complexes: cells and boundaries, totalisation, tensor and
strict-morphism spaces, directional homology, the column-filtration
spectral sequence, model-structure classifiers with lifting solvers,
and projective resolutions, over Z, Q and prime fields.
"""

__version__ = "0.1.0"
