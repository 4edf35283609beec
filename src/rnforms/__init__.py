"""Exact kernel for graded-symmetric vector-valued forms on Lie algebroids.

Everything is computed over polynomials with exact rational coefficients;
a Lie algebra is the algebroid over a point, whose polynomials are
constants.  Identity checks are exhaustive on an instance with no
coordinates and run over a declared test family on one with coordinates.

The package binds no names: each lives in its own module
(``rnforms.forms.is_zero``, ``rnforms.scenario.load_shipped``), so importing
one module loads only what that module imports.
"""
