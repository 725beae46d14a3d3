"""2D impedance-tomography toolkit: synthetic boundary data for the equation
div((sigma - i omega epsilon) grad u) = 0 with an embedded inclusion, and
reconstruction of the inclusion's convex hull and visible boundary by
exponential and Mittag-Leffler probe indicators."""

__version__ = "0.1.0"
