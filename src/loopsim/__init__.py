"""loopsim: simulator and calibration toolkit for a recirculating-loop
photonic processor that evolves a spin-boson system in unary encoding.

Import each name from the module that defines it: loopsim.model, loopsim.mesh,
loopsim.loopchip, loopsim.losses, loopsim.calibrate, loopsim.montecarlo and
loopsim.cli. Importing the package itself loads none of them."""

__version__ = "0.1.0"
