"""Exact arithmetic for weight-k section modules over the (q+1)-regular tree:
half-integer valuations in a ramified quadratic extension, vertex and edge
lattices with their reduced local spaces, residue cochains, the higher
derivative operator, and the residue-field geometry of the components.

The command line (``drinfeld.cli``) is the entry point; each name is imported
from the module that defines it.
"""

__version__ = "0.1.0"
