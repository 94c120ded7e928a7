"""Exact characters of highest-weight modules over generalized
Kac-Moody superalgebras with higher-level imaginary generators.

Importing the package loads no submodule; each name is imported from the
module that defines it, such as
`from bbsuper.charformula import irreducible_character`, so a caller, or
one CLI subcommand, loads only the engine in use.
"""

__version__ = "0.1.0"
