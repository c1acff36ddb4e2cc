"""Exact counting, asymptotics and random sampling for integer partitions.

The package imports none of its modules, so a command-line call loads only
what its subcommand runs; import from the modules themselves, e.g.
`from young.counting import count_partitions`.
"""

__version__ = "0.1.0"
