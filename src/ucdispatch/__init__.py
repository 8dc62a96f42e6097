"""Unit-commitment power market toolkit.

Pipeline: load and validate an instance, thin the startup-cost curves, build
the MILP, solve it (built-in exact enumeration or an external solver), and
post-process the solution into dispatch reports.  The package root exports
nothing: import each name from the module that owns it (see the README).
"""
