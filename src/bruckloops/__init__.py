"""Bruck loops on positive-definite isometries of an indefinite form, the
loops of affine subspaces obtained by extending them with translations
along a transversal, and a numeric verification harness for the loop
identities, closure, factorization, transversality and dimension claims.

The package binds no names of its own: each name lives in the module that
defines it, so import that module (``bruckloops.groups``,
``bruckloops.extension``, ...).  Importing the package loads no submodule.
"""
