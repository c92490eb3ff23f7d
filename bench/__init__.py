"""The repository's benchmark: a layered cost ledger (see ``bench/README.md``).

Everything here calls the program under ``src/repro`` through its public
functions only; nothing under ``src/`` imports this package.
"""
