"""Data files shipped with turaev: the fixture diagrams in ``fixtures/``."""
