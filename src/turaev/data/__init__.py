"""Data files shipped with turaev: the genus-two case table."""
