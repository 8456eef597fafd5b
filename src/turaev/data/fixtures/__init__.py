"""The planar and surface fixture diagrams, as PD text files."""
