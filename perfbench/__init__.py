"""Seeded benchmark of the pythongis_ray engine (see README.md)."""
