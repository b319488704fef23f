"""Geodetic measures: haversine, Vincenty inverse/direct, point buffers.

Semantics parity targets in the reference:
- geodetic distance / length: Vincenty inverse summed over segments
  (/root/reference/pythongis/vector/_helpers.py:14-91)
- `walk`: Vincenty direct (destination from point+bearing+distance)
  (/root/reference/pythongis/vector/_helpers.py:93-175)
- geodetic point buffer: ring of `walk` destinations at equal bearings
  (/root/reference/pythongis/vector/_helpers.py:210-233)

Implementations are standard published Vincenty (1975) formulas,
vectorized with a fixed-iteration convergence mask (no per-row Python
loops), written from the public formulae — not translated from the
reference.
"""

from __future__ import annotations

import numpy as np

WGS84_A = 6378137.0
WGS84_F = 1.0 / 298.257223563
WGS84_B = WGS84_A * (1.0 - WGS84_F)
EARTH_RADIUS_M = 6371008.8


def haversine_m(lon1, lat1, lon2, lat2):
    """Great-circle distance in meters (spherical, vectorized)."""
    lon1, lat1, lon2, lat2 = (np.radians(np.asarray(a, np.float64)) for a in (lon1, lat1, lon2, lat2))
    dlat = lat2 - lat1
    dlon = lon2 - lon1
    h = np.sin(dlat / 2) ** 2 + np.cos(lat1) * np.cos(lat2) * np.sin(dlon / 2) ** 2
    return 2 * EARTH_RADIUS_M * np.arcsin(np.sqrt(np.clip(h, 0, 1)))


def vincenty_inverse_m(lon1, lat1, lon2, lat2, iterations: int = 50, tol: float = 1e-12):
    """Vincenty inverse geodesic distance in meters, vectorized.

    Fixed iteration count with a convergence mask; antipodal
    non-convergent pairs fall back to haversine.
    """
    lon1, lat1, lon2, lat2 = (np.asarray(a, np.float64) for a in (lon1, lat1, lon2, lat2))
    L = np.radians(lon2 - lon1)
    U1 = np.arctan((1 - WGS84_F) * np.tan(np.radians(lat1)))
    U2 = np.arctan((1 - WGS84_F) * np.tan(np.radians(lat2)))
    sinU1, cosU1 = np.sin(U1), np.cos(U1)
    sinU2, cosU2 = np.sin(U2), np.cos(U2)
    lam = L.copy()
    active = np.ones(L.shape, dtype=bool)
    sinSigma = np.zeros_like(L)
    cosSigma = np.ones_like(L)
    sigma = np.zeros_like(L)
    cosSqAlpha = np.ones_like(L)
    cos2SigmaM = np.zeros_like(L)
    for _ in range(iterations):
        if not active.any():
            break
        sinLam, cosLam = np.sin(lam), np.cos(lam)
        sS = np.sqrt((cosU2 * sinLam) ** 2 + (cosU1 * sinU2 - sinU1 * cosU2 * cosLam) ** 2)
        cS = sinU1 * sinU2 + cosU1 * cosU2 * cosLam
        sig = np.arctan2(sS, cS)
        sinAlpha = np.where(sS != 0, cosU1 * cosU2 * sinLam / np.where(sS == 0, 1, sS), 0.0)
        cSqA = 1 - sinAlpha ** 2
        c2SM = np.where(cSqA != 0, cS - 2 * sinU1 * sinU2 / np.where(cSqA == 0, 1, cSqA), 0.0)
        C = WGS84_F / 16 * cSqA * (4 + WGS84_F * (4 - 3 * cSqA))
        lamNew = L + (1 - C) * WGS84_F * sinAlpha * (
            sig + C * sS * (c2SM + C * cS * (-1 + 2 * c2SM ** 2)))
        upd = active
        sinSigma = np.where(upd, sS, sinSigma)
        cosSigma = np.where(upd, cS, cosSigma)
        sigma = np.where(upd, sig, sigma)
        cosSqAlpha = np.where(upd, cSqA, cosSqAlpha)
        cos2SigmaM = np.where(upd, c2SM, cos2SigmaM)
        conv = np.abs(lamNew - lam) < tol
        lam = np.where(active, lamNew, lam)
        active = active & ~conv
    uSq = cosSqAlpha * (WGS84_A ** 2 - WGS84_B ** 2) / WGS84_B ** 2
    A = 1 + uSq / 16384 * (4096 + uSq * (-768 + uSq * (320 - 175 * uSq)))
    B = uSq / 1024 * (256 + uSq * (-128 + uSq * (74 - 47 * uSq)))
    dSigma = B * sinSigma * (cos2SigmaM + B / 4 * (
        cosSigma * (-1 + 2 * cos2SigmaM ** 2)
        - B / 6 * cos2SigmaM * (-3 + 4 * sinSigma ** 2) * (-3 + 4 * cos2SigmaM ** 2)))
    dist = WGS84_B * A * (sigma - dSigma)
    # non-converged (near-antipodal) → spherical fallback
    dist = np.where(active, haversine_m(lon1, lat1, lon2, lat2), dist)
    # coincident points
    return np.where((lon1 == lon2) & (lat1 == lat2), 0.0, dist)


def vincenty_direct(lon, lat, bearing_deg, distance_m, iterations: int = 50, tol: float = 1e-12):
    """Vincenty direct: destination (lon, lat) from start + bearing +
    distance, vectorized (the reference's `walk`)."""
    lon = np.asarray(lon, np.float64)
    lat = np.asarray(lat, np.float64)
    alpha1 = np.radians(np.asarray(bearing_deg, np.float64))
    s = np.asarray(distance_m, np.float64)
    sinA1, cosA1 = np.sin(alpha1), np.cos(alpha1)
    tanU1 = (1 - WGS84_F) * np.tan(np.radians(lat))
    cosU1 = 1 / np.sqrt(1 + tanU1 ** 2)
    sinU1 = tanU1 * cosU1
    sigma1 = np.arctan2(tanU1, cosA1)
    sinAlpha = cosU1 * sinA1
    cosSqAlpha = 1 - sinAlpha ** 2
    uSq = cosSqAlpha * (WGS84_A ** 2 - WGS84_B ** 2) / WGS84_B ** 2
    A = 1 + uSq / 16384 * (4096 + uSq * (-768 + uSq * (320 - 175 * uSq)))
    B = uSq / 1024 * (256 + uSq * (-128 + uSq * (74 - 47 * uSq)))
    sigma = s / (WGS84_B * A)
    for _ in range(iterations):
        cos2SigmaM = np.cos(2 * sigma1 + sigma)
        sinSigma, cosSigma = np.sin(sigma), np.cos(sigma)
        dSigma = B * sinSigma * (cos2SigmaM + B / 4 * (
            cosSigma * (-1 + 2 * cos2SigmaM ** 2)
            - B / 6 * cos2SigmaM * (-3 + 4 * sinSigma ** 2) * (-3 + 4 * cos2SigmaM ** 2)))
        sigmaNew = s / (WGS84_B * A) + dSigma
        if np.all(np.abs(sigmaNew - sigma) < tol):
            sigma = sigmaNew
            break
        sigma = sigmaNew
    cos2SigmaM = np.cos(2 * sigma1 + sigma)
    sinSigma, cosSigma = np.sin(sigma), np.cos(sigma)
    lat2 = np.arctan2(
        sinU1 * cosSigma + cosU1 * sinSigma * cosA1,
        (1 - WGS84_F) * np.sqrt(sinAlpha ** 2 + (sinU1 * sinSigma - cosU1 * cosSigma * cosA1) ** 2))
    lam = np.arctan2(sinSigma * sinA1, cosU1 * cosSigma - sinU1 * sinSigma * cosA1)
    C = WGS84_F / 16 * cosSqAlpha * (4 + WGS84_F * (4 - 3 * cosSqAlpha))
    L = lam - (1 - C) * WGS84_F * sinAlpha * (
        sigma + C * sinSigma * (cos2SigmaM + C * cosSigma * (-1 + 2 * cos2SigmaM ** 2)))
    lon2 = (lon + np.degrees(L) + 540) % 360 - 180
    return lon2, np.degrees(lat2)


def geodetic_point_buffer(lon: float, lat: float, radius_m: float, n: int = 32) -> np.ndarray:
    """Closed ring (n+1, 2) of Vincenty-direct destinations at equal
    bearings — the reference's geodetic point buffer semantics
    (/root/reference/pythongis/vector/_helpers.py:210-233)."""
    return geodetic_point_buffers([lon], [lat], radius_m, n=n)[0]


def geodetic_point_buffers(lon, lat, radius_m: float, n: int = 32) -> np.ndarray:
    """Batched point buffers: (m,) points → (m, n+1, 2) closed rings
    via ONE vectorized vincenty_direct over the full m×n bearing fan
    (no per-point Python)."""
    lon = np.asarray(lon, np.float64)
    lat = np.asarray(lat, np.float64)
    m = len(lon)
    bearings = np.linspace(0.0, 360.0, n, endpoint=False)
    xs, ys = vincenty_direct(np.repeat(lon, n), np.repeat(lat, n),
                             np.tile(bearings, m),
                             np.full(m * n, radius_m))
    ring = np.stack([xs.reshape(m, n), ys.reshape(m, n)], axis=2)
    return np.concatenate([ring, ring[:, :1]], axis=1)


# ------------------------------------------------------- polygon area

_E = np.sqrt(WGS84_F * (2.0 - WGS84_F))  # first eccentricity


def _q(phi: np.ndarray) -> np.ndarray:
    """Authalic q-function: q(φ) such that the ellipsoidal area between
    the equator and parallel φ over Δλ is a²·Δλ·q/2 (standard map
    projections formula, Snyder 3-12)."""
    s = np.sin(phi)
    e = _E
    return (1.0 - e * e) * (s / (1.0 - e * e * s * s)
                            - (1.0 / (2.0 * e)) * np.log((1.0 - e * s)
                                                         / (1.0 + e * s)))


_QP = float(_q(np.array([np.pi / 2]))[0])
AUTHALIC_RADIUS_M = WGS84_A * np.sqrt(_QP / 2.0)


def geodetic_ring_area_m2(ring: np.ndarray) -> float:
    """Unsigned ellipsoidal area of one ring (closed, lon/lat degrees).

    Edges are treated as linear in (λ, sin φ_authalic) — this makes
    lat-lon-aligned quads ELLIPSOIDALLY EXACT (the area between two
    parallels is a²Δλ(q1−q2)/2) and is the standard trapezoid
    approximation for diagonal edges (the reference gets geodesic
    edges from geographiclib PolygonArea,
    /root/reference/pythongis/vector/geography.py:68-95; deviation is
    O(edge length²/R²) of the small-edge area)."""
    lam = np.radians(ring[:, 0].astype(np.float64))
    phi = np.radians(ring[:, 1].astype(np.float64))
    sin_auth = _q(phi) / _QP  # == sin(authalic latitude)
    dlam = lam[1:] - lam[:-1]
    # wrap antimeridian-crossing edges into (-π, π]
    dlam = np.where(dlam > np.pi, dlam - 2 * np.pi,
                    np.where(dlam < -np.pi, dlam + 2 * np.pi, dlam))
    s = np.sum(dlam * (2.0 + sin_auth[:-1] + sin_auth[1:])) / 2.0
    return abs(s) * AUTHALIC_RADIUS_M ** 2


def geodetic_polygon_area_m2(rings) -> float:
    """Ellipsoidal polygon area, holes subtracted (reference
    Geography.area semantics, geography.py:81-95)."""
    if not len(rings):
        return 0.0
    area = geodetic_ring_area_m2(rings[0])
    for hole in rings[1:]:
        area -= geodetic_ring_area_m2(hole)
    return area
