#!/usr/bin/env python3
"""Closed-form diversity predictions across rates and antenna geometries.

Prints the fixed-rate diversity table for the two headline systems
(2x2x2 and 2x2x1) and shows where the rate thresholds sit: below the
full-diversity threshold the transceiver behaves like a maximum
likelihood system, above the high-rate threshold it degrades to the
zero-multiplexing diversity.
"""

import math

from relaylab import SystemConfig, classify_regime, dmt, drt, m_bar, predict

for shape in ((2, 2, 2), (2, 2, 1), (2, 4, 4), (4, 2, 3)):
    n_s, n_r, n_d = shape
    print(f"\n{n_s}x{n_r}x{n_d}  (full diversity would be {n_r * min(n_s, n_d)}, "
          f"zero-mux DMT {dmt(n_s, n_r, n_d, 0.0):g})")
    print(f"{'R bpcu':>8}  {'m_bar':>5}  {'d(R)':>4}  regime")
    for rate in (0.1, 0.42, 1.0, 2.0, 4.0):
        pred = predict(n_s, n_r, n_d, rate)
        print(f"{rate:8.2f}  {pred.m_bar:5d}  {pred.d_drt:4d}  {pred.regime_note}")

n_s = 2
low = 0.5 * n_s * math.log2(n_s / (n_s - 1))
high = 0.5 * n_s * math.log2(n_s)
print(f"\nfor {n_s} source antennas: full diversity below R = {low:g} bpcu, "
      f"high-rate regime from R = {high:g} bpcu")
print(f"(the headline operating points sit on opposite sides: 0.42 bpcu is {classify_regime(n_s, 0.42)}, "
      f"2 bpcu is {classify_regime(n_s, 2.0)})")
