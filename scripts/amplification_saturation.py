#!/usr/bin/env python3
"""Active-gain saturation curve.

Sweeps the amplification factor over a log grid and reports how the
capacity approaches its large-amplification limit, where the RIS noise
beta^2 sigma_r^2 dominates the user noise and the SNR scale saturates at
P_s / sigma_r^2.

    python scripts/amplification_saturation.py --points 13
"""

import argparse
import sys
from dataclasses import replace

from thzris import build_model, default_scenario, ergodic_capacity, parse_config


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--config", help="scenario file (defaults if omitted)")
    parser.add_argument("--beta-min", type=float, default=1.0)
    parser.add_argument("--beta-max", type=float, default=1e3)
    parser.add_argument("--points", type=int, default=7)
    return parser.parse_args()


def main():
    args = parse_args()
    cfg = parse_config(args.config) if args.config else default_scenario()

    def capacity_at(beta: float) -> float:
        model = build_model(replace(cfg, ris=replace(cfg.ris, beta=beta)))
        return ergodic_capacity(model, cfg.quad).capacity_bits

    # beta = 1e9 realizes rho_s * beta^2 = P_s / sigma_r^2 to the last bit
    limit = capacity_at(1e9)
    ratio = (args.beta_max / args.beta_min) ** (1.0 / max(args.points - 1, 1))

    print("beta,capacity_bits,fraction_of_limit")
    for i in range(args.points):
        beta = args.beta_min * ratio**i
        capacity = capacity_at(beta)
        print(f"{beta:.17g},{capacity:.17g},{capacity / limit:.17g}")
    print(f"inf,{limit:.17g},1", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
