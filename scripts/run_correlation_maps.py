#!/usr/bin/env python3
"""Build the collinear X map and the non-collinear cigar map from the
bundled configs and report the ridge-fit slopes against the dispersion
prediction sqrt(k_s k''_s)."""

import argparse
import json
from pathlib import Path

from biphoton.cli import NO_X_ARMS, main as cli_main
from biphoton.config import builtin_config_path


def run(outroot: Path):
    for name in ("bbo_collinear", "bbo_noncollinear"):
        out = outroot / name
        code = cli_main([
            "correlate", "--config", str(builtin_config_path(name)),
            "--out", str(out),
        ])
        if code != 0:
            raise SystemExit(code)
        ridge = json.loads((out / "ridge.json").read_text())
        if NO_X_ARMS in ridge["warnings"]:
            print(f"{name}: no X arms (the ridge fit is flat: a cigar map)")
        elif ridge["sufficient"]:
            print(f"{name}: slopes {ridge['slope_plus_s_m']:.4e} / "
                  f"{ridge['slope_minus_s_m']:.4e} s/m, "
                  f"prediction {ridge['predicted_slope_s_m']:.4e} s/m")
        else:
            print(f"{name}: ridge fit insufficient ({ridge['reason']})")
        print(f"  heatmap: python {out / 'plot_map.py'}")


if __name__ == "__main__":
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", default="out/maps")
    args = ap.parse_args()
    run(Path(args.out))
