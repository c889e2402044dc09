"""Plain key=value configuration files.

Recognized keys:
    gf2m.poly.<m>   integer bitmask overriding the primitive polynomial for GF(2^m)
    convention.id   counting-convention registry entry used by sweeps
"""

from __future__ import annotations

import os


def load_config(path: str | os.PathLike) -> dict[str, str]:
    """Read a key=value file. Blank lines and '#' comments are ignored."""
    out: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {raw.strip()!r}")
            key, value = line.split("=", 1)
            out[key.strip()] = value.strip()
    return out


def poly_overrides(cfg: dict[str, str]) -> dict[int, int]:
    """Extract gf2m.poly.<m> entries as {m: bitmask}.  Values may be decimal, hex or binary."""
    overrides: dict[int, int] = {}
    for key, value in cfg.items():
        if key.startswith("gf2m.poly."):
            try:
                overrides[int(key.rsplit(".", 1)[1])] = int(value, 0)
            except ValueError:
                raise ValueError(f"{key} = {value}: expected gf2m.poly.<m> = <integer bitmask>") from None
    return overrides
