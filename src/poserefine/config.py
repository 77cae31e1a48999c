"""Flat key = value config files, overridable by command-line flags."""

from __future__ import annotations

from .errors import SchemaError


def load_config(path) -> dict:
    """Parse `key = value` lines; '#' starts a comment, blanks are skipped."""
    out: dict[str, str] = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise SchemaError(f"{path}:{lineno}: expected 'key = value'")
            key, value = line.split("=", 1)
            key = key.strip()
            value = value.strip()
            if not key:
                raise SchemaError(f"{path}:{lineno}: empty key")
            out[key] = value
    return out


def resolve(flag_value, config: dict, key: str, cast):
    """Flag beats config file; casts config strings; None when neither is set."""
    if flag_value is not None:
        return flag_value
    if key not in config:
        return None
    raw = config[key]
    try:
        return cast(raw)
    except ValueError:
        raise SchemaError(f"config key {key!r}: cannot parse {raw!r}")
