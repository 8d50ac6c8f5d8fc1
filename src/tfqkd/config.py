"""Config-file ingestion (INI schema) for experiment runs.

Sections: ``[link]``, ``[detectors]``, ``[protocol]``, ``[noise]``,
``[security]``, ``[run]``.  Keys are the snake_case field names of the
corresponding types; ``[protocol]`` keys carry an ``a_``/``b_`` prefix
per party.  Missing keys fall back to the 546-km preset defaults; an
empty file therefore yields that default configuration.
"""
from __future__ import annotations

import configparser
import dataclasses
import io

from .optics import DetectorModel, LinkConfig, NoiseModel
from .presets import ExperimentConfig, RunSettings, get_preset
from .ratecore import PartySettings, SecuritySettings


class ConfigError(ValueError):
    """Invalid or unparsable configuration; carries the field path."""


_SECTIONS = ("link", "detectors", "protocol", "noise", "security", "run")


def _build(cls, section: str, raw: dict, defaults, prefix: str = ""):
    kwargs = {}
    for f in dataclasses.fields(cls):
        key = prefix + f.name
        if key in raw:
            text = raw[key]
            try:
                if f.type in ("bool", bool):
                    val = text.strip().lower() in ("1", "true", "yes", "on")
                elif f.name == "seed":
                    val = int(text)
                elif f.name in ("output_path", "mode"):
                    val = text.strip()
                elif text.strip().lower() == "none":
                    val = None
                else:
                    val = float(text)
            except ValueError as exc:
                raise ConfigError(f"{section}.{key}: {exc}") from exc
        else:
            val = getattr(defaults, f.name)
        kwargs[f.name] = val
    try:
        return cls(**kwargs)
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"{section}: {exc}") from exc


def load_config(path: str, defaults_preset: str = "sym546") -> ExperimentConfig:
    """Read an INI config file, filling gaps from a preset's defaults."""
    parser = configparser.ConfigParser()
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"parse error in {path}: {exc}") from exc
    return config_from_parser(parser, defaults_preset)


def config_from_parser(parser: configparser.ConfigParser,
                       defaults_preset: str = "sym546") -> ExperimentConfig:
    for sec in parser.sections():
        if sec not in _SECTIONS:
            raise ConfigError(f"unknown section [{sec}]")
    d = get_preset(defaults_preset)

    def raw(sec: str) -> dict:
        return dict(parser[sec]) if parser.has_section(sec) else {}

    link = _build(LinkConfig, "link", raw("link"), d.link)
    det = _build(DetectorModel, "detectors", raw("detectors"), d.detectors)
    proto = raw("protocol")
    pa = _build(PartySettings, "protocol", proto, d.party_a, prefix="a_")
    pb = _build(PartySettings, "protocol", proto, d.party_b, prefix="b_")
    noise_raw = raw("noise")
    resid = d.residual_phase_std_rad
    if "residual_phase_std_rad" in noise_raw:
        try:
            resid = float(noise_raw.pop("residual_phase_std_rad"))
        except ValueError as exc:
            raise ConfigError(f"noise.residual_phase_std_rad: {exc}") from exc
    noise = _build(NoiseModel, "noise", noise_raw, d.noise)
    sec_raw = raw("security")
    allow = sec_raw.pop("allow_unbalanced", "false").strip().lower() in (
        "1", "true", "yes", "on")
    security = _build(SecuritySettings, "security", sec_raw, d.security)
    run = _build(RunSettings, "run", raw("run"), d.run)
    try:
        return ExperimentConfig(link=link, detectors=det, party_a=pa,
                                party_b=pb, noise=noise, security=security,
                                run=run, residual_phase_std_rad=resid,
                                allow_unbalanced=allow or d.allow_unbalanced)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def serialize_config(cfg: ExperimentConfig) -> str:
    """Render a config as INI text; load(serialize(x)) round-trips."""
    parser = configparser.ConfigParser()

    def put(sec: str, obj, prefix: str = "") -> None:
        if sec not in parser:
            parser[sec] = {}
        for f in dataclasses.fields(obj):
            v = getattr(obj, f.name)
            parser[sec][prefix + f.name] = "none" if v is None else str(v)

    put("link", cfg.link)
    put("detectors", cfg.detectors)
    put("protocol", cfg.party_a, prefix="a_")
    put("protocol", cfg.party_b, prefix="b_")
    put("noise", cfg.noise)
    parser["noise"]["residual_phase_std_rad"] = f"{cfg.residual_phase_std_rad}"
    put("security", cfg.security)
    parser["security"]["allow_unbalanced"] = str(cfg.allow_unbalanced).lower()
    put("run", cfg.run)
    out = io.StringIO()
    parser.write(out)
    return out.getvalue()
