"""Run configuration: a flat key=value file with command-line overrides.

Every key maps one-to-one onto a :class:`RunConfig` field, which keeps
configs trivially parseable and diff-friendly for sweep provenance.
Overrides win over the file, which wins over the defaults below.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields as dataclass_fields
from pathlib import Path
from typing import Any

from .integrator import StepControl
from .modulus import ModulusParams

_STEP_DEFAULTS = StepControl()
_MODULUS_DEFAULTS = ModulusParams()
# Parser of each field annotation, shared by config files and flags.
VALUE_PARSERS = {"int": int, "float": float, "str": str}


@dataclass(frozen=True)
class RunConfig:
    # resolution and physics
    n: int = 64
    t_end: float = 1.0
    A: float = 0.0
    # time stepping
    step_mode: str = _STEP_DEFAULTS.mode
    dt_fixed: float = _STEP_DEFAULTS.dt_fixed
    cfl_number: float = _STEP_DEFAULTS.cfl_number
    dt_max: float = _STEP_DEFAULTS.dt_max
    # modulus family
    gamma: float = _MODULUS_DEFAULTS.gamma
    delta: float = _MODULUS_DEFAULTS.delta
    c_omega: float = _MODULUS_DEFAULTS.c_omega
    # initial data
    init: str = "random_smooth"
    init_seed: int = 0
    init_slope: float = 2.0
    init_kmax: int = 8
    init_linf: float = 1.0
    init_width: float = 0.5
    init_path: str = ""
    # cadences and output
    sample_every: float = 0.1
    certify_every: int = 0
    output_dir: str = "out"

    def __post_init__(self) -> None:
        for f in dataclass_fields(self):
            if f.type == "float" and not math.isfinite(getattr(self, f.name)):
                raise ValueError(f"{f.name} must be finite")
        if self.n < 8 or self.n % 2 != 0:
            raise ValueError(f"n must be an even integer >= 8, got {self.n}")
        if self.t_end < 0:
            raise ValueError("t_end must be nonnegative")
        if self.sample_every <= 0:
            raise ValueError("sample_every must be positive")
        if self.certify_every < 0:
            raise ValueError("certify_every must be nonnegative")
        if self.init not in ("random_smooth", "single_mode", "two_mode",
                             "gaussian_bump", "snapshot"):
            raise ValueError(f"unknown init profile {self.init!r}")
        if self.init == "snapshot" and not self.init_path:
            raise ValueError("init=snapshot requires init_path")
        if self.init == "random_smooth":
            if not 1 <= self.init_kmax <= self.n / 3:
                raise ValueError(f"init_kmax={self.init_kmax} must lie in [1, n/3] "
                                 f"for n={self.n}")
            if self.init_linf <= 0:
                raise ValueError("init_linf must be positive")
        if self.init == "gaussian_bump" and self.init_width <= 0:
            raise ValueError("init_width must be positive")
        self.step_control()
        self.modulus_params()

    def step_control(self) -> StepControl:
        return StepControl(
            mode=self.step_mode,
            dt_fixed=self.dt_fixed,
            cfl_number=self.cfl_number,
            dt_max=self.dt_max,
        )

    def modulus_params(self) -> ModulusParams:
        return ModulusParams(gamma=self.gamma, delta=self.delta, c_omega=self.c_omega)


_FIELD_TYPES = {f.name: f.type for f in dataclass_fields(RunConfig)}


def _coerce(key: str, text: str) -> Any:
    text = text.strip()
    try:
        return VALUE_PARSERS[_FIELD_TYPES[key]](text)
    except ValueError as exc:
        raise ValueError(f"config key {key!r}: cannot parse {text!r}") from exc


def parse_config_file(path: str | Path) -> dict[str, Any]:
    """Parse `key = value` lines; '#' starts a comment, blanks ignored."""
    settings: dict[str, Any] = {}
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, value = stripped.partition("=")
        key = key.strip()
        if key not in _FIELD_TYPES:
            raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
        settings[key] = _coerce(key, value)
    return settings


def build_config(file_path: str | None, overrides: dict[str, Any]) -> RunConfig:
    """Defaults, then file settings, then overrides."""
    settings: dict[str, Any] = {}
    if file_path:
        settings.update(parse_config_file(file_path))
    settings.update({k: v for k, v in overrides.items() if v is not None})
    return RunConfig(**settings)
