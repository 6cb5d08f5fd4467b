"""One flat configuration file drives every command.

The file is a single JSON object of dotted keys ("synthetic.n_steps",
"model.d_model", "training.peak_lr", ...). Command lines may override any
key with --set key=value. Validation happens before any work starts and
error messages name the offending key. The fully resolved config can be
echoed back out as deterministic JSON, and its hash identifies a run.
"""

import dataclasses
import hashlib
import json
import math

from . import datapipe as dp
from . import fusion as fus
from . import model as fm
from . import rl as frl
from . import training as tr
from .errors import ConfigError

# stage names use hyphens; config keys use underscores
_STAGE_KEYS = {s.replace("-", "_"): s for s in tr.STAGES}


def _tupled(v):
    if isinstance(v, list):
        return tuple(_tupled(x) for x in v)
    if isinstance(v, dict):
        return {k: _tupled(x) for k, x in v.items()}
    return v


def _nonfinite(v) -> bool:
    """True when ``v`` holds a NaN or an infinity (``NaN``, ``1e999``) at any depth."""
    if isinstance(v, (tuple, dict)):
        return any(map(_nonfinite, v.values() if isinstance(v, dict) else v))
    return isinstance(v, float) and not math.isfinite(v)


def _jsonable(v):
    if isinstance(v, (list, tuple)):
        return [_jsonable(x) for x in v]
    if isinstance(v, dict):
        return {k: _jsonable(x) for k, x in v.items()}
    return v


@dataclasses.dataclass
class RunConfig:
    synthetic: dp.SyntheticConfig = dataclasses.field(
        default_factory=dp.SyntheticConfig)
    model: fm.ModelConfig = dataclasses.field(default_factory=fm.ModelConfig)
    training: tr.TrainingConfig = dataclasses.field(
        default_factory=tr.TrainingConfig)
    loss: tr.LossWeights = dataclasses.field(default_factory=tr.LossWeights)
    forecast_loss: tr.ForecastLossConfig = dataclasses.field(
        default_factory=tr.ForecastLossConfig)
    rl: frl.RLConfig = dataclasses.field(default_factory=frl.RLConfig)
    align: fus.AlignConfig = dataclasses.field(default_factory=fus.AlignConfig)
    schedule: tr.StageSchedule = dataclasses.field(
        default_factory=tr.StageSchedule)
    out_dir: str = "runs"

    @classmethod
    def from_flat(cls, flat: dict) -> "RunConfig":
        groups: dict = {name: {} for name in SECTIONS}
        stage_epochs = dict(tr.DEFAULT_STAGE_EPOCHS)
        out_dir = "runs"
        known_fields = {
            name: {f.name for f in dataclasses.fields(c)}
            for name, c in SECTIONS.items()
        }
        # ModelConfig.from_dict drops a retired key at its last default, so
        # older echoes replay
        known_fields["model"] |= fm._RETIRED.keys()
        for key in sorted(flat):
            value = _tupled(flat[key])
            if _nonfinite(value):
                raise ConfigError(f"{key}: must be finite, not NaN or infinity")
            if key == "out_dir":
                if not isinstance(value, str) or not value:
                    raise ConfigError("out_dir: must be a nonempty string")
                out_dir = value
                continue
            section, _, field = key.partition(".")
            if section == "stages":
                if field not in _STAGE_KEYS:
                    raise ConfigError(
                        f"{key}: unknown stage, expected one of "
                        f"{sorted(_STAGE_KEYS)}")
                stage_epochs[_STAGE_KEYS[field]] = value
                continue
            if section not in SECTIONS or not field:
                raise ConfigError(f"{key}: unknown configuration key")
            if field not in known_fields[section]:
                raise ConfigError(f"{key}: no such field in section {section!r}")
            groups[section][field] = value
        built = {}
        for name, kwargs in groups.items():
            try:
                built[name] = (fm.ModelConfig.from_dict(kwargs) if name == "model"
                               else SECTIONS[name](**kwargs))
            except (ValueError, TypeError) as e:
                raise ConfigError(f"{name}: {e}") from e
        try:
            schedule = tr.StageSchedule(epochs=stage_epochs)
        except ValueError as e:
            raise ConfigError(f"stages: {e}") from e
        return cls(schedule=schedule, out_dir=out_dir, **built)

    @classmethod
    def load(cls, path: str | None, overrides=()) -> "RunConfig":
        flat: dict = {}
        if path is not None:
            with open(path, "r", encoding="utf-8") as fh:
                try:
                    raw = json.load(fh)
                except json.JSONDecodeError as e:
                    raise ConfigError(f"{path}: not valid JSON ({e})") from e
            if not isinstance(raw, dict):
                raise ConfigError(f"{path}: top level must be a JSON object")
            flat.update(raw)
        for item in overrides:
            key, sep, text = item.partition("=")
            if not sep or not key:
                raise ConfigError(f"--set {item!r}: expected key=value")
            flat[key] = parse_override(text)
        return cls.from_flat(flat)

    def to_flat(self) -> dict:
        flat = {"out_dir": self.out_dir}
        for name in SECTIONS:
            for field, value in dataclasses.asdict(getattr(self, name)).items():
                flat[f"{name}.{field}"] = _jsonable(value)
        for stage, n in self.schedule.epochs.items():
            flat[f"stages.{stage.replace('-', '_')}"] = n
        return flat

    def echo(self) -> str:
        return json.dumps(self.to_flat(), sort_keys=True, indent=2) + "\n"

    def hash(self) -> str:
        canonical = json.dumps(self.to_flat(), sort_keys=True)
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


# section name -> dataclass behind it: every RunConfig field but the stage
# schedule and out_dir, which have keys of their own
SECTIONS = {f.name: f.default_factory for f in dataclasses.fields(RunConfig)
            if f.name not in ("schedule", "out_dir")}


def parse_override(text: str):
    """JSON when it parses, bare string otherwise (so --set rl.r_sys_source=model
    works without quoting)."""
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text
