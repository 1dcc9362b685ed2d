"""Controller-registry contracts.

The registry is the single source of framework truth, so these tests
pin the guarantees everything else leans on: registration rules
(duplicate names, decision-kind vocabulary), schema lookup errors that
spell out what *is* valid, digest-stable param coercion, params riding
the cache key, and — the headline — a third-party controller registered
at runtime working end-to-end: RunSpec construction, deterministic
digests and signatures both inline and in a process pool, and
``registered_frameworks()`` picking it up.

Simulation runs use the reduced scale of ``test_engine`` (load_scale
300, 60 s).
"""

from __future__ import annotations

import json
import multiprocessing

import pytest

from repro.errors import ConfigurationError
from repro.experiments.artifact import RunOverrides, RunSpec
from repro.experiments.engine import ExperimentEngine
from repro.experiments.runner import execute_spec
from repro.scaling import registry
from repro.scaling.controller import BaseController
from repro.scaling.registry import (
    ControllerSpec,
    ParamSpec,
    controller_specs,
    get_controller,
    parse_cli_params,
    register_controller,
    registered_frameworks,
)
from tests.experiments.test_engine import small_config

BUILTINS = ("ec2", "dcm", "conscale", "predictive", "mpc", "qos")


# ----------------------------------------------------------------------
# registration rules
# ----------------------------------------------------------------------

def test_builtins_registered_in_order():
    assert registered_frameworks()[: len(BUILTINS)] == BUILTINS
    assert tuple(s.name for s in controller_specs())[: len(BUILTINS)] == BUILTINS


def test_duplicate_name_rejected():
    spec = get_controller("ec2")
    with pytest.raises(ConfigurationError, match="already registered"):
        register_controller(spec)


def test_unknown_framework_error_lists_registered_names():
    with pytest.raises(ConfigurationError) as exc:
        get_controller("borg")
    for name in BUILTINS:
        assert name in str(exc.value)
    # RunSpec validates through the same path.
    with pytest.raises(ConfigurationError, match="conscale"):
        RunSpec("borg", small_config())


def test_decision_kinds_validated_against_vocabulary():
    spec = ControllerSpec(
        name="loose",
        factory=lambda ctx: None,
        decision_kinds=("made_up_kind",),
    )
    with pytest.raises(ConfigurationError, match="made_up_kind"):
        register_controller(spec)
    assert "loose" not in registered_frameworks()


def test_duplicate_param_names_rejected():
    with pytest.raises(ConfigurationError, match="duplicate param"):
        ControllerSpec(
            name="twice",
            factory=lambda ctx: None,
            params=(ParamSpec("g", "float", 1.0), ParamSpec("g", "float", 2.0)),
        )


def test_only_float_and_bool_kinds():
    ParamSpec("g", "float", 1.0)
    ParamSpec("on", "bool", True)
    for kind in ("int", "str", "object"):
        with pytest.raises(ConfigurationError, match="kind must be one of"):
            ParamSpec("g", kind, 1)


# ----------------------------------------------------------------------
# schema lookup + coercion
# ----------------------------------------------------------------------

def test_unknown_param_error_lists_valid_params():
    conscale = get_controller("conscale")
    with pytest.raises(ConfigurationError) as exc:
        conscale.param("gain")
    assert "headroom" in str(exc.value)
    # ec2 declares no params of its own; only the auto-injected
    # fault_aware ablation switch shows up in the listing.
    with pytest.raises(ConfigurationError, match="valid params: fault_aware"):
        get_controller("ec2").param("headroom")


def test_coercion_rejects_wrong_kinds():
    conscale = get_controller("conscale")
    with pytest.raises(ConfigurationError, match="expects a float"):
        conscale.param("headroom").coerce("wide")
    with pytest.raises(ConfigurationError, match="expects a float"):
        conscale.param("headroom").coerce(True)
    with pytest.raises(ConfigurationError, match="expects a bool"):
        conscale.param("fault_aware").coerce(1)
    assert conscale.param("headroom").coerce(2) == 2.0


@pytest.mark.parametrize(
    "framework, name, value",
    [
        ("conscale", "headroom", float("nan")),
        ("conscale", "headroom", float("inf")),
        ("conscale", "headroom", -1.0),
        ("conscale", "headroom", 0.0),
        ("conscale", "headroom", 400.0),
        ("conscale", "headroom", 1e308),
        ("qos", "slo_ms", float("nan")),
        ("qos", "slo_ms", -250.0),
        ("qos", "epsilon", float("nan")),
        ("qos", "epsilon", 0.0),
        ("qos", "epsilon", 1.0),
        ("qos", "epsilon", 1.5),
        ("qos", "epsilon", 2),
    ],
)
def test_float_params_refuse_out_of_range_values_by_name(framework, name, value):
    """A non-finite or non-positive float, an epsilon of 1 or more, or a
    headroom of 400 or more is refused when the spec is built, before
    any task starts."""
    with pytest.raises(ConfigurationError, match=f"param '{name}' must be"):
        get_controller(framework).param(name).coerce(value)
    with pytest.raises(ConfigurationError, match=f"param '{name}' must be"):
        RunSpec(framework, small_config(),
                RunOverrides.from_params({name: value}))


def test_float_params_accept_their_range():
    qos = get_controller("qos")
    assert qos.param("epsilon").coerce(0.999) == 0.999
    assert qos.param("slo_ms").coerce(1e-3) == 1e-3
    assert get_controller("conscale").param("headroom").coerce(0.5) == 0.5
    assert get_controller("conscale").param("headroom").coerce(399) == 399.0


def test_resolve_overlays_defaults():
    conscale = get_controller("conscale")
    params = conscale.resolve({"headroom": 2.0})
    assert params["headroom"] == 2.0
    assert params["fault_aware"] is True  # untouched default
    # coerce_params leaves defaults out — that is what keeps old cache
    # digests valid when a schema grows a new parameter.
    assert conscale.coerce_params({"headroom": 2.0}) == {"headroom": 2.0}


def test_cli_param_parsing():
    parsed = parse_cli_params(
        "conscale", ["headroom=1.3", "fault_aware=no"]
    )
    assert parsed == {"headroom": 1.3, "fault_aware": False}
    with pytest.raises(ConfigurationError, match="NAME=VALUE"):
        parse_cli_params("conscale", ["headroom"])
    with pytest.raises(ConfigurationError, match="expects a float"):
        parse_cli_params("conscale", ["headroom=wide"])
    with pytest.raises(ConfigurationError, match="expects a bool"):
        parse_cli_params("conscale", ["fault_aware=maybe"])
    with pytest.raises(ConfigurationError, match="no param 'per_server_app'"):
        parse_cli_params("conscale", ["per_server_app=true"])


# ----------------------------------------------------------------------
# params ride the digest (and therefore the cache key)
# ----------------------------------------------------------------------

def test_equivalent_spellings_digest_identically():
    int_spelled = RunSpec(
        "conscale", small_config(), RunOverrides.from_params({"headroom": 1})
    )
    float_spelled = RunSpec(
        "conscale", small_config(), RunOverrides.from_params({"headroom": 1.0})
    )
    assert int_spelled.digest() == float_spelled.digest()


def test_param_change_changes_digest():
    narrow = RunSpec(
        "conscale", small_config(), RunOverrides.from_params({"headroom": 1.2})
    )
    wide = RunSpec(
        "conscale", small_config(), RunOverrides.from_params({"headroom": 3.0})
    )
    plain = RunSpec("conscale", small_config())
    assert len({narrow.digest(), wide.digest(), plain.digest()}) == 3


def test_unknown_param_rejected_at_spec_construction():
    with pytest.raises(ConfigurationError, match="no param 'gain'"):
        RunSpec(
            "conscale", small_config(), RunOverrides.from_params({"gain": 2.0})
        )


def test_params_are_cache_axis(tmp_path):
    engine = ExperimentEngine(cache_dir=str(tmp_path / "cache"))
    spec = RunSpec(
        "conscale", small_config(), RunOverrides.from_params({"headroom": 1.3})
    )
    first = engine.run(spec)
    assert (engine.stats.hits, engine.stats.misses) == (0, 1)
    again = engine.run(
        RunSpec(
            "conscale",
            small_config(),
            RunOverrides.from_params({"headroom": 1.3}),
        )
    )
    assert (engine.stats.hits, engine.stats.misses) == (1, 1)
    assert again.signature() == first.signature()
    engine.run(
        RunSpec(
            "conscale",
            small_config(),
            RunOverrides.from_params({"headroom": 1.4}),
        )
    )
    assert (engine.stats.hits, engine.stats.misses) == (1, 2)


# ----------------------------------------------------------------------
# a third-party controller plugs in end to end
# ----------------------------------------------------------------------

class PacedController(BaseController):
    """Minimal plugin: one soft cap actuated from a registered param."""

    name = "paced"

    def __init__(self, sim, warehouse, actuator, tier_configs=None,
                 app_threads=48):
        super().__init__(sim, warehouse, actuator, tier_configs)
        self.app_threads = int(app_threads)

    def periodic_adapt(self, now):
        if self.actuator.factory.thread_limit("app") != self.app_threads:
            self.actuator.set_app_threads(
                self.app_threads, reason="paced: fixed plugin cap"
            )


PACED_SPEC = ControllerSpec(
    name="paced",
    summary="test plugin: fixed app-thread cap",
    factory=lambda ctx: PacedController(
        ctx.sim, ctx.warehouse, ctx.actuator, ctx.tier_configs,
        app_threads=ctx.params["app_threads"],
    ),
    params=(ParamSpec("app_threads", "float", 48.0, help="fixed app cap"),),
)


@pytest.fixture()
def paced_registered(monkeypatch):
    # Register into a copy, so the registry is restored after the test.
    monkeypatch.setattr(registry, "_REGISTRY", dict(registry._REGISTRY))
    register_controller(PACED_SPEC)


def test_plugin_visible_everywhere(paced_registered):
    assert "paced" in registered_frameworks()
    # The CLI's framework choices are read off the registry when the
    # parser is built, so the plugin shows up without re-import.
    from repro.cli import build_parser

    args = build_parser().parse_args(["run", "paced"])
    assert args.framework == "paced"


def test_plugin_runs_end_to_end_and_digests_deterministically(
    paced_registered,
):
    spec = RunSpec(
        "paced", small_config(), RunOverrides.from_params({"app_threads": 32})
    )
    twin = RunSpec(
        "paced", small_config(), RunOverrides.from_params({"app_threads": 32})
    )
    assert spec.digest() == twin.digest()
    art = execute_spec(spec)
    assert execute_spec(twin).signature() == art.signature()
    caps = art.actions.of_kind("soft_app_threads")
    assert caps and caps[0].value == 32  # the registered param actuated


@pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="in-test registration reaches pool workers only via fork",
)
def test_plugin_identical_on_process_backend(paced_registered):
    spec = RunSpec(
        "paced", small_config(), RunOverrides.from_params({"app_threads": 32})
    )
    serial = execute_spec(spec)
    filler = RunSpec("ec2", small_config())  # forces a real pool
    via_pool = ExperimentEngine(jobs=2, use_cache=False).run_many(
        [spec, filler]
    )[0]
    assert via_pool.signature() == serial.signature()


# ----------------------------------------------------------------------
# the CLI surface: ``repro controllers``
# ----------------------------------------------------------------------

def test_cli_controllers_table(capsys):
    from repro.cli import main

    assert main(["controllers"]) == 0
    out = capsys.readouterr().out
    for name in BUILTINS:
        assert name in out
    assert "headroom=1.15" in out


def test_cli_controllers_json_round_trips(capsys):
    from repro.cli import main

    assert main(["controllers", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["version"] == 2
    names = [c["name"] for c in payload["controllers"]]
    assert names == list(registered_frameworks())
    by_name = {c["name"]: c for c in payload["controllers"]}
    params = {name: [p["name"] for p in c["params"]] for name, c in by_name.items()}
    assert params == {
        "ec2": ["fault_aware"],
        "dcm": ["fault_aware"],
        "conscale": ["headroom", "fault_aware"],
        "predictive": ["fault_aware"],
        "mpc": ["fault_aware"],
        "qos": ["slo_ms", "epsilon", "fault_aware"],
    }
    headroom = next(
        p for p in by_name["conscale"]["params"] if p["name"] == "headroom"
    )
    assert headroom == {
        "name": "headroom",
        "kind": "float",
        "default": 1.15,
        "help": "actuate this factor above the estimated Q_lower",
    }
    assert "qos_constraint" in by_name["qos"]["decision_kinds"]
