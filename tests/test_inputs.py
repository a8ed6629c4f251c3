"""Outside input: every malformed spec file, model file or spec built in code
is refused with a SpahdError that names its key, and no drawn token makes a
reader raise anything else."""

import tracemalloc

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from spahd import ConfigError, DimensionError, SpahdError
from spahd.cli import main
from spahd.experiments import ExperimentSpec, load_experiment_spec, run_experiment
from spahd.model import MAX_D, load_model_file

MODEL = {"d": "2", "mu": "0.6, 0.0", "sigma": "0.64 0; 0 1"}
SPEC = {"mode": "error_scaling", "model": "m.model", "n_grid": "50 200", "d_grid": "2",
        "a_shells": "0.0:1 0.3:2", "a_points": "0.1 0.0; 0.3 0.0", "seed": "3",
        "tol": "1e-12", "kappa": "1.0", "timing": "off"}


def _write(path, base, **changes):
    """base with changes applied as `key = value` lines; a None value drops its key."""
    kv = {**base, **changes}
    path.write_text("".join(f"{k} = {v}\n" for k, v in kv.items() if v is not None))
    return path


def _spec(tmp_path, **changes):
    _write(tmp_path / "m.model", MODEL)
    return _write(tmp_path / "s.spec", SPEC, **changes)


# (key, value, error class, text the message names); the first block of each
# table ended a spahd call with a bare ValueError or TypeError
SPEC_FILE_CASES = [
    ("n_grid", "50 abc", ConfigError, "n_grid"),
    ("n_grid", "1e3", ConfigError, "n_grid"),
    ("d_grid", "two", ConfigError, "d_grid"),
    ("seed", "x", ConfigError, "seed"),
    ("seed", "-1", ConfigError, "seed"),
    ("kappa", "fast", ConfigError, "kappa"),
    ("tol", "x", ConfigError, "tol"),
    ("a_points", "0.1 zz", ConfigError, "a_points"),
    # refused before as well
    ("kapa", "2", ConfigError, "'kapa'"),
    ("n_grid", None, ConfigError, "n_grid"),
    ("a_shells", "0.3x4", ConfigError, "a_shells"),
    ("d_grid", "0 2", ConfigError, "d_grid"),
    ("a_shells", "-0.3:2", ConfigError, "a_shells"),
    ("a_shells", "0.3:0", ConfigError, "a_shells"),
    ("mode", "noise_study", ConfigError, "mode"),
    ("kappa", "0", ConfigError, "kappa"),
    ("tol", "nan", ConfigError, "tol"),
    ("timing", "maybe", ConfigError, "timing"),
]

MODEL_FILE_CASES = [
    ("mu", "ones*1e", ConfigError, "mu"),
    ("mu", "unit*.", ConfigError, "mu"),
    ("mu", "ones*-", ConfigError, "mu"),
    ("sigma", "1 0; 0", ConfigError, "sigma"),
    # refused before as well
    ("d", "two", ConfigError, "^d"),
    ("d", None, ConfigError, "must set d"),
    ("mu", "1.0", ConfigError, "mu"),
    ("sigma", "diag 1", ConfigError, "sigma"),
    ("sigma", "1 0 0; 0 1 0", ConfigError, "sigma"),
    ("sigmaa", "1", ConfigError, "'sigmaa'"),
    ("d", str(MAX_D + 1), DimensionError, "MAX_D"),
]

CODE_SPEC_CASES = [
    ({"d_grid": (0,)}, "d_grid"),
    ({"a_shells": ((-0.3, 2),)}, "a_shells"),
    ({"a_shells": ((0.3, 2.5),)}, "a_shells"),
    ({"seed": -1}, "seed"),
    ({"seed": 1.5}, "seed"),
    # refused before as well
    ({"mode": "noise_study"}, "mode"),
    ({"n_grid": ()}, "n_grid"),
    ({"n_grid": (0,)}, "n_grid"),
    ({"a_points": (), "a_shells": ()}, "a_shells"),
    ({"kappa": 0.0}, "kappa"),
    ({"tol": -1.0}, "tol"),
]


@pytest.mark.parametrize("key, value, error, named", SPEC_FILE_CASES)
def test_spec_file_value_is_refused_naming_its_key(tmp_path, key, value, error, named):
    with pytest.raises(error, match=named):
        load_experiment_spec(_spec(tmp_path, **{key: value}))


@pytest.mark.parametrize("key, value, error, named", MODEL_FILE_CASES)
def test_model_file_value_is_refused_naming_its_key(tmp_path, key, value, error, named):
    with pytest.raises(error, match=named):
        load_model_file(_write(tmp_path / "m.model", MODEL, **{key: value}))


@pytest.mark.parametrize("changes, named", CODE_SPEC_CASES)
def test_spec_built_in_code_obeys_the_file_rules(tmp_path, changes, named):
    base = dict(mode="error_scaling", model_path=str(_write(tmp_path / "m.model", MODEL)),
                n_grid=(50,), a_points=((0.1, 0.0),))
    with pytest.raises(ConfigError, match=named):
        ExperimentSpec(**{**base, **changes})


@pytest.mark.parametrize("d", [0, -1])
def test_d_below_one_is_refused(tmp_path, d):
    # an override below 1 of a `mu = unit` model raised a bare IndexError
    # (d = 0) or ValueError (d = -1)
    path = _write(tmp_path / "m.model", MODEL, d=1, mu="unit")
    with pytest.raises(ConfigError, match="^d must be >= 1"):
        load_model_file(path, d)


@pytest.mark.parametrize("route", ["file", "override", "dim", "d_grid"])
@pytest.mark.parametrize("d", [MAX_D + 1, 10**12])
def test_oversized_d_is_refused_before_anything_is_built(tmp_path, capsys, route, d):
    # one check covers a model file's d, --dim and d_grid; nothing d-sized
    # is allocated first.  A d_grid entry's refusal is the status of its
    # rows, so the sweep's other d values keep theirs
    path = _write(tmp_path / "m.model", MODEL, d=d if route == "file" else 1, mu="ones",
                  sigma="identity")
    tracemalloc.start()
    try:
        if route == "dim":
            assert main(["solve", "--model", str(path), "--dim", str(d), "-a", "0.1"]) == 1
            assert "MAX_D" in capsys.readouterr().err
        elif route == "d_grid":
            records, _ = run_experiment(ExperimentSpec("error_scaling", str(path), (50,),
                                                       d_grid=(d,), a_shells=((0.0, 1),)))
            assert [(r.d, r.status) for r in records] == [(d, "DimensionError")]
        else:
            with pytest.raises(DimensionError, match="MAX_D"):
                load_model_file(path, d if route == "override" else None)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


# values a reader may be handed in place of a valid one
TOKENS = ["nan", "inf", "-inf", "1e400", "1" + "0" * 400, "-1", "0", "2.5", "x", "", "1e",
          "1 0; 0", "1, 0; 0, 1; 1", "0.3", "0.3:", ":2", "0.3:2:1", "-0.3:2", "0.3:2.5",
          "nan:2", "0.3:x", "ones*1e", "unit * inf", "diag 1", "diag x"]


def _replace(base, key, token, whole):
    """base with key's value replaced by token, or with its last token replaced."""
    parts = base[key].split(" ")
    return {**base, key: token if whole else " ".join(parts[:-1] + [token])}


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(key=st.sampled_from(sorted(set(SPEC) - {"model"})), token=st.sampled_from(TOKENS),
       whole=st.booleans())
def test_spec_reader_returns_or_raises_typed(tmp_path, key, token, whole):
    _write(tmp_path / "m.model", MODEL)
    path = _write(tmp_path / "s.spec", _replace(SPEC, key, token, whole))
    try:
        spec = load_experiment_spec(path)
    except SpahdError:
        return
    assert spec.seed >= 0 and min(spec.n_grid) >= 1


# d only from 1-8 or past MAX_D, where the reader refuses it before any build
_D = st.one_of(st.integers(1, 8), st.integers(MAX_D + 1, 10**15))


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(d=_D, override=st.one_of(st.none(), _D), dense=st.booleans(),
       key=st.sampled_from(["d", "mu", "sigma"]), token=st.sampled_from(TOKENS),
       whole=st.booleans())
def test_model_reader_returns_or_raises_typed(tmp_path, d, override, dense, key, token, whole):
    base = {"d": str(d), "mu": "ones * 0.5", "sigma": "identity"}
    if dense and d <= 8:
        base["mu"] = ", ".join(["0.1"] * d)
        base["sigma"] = "; ".join(" ".join("1" if i == j else "0" for j in range(d))
                                  for i in range(d))
    path = _write(tmp_path / "m.model", _replace(base, key, token, whole))
    try:
        params = load_model_file(path, override)
    except SpahdError:
        return
    assert 1 <= params.d <= 8
