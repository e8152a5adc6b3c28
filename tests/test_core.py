import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncpath import oracle, slicer, star, weyl
from ncpath.core import (
    ConfigError,
    GridMismatchError,
    PhaseSpaceGrid,
    PhysicsParams,
    Potential,
    RunConfig,
    ThetaMatrix,
    evaluate_potential_shifted,
    load_config,
    realize_hamiltonian_symbol,
)
from ncpath.oracle import build_hamiltonian_matrix


def test_params_validation():
    PhysicsParams(1.0, 1.0, 2)
    PhysicsParams(dim=np.int64(3))
    with pytest.raises(ConfigError):
        PhysicsParams(hbar=0.0)
    with pytest.raises(ConfigError):
        PhysicsParams(mass=-1.0)
    with pytest.raises(ConfigError):
        PhysicsParams(dim=0)
    # a grid's counts are integers: NumPy integers are accepted, a float or a
    # bool is not (8.0 once gave shape (8.0, 8.0), and True was taken as N = 1)
    assert PhaseSpaceGrid(np.int64(8), 5.0, np.int32(2)).size == 64
    for points, dim, key in [(8.0, 2, "grid.points_per_axis"), (True, 2, "grid.points_per_axis"),
                             (8, 2.0, "dim"), (8, True, "dim")]:
        with pytest.raises(ConfigError, match=f"^{key}:"):
            PhaseSpaceGrid(points, 5.0, dim)


@pytest.mark.parametrize("key, value", [("hbar", float("nan")), ("hbar", float("inf")),
                                        ("mass", float("nan")), ("mass", float("inf")),
                                        ("dim", True), ("dim", 2.0), ("dim", 2.5)])
def test_params_refuse_non_finite_constants_and_a_non_integer_dim(key, value):
    # a NaN mass makes every evolution NaN, and an infinite one drops the kinetic term
    with pytest.raises(ConfigError, match=f"{key}:"):
        PhysicsParams(**{key: value})


def _refused(key, build, refusal="must be finite", id=None):
    return pytest.param(key, refusal, build, id=id or f"{key}-<lambda>")


def _grid():
    return PhaseSpaceGrid(8, 5.0, 2)


@pytest.mark.parametrize("key, refusal, build", [
    _refused("theta", lambda: ThetaMatrix([[0.0, np.inf], [-np.inf, 0.0]])),
    _refused("potential.coefficients.omega", lambda: Potential.harmonic(np.nan)),
    _refused("mass", lambda: Potential.harmonic(1.0, mass=np.inf)),
    _refused("potential.coefficients.lambda", lambda: Potential.quartic(np.inf)),
    _refused("potential.coefficients.c", lambda: Potential.linear([np.nan, 1.0])),
    _refused("potential.coefficients.terms.c",
             lambda: Potential.polynomial([((2, 0), np.inf)], 2)),
    _refused("potential.coefficients.depth", lambda: Potential.gaussian_well(np.inf, 1.0)),
    _refused("potential.coefficients.width", lambda: Potential.gaussian_well(1.0, np.nan)),
    _refused("probe.center", lambda: star.gaussian_packet(_grid(), center=[np.inf, 0.0])),
    _refused("probe.momentum", lambda: star.gaussian_packet(_grid(), momentum=[np.nan, 0.0])),
    # a bool or a string where a number belongs, and a float count, are
    # refused, not converted; a NaN ħ is refused as ħ, not by the cell check
    _refused("hbar", lambda: PhysicsParams(hbar=True), "must be numeric", "hbar-bool"),
    _refused("total_time", lambda: slicer.SlicingConfig(0, True, 0.0, PhysicsParams()),
             "must be numeric", "total_time-bool"),
    _refused("grid.box_half_width", lambda: PhaseSpaceGrid(8, True, 2), "must be numeric",
             "grid.box_half_width-bool"),
    _refused("probe.width", lambda: star.gaussian_packet(_grid(), width=True),
             "must be numeric", "probe.width-bool"),
    _refused("T", lambda: oracle.split_step_evolve(
        star.gaussian_packet(_grid()), Potential.harmonic(1.0), ThetaMatrix.single_block(2, 0.1),
        PhysicsParams(), True, 4), "must be numeric", "T-bool"),
    _refused("dim", lambda: Potential.quartic(1.0, dim=2.0), "must be an integer of at least 1",
             "dim-float"),
    _refused("theta", lambda: ThetaMatrix([["0", "0.1"], ["-0.1", "0"]]), "must be numeric",
             "theta-strings"),
    _refused("alpha", lambda: weyl.shifted_potential_symbol(
        Potential.quartic(1.0), ThetaMatrix.single_block(2, 0.1), _grid(), "0"),
        "must be numeric", "alpha-string"),
    _refused("mass", lambda: PhysicsParams(mass="2"), "must be numeric", "mass-string"),
    _refused("total_time", lambda: slicer.SlicingConfig(0, "1", 0.0, PhysicsParams()),
             "must be numeric", "total_time-string"),
    _refused("hbar", lambda: PhaseSpaceGrid(8, 3.0, 2, hbar=np.nan), id="hbar-grid-nan"),
    # phase-space points are read, not converted, and named by their parameter
    _refused("k", lambda: ThetaMatrix.single_block(2, 0.1).shift(["1", True]),
             "must be numeric", "k-shift"),
    _refused("u", lambda: Potential.harmonic(1.0, dim=2)(["1", "2"]), "must be numeric",
             "u-potential"),
    _refused("x", lambda: evaluate_potential_shifted(
        Potential.harmonic(1.0, dim=2), ThetaMatrix.zero(2), ["1", "2"], [True, False]),
        "must be numeric", "x-shifted"),
    _refused("k", lambda: realize_hamiltonian_symbol(
        Potential.harmonic(1.0, dim=2), ThetaMatrix.zero(2), PhysicsParams())(["1", 2], [0, 0]),
        "must be numeric", "k-hamiltonian-symbol"),
    _refused("k", lambda: weyl.symbol_via_quantizer_trace(
        star.OperatorKernel(np.eye(4), PhaseSpaceGrid(4, 2.0, 1)), 0.3, ["0.5"], [True]),
        "must be numeric", "k-quantizer-trace"),
    _refused("x", lambda: weyl.delta_alpha_matrix_element(
        0.3, [0.5], [True], PhaseSpaceGrid(4, 2.0, 1)), "must be numeric", "x-quantizer"),
    _refused("k", lambda: weyl.delta_alpha_matrix_element(
        0.3, [0.5, 0.5], [0.0], PhaseSpaceGrid(4, 2.0, 1)), r"must be of shape \(1,\)",
        "k-quantizer-shape"),
    _refused("alpha", lambda: weyl.shifted_potential_symbol(
        Potential.quartic(1.0), ThetaMatrix.single_block(2, 0.1), _grid(), -0.5),
        "the closed-form route divides by", "alpha-closed-form-endpoint"),
])
def test_model_constructors_refuse_non_finite_inputs(key, refusal, build):
    # load_config refuses these keys; the constructors refuse them too, so a
    # library caller gets an error naming the key, not NaN output
    with pytest.raises(ConfigError, match=f"^{key}: {refusal}"):
        build()


def test_theta_antisymmetry_enforced():
    ThetaMatrix([[0.0, 0.1], [-0.1, 0.0]])
    with pytest.raises(ConfigError):
        ThetaMatrix([[0.0, 0.1], [-0.1001, 0.0]])
    with pytest.raises(ConfigError):
        ThetaMatrix([[0.1, 0.0], [0.0, 0.0]])  # nonzero diagonal
    with pytest.raises(ConfigError):
        ThetaMatrix([[0.0, 0.1, 0.0], [-0.1, 0.0, 0.0]])  # not square


def test_theta_negation_transpose_roundtrip():
    t = ThetaMatrix.single_block(3, 0.25)
    assert np.array_equal(-t.entries.T, t.entries)
    assert ThetaMatrix(-t.entries.T) == t


def test_theta_shift():
    t = ThetaMatrix.single_block(2, 0.1)
    k = np.array([2.0, 3.0])
    # (θk)^1 = θ^{12} k^2, (θk)^2 = θ^{21} k^1
    assert np.allclose(t.shift(k), [0.3, -0.2])
    assert t.shift(np.zeros((5, 2))).shape == (5, 2)


def test_grid_dual_lattice_condition():
    for G in (8, 16, 32):
        grid = PhaseSpaceGrid(G, 5.0, 2, hbar=1.5)
        assert grid.dx * grid.dk * G == pytest.approx(2 * np.pi * 1.5, rel=0, abs=1e-14)
        assert grid.x_points.shape == (G**2, 2)
        assert grid.k_points.shape == (G**2, 2)


def test_grid_transform_roundtrip_machine_precision():
    grid = PhaseSpaceGrid(16, 6.0, 2)
    rng = np.random.default_rng(7)
    field = rng.normal(size=grid.size) + 1j * rng.normal(size=grid.size)
    back = grid.momentum_to_wave(grid.wave_to_momentum(field))
    assert np.max(np.abs(back - field)) < 1e-13


@pytest.mark.parametrize("G,N", [(8, 1), (7, 2), (5, 3)])
def test_grid_transform_matches_explicit_sum(G, N):
    # odd G is where a centered transform's fftshift and ifftshift differ
    grid = PhaseSpaceGrid(G, 4.0, N, hbar=2.0)
    rng = np.random.default_rng(3)
    psi = rng.normal(size=grid.size) + 1j * rng.normal(size=grid.size)
    phase = np.exp(1j * (grid.k_points @ grid.x_points.T) / grid.hbar)  # [k, x]
    pref = (2 * np.pi * grid.hbar) ** (-N / 2)
    forward = (phase.conj() @ psi) * grid.dx**N * pref
    inverse = (phase.T @ psi) * grid.dk**N * pref
    assert np.max(np.abs(grid.wave_to_momentum(psi) - forward)) < 1e-12
    assert np.max(np.abs(grid.momentum_to_wave(psi) - inverse)) < 1e-12


def test_potential_shifted_trivials():
    t = ThetaMatrix.single_block(2, 0.1)
    Vl = Potential.linear([1.0, 2.0])
    x = np.array([0.3, -0.4])
    k = np.array([1.0, 2.0])
    # linear: c · (x + θk)
    shifted = x + t.shift(k)
    assert evaluate_potential_shifted(Vl, t, x, k) == pytest.approx(shifted @ [1.0, 2.0])
    # k = 0 leaves V(x)
    Vq = Potential.quartic(2.0, dim=2)
    assert evaluate_potential_shifted(Vq, t, x, np.zeros(2)) == pytest.approx(Vq(x))
    # θ = 0 equals V(x) exactly for all k
    z = ThetaMatrix.zero(2)
    assert evaluate_potential_shifted(Vq, z, x, k) == Vq(x)


def test_potential_shifted_quartic_frozen_value():
    # V(u) = (u·u)², x = (1, 0), k = (0, 1), θ^{12} = 0.1 → V((1.1, 0)) = 1.1⁴
    t = ThetaMatrix.single_block(2, 0.1)
    V = Potential.quartic(1.0, dim=2)
    value = evaluate_potential_shifted(V, t, np.array([1.0, 0.0]), np.array([0.0, 1.0]))
    assert value == pytest.approx(1.4641, rel=0, abs=1e-12)


def test_hamiltonian_symbol_free_and_commutative():
    p = PhysicsParams(dim=2, mass=2.0)
    t = ThetaMatrix.single_block(2, 0.1)
    h_free = realize_hamiltonian_symbol(Potential.zero(2), t, p)
    k = np.array([1.0, 2.0])
    x = np.array([0.5, -0.5])
    assert h_free(k, x) == pytest.approx((k @ k) / (2 * p.mass))
    # θ = 0, harmonic: k²/2M + ½Mω²x·x
    h_osc = realize_hamiltonian_symbol(Potential.harmonic(1.3, p.mass, dim=2),
                                       ThetaMatrix.zero(2), p)
    assert h_osc(k, x) == pytest.approx((k @ k) / (2 * p.mass)
                                        + 0.5 * p.mass * 1.3**2 * (x @ x))


def test_hamiltonian_symbol_shifted_harmonic_expansion():
    # hand expansion: k²/2M + ½Mω²[(x¹+θk²)² + (x²−θk¹)²]
    p = PhysicsParams(dim=2)
    theta = 0.1
    t = ThetaMatrix.single_block(2, theta)
    omega = 0.8
    h = realize_hamiltonian_symbol(Potential.harmonic(omega, p.mass, dim=2), t, p)
    rng = np.random.default_rng(11)
    for _ in range(10):
        k = rng.normal(size=2)
        x = rng.normal(size=2)
        expected = (k @ k) / 2 + 0.5 * omega**2 * (
            (x[0] + theta * k[1]) ** 2 + (x[1] - theta * k[0]) ** 2)
        assert h(k, x) == pytest.approx(expected, rel=1e-13)


def test_hamiltonian_symbol_dimension_mismatch():
    p = PhysicsParams(dim=2)
    with pytest.raises(ConfigError):
        realize_hamiltonian_symbol(Potential.zero(3), ThetaMatrix.zero(2), p)


def test_polynomial_and_gaussian_forms():
    V = Potential.polynomial([((2, 0), 1.0), ((0, 1), -2.0)], dim=2)
    u = np.array([[3.0, 4.0]])
    assert V(u)[0] == pytest.approx(9.0 - 8.0)
    with pytest.raises(ConfigError):
        Potential.polynomial([((20, 0), 1.0)], dim=2)
    # a fractional power is rejected, not truncated to the integer below it
    with pytest.raises(ConfigError, match="potential.coefficients.terms.powers"):
        Potential.polynomial([((1.5, 0), 1.0)], dim=2)
    W = Potential.gaussian_well(5.0, 2.0, dim=2)
    assert W(np.zeros((1, 2)))[0] == pytest.approx(-5.0)
    with pytest.raises(ConfigError):
        Potential.gaussian_well(1.0, 0.0, dim=2)


def _valid_config():
    return {
        "dim": 2,
        "hbar": 1.0,
        "mass": 1.0,
        "theta": [[0.0, 0.1], [-0.1, 0.0]],
        "grid": {"points_per_axis": 8, "box_half_width": 5.0},
        "potential": {"form": "quartic", "coefficients": {"lambda": 1.0}},
    }


def test_load_config_roundtrip(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(_valid_config()))
    cfg = load_config(str(path))
    assert cfg.params.dim == 2
    assert cfg.grid.points_per_axis == 8
    assert cfg.potential.form == "quartic"
    assert cfg.probe.center == (0.0, 0.0)


@pytest.mark.parametrize("key,subkey", [
    ("theta", None),
    ("grid", None),
    ("potential", None),
    ("dim", None),
    ("grid", "points_per_axis"),
    ("potential", "form"),
])
def test_load_config_errors_name_offending_key(key, subkey):
    data = _valid_config()
    if subkey is None:
        del data[key]
        expected = key
    else:
        del data[key][subkey]
        expected = subkey
    with pytest.raises(ConfigError) as err:
        load_config(data)
    assert expected in str(err.value)


def test_load_config_rejects_bad_theta_shape():
    data = _valid_config()
    data["theta"] = [[0.0, 0.1]]
    with pytest.raises(ConfigError) as err:
        load_config(data)
    assert "theta" in str(err.value)


_FUZZ_BASES = [
    _valid_config(),
    {"dim": 2, "hbar": 0.7, "mass": 1.3, "theta": [[0.0, -0.2], [0.2, 0.0]],
     "grid": {"points_per_axis": 6, "box_half_width": 3.0},
     "potential": {"form": "polynomial", "coefficients": {
         "terms": [{"powers": [2, 0], "c": 0.5}, {"powers": [1, 1], "c": -0.1}]}},
     "probe": {"center": [0.1, 0.0], "momentum": [0.0, 0.3], "width": 0.8}},
    {"dim": 1, "theta": [[0.0]], "grid": {"points_per_axis": 5, "box_half_width": 2.0},
     "potential": {"form": "linear", "coefficients": {"c": [0.4]}}},
    {"dim": 2, "theta": [[0.0, 0.1], [-0.1, 0.0]],
     "grid": {"points_per_axis": 4, "box_half_width": 2.0},
     "potential": {"form": "gaussian_well", "coefficients": {"depth": 2.0, "width": 0.5}}},
]

# a key whose value decides how another key is read
_FUZZ_COUPLED = {"dim": ("theta", "grid", "probe", "potential.coefficients"),
                 "hbar": ("grid.box_half_width",),
                 "potential.form": ("potential.coefficients",)}

_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6)


def _paths(node, path=()):
    """Every (path, value) below a config node; list items by index."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield path + (key,), value
        if isinstance(value, (dict, list)):
            yield from _paths(value, path + (key,))


def _key_name(path):
    return ".".join(str(p) for p in path if isinstance(p, str))


def _related(changed: str, named: str) -> bool:
    def within(a, b):
        return a == b or a.startswith(b + ".")
    return (within(changed, named) or within(named, changed)
            or any(within(named, k) for k in _FUZZ_COUPLED.get(changed, ())))


# every key that some config object reads
_KNOWN_KEYS = {"dim", "hbar", "mass", "theta", "grid", "potential", "probe",
               "points_per_axis", "box_half_width", "form", "coefficients", "c", "omega",
               "lambda", "terms", "depth", "width", "powers", "center", "momentum"}


@settings(max_examples=400, deadline=None)
@given(base=st.sampled_from(_FUZZ_BASES), data=st.data(),
       value=_JSON_VALUES | st.integers(-3, 12) | st.floats(-1e3, 1e3), delete=st.booleans(),
       as_text=st.booleans(),
       unknown=st.text(min_size=1, max_size=6).filter(lambda k: k not in _KNOWN_KEYS))
def test_load_config_gives_a_run_config_or_names_the_key(base, data, value, delete, as_text,
                                                         unknown):
    # one unknown key inserted into any object of a valid config is refused
    # by its dotted path
    config = json.loads(json.dumps(base))
    objects = [((), config)] + [(p, v) for p, v in _paths(config) if isinstance(v, dict)]
    path, node = data.draw(st.sampled_from(objects))
    node[unknown] = value
    with pytest.raises(ConfigError) as err:
        load_config(json.dumps(config) if as_text else config)
    assert str(err.value).startswith(_key_name(path + (unknown,)) + ": unknown key")

    # replace or delete one key or list item of a valid config: loading gives
    # a RunConfig, or a ConfigError that starts with a key related to the change
    config = json.loads(json.dumps(base))
    path, old = data.draw(st.sampled_from(list(_paths(config))))
    parent = config
    for key in path[:-1]:
        parent = parent[key]
    if delete:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    changed = _key_name(path)
    try:
        loaded = load_config(json.dumps(config) if as_text else config)
    except ConfigError as exc:
        named = str(exc).split(":")[0]
        assert _related(changed, named), (changed, str(exc))
        return
    assert isinstance(loaded, RunConfig)
    # a number is never read from a bool, a string, a list or an object
    def is_number(v):
        return isinstance(v, (int, float)) and not isinstance(v, bool)
    if not delete and is_number(old) and not is_number(value):
        assert changed == "probe.width" and value is None  # null: the default width


# the constructor calls that read each scalar key of a config, with the
# other values of `_parity_config`
_API_READERS = {
    "hbar": lambda v: (PhysicsParams(hbar=v), PhaseSpaceGrid(8, 5.0, 2, hbar=v)),
    "mass": lambda v: (PhysicsParams(mass=v), Potential.harmonic(1.0, mass=v)),
    "grid.box_half_width": lambda v: PhaseSpaceGrid(8, v, 2),
    "potential.coefficients.omega": lambda v: Potential.harmonic(v),
    "potential.coefficients.lambda": lambda v: Potential.quartic(v),
    "potential.coefficients.depth": lambda v: Potential.gaussian_well(v, 1.0),
    "potential.coefficients.width": lambda v: Potential.gaussian_well(1.0, v),
    "probe.width": lambda v: star.gaussian_packet(_grid(), width=v),
}


_WELL = ("gaussian_well", {"depth": 1.0, "width": 1.0})
_PARITY_POTENTIALS = {"potential.coefficients.lambda": ("quartic", {"lambda": 1.0}),
                      "potential.coefficients.depth": _WELL,
                      "potential.coefficients.width": _WELL}


def _parity_config(key, value):
    """A valid dim-2, G = 8, L = 5 config, harmonic unless key is another
    form's coefficient, with key set to value."""
    form, coefficients = _PARITY_POTENTIALS.get(key, ("harmonic", {"omega": 1.0}))
    config = {"dim": 2, "theta": [[0.0, 0.1], [-0.1, 0.0]],
              "grid": {"points_per_axis": 8, "box_half_width": 5.0},
              "potential": {"form": form, "coefficients": dict(coefficients)}, "probe": {}}
    *parents, last = key.split(".")
    node = config
    for part in parents:
        node = node[part]
    node[last] = value
    return config


@settings(max_examples=300, deadline=None)
@given(key=st.sampled_from(sorted(_API_READERS)),
       value=_JSON_VALUES | st.sampled_from([0, 0.0, -0.0, -1, -2.5, float("nan"),
                                             float("inf"), float("-inf")])
       | st.floats(max_value=0.0) | st.integers(max_value=0))
def test_api_refuses_exactly_what_load_config_refuses(key, value):
    # the constructor reads the value load_config hands it, so both refuse
    # the same values with the same message, and the message names the key;
    # a ħ whose momentum cell over- or underflows is the grid's cell check
    def refusal(build):
        try:
            build()
        except ConfigError as exc:
            return str(exc)
        return None

    loaded = refusal(lambda: load_config(_parity_config(key, value)))
    built = refusal(lambda: _API_READERS[key](value))
    assert loaded == built, (key, value)
    if built is not None:
        named = built.split(":")[0]
        assert named == key or (key == "hbar" and named == "grid.box_half_width"), built


def _literal_momentum_sum(grid, multiplier):
    """(2πħ)^{-N} Δk^N Σ_k f(y, k) e^{(i/ħ) k·(y - y')} for every lattice pair (y, y').

    multiplier holds f(k) in grid.k_points order, or f(y, k) indexed [y, k].
    """
    d = grid.x_points[:, None, :] - grid.x_points[None, :, :]
    phase = np.exp(1j * (d @ grid.k_points.T) / grid.hbar)  # [y, y', k]
    f = np.reshape(multiplier, (-1, 1, grid.size))
    return (grid.dk / (2.0 * np.pi * grid.hbar)) ** grid.dim * np.sum(phase * f, axis=-1)


def _literal_symbol_half(A, grid):
    """h(k, x) = Δx^N Σ_y e^{(i/ħ) k·y} A[x ⊖ y, x]: the α = +1/2 symbol, wrapped."""
    G = grid.points_per_axis
    n = np.rint(grid.x_points / grid.dx).astype(int)
    wrapped = (n[:, None, :] - n[None, :, :] + G // 2) % G  # [x, y] per axis
    rows = np.ravel_multi_index(tuple(np.moveaxis(wrapped, -1, 0)), grid.shape)
    samples = A[rows, np.arange(grid.size)[:, None]]  # [x, y]
    phase = np.exp(1j * (grid.k_points @ grid.x_points.T) / grid.hbar)  # [k, y]
    return grid.cell_volume * phase @ samples.T


@pytest.mark.parametrize("G, N", [(5, 1), (7, 2), (4, 3)])
def test_lattice_kernels_on_odd_and_3d_grids_match_literal_sums(G, N):
    from ncpath.oracle import build_hamiltonian_matrix, kinetic_operator_kernel
    from ncpath.slicer import SlicingConfig, short_time_propagator
    from ncpath.star import OperatorKernel, potential_operator_kernel
    from ncpath.weyl import symbol_of_operator

    params = PhysicsParams(hbar=0.7, mass=1.3, dim=N)
    grid = PhaseSpaceGrid(G, G / 2.0, N, hbar=0.7)
    k2 = np.sum(grid.k_points**2, axis=-1)
    kinetic = kinetic_operator_kernel(grid, params).entries
    assert np.max(np.abs(kinetic - _literal_momentum_sum(grid, k2 / 2.6))) < 1e-12
    cfg = SlicingConfig(3, 1.0, 0.3, params)
    free = short_time_propagator(cfg, Potential.zero(N), ThetaMatrix.zero(N), grid).entries
    expected = _literal_momentum_sum(grid, np.exp(-1j * cfg.epsilon * k2 / (2.6 * 0.7)))
    assert np.max(np.abs(free - expected)) < 1e-12
    # V(Y + θK) with θ pairing the first two axes (θ = 0 in one dimension)
    theta = ThetaMatrix.single_block(N, 0.3 if N > 1 else 0.0)
    V = Potential.quartic(0.05, dim=N)
    shifted = V(grid.x_points[:, None, :] + theta.shift(grid.k_points)[None, :, :])
    potential = potential_operator_kernel(V, theta, grid).entries
    assert np.max(np.abs(potential - _literal_momentum_sum(grid, shifted))) < 1e-12
    # H: one transform of k·k/2M + V(y + θk) per row, not the sum of two kernels
    H = build_hamiltonian_matrix(V, theta, grid, params).entries
    assert np.max(np.abs(H - _literal_momentum_sum(grid, k2 / 2.6 + shifted))) < 1e-12
    assert np.max(np.abs(H - (kinetic + potential))) <= 1e-13 * np.max(np.abs(H))
    # θ = 0: diag(V)/Δx^N, alone and added to the kinetic kernel, on a grid with Δx ≠ 1
    fine = PhaseSpaceGrid(G, 0.3 * G, N, hbar=0.7)
    unshifted = np.broadcast_to(V(fine.x_points)[:, None], (fine.size,) * 2)
    V0 = potential_operator_kernel(V, ThetaMatrix.zero(N), fine).entries
    assert np.max(np.abs(V0 - _literal_momentum_sum(fine, unshifted))) < 1e-12
    H0 = build_hamiltonian_matrix(V, ThetaMatrix.zero(N), fine, params).entries
    h0 = np.sum(fine.k_points**2, axis=-1) / 2.6 + unshifted
    assert np.max(np.abs(H0 - _literal_momentum_sum(fine, h0))) < 1e-12
    rng = np.random.default_rng(G + 10 * N)
    A = rng.standard_normal((grid.size,) * 2) + 1j * rng.standard_normal((grid.size,) * 2)
    symbol = symbol_of_operator(OperatorKernel(A, grid), 0.5).values
    assert np.max(np.abs(symbol - _literal_symbol_half(A, grid))) < 1e-12


def test_dense_kernel_builds_refuse_grids_over_4096_points():
    from ncpath.core import _require_dense_size
    from ncpath.oracle import build_hamiltonian_matrix
    from ncpath.star import potential_operator_kernel

    _require_dense_size(PhaseSpaceGrid(64, 8.0, 2))  # 4096 points: allowed
    big = PhaseSpaceGrid(65, 8.0, 2)
    theta = ThetaMatrix.single_block(2, 0.1)
    V = Potential.harmonic(1.0, dim=2)
    with pytest.raises(ConfigError, match="grid.points_per_axis"):
        potential_operator_kernel(V, theta, big)
    with pytest.raises(ConfigError, match="grid.points_per_axis"):
        build_hamiltonian_matrix(V, theta, big, PhysicsParams(dim=2))


def test_every_dense_builder_checks_the_size_first(monkeypatch):
    # with the limit at 64 points a G = 9, N = 2 grid (81 points) is too big
    import ncpath.core
    from ncpath.oracle import kinetic_operator_kernel, split_step_evolve
    from ncpath.slicer import free_kernel_closed_form
    from ncpath.star import gaussian_packet, identity_kernel
    from ncpath.weyl import shifted_potential_symbol, verify_alpha_washout

    monkeypatch.setattr(ncpath.core, "_DENSE_POINTS", 64)
    grid = PhaseSpaceGrid(9, 4.0, 2)
    params = PhysicsParams(dim=2)
    theta = ThetaMatrix.single_block(2, 0.1)
    V = Potential.quartic(0.05, dim=2)
    psi = gaussian_packet(grid)
    builders = [
        lambda: identity_kernel(grid),
        lambda: free_kernel_closed_form(grid, params, 1.0),
        lambda: kinetic_operator_kernel(grid, params),
        lambda: split_step_evolve(psi, V, theta, params, 0.1, 2),
        # harmonic V at θ ≠ 0 takes the factorized route: n×G tables only
        lambda: split_step_evolve(psi, Potential.harmonic(1.0, dim=2), theta, params, 0.1, 2),
        lambda: shifted_potential_symbol(V, theta, grid, 0.0),
        lambda: verify_alpha_washout(V, theta, grid, [-0.4, 0.4]),
        lambda: verify_alpha_washout(V, theta, grid, [-0.4, 0.4], method="direct"),
    ]
    for build in builders:
        with pytest.raises(ConfigError, match="grid.points_per_axis"):
            build()
    # the paths without an n×n array still run
    split_step_evolve(psi, V, ThetaMatrix.zero(2), params, 0.1, 2)


# every public entry that takes two of grid, params, V, θ and a field runs the
# model check (`core._require_model`) before it builds anything
_MODEL_ENTRIES = {
    "short_time_propagator": ("params", "V", "theta"),
    "slice_row_blocks": ("params", "V", "theta"),
    "propagate_half": ("params", "V", "theta", "probe"),
    "propagate_dense": ("params", "V", "theta", "probe"),
    "split_step_evolve": ("params", "V", "theta"),
    "build_hamiltonian_matrix": ("params", "V", "theta"),
    "kinetic_operator_kernel": ("params",),
    "free_kernel_closed_form": ("params",),
    "oracle_compare": ("params", "V", "theta", "probe"),
    "star_apply": ("V", "theta"),
    "star_apply_field": ("theta", "probe"),
    "potential_operator_kernel": ("V", "theta"),
    "star_integral_identity_check": ("theta", "probe"),
    "shifted_potential_symbol": ("V", "theta"),
    "verify_alpha_washout": ("V", "theta"),
}
# mismatch -> (the object it replaces, the message it is refused with)
_MISMATCHES = {"hbar": ("params", "hbar"), "params_dim": ("params", "dim"),
               "V_dim": ("V", "dim"), "theta_dim": ("theta", "dim"),
               "probe": ("probe", "different grids")}


def _run_model_entry(entry, grid, params, V, theta, probe):
    psi = star.gaussian_packet(grid)
    calls = {
        "short_time_propagator": lambda: slicer.short_time_propagator(
            slicer.SlicingConfig(2, 1.0, 0.5, params), V, theta, grid),
        "slice_row_blocks": lambda: slicer.slice_row_blocks(
            slicer.SlicingConfig(2, 1.0, 0.3, params), V, theta, grid),
        "propagate_half": lambda: slicer.propagate(
            slicer.SlicingConfig(2, 1.0, 0.5, params), V, theta, grid, probe),
        "propagate_dense": lambda: slicer.propagate(
            slicer.SlicingConfig(2, 1.0, 0.3, params), V, theta, grid, probe),
        "split_step_evolve": lambda: oracle.split_step_evolve(psi, V, theta, params, 1.0, 4),
        # the entry itself, not the name patched in oracle
        "build_hamiltonian_matrix": lambda: build_hamiltonian_matrix(V, theta, grid, params),
        "kinetic_operator_kernel": lambda: oracle.kinetic_operator_kernel(grid, params),
        "free_kernel_closed_form": lambda: slicer.free_kernel_closed_form(grid, params, 1.0),
        "oracle_compare": lambda: oracle.oracle_compare(V, theta, grid, params, 1.0, [2],
                                                        probe),
        "star_apply": lambda: star.star_apply(V, theta, psi),
        "star_apply_field": lambda: star.star_apply_field(probe, theta, psi),
        "potential_operator_kernel": lambda: star.potential_operator_kernel(V, theta, grid),
        "star_integral_identity_check": lambda: star.star_integral_identity_check(
            probe, psi, theta),
        "shifted_potential_symbol": lambda: weyl.shifted_potential_symbol(V, theta, grid, 0.2),
        "verify_alpha_washout": lambda: weyl.verify_alpha_washout(V, theta, grid, [0.2, 0.4]),
    }
    calls[entry]()


@pytest.mark.parametrize("entry, mismatch", [
    (entry, mismatch) for entry, takes in _MODEL_ENTRIES.items()
    for mismatch, (obj, _) in _MISMATCHES.items() if obj in takes])
def test_model_mismatch_is_refused_before_any_build(entry, mismatch, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a build started before the model check")

    for module, names in [(slicer, ("_require_dense_size",)),
                          (oracle, ("_require_dense_size", "_symbol_entries",
                                    "build_hamiltonian_matrix", "_factored_hamiltonian",
                                    "_axis_step_tables")),
                          (star, ("_require_dense_size", "_symbol_entries")),
                          (weyl, ("_require_dense_size", "_symbol_entries"))]:
        for name in names:
            monkeypatch.setattr(module, name, refuse)
    grid = PhaseSpaceGrid(8, 4.0, 2)
    model = {"params": PhysicsParams(dim=2), "V": Potential.harmonic(1.0, 1.0, dim=2),
             "theta": ThetaMatrix.single_block(2, 0.1), "probe": star.gaussian_packet(grid)}
    obj, message = _MISMATCHES[mismatch]
    model[obj] = {"hbar": PhysicsParams(hbar=0.5, dim=2),
                  "params_dim": PhysicsParams(dim=3),
                  "V_dim": Potential.harmonic(1.0, 1.0, dim=3),
                  "theta_dim": ThetaMatrix.single_block(3, 0.1),
                  "probe": star.gaussian_packet(PhaseSpaceGrid(8, 3.0, 2))}[mismatch]
    with pytest.raises(GridMismatchError, match=message):
        _run_model_entry(entry, grid, **model)


@pytest.mark.parametrize("G", [8, 9])
def test_plane_waves_of_opposite_momenta_are_exact_conjugates(G):
    from ncpath.core import _plane_waves

    n = np.indices((G, G)).reshape(2, -1).T - G // 2
    plus = _plane_waves(G, n, n)
    minus = _plane_waves(G, n, -n)
    residue = (n @ n.T) % G
    assert np.max(np.abs(plus - np.exp(2j * np.pi * (n @ n.T) / G))) < 1e-14
    # e^{iπ} at r = G/2 on even G is one table entry for ±r
    odd = residue == G // 2 if G % 2 == 0 else np.zeros_like(residue, dtype=bool)
    assert np.array_equal(minus[~odd], plus[~odd].conj())
    assert np.array_equal(minus[odd], plus[odd])
