"""Config and observation parsing, cross-validation, digests."""

from dataclasses import fields
from fractions import Fraction

import pytest

from histmix import (
    ConfigError,
    ParseError,
    RunConfig,
    SOURCE_KINDS,
    build_estimator,
    build_family,
    build_reference,
    build_source,
    load_config,
    parse_config,
    parse_observations,
    validate_config,
)
from histmix.ingest import PRETRANSFORMS


def test_parse_observations_basic():
    recs = list(parse_observations(["0.25\n", "0.75\n"]))
    assert [(r.value, r.line) for r in recs] == [(0.25, 1), (0.75, 2)]


def test_parse_observations_integers_and_comments():
    recs = list(parse_observations(["# header\n", "3\n", "\n", "  7  \n"]))
    assert [(r.value, r.line) for r in recs] == [(3.0, 2), (7.0, 4)]


def test_parse_observations_malformed():
    with pytest.raises(ParseError) as err:
        list(parse_observations(["x\n"]))
    assert err.value.line == 1
    with pytest.raises(ParseError) as err:
        list(parse_observations(["1.0\n", "0.5.2\n"]))
    assert err.value.line == 2


def test_parse_observations_rejects_non_finite():
    for bad in ("nan", "inf", "-inf"):
        with pytest.raises(ParseError):
            list(parse_observations([bad + "\n"]))


def test_parse_config_types():
    d = parse_config("levels = 4\nstay=0.8\nsource = binary-markov\nseeds = 0,1,2\n")
    assert d["levels"] == 4
    assert d["stay"] == 0.8
    assert d["source"] == "binary-markov"
    assert d["seeds"] == (0, 1, 2)


def test_parse_config_compound_eta():
    d = parse_config("eta_atoms = -1:0.5\neta_pieces = 0:0.5:0.25, 0.5:1:0.25\n")
    assert d["eta_atoms"] == ((-1.0, 0.5),)
    assert d["eta_pieces"] == ((0.0, 0.5, 0.25), (0.5, 1.0, 0.25))


def test_parse_config_comments_and_blanks():
    d = parse_config("# run setup\n\nlevels = 2\n")
    assert d == {"levels": 2}


def test_parse_config_unknown_key():
    with pytest.raises(ConfigError):
        parse_config("levles = 3\n")


def test_parse_config_bad_value():
    with pytest.raises(ConfigError):
        parse_config("levels = many\n")


def test_default_config_three_levels():
    cfg = validate_config(RunConfig(levels=3))
    assert cfg.weights == tuple(float(Fraction(x, 7)) for x in (4, 2, 1))
    assert cfg.family == "dyadic"
    assert cfg.digest != ""
    assert len(cfg.digest) == 12


def test_validation_is_idempotent():
    cfg = validate_config(RunConfig(source="mixed-atom", levels=4))
    again = validate_config(cfg)
    assert cfg == again


def test_digest_stable_and_sensitive():
    a = validate_config(RunConfig(levels=3))
    b = validate_config(RunConfig(levels=3))
    c = validate_config(RunConfig(levels=4))
    assert a.digest == b.digest
    assert a.digest != c.digest


def test_family_follows_source():
    cfg = validate_config(RunConfig(source="countable-geometric"))
    assert cfg.family == "countable"
    cfg = validate_config(RunConfig(source="mixed-atom"))
    assert cfg.family == "mixed"
    assert cfg.atoms == (-1.0,)


def test_markov_alias():
    cfg = validate_config(RunConfig(source="binary-markov"))
    assert build_source(cfg).kind == "binary-markov-embedded"


def test_source_parameters_are_config_keys():
    # build_source reads each source field from the RunConfig key of that name
    config_keys = {f.name for f in fields(RunConfig)}
    for cls in SOURCE_KINDS.values():
        assert {f.name for f in fields(cls)} <= config_keys, cls.kind
    src = build_source(RunConfig(source="mixed-atom", atom_mass=0.25, continuous="exponential"))
    assert (src.atom_mass, src.continuous) == (0.25, "exponential")


def test_reference_total_mass_capped():
    with pytest.raises(ConfigError):
        validate_config(RunConfig(eta_pieces=((0.0, 1.0, 1.2),)))


def test_reference_must_cover_family():
    # interval family but reference mass only on half of it
    with pytest.raises(ConfigError):
        validate_config(RunConfig(eta_pieces=((0.0, 0.5, 1.0),)))


def test_atom_aware_family_rejects_lebesgue_reference():
    # continuous-only reference cannot carry an atom cell
    with pytest.raises(ConfigError):
        validate_config(
            RunConfig(
                family="mixed",
                atoms=(-1.0,),
                eta_pieces=((0.0, 1.0, 1.0),),
                eta_atoms=(),
            )
        )


def test_atom_inside_interval_rejected():
    with pytest.raises(Exception):
        validate_config(RunConfig(family="mixed", atoms=(0.5,)))


def test_weights_must_match_levels():
    with pytest.raises(ConfigError):
        validate_config(RunConfig(levels=3, weights=(0.5, 0.5)))


def test_eta_mismatch_with_source():
    # source expects half the mass on the atom; config gives it much less
    with pytest.raises(ConfigError):
        validate_config(
            RunConfig(
                source="mixed-atom",
                eta_atoms=((-1.0, 0.1),),
                eta_pieces=((0.0, 1.0, 0.9),),
            )
        )


def test_load_config_round_trip():
    cfg = load_config("source = uniform-iid\nlevels = 3\nn = 512\n")
    assert cfg.levels == 3
    assert cfg.n == 512
    assert cfg.digest
    est = build_estimator(cfg)
    assert est.num_levels == 3


def test_build_family_kinds():
    assert build_family(validate_config(RunConfig(levels=2))).num_levels == 2
    fam = build_family(validate_config(RunConfig(source="countable-geometric", levels=3)))
    assert fam.alphabet_size(0) == 2
    fam = build_family(validate_config(RunConfig(source="mixed-atom", levels=2)))
    assert fam.alphabet_size(0) == 3


def test_build_reference_matches_source():
    cfg = validate_config(RunConfig(source="mixed-atom"))
    ref = build_reference(cfg)
    fam = build_family(cfg)
    ref.validate_family(fam)
    atom_cell = next(c for c in fam.levels[0] if c.kind == "atom")
    assert ref.cell_mass(atom_cell) == 0.5


def test_pretransform_logistic():
    f = PRETRANSFORMS["logistic"]
    assert f(0.0) == 0.5
    assert 0.0 < f(-50.0) < 1e-15
    assert f(1e9) < 1.0  # clamped off the open right edge
    assert f(-10.0) < f(0.0) < f(10.0)


def test_pretransform_identity():
    f = PRETRANSFORMS["identity"]
    assert f(0.37) == 0.37


def test_unknown_names_rejected():
    with pytest.raises(ConfigError):
        validate_config(RunConfig(source="no-such-kind"))
    with pytest.raises(ConfigError):
        validate_config(RunConfig(family="triadic"))
    with pytest.raises(ConfigError):
        validate_config(RunConfig(pretransform="affine"))


def test_scalar_bounds_checked():
    with pytest.raises(ConfigError):
        validate_config(RunConfig(levels=0))
    with pytest.raises(ConfigError):
        validate_config(RunConfig(max_order=-1))
    with pytest.raises(ConfigError):
        validate_config(RunConfig(n=0))
    with pytest.raises(ConfigError):
        validate_config(RunConfig(checkpoints=()))
