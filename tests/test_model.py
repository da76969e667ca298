"""Constellation and channel-parameter value objects, plus serialization."""

import hashlib
import json
import math

import numpy as np
import pytest

from phasecon import (
    ChannelParams,
    Constellation,
    ConstellationError,
    FormatError,
    constellation_from_json,
    constellation_to_json,
    gray_code,
    load_constellation,
    make_constellation,
    normalize_average_power,
    reference_constellation,
    save_constellation,
)

from conftest import is_gray, random_unit_power_constellation


# --- construction and validation ------------------------------------------


def test_make_constellation_accepts_qpsk():
    c = make_constellation([1, 1j, -1j, -1], [0, 1, 2, 3])
    assert c.size == 4
    assert c.m == 2
    assert list(c.labels) == [0, 1, 2, 3]


def test_make_constellation_rejects_non_power_of_two():
    with pytest.raises(ConstellationError):
        make_constellation([1, 1j, -1], [0, 1, 2])


@pytest.mark.parametrize(
    "points, labels",
    [([[1, 1j], [-1, -1j]], [[0, 1], [2, 3]]), ([1, 1j, -1, -1j], [0, 1])],
    ids=["two-dimensional", "unequal-lengths"],
)
def test_make_constellation_rejects_arrays_of_another_shape(points, labels):
    with pytest.raises(ConstellationError, match="one-dimensional|differ in length"):
        make_constellation(points, labels)


def test_make_constellation_rejects_single_point():
    with pytest.raises(ConstellationError):
        make_constellation([1.0], [0])


def test_make_constellation_rejects_duplicate_label():
    with pytest.raises(ConstellationError):
        make_constellation([1, 1j, -1, -1j], [0, 0, 1, 2])


def test_make_constellation_rejects_duplicate_point():
    with pytest.raises(ConstellationError):
        make_constellation([1, 1, -1, -1j], [0, 1, 2, 3])


@pytest.mark.parametrize(
    "zero, signed",
    [(complex(0.0, 1.0), complex(-0.0, 1.0)), (complex(1.0, 0.0), complex(1.0, -0.0))],
    ids=["real", "imag"],
)
def test_make_constellation_rejects_points_differing_in_the_sign_of_zero(zero, signed):
    # -0.0 == 0.0: the points are equal, wherever they sort.
    with pytest.raises(ConstellationError, match="duplicate"):
        make_constellation([zero, 2.0, signed, -2.0], [0, 1, 2, 3])
    with pytest.raises(ConstellationError, match="duplicate"):
        make_constellation([signed, -1.0, 2j, zero], [0, 1, 2, 3])


def test_make_constellation_rejects_non_finite_point():
    with pytest.raises(ConstellationError):
        make_constellation([1, np.nan, -1, -1j], [0, 1, 2, 3])


def test_make_constellation_rejects_out_of_range_labels():
    with pytest.raises(ConstellationError):
        make_constellation([1, 1j, -1, -1j], [1, 2, 3, 4])


@pytest.mark.parametrize(
    "labels",
    [
        [0, 1.5, 2, 3.9],
        np.array([0.0, 1.0, 2.0, 3.0]),
        ["0", "1", "2", "3"],
        np.array(["0", "1", "2", "3"]),
        [True, False, 2, 3],
        [np.True_, 0, 2, 3],
        np.array([True, False, True, False]),
    ],
    ids=["floats", "float-array", "strings", "string-array", "bools", "numpy-bool",
         "bool-array"],
)
def test_make_constellation_refuses_labels_that_are_not_integers(labels):
    with pytest.raises(ConstellationError, match="labels must be integers"):
        make_constellation([1, 1j, -1, -1j], labels)


def test_make_constellation_takes_any_integer_labels():
    want = make_constellation([1, 1j, -1, -1j], [2, 0, 3, 1])
    for labels in ([np.int8(2), 0, 3, np.uint64(1)], np.array([2, 0, 3, 1], dtype=np.uint16)):
        assert make_constellation([1, 1j, -1, -1j], labels) == want


def test_make_constellation_does_not_normalize():
    c = make_constellation([2.0, -2.0], [0, 1])
    assert c.average_power() == pytest.approx(4.0)


def test_constellation_round_trips_through_fields():
    c = make_constellation([1, 1j, -1, -1j], [2, 0, 3, 1])
    again = make_constellation(c.points, c.labels)
    assert again == c


def test_constellation_arrays_are_read_only():
    c = make_constellation([1, -1], [0, 1])
    with pytest.raises(ValueError):
        c.points[0] = 5.0
    with pytest.raises(ValueError):
        c.labels[0] = 1


def test_constellation_equality_tracks_content():
    a = make_constellation([1, -1], [0, 1])
    b = make_constellation([1, -1], [0, 1])
    d = make_constellation([1, -1], [1, 0])
    assert a == b
    assert a != d
    assert a != "a constellation" and a.__eq__(a.points) is NotImplemented


def test_fingerprint_distinguishes_labelings():
    a = make_constellation([1, -1], [0, 1])
    b = make_constellation([1, -1], [1, 0])
    assert a.fingerprint() != b.fingerprint()
    assert a.fingerprint() == make_constellation([1, -1], [0, 1]).fingerprint()


def test_kept_fingerprint_equals_a_fresh_one_and_changes_nothing_else(tmp_path, rng):
    c = random_unit_power_constellation(rng, size=16)
    first = c.fingerprint()
    parts = [str(c.m), *(f"{p.real:.17g},{p.imag:.17g}" for p in c.points), *map(str, c.labels)]
    assert first == hashlib.sha256(";".join(parts).encode("ascii")).hexdigest()[:16]
    # An equal instance holds no kept value until its first call.
    fresh = Constellation(points=c.points.copy(), labels=c.labels.copy(), m=c.m)
    assert "_fingerprint" not in fresh.__dict__
    assert fresh.fingerprint() == first
    assert c.fingerprint() is first
    assert c == fresh and fresh == c
    assert c != make_constellation(c.points, np.roll(c.labels, 1))
    path = tmp_path / "c.json"
    save_constellation(path, c, {"seed": 1})
    loaded, meta = load_constellation(path)
    assert loaded == c and meta == {"seed": 1}
    assert loaded.fingerprint() == first
    assert constellation_to_json(c, {"seed": 1}) == path.read_text(encoding="ascii")


# --- normalization ---------------------------------------------------------


def test_normalize_scales_to_unit_power():
    c = normalize_average_power(make_constellation([2.0, -2.0], [0, 1]))
    np.testing.assert_allclose(c.points, [1.0, -1.0], atol=1e-15)
    assert abs(c.average_power() - 1.0) < 1e-12


def test_normalize_is_idempotent(rng):
    c = random_unit_power_constellation(rng)
    once = normalize_average_power(c)
    twice = normalize_average_power(once)
    np.testing.assert_allclose(once.points, twice.points, rtol=0, atol=1e-12)


def test_normalize_preserves_labels():
    c = normalize_average_power(make_constellation([3, 3j, -3, -3j], [2, 0, 3, 1]))
    assert list(c.labels) == [2, 0, 3, 1]


def test_normalize_rejects_all_zero():
    pts = np.array([0.0 + 0.0j, 1.0])
    bad = Constellation(points=pts * 0 + np.array([0.0, 0.0]), labels=np.array([0, 1]), m=1)
    with pytest.raises(ConstellationError):
        normalize_average_power(bad)


# --- labels and Gray structure ---------------------------------------------


def test_gray_code_sequence():
    assert [gray_code(i) for i in range(8)] == [0, 1, 3, 2, 6, 7, 5, 4]
    with pytest.raises(ValueError, match="non-negative"):
        gray_code(-1)


def test_is_gray_accepts_reflected_psk8(psk8):
    assert is_gray(psk8)


def test_is_gray_rejects_naturally_labeled_psk8():
    pts = np.exp(2j * np.pi * np.arange(8) / 8)
    c = make_constellation(pts, np.arange(8))
    assert not is_gray(c)


def test_is_gray_accepts_any_bpsk_labeling():
    assert is_gray(make_constellation([1, -1], [0, 1]))
    assert is_gray(make_constellation([1, -1], [1, 0]))


def test_is_gray_invariant_under_rotation_and_scale(psk8):
    moved = make_constellation(psk8.points * 0.35 * np.exp(0.71j), psk8.labels)
    assert is_gray(moved) == is_gray(psk8)


def test_is_gray_checks_all_tied_nearest_neighbors():
    # Square QPSK: both neighbors of every corner sit at the same distance,
    # so a labeling where one of the two ties violates the bit condition
    # must be rejected.
    pts = [1, 1j, -1, -1j]
    assert is_gray(make_constellation(pts, [0, 1, 3, 2]))
    assert not is_gray(make_constellation(pts, [0, 1, 2, 3]))


# --- reference constellations ----------------------------------------------


def test_reference_psk8_geometry(psk8):
    np.testing.assert_allclose(np.abs(psk8.points), 1.0, atol=1e-12)
    np.testing.assert_allclose(
        np.sort(np.angle(psk8.points)),
        np.pi * np.array([-3, -2, -1, 0, 1, 2, 3, 4]) / 4,
        atol=1e-12,
    )
    assert list(psk8.labels) == [gray_code(i) for i in range(8)]


def test_reference_psk2_is_antipodal():
    c = reference_constellation("psk", 2)
    np.testing.assert_allclose(c.points, [1.0, -1.0], atol=1e-12)


def test_reference_qam16_unit_power_square_grid():
    c = reference_constellation("qam", 16)
    assert abs(c.average_power() - 1.0) < 1e-12
    assert len(set(np.round(c.points.real, 9))) == 4
    assert len(set(np.round(c.points.imag, 9))) == 4
    assert is_gray(c)


def test_reference_qam8_unit_power_rectangle():
    c = reference_constellation("qam", 8)
    assert abs(c.average_power() - 1.0) < 1e-12
    assert is_gray(c)


def test_reference_apsk_rings():
    c = reference_constellation("apsk", 16, ring_spec=[(4, 1.0), (12, 2.5)])
    assert abs(c.average_power() - 1.0) < 1e-12
    radii = np.sort(np.unique(np.round(np.abs(c.points), 9)))
    assert radii.size == 2
    assert radii[1] / radii[0] == pytest.approx(2.5)


def test_reference_apsk_requires_matching_counts():
    with pytest.raises(ConstellationError):
        reference_constellation("apsk", 16, ring_spec=[(4, 1.0), (8, 2.0)])


@pytest.mark.parametrize(
    "kind, size, ring_spec",
    [("psk", 6, None), ("apsk", 16, None), ("apsk", 16, [(4, 0.0), (12, 2.0)])],
    ids=["size-6", "apsk-without-rings", "zero-radius"],
)
def test_reference_refuses_a_malformed_request(kind, size, ring_spec):
    with pytest.raises(ConstellationError):
        reference_constellation(kind, size, ring_spec)


def test_reference_rejects_unknown_kind():
    with pytest.raises(ConstellationError):
        reference_constellation("pam", 8)


def test_reference_psk_sizes_all_gray():
    for size in (2, 4, 8, 16, 32):
        assert is_gray(reference_constellation("psk", size))


# --- channel parameters ----------------------------------------------------


def test_channel_params_conversions_round_trip():
    p = ChannelParams.from_snr_pnsd(12.0, 10.0)
    assert p.snr_db == pytest.approx(12.0, rel=1e-12)
    assert p.pnsd_deg == pytest.approx(10.0, rel=1e-12)


def test_channel_params_snr_definition():
    p = ChannelParams.from_snr_pnsd(0.0, 0.0)
    assert p.k_n == pytest.approx(2.0, rel=1e-12)


def test_channel_params_zero_pnsd_is_awgn():
    p = ChannelParams.from_snr_pnsd(10.0, 0.0)
    assert math.isinf(p.k_phi)
    assert not p.has_phase_noise
    assert p.pnsd_deg == 0.0


def test_channel_params_tiny_spread_counts_as_jitter_free():
    # 1e-3 deg keeps its jitter at 12 dB (k_phi = 1.03e8 k_n), 1e-4 deg does
    # not (1.03e10 k_n); both report the spread asked for.
    for pnsd, jittered in ((1e-3, True), (1e-4, False)):
        p = ChannelParams.from_snr_pnsd(12.0, pnsd)
        assert p.has_phase_noise is jittered
        assert p.pnsd_deg == pytest.approx(pnsd, rel=1e-12)
    # k_n times the ratio overflows here; the rule must not.  At 5 deg the
    # channel keeps its jitter, so it is refused as one too fine to resolve.
    assert not ChannelParams.from_snr_pnsd(3000.0, 0.0).has_phase_noise
    with pytest.raises(ValueError, match="too high"):
        ChannelParams.from_snr_pnsd(3000.0, 5.0)


def test_channel_params_rejects_bad_concentrations():
    with pytest.raises(ValueError):
        ChannelParams(k_n=0.0, k_phi=10.0)
    with pytest.raises(ValueError):
        ChannelParams(k_n=math.inf, k_phi=10.0)
    for k_phi in (-1.0, 0.0, math.nan):
        with pytest.raises(ValueError):
            ChannelParams(k_n=1.0, k_phi=k_phi)


def test_channel_params_refuses_jitter_it_cannot_resolve():
    # 8-PSK's cut at 20 deg lies between 125 and 130 dB (k_n / k_phi of
    # 7.7e11 and 2.4e12); a huge k_n under the ratio cut would overflow k_n^2.
    assert ChannelParams.from_snr_pnsd(125.0, 20.0).has_phase_noise
    with pytest.raises(ValueError, match="too high"):
        ChannelParams.from_snr_pnsd(130.0, 20.0)
    with pytest.raises(ValueError, match="too high"):
        ChannelParams(k_n=1e160, k_phi=1e155)
    assert not ChannelParams(k_n=1e160, k_phi=1e170).has_phase_noise


def test_channel_params_rejects_negative_pnsd():
    with pytest.raises(ValueError):
        ChannelParams.from_snr_pnsd(10.0, -3.0)


def test_channel_params_rejects_an_infinite_snr():
    with pytest.raises(ValueError, match="snr_db must be finite"):
        ChannelParams.from_snr_pnsd(math.inf, 0.0)


# --- JSON serialization ----------------------------------------------------


def test_json_round_trip_is_exact(rng):
    c = random_unit_power_constellation(rng)
    meta = {"objective": "AMI", "snr_db": 12.0, "pnsd_deg": 10.0, "seed": 3}
    text = constellation_to_json(c, meta)
    back, back_meta = constellation_from_json(text)
    assert back == c
    assert back_meta == meta


def test_json_output_is_deterministic(rng):
    c = random_unit_power_constellation(rng)
    meta = {"seed": 1, "objective": "PAMI", "snr_db": 9.0, "pnsd_deg": 5.0}
    assert constellation_to_json(c, meta) == constellation_to_json(c, meta)


def test_json_document_shape(psk8):
    doc = json.loads(constellation_to_json(psk8, {"seed": 0}))
    assert doc["version"] == "phasecon-v1"
    assert doc["m"] == 3
    assert len(doc["points"]) == 8
    assert all(len(p) == 2 for p in doc["points"])
    assert sorted(doc["labels"]) == list(range(8))


def test_json_rejects_bad_version(psk8):
    doc = json.loads(constellation_to_json(psk8))
    doc["version"] = "phasecon-v0"
    with pytest.raises(FormatError):
        constellation_from_json(json.dumps(doc))


def test_json_rejects_missing_field(psk8):
    doc = json.loads(constellation_to_json(psk8))
    del doc["labels"]
    with pytest.raises(FormatError):
        constellation_from_json(json.dumps(doc))


def test_json_rejects_malformed_text():
    with pytest.raises(FormatError, match="not valid JSON"):
        constellation_from_json("{not json")
    with pytest.raises(FormatError, match="root must be an object"):
        constellation_from_json("[1, 2]")


def test_json_rejects_point_shape(psk8):
    doc = json.loads(constellation_to_json(psk8))
    doc["points"][2] = [1.0]
    with pytest.raises(FormatError):
        constellation_from_json(json.dumps(doc))


def test_json_rejects_inconsistent_m(psk8):
    doc = json.loads(constellation_to_json(psk8))
    doc["m"] = 4
    with pytest.raises(FormatError):
        constellation_from_json(json.dumps(doc))


def test_json_rejects_invalid_content(psk8):
    doc = json.loads(constellation_to_json(psk8))
    doc["labels"] = [0] * 8
    with pytest.raises(FormatError):
        constellation_from_json(json.dumps(doc))


@pytest.mark.parametrize(
    "field, value",
    [
        ("labels", [0, 1.5, 2, 3.9]),
        ("labels", [0.0, 1.0, 2.0, 3.0]),
        ("labels", ["0", "1", "2", "3"]),
        ("labels", [True, False, 2, 3]),
        ("labels", "0123"),
        ("labels", [0, 1, 2, 10**30]),
        ("points", [[True, 1], [0, 1], [-1, 0], [0, -1]]),
        ("points", [[1, 0], [0, None], [-1, 0], [0, -1]]),
        ("points", [[1, 0], [0, 10**400], [-1, 0], [0, -1]]),
        ("m", 2.0),
        ("meta", [1, 2]),
    ],
    ids=["float-labels", "integral-floats", "string-labels", "bool-labels", "label-string",
         "huge-label", "bool-point", "null-point", "huge-point", "float-m", "list-meta"],
)
def test_json_refuses_values_of_the_wrong_json_type(field, value):
    """Labels and m are JSON integers and coordinates JSON numbers, never
    bools; anything else is a FormatError, not a silent conversion."""
    doc = {"version": "phasecon-v1", "m": 2, "points": [[1, 0], [0, 1], [-1, 0], [0, -1]],
           "labels": [0, 1, 2, 3]}
    constellation_from_json(json.dumps(doc))
    doc[field] = value
    with pytest.raises(FormatError):
        constellation_from_json(json.dumps(doc))


def test_save_and_load_round_trip(tmp_path, rng):
    c = random_unit_power_constellation(rng)
    path = tmp_path / "c.json"
    save_constellation(path, c, {"seed": 9})
    back, meta = load_constellation(path)
    assert back == c
    assert meta["seed"] == 9


def test_load_missing_file_is_format_error(tmp_path):
    with pytest.raises(FormatError):
        load_constellation(tmp_path / "nope.json")
