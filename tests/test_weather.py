"""Synthetic weather generator and the hourly CSV files (weather weeks, sensor traces)."""

import hashlib

import numpy as np
import pytest

from bemopt import weather
from bemopt import schema as sc
from bemopt.calibration import SensorTrace
from bemopt.seeding import stream


class TestGenerator:
    def test_channels_satisfy_schema_invariants(self):
        for i in range(25):
            w = weather.synthetic_week(stream(42, f"wk{i}"))
            assert w.data.shape == (168, 7)  # construction validates the rest

    def test_global_equals_beam_plus_diffuse(self):
        w = weather.synthetic_week(stream(1, "wk"))
        np.testing.assert_allclose(
            w.channel("IGLOB_H"), w.channel("IBEAM_H") + w.channel("IDIFF_H"), atol=1e-12
        )
        np.testing.assert_array_equal(w.channel("DNI"), w.channel("IBEAM_N"))

    def test_night_hours_are_dark(self):
        w = weather.synthetic_week(stream(2, "wk"))
        hod = np.arange(168) % 24
        assert np.all(w.channel("IGLOB_H")[(hod < 3) | (hod > 21)] == 0.0)

    def test_pool_is_deterministic_per_index(self):
        a = weather.generate_pool(7, 4)
        b = weather.generate_pool(7, 6)
        for wa, wb in zip(a, b):
            np.testing.assert_array_equal(wa.data, wb.data)
        assert not np.array_equal(b[4].data, b[5].data)

    def test_seasonal_spread(self):
        weeks = weather.generate_pool(11, 40)
        means = [w.tamb.mean() for w in weeks]
        assert min(means) < 8 and max(means) > 15  # winter and summer both appear


class TestCsvRoundTrip:
    def test_bit_identical(self, tmp_path):
        w = weather.synthetic_week(stream(3, "wk"))
        p = tmp_path / "week.csv"
        weather.save_week(p, w)
        back = weather.load_week(p)
        np.testing.assert_array_equal(back.data, w.data)

    def test_pool_round_trip_preserves_order(self, tmp_path):
        pool = weather.generate_pool(5, 3)
        weather.save_pool(tmp_path / "pool", pool)
        back = weather.load_pool(tmp_path / "pool")
        assert len(back) == 3
        for wa, wb in zip(pool, back):
            np.testing.assert_array_equal(wa.data, wb.data)

    def test_writer_bytes_are_pinned(self, tmp_path):
        p = tmp_path / "week.csv"
        weather.save_week(p, weather.generate_pool(0, 1)[0])
        raw = p.read_bytes()
        assert len(raw) == 15_607
        assert hashlib.sha256(raw).hexdigest() == (
            "e68416325183af440ad9aaba5a521680c3ef1d68e5781125810a4e3af4313c61")

    @pytest.mark.parametrize("relabel", [lambda h: str(167 - h), lambda h: "x", lambda h: f"{h}.0"])
    def test_hour_column_must_count_up_from_zero(self, tmp_path, relabel):
        p = tmp_path / "week.csv"
        weather.save_week(p, weather.synthetic_week(stream(3, "wk")))
        header, *rows = p.read_text().splitlines()
        rows = [relabel(h) + "," + row.split(",", 1)[1] for h, row in enumerate(rows)]
        p.write_text("\n".join([header, *rows]) + "\n")
        with pytest.raises(sc.SchemaError, match="line 2: hour"):
            weather.load_week(p)

    def test_missing_directory_content(self, tmp_path):
        with pytest.raises(sc.SchemaError, match="no weather"):
            weather.load_pool(tmp_path)


# ---------------------------------------------------------------------------
# one hourly format: both file kinds are read by `schema.read_hourly_csv`


def _write_weather(path):
    weather.save_week(path, weather.generate_pool(0, 1)[0])


def _write_trace(path):
    rng = stream(8, "trace")
    SensorTrace(20 + rng.normal(size=168), 100 + 10 * rng.normal(size=168)).save_csv(path)


def _load_trace(path):
    trace = SensorTrace.load_csv(path)
    return np.column_stack([trace.t_int, trace.q_heat])


HOURLY_FORMATS = {
    "weather": (_write_weather, lambda p: weather.load_week(p).data),
    "trace": (_write_trace, _load_trace),
}


def _relabel(rows, hours):
    return [f"{h}," + row.split(",", 1)[1] for h, row in zip(hours, rows)]


# name -> (edit of the file's lines, the error's match; None: the file loads)
HOURLY_CASES = {
    "wrong_header": (lambda ls: ["hour,wrong,header", *ls[1:]], "header"),
    "short_row": (lambda ls: [*ls[:4], ls[4].rsplit(",", 1)[0], *ls[5:]], "line 5: "),
    "extra_field": (lambda ls: [*ls[:4], ls[4] + ",junk", *ls[5:]], "line 5: "),
    "non_numeric": (lambda ls: [*ls[:3], ls[3].rsplit(",", 1)[0] + ",oops", *ls[4:]], "line 4: "),
    "nan_cell": (lambda ls: [*ls[:3], ls[3].rsplit(",", 1)[0] + ",nan", *ls[4:]], "non-finite"),
    "hours_reversed": (lambda ls: [ls[0], *_relabel(ls[1:], range(167, -1, -1))], "line 2: hour"),
    "repeated_hour": (lambda ls: [*ls[:8], *_relabel([ls[8]], [6]), *ls[9:]], "line 9: hour"),
    "167_rows": (lambda ls: ls[:-1], "expected 168 rows, got 167"),
    "blank_lines": (lambda ls: [*ls[:5], "", "  ", *ls[5:], ""], None),
}


@pytest.mark.parametrize("case", HOURLY_CASES)
@pytest.mark.parametrize("fmt", HOURLY_FORMATS)
def test_hourly_csv_errors(tmp_path, fmt, case):
    write, load = HOURLY_FORMATS[fmt]
    edit, match = HOURLY_CASES[case]
    good, bad = tmp_path / "good.csv", tmp_path / "bad.csv"
    write(good)
    bad.write_text("\n".join(edit(good.read_text().splitlines())) + "\n")
    if match is None:
        np.testing.assert_array_equal(load(bad), load(good))
        return
    with pytest.raises(sc.SchemaError, match=match) as info:
        load(bad)
    assert str(info.value).count(str(bad)) == 1
