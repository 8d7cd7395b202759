"""Synthetic weather generator and weekly CSV round-trips."""

import numpy as np
import pytest

from bemopt import weather
from bemopt import schema as sc
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

    def test_malformed_file_reports_line(self, tmp_path):
        p = tmp_path / "bad.csv"
        lines = ["hour," + ",".join(sc.WEATHER_CHANNELS), "0," + ",".join(["1"] * 7), "1,oops"]
        p.write_text("\n".join(lines) + "\n")
        with pytest.raises(sc.SchemaError, match="line 3"):
            weather.load_week(p)

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
