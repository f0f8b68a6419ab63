"""Tests for the figure entry points and reporting (reduced scale)."""

import pytest

from repro.experiments import figures
from repro.experiments.figures import FigureData
from repro.experiments.reporting import (
    csv_string,
    format_table,
    summarize_crossovers,
    write_csv,
)

# Reduced-scale arguments shared by the figure smoke tests.
QUICK = dict(num_requests=300, seed=5)


class TestFigureData:
    def test_add_series_validates_length(self):
        data = FigureData("F", "t", "x", [1, 2, 3])
        with pytest.raises(ValueError):
            data.add_series("bad", [1.0])

    def test_row_iter(self):
        data = FigureData("F", "t", "x", [1, 2])
        data.add_series("a", [10.0, 20.0])
        rows = list(data.row_iter())
        assert rows == [(1, {"a": 10.0}), (2, {"a": 20.0})]


class TestTable1Figure:
    def test_exact_paper_values(self):
        data = figures.table1()
        flat = data.series["flat"]
        skewed = data.series["skewed"]
        multidisk = data.series["multidisk"]
        assert flat == pytest.approx([1.5] * 5)
        assert skewed == pytest.approx([1.75, 1.625, 1.4375, 1.325, 1.25])
        assert multidisk == pytest.approx([5 / 3, 1.5, 1.25, 1.10, 1.0])


class TestFigureSmoke:
    """Each figure function runs end-to-end at tiny scale and returns
    series with the right shape."""

    def test_figure5(self):
        data = figures.figure5(deltas=(0, 3), presets=("D1", "D5"), **QUICK)
        assert set(data.series) == {"D1<500,4500>", "D5<500,2000,2500>"}
        for series in data.series.values():
            assert len(series) == 2
            assert all(value > 0 for value in series)

    def test_figure6(self):
        data = figures.figure6(deltas=(0, 3), noises=(0.0, 0.75), **QUICK)
        assert set(data.series) == {"Noise 0%", "Noise 75%"}

    def test_figure7(self):
        data = figures.figure7(deltas=(3,), noises=(0.30,), **QUICK)
        assert list(data.series) == ["Noise 30%"]

    def test_figure8(self):
        data = figures.figure8(
            deltas=(3,), noises=(0.30,), cache_size=100, **QUICK
        )
        assert "Figure 8" == data.figure

    def test_figure9(self):
        data = figures.figure9(
            deltas=(3,), noises=(0.30,), cache_size=100, **QUICK
        )
        assert list(data.series) == ["Noise 30%"]

    def test_figure10(self):
        data = figures.figure10(
            noises=(0.0, 0.30), deltas=(3,), cache_size=100, **QUICK
        )
        assert set(data.series) == {"P Δ=3", "PIX Δ=3", "Flat Δ=0"}
        flat = data.series["Flat Δ=0"]
        assert flat[0] == flat[1]  # constant baseline

    def test_figure11(self):
        data = figures.figure11(cache_size=100, **QUICK)
        assert data.x_values == ["cache", "disk1", "disk2", "disk3"]
        for series in data.series.values():
            assert sum(series) == pytest.approx(1.0)

    def test_figure13(self):
        data = figures.figure13(
            deltas=(3,), cache_size=100, policies=("LRU", "LIX"), **QUICK
        )
        assert set(data.series) == {"LRU", "LIX"}

    def test_figure14(self):
        data = figures.figure14(
            cache_size=100, policies=("LRU", "LIX"), **QUICK
        )
        for series in data.series.values():
            assert sum(series) == pytest.approx(1.0)

    def test_figure15(self):
        data = figures.figure15(
            noises=(0.0, 0.30), cache_size=100, policies=("LIX",), **QUICK
        )
        assert len(data.series["LIX"]) == 2

    @pytest.mark.parametrize("builder, kwargs", [
        (figures.figure10, dict(noises=(0.30,), deltas=(3,))),
        (figures.figure11, {}),
        (figures.figure14, dict(policies=("LIX",))),
    ], ids=["figure10", "figure11", "figure14"])
    def test_title_names_the_cache_size(self, builder, kwargs):
        data = builder(cache_size=100, **kwargs, **QUICK)
        assert "CacheSize=100" in data.title
        assert "CacheSize=500" not in data.title

    def test_bus_stop_paradox(self):
        data = figures.bus_stop_paradox(seed=5, random_trials=4)
        delays = dict(zip(data.x_values, data.series["expected delay"]))
        assert delays["multidisk"] <= delays["skewed"]
        assert delays["multidisk"] <= delays["random"]

    def test_policy_zoo(self):
        data = figures.policy_zoo(
            num_requests=300, cache_size=100, policies=("LRU", "LIX"), seed=5
        )
        assert len(data.series["response time"]) == 2
        assert len(data.series["hit rate"]) == 2


class TestReporting:
    @pytest.fixture
    def sample(self):
        data = FigureData("Figure X", "demo", "delta", [0, 1])
        data.add_series("flat", [250.0, 250.0])
        data.add_series("multi", [250.0, 180.0])
        data.notes = "a note"
        return data

    def test_format_table_contains_everything(self, sample):
        text = format_table(sample)
        assert "Figure X" in text
        assert "flat" in text and "multi" in text
        assert "250.00" in text and "180.00" in text
        assert "a note" in text

    def test_csv_string(self, sample):
        text = csv_string(sample)
        lines = text.strip().splitlines()
        assert lines[0] == "delta,flat,multi"
        assert lines[1] == "0,250.0,250.0"

    def test_write_csv(self, sample, tmp_path):
        path = tmp_path / "figure.csv"
        write_csv(sample, str(path))
        assert path.read_text().startswith("delta,flat,multi")

    def test_ascii_chart_layout(self, sample):
        from repro.experiments.reporting import ascii_chart

        text = ascii_chart(sample, height=6, width=20)
        lines = text.splitlines()
        assert lines[0].startswith("Figure X — ascii view")
        body = [line for line in lines if line.startswith("|")]
        assert len(body) == 6
        assert all(len(line) == 21 for line in body)
        assert "F=flat" in lines[-1] and "M=multi" in lines[-1]

    def test_ascii_chart_marker_collision_uses_digits(self):
        from repro.experiments.reporting import ascii_chart

        data = FigureData("F", "t", "x", [0, 1])
        data.add_series("alpha", [1.0, 2.0])
        data.add_series("aleph", [2.0, 1.0])
        text = ascii_chart(data)
        assert "A=alpha" in text
        assert "1=aleph" in text

    def test_ascii_chart_validation(self, sample):
        from repro.experiments.reporting import ascii_chart

        with pytest.raises(ValueError):
            ascii_chart(sample, height=2)
        with pytest.raises(ValueError):
            ascii_chart(sample, width=4)

    def test_ascii_chart_non_numeric_series(self):
        from repro.experiments.reporting import ascii_chart

        data = FigureData("F", "t", "x", [0])
        data.add_series("labels", ["oops"])
        assert "no numeric series" in ascii_chart(data)

    def test_summarize_crossovers(self, sample):
        text = summarize_crossovers(sample, reference=200.0)
        assert "flat: crosses 200 at 0" in text
        assert "multi: crosses 200 at 0" in text
        below = summarize_crossovers(sample, reference=300.0)
        assert "stays below" in below
