"""Loading, period indexing and the validation catalog."""

import dataclasses
from datetime import datetime

import pytest

from helpers import fixture_instance, make_instance, make_unit, write_instance_files
from ucdispatch.errors import (
    DuplicatePeriod,
    IoFailure,
    MalformedNumber,
    MissingColumn,
    MissingPeriod,
    UnknownFuelReference,
)
from ucdispatch.instance import (
    UNIT_COLUMNS,
    StartupCostCurve,
    load_instance,
    period_index,
    validate,
)


def ts(text):
    return datetime.strptime(text, "%Y-%m-%d %H:%M:%S")


class TestPeriodIndex:
    start = ts("2009-05-11 00:00:00")

    def test_zero_elapsed_time_is_period_one(self):
        assert period_index(self.start, self.start, 1.0) == 1

    def test_five_hours_hourly_periods(self):
        assert period_index(ts("2009-05-11 05:00:00"), self.start, 1.0) == 6

    def test_next_day_daily_periods(self):
        assert period_index(ts("2009-05-12 00:00:00"), self.start, 24.0) == 2

    def test_jitter_guard_absorbs_early_timestamps(self):
        # a few seconds early still lands in the intended period
        assert period_index(ts("2009-05-11 04:59:59"), self.start, 1.0) == 6

    @pytest.mark.parametrize("hour,expected", [(0, 1), (1, 2), (11, 12), (23, 24)])
    def test_hourly_grid(self, hour, expected):
        stamp = ts(f"2009-05-11 {hour:02d}:00:00")
        assert period_index(stamp, self.start, 1.0) == expected


class TestLoadInstance:
    def test_round_trip_two_units(self, tmp_path):
        original = make_instance(
            [make_unit(1), make_unit(2, p_min=0.0, p_max=120.5, fuel_type="coal",
                       var_fuel=1.5, fixed_fuel=0.25, shutdown_cost=12.0)],
            demand=(100.0, 150.0),
            reserve=(5.0, 7.5),
            fuel_cost={"gas": (1.25, 2.5), "coal": (0.5, 0.75)},
            curves={1: StartupCostCurve(1, {1: 500.0, 2: 600.0}),
                    2: StartupCostCurve(2, {1: 30.0})},
        )
        paths = write_instance_files(original, tmp_path)
        loaded = load_instance(*paths)
        assert loaded == original
        assert len(loaded.units) == 2
        assert loaded.num_periods == 2

    def test_every_units_column_loads_into_its_field(self, tmp_path):
        paths = write_instance_files(fixture_instance(), tmp_path)
        cells = ["7", "2", "3", "4", "5", *(f"{i}.5" for i in range(6, 17)), " gas ",
                 *(f"{i}.25" for i in range(18, 23))]
        paths[1].write_text(",".join(UNIT_COLUMNS) + "\n" + ",".join(cells) + "\n")
        (unit,) = load_instance(*paths).units
        assert dataclasses.astuple(unit) == (
            7, 2, 3, 4, 5, *(i + 0.5 for i in range(6, 17)), "gas",
            *(i + 0.25 for i in range(18, 23)))

    @pytest.mark.parametrize("column", [c for c in UNIT_COLUMNS if c != "F"])
    def test_first_bad_units_cell_names_its_column(self, tmp_path, column):
        # every number cell from this column on is bad; the first is reported
        paths = write_instance_files(fixture_instance(), tmp_path)
        header, row = paths[1].read_text().splitlines()
        cells = row.split(",")
        for i in range(UNIT_COLUMNS.index(column), len(cells)):
            if UNIT_COLUMNS[i] != "F":
                cells[i] = "x"
        paths[1].write_text(f"{header}\n{','.join(cells)}\n")
        with pytest.raises(MalformedNumber,
                           match=f"units.csv:2 {column}: cannot parse 'x'"):
            load_instance(*paths)

    def test_missing_units_column(self, tmp_path):
        paths = write_instance_files(fixture_instance(), tmp_path)
        units = paths[1]
        lines = units.read_text().splitlines()
        header = lines[0].split(",")
        drop = header.index("SD")
        rewritten = [",".join(cell for i, cell in enumerate(line.split(","))
                              if i != drop) for line in lines]
        units.write_text("\n".join(rewritten) + "\n")
        with pytest.raises(MissingColumn):
            load_instance(*paths)

    def test_missing_period(self, tmp_path):
        paths = write_instance_files(fixture_instance(), tmp_path)
        periods = paths[3]
        lines = periods.read_text().splitlines()
        periods.write_text("\n".join(lines[:2]) + "\n")  # keep only period 1
        with pytest.raises(MissingPeriod):
            load_instance(*paths)

    def test_duplicate_period(self, tmp_path):
        paths = write_instance_files(fixture_instance(), tmp_path)
        periods = paths[3]
        lines = periods.read_text().splitlines()
        periods.write_text("\n".join(lines + [lines[1]]) + "\n")
        with pytest.raises(DuplicatePeriod):
            load_instance(*paths)

    def test_duplicate_startup_row(self, tmp_path):
        # the later row used to win: thinning printed a step of 50000
        paths = write_instance_files(fixture_instance(), tmp_path)
        startup = paths[2]
        startup.write_text(startup.read_text() + "1,1,50000.0\n")
        with pytest.raises(DuplicatePeriod,
                           match=r"units_cu\.csv:3: unit 1 already has a row for k = 1, "
                                 r"on line 2"):
            load_instance(*paths)

    def test_rows_outside_horizon_are_dropped(self, tmp_path):
        paths = write_instance_files(fixture_instance(), tmp_path)
        periods = paths[3]
        lines = periods.read_text().splitlines()
        extra = lines[1].replace("2009-05-11 00:00:00", "2009-05-20 00:00:00")
        periods.write_text("\n".join(lines + [extra]) + "\n")
        loaded = load_instance(*paths)
        assert loaded == fixture_instance()

    def test_malformed_number(self, tmp_path):
        paths = write_instance_files(fixture_instance(), tmp_path)
        units = paths[1]
        units.write_text(units.read_text().replace("200.0", "2oo.o"))
        with pytest.raises(MalformedNumber):
            load_instance(*paths)

    @pytest.mark.parametrize("p_max", [float("inf"), float("-inf")])
    def test_infinite_number(self, tmp_path, p_max):
        instance = make_instance([make_unit(p_max=p_max)], demand=(100.0, 150.0))
        paths = write_instance_files(instance, tmp_path)
        with pytest.raises(MalformedNumber, match="P_max: .* not a finite number"):
            load_instance(*paths)

    def test_unknown_fuel_reference(self, tmp_path):
        paths = write_instance_files(fixture_instance(), tmp_path)
        periods = paths[3]
        periods.write_text(periods.read_text().replace("FC_gas", "FC_oil"))
        with pytest.raises(UnknownFuelReference):
            load_instance(*paths)

    def test_duplicate_config_key(self, tmp_path):
        # the later line used to win: the model was built with UPP = 5
        paths = write_instance_files(fixture_instance(), tmp_path)
        config = paths[0]
        config.write_text(config.read_text() + "UPP = 5\n")
        with pytest.raises(DuplicatePeriod,
                           match=r"config\.txt:8: UPP is already set on line 4"):
            load_instance(*paths)

    def test_missing_file(self, tmp_path):
        paths = write_instance_files(fixture_instance(), tmp_path)
        with pytest.raises(IoFailure):
            load_instance(paths[0], tmp_path / "nope.csv", paths[2], paths[3])

    def test_missing_config_key(self, tmp_path):
        paths = write_instance_files(fixture_instance(), tmp_path)
        config = paths[0]
        config.write_text("\n".join(
            line for line in config.read_text().splitlines()
            if not line.startswith("UPP")))
        with pytest.raises(MissingColumn):
            load_instance(*paths)

    def test_config_domain_checks(self, tmp_path):
        paths = write_instance_files(fixture_instance(), tmp_path)
        config = paths[0]
        text = config.read_text()
        config.write_text(text.replace("L = 1.0", "L = 0.0"))
        with pytest.raises(MalformedNumber):
            load_instance(*paths)
        config.write_text(text.replace("STARTUP_TOL = 0.05", "STARTUP_TOL = 1.5"))
        with pytest.raises(MalformedNumber):
            load_instance(*paths)

    def test_config_overrides(self, tmp_path):
        paths = write_instance_files(fixture_instance(), tmp_path)
        loaded = load_instance(*paths, overrides={"UPP": "123.0"})
        assert loaded.general.under_prod_penalty == 123.0


def single_unit_instance(**unit_overrides):
    curves = unit_overrides.pop("curves", None)
    return make_instance([make_unit(**unit_overrides)], demand=(100.0, 150.0),
                         curves=curves)


class TestValidate:
    def test_clean_instance(self, fixture_inst):
        report = validate(fixture_inst)
        assert report.ok
        assert len(report) == 0

    def test_impossible_production_limits(self):
        report = validate(single_unit_instance(
            p_min=250.0, p_max=200.0, startup_ramp=300.0, shutdown_ramp=300.0))
        assert [r.code for r in report.errors()] == ["impossible-production-limits"]
        assert report.errors()[0].message == "Impossible production limits!"

    def test_simultaneous_initial_state(self):
        report = validate(single_unit_instance(initial_uptime=3,
                                               initial_downtime=2))
        # IUT=3 exceeds T=2 as well, so filter for the code of interest
        assert "simultaneous-initial-state" in report.codes()
        messages = {r.code: r.message for r in report}
        assert messages["simultaneous-initial-state"] == \
            "Simultaneous initial down- and uptime!"

    def test_decreasing_startup_costs(self):
        report = validate(single_unit_instance(
            curves={1: StartupCostCurve(1, {1: 500.0, 2: 400.0})}))
        assert report.codes() == {"decreasing-startup-costs"}
        assert "not monotonically increasing" in report.errors()[0].message

    def test_negative_startup_cost_is_decreasing(self):
        report = validate(single_unit_instance(
            curves={1: StartupCostCurve(1, {1: -5.0, 2: 10.0})}))
        assert report.codes() == {"decreasing-startup-costs"}

    def test_capacity_shortfall_is_warning(self):
        instance = make_instance([make_unit()], demand=(250.0, 100.0))
        report = validate(instance)
        assert report.ok  # warnings only
        shortfalls = [r for r in report if r.code == "capacity-shortfall"]
        assert len(shortfalls) == 1
        assert shortfalls[0].period == 1
        assert shortfalls[0].severity == "warning"

    def test_idempotent(self):
        instance = single_unit_instance(p_min=250.0, p_max=200.0)
        assert validate(instance) == validate(instance)

    def test_storage_reachability_both_directions(self):
        # cannot fill: SF far above anything reachable
        report = validate(single_unit_instance(
            p_min=-10.0, storage_capacity=1e6, storage_efficiency=1.0,
            initial_storage=0.0, final_storage=1e5))
        assert "final-storage-unreachable" in report.codes()
        # max drain over T=2 hourly periods is 400 MWh at P_max=200
        report = validate(single_unit_instance(
            p_min=-10.0, storage_capacity=1e6, storage_efficiency=1.0,
            initial_storage=300.0, final_storage=0.0))
        assert "final-storage-overfull" not in report.codes()
        report = validate(single_unit_instance(
            p_max=10.0, p_min=-10.0, storage_capacity=1e6,
            storage_efficiency=1.0, storage_inflow=9.0,
            initial_storage=1000.0, final_storage=0.0))
        # max drain is L*T*(P_max - SIF) = 2 MWh; 1000 -> 0 impossible
        assert "final-storage-overfull" in report.codes()

    def test_duplicate_unit_id_rejected(self):
        instance = make_instance([make_unit(1), make_unit(1)], demand=(100.0, 150.0))
        report = validate(instance)
        assert report.codes() == {"duplicate-unit-id"}
        assert [r.unit for r in report.errors()] == [1]

    def test_negative_unit_id_rejected(self):
        instance = make_instance([make_unit(-1)], demand=(100.0, 150.0))
        report = validate(instance)
        assert report.codes() == {"negative-unit-id"}
        assert report.errors()[0].unit == -1

    @pytest.mark.parametrize("field", ["ramp_up", "ramp_down", "startup_ramp",
                                       "shutdown_ramp"])
    def test_negative_ramp_rate_rejected(self, field):
        report = validate(single_unit_instance(**{field: -5.0}))
        ramp_errors = [r for r in report.errors() if r.code == "negative-ramp-rate"]
        assert [r.unit for r in ramp_errors] == [1]
        if field == "ramp_up":
            assert report.codes() == {"negative-ramp-rate"}

    def test_negative_demand_rejected(self):
        instance = make_instance([make_unit()], demand=(-5.0, 100.0))
        report = validate(instance)
        assert "negative-demand" in report.codes()
        assert not report.ok
