package fleet

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"repro/internal/snap"
	"repro/internal/units"
)

// distinctCounters sets every Counters field, found by reflection, to a
// distinct non-zero value — so a counter added later is covered here
// without editing this file, and a codec that forgets it fails below.
func distinctCounters(t *testing.T) Counters {
	t.Helper()
	var c Counters
	n := int64(0)
	var fill func(v reflect.Value)
	fill = func(v reflect.Value) {
		for i := 0; i < v.NumField(); i++ {
			f := v.Field(i)
			n++
			switch f.Kind() {
			case reflect.Struct:
				fill(f)
			case reflect.Int64:
				f.SetInt(n * 1_000_003)
			case reflect.Uint64:
				f.SetUint(uint64(n * 1_000_003))
			default:
				t.Fatalf("Counters field %s is a %v; teach distinctCounters and the codecs about it",
					v.Type().Field(i).Name, f.Kind())
			}
		}
	}
	fill(reflect.ValueOf(&c).Elem())
	return c
}

// deadResult is one dead device carrying c.
func deadResult(c Counters) DeviceResult {
	return DeviceResult{
		Index: 0, Seed: 77, Scenario: "idle",
		BatteryLeft: 5, Died: true, DiedAt: 3 * units.Hour, Utilization: 12.5,
		Counters: c,
	}
}

// TestCountersRoundTrip: every Counters field survives each codec that
// carries it — the epoch record, the shard partial's JSON, and the
// aggregate's add/finish — unchanged.
func TestCountersRoundTrip(t *testing.T) {
	c := distinctCounters(t)
	res := deadResult(c)

	t.Run("epoch record", func(t *testing.T) {
		blob, err := snap.Save(res.codec)
		if err != nil {
			t.Fatal(err)
		}
		var back DeviceResult
		if err := snap.Load(blob, back.codec); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(back, res) {
			t.Fatalf("load(save(r)) =\n%+v\nwant\n%+v", back, res)
		}
	})

	cfg := Config{Devices: 1, Seed: 77, Duration: 6 * units.Hour, Scenario: IdleScenario{}}
	agg := newAggregate()
	agg.add(res)

	t.Run("partial", func(t *testing.T) {
		b, err := packPartial(cfg, agg).JSON()
		if err != nil {
			t.Fatal(err)
		}
		p, err := ParsePartial(b)
		if err != nil {
			t.Fatal(err)
		}
		back := p.unpack().byName["idle"]
		if back == nil || back.sum != c {
			t.Fatalf("partial round trip: bucket sum %+v, want %+v", back, c)
		}
	})

	t.Run("aggregate", func(t *testing.T) {
		rep := agg.finish(cfg.identity())
		if len(rep.Buckets) != 1 {
			t.Fatalf("%d buckets, want 1", len(rep.Buckets))
		}
		bk := rep.Buckets[0]
		// finish reports busy/idle ticks only as a percentage, checked
		// here; every other counter must read back as itself.
		want := utilizationPct(c.BusyTicks, c.IdleTicks)
		if bk.MeanUtilization != want || rep.MeanUtilization != want {
			t.Fatalf("utilization bucket %v fleet %v, want %v", bk.MeanUtilization, rep.MeanUtilization, want)
		}
		fromBucket := Counters{
			Consumed: bk.TotalConsumed, Recharged: bk.Recharged, Reclaimed: bk.Reclaimed,
			BusyTicks: c.BusyTicks, IdleTicks: c.IdleTicks,
			RadioActivations: bk.Activations, Polls: bk.Polls, Pages: bk.Pages, PowerUps: bk.PowerUps,
			SMSSent: bk.SMSSent, CallsPlaced: bk.Calls,
			Diagnostics: bk.Mean,
		}
		if fromBucket != c {
			t.Fatalf("bucket reads back %+v, want %+v", fromBucket, c)
		}
		fromTotals := Counters{
			Consumed: rep.TotalConsumed, Recharged: rep.TotalRecharged, Reclaimed: rep.TotalReclaimed,
			BusyTicks: c.BusyTicks, IdleTicks: c.IdleTicks,
			RadioActivations: rep.TotalActivations, Polls: rep.TotalPolls, PowerUps: rep.TotalPowerUps,
			// Pages, SMS and calls are reported per bucket only.
			Pages: c.Pages, SMSSent: c.SMSSent, CallsPlaced: c.CallsPlaced,
			Diagnostics: Diagnostics{
				EngineSteps:    rep.TotalEngineSteps,
				FlowWalks:      rep.TotalFlowWalks,
				SettledBatches: rep.TotalSettledBatches,
				SettledSweeps:  rep.TotalSettledSweeps,
				SettledCharges: rep.TotalSettledCharges,
			},
		}
		if fromTotals != c {
			t.Fatalf("fleet totals read back %+v, want %+v", fromTotals, c)
		}
	})
}

// TestCanonicalZeroesExactlyDiagnostics: the canonical report and NDJSON
// differ from the full forms in exactly the Diagnostics fields (under
// their mean_* names in buckets), each non-zero in full and zero or
// omitted in canonical form.
func TestCanonicalZeroesExactlyDiagnostics(t *testing.T) {
	diag := map[string]bool{}
	dt := reflect.TypeOf(Diagnostics{})
	for i := 0; i < dt.NumField(); i++ {
		name, _, _ := strings.Cut(dt.Field(i).Tag.Get("json"), ",")
		diag[name], diag["mean_"+name] = true, true
	}

	res := deadResult(distinctCounters(t))
	cfg := Config{Devices: 1, Seed: 77, Duration: 6 * units.Hour, Scenario: IdleScenario{}}
	agg := newAggregate()
	agg.add(res)
	rep := agg.finish(cfg.identity())
	rep.Results = []DeviceResult{res}

	decode := func(b []byte, err error) any {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		var v any
		if err := json.Unmarshal(b, &v); err != nil {
			t.Fatal(err)
		}
		return v
	}
	seen := map[string]bool{}
	var compare func(path string, full, canon any)
	compare = func(path string, full, canon any) {
		switch f := full.(type) {
		case map[string]any:
			c, _ := canon.(map[string]any)
			for k, fv := range f {
				if diag[k] {
					seen[k] = true
					if fv == 0.0 {
						t.Errorf("%s.%s is zero in full output; the fixture should set it", path, k)
					}
					if cv, ok := c[k]; ok && cv != 0.0 {
						t.Errorf("%s.%s = %v in canonical output, want zero", path, k, cv)
					}
					continue
				}
				compare(path+"."+k, fv, c[k])
			}
			for k := range c {
				if _, ok := f[k]; !ok {
					t.Errorf("%s.%s only in canonical output", path, k)
				}
			}
		case []any:
			c, _ := canon.([]any)
			if len(c) != len(f) {
				t.Fatalf("%s: %d entries in full output, %d in canonical", path, len(f), len(c))
			}
			for i := range f {
				compare(path, f[i], c[i])
			}
		default:
			if !reflect.DeepEqual(full, canon) {
				t.Errorf("%s = %v in full output, %v in canonical: a non-diagnostic changed", path, full, canon)
			}
		}
	}
	compare("report", decode(rep.JSON(true)), decode(rep.CanonicalJSON(true)))
	compare("ndjson", decode(res.NDJSON(false)), decode(res.NDJSON(true)))
	for k := range diag {
		if !seen[k] {
			t.Errorf("diagnostic %q never appeared in the full output", k)
		}
	}
}
