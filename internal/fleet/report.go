package fleet

import (
	"encoding/json"
	"fmt"
	"slices"
	"strings"

	"repro/internal/units"
)

// Report is the deterministic aggregate of a fleet run. Its JSON tags
// are the report's stable wire form, and its fields are in wire order:
// JSON and CanonicalJSON marshal it directly, so a new report field is
// one tagged field here. The form deliberately excludes the resolved
// worker count and anything wall-clock-derived: for a fixed (seed,
// devices, scenario, duration) the marshalled bytes are identical
// regardless of parallelism — and regardless of shard count, which
// -merge relies on. Energies are microjoules, times milliseconds (the
// package's native units). docs/fleet-report.md documents every field.
type Report struct {
	Scenario string     `json:"scenario"`
	Devices  int        `json:"devices"`
	Seed     int64      `json:"seed"`
	Duration units.Time `json:"duration_ms"`
	Workers  int        `json:"-"`

	TotalConsumed units.Energy `json:"total_consumed_uj"`
	MeanConsumed  units.Energy `json:"mean_consumed_uj"`
	MinConsumed   units.Energy `json:"min_consumed_uj"`
	MaxConsumed   units.Energy `json:"max_consumed_uj"`

	// TotalRecharged is external charger energy credited fleet-wide;
	// TotalReclaimed is hoarded energy the anti-hoarding decay pulled
	// back (both zero on scenarios without chargers / hoard probes).
	TotalRecharged units.Energy `json:"recharged_uj,omitempty"`
	TotalReclaimed units.Energy `json:"reclaimed_uj,omitempty"`

	// MeanUtilization is the fleet-wide CPU busy percentage:
	// 100·Σbusy/Σ(busy+idle) over all devices. The tick sums (not the
	// ratio) are what aggregation carries, so sharded runs merge
	// exactly.
	MeanUtilization float64 `json:"mean_utilization_pct"`

	TotalPolls       int64 `json:"polls"`
	TotalActivations int64 `json:"radio_activations"`
	TotalPowerUps    int64 `json:"netd_power_ups"`

	// Dead counts devices whose battery ran out; LifeP50/LifeP90 are
	// nearest-rank percentiles of time-to-exhaustion across dead
	// devices (0 when none died), read from a mergeable log-linear
	// quantile sketch with ≤ 2⁻⁷ relative error — the report is exact
	// in counts and sums, approximate only in these two fields.
	Dead    int        `json:"dead"`
	LifeP50 units.Time `json:"life_p50_ms"`
	LifeP90 units.Time `json:"life_p90_ms"`

	// Engine-level diagnostics (zeroed in CanonicalJSON): executed
	// instants, per-batch flow walks and closed-form-settled batches
	// summed over the fleet. CI diffs these across worker counts and
	// watches them for busy-path perf regressions.
	TotalEngineSteps    uint64 `json:"engine_steps"`
	TotalFlowWalks      int64  `json:"flow_walks"`
	TotalSettledBatches int64  `json:"settled_batches"`
	TotalSettledSweeps  int64  `json:"settled_sweeps"`
	TotalSettledCharges int64  `json:"settled_charges,omitempty"`

	// Buckets break the fleet down per scenario bucket, sorted by
	// name. Single-scenario runs have exactly one bucket; Mix fleets
	// have one per entry that was assigned at least one device.
	Buckets []Bucket `json:"buckets"`

	// Results marshal as deviceJSON records (see marshalJSON).
	Results []DeviceResult `json:"-"`
}

// Bucket is the aggregate over the devices assigned one scenario bucket
// of a (possibly mixed) fleet. Like Report, its tags are its wire form
// and its fields are in wire order.
type Bucket struct {
	Name    string `json:"name"`
	Devices int    `json:"devices"`

	TotalConsumed units.Energy `json:"total_consumed_uj"`
	MeanConsumed  units.Energy `json:"mean_consumed_uj"`

	// Recharged and Reclaimed are the bucket's charger credits and
	// anti-hoarding reclamation sums — the per-cohort split is what the
	// §5.2.2 containment measurement reads (hoarder bucket's Reclaimed
	// against victim bucket's LifeP50).
	Recharged units.Energy `json:"recharged_uj,omitempty"`
	Reclaimed units.Energy `json:"reclaimed_uj,omitempty"`

	MeanUtilization float64 `json:"mean_utilization_pct"`

	Polls       int64 `json:"polls"`
	Pages       int64 `json:"pages"`
	Activations int64 `json:"radio_activations"`
	PowerUps    int64 `json:"netd_power_ups"`
	SMSSent     int64 `json:"sms_sent"`
	Calls       int64 `json:"calls_placed"`

	// MeanDiagnostics is the per-device mean of every engine
	// diagnostic (EngineSteps measures how deeply the quiescence fast
	// path was engaged), embedded so its mean_* fields inline.
	MeanDiagnostics

	Dead    int        `json:"dead"`
	LifeP50 units.Time `json:"life_p50_ms"`
	LifeP90 units.Time `json:"life_p90_ms"`
}

// MeanDiagnostics is Diagnostics under a bucket's mean_* wire names;
// the two convert into each other (conversion ignores tags).
type MeanDiagnostics struct {
	EngineSteps    uint64 `json:"mean_engine_steps"`
	FlowWalks      int64  `json:"mean_flow_walks"`
	SettledBatches int64  `json:"mean_settled_batches"`
	SettledSweeps  int64  `json:"mean_settled_sweeps"`
	SettledCharges int64  `json:"mean_settled_charges,omitempty"`
}

// Format renders the report as a stable text block (the cinder-fleet
// CLI's output). It deliberately omits the resolved worker count —
// everything printed here is byte-identical for a fixed (seed, devices,
// scenario, duration) regardless of parallelism, which the package
// tests assert.
func (r Report) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "fleet: %d devices × %v, scenario %q, seed %d\n",
		r.Devices, r.Duration, r.Scenario, r.Seed)
	fmt.Fprintf(&b, "  consumed: total %v, mean %v, min %v, max %v\n",
		r.TotalConsumed, r.MeanConsumed, r.MinConsumed, r.MaxConsumed)
	if r.TotalRecharged > 0 || r.TotalReclaimed > 0 {
		fmt.Fprintf(&b, "  recharged: total %v, hoard reclaimed: %v\n",
			r.TotalRecharged, r.TotalReclaimed)
	}
	fmt.Fprintf(&b, "  cpu utilization: mean %.3f%%\n", r.MeanUtilization)
	fmt.Fprintf(&b, "  polls: %d, radio activations: %d, netd power-ups: %d\n",
		r.TotalPolls, r.TotalActivations, r.TotalPowerUps)
	if r.Dead > 0 {
		fmt.Fprintf(&b, "  battery deaths: %d/%d, life p50 %v, p90 %v\n",
			r.Dead, r.Devices, r.LifeP50, r.LifeP90)
	} else {
		fmt.Fprintf(&b, "  battery deaths: 0/%d\n", r.Devices)
	}
	if len(r.Buckets) > 1 {
		b.WriteString("  mix buckets:\n")
		for _, bk := range r.Buckets {
			fmt.Fprintf(&b, "    %-14s %4d devices, mean %v, polls %d, pages %d, sms %d, calls %d, deaths %d",
				bk.Name, bk.Devices, bk.MeanConsumed, bk.Polls, bk.Pages, bk.SMSSent, bk.Calls, bk.Dead)
			if bk.Dead > 0 {
				fmt.Fprintf(&b, " (life p50 %v, p90 %v)", bk.LifeP50, bk.LifeP90)
			}
			b.WriteString("\n")
		}
	}
	return b.String()
}

// deviceJSON is a device result's wire form: the entries of the
// report's results array and the records the NDJSON emitter streams.
// It stays hand-listed rather than riding Counters' tags: its field
// order (consumed_uj, battery_left_uj, recharged_uj, …, died,
// utilization_pct) interleaves DeviceResult's own fields with the
// counters, and it omits busy_ticks and idle_ticks, which a partial's
// bucket sums (Counters' tags) must carry.
type deviceJSON struct {
	Index         int     `json:"index"`
	Seed          int64   `json:"seed"`
	Scenario      string  `json:"scenario"`
	ConsumedUJ    int64   `json:"consumed_uj"`
	BatteryLeftUJ int64   `json:"battery_left_uj"`
	RechargedUJ   int64   `json:"recharged_uj,omitempty"`
	ReclaimedUJ   int64   `json:"reclaimed_uj,omitempty"`
	Died          bool    `json:"died"`
	DiedAtMS      int64   `json:"died_at_ms,omitempty"`
	Utilization   float64 `json:"utilization_pct"`
	Activations   int64   `json:"radio_activations"`
	Polls         int64   `json:"polls"`
	Pages         int64   `json:"pages"`
	PowerUps      int64   `json:"netd_power_ups"`
	SMSSent       int64   `json:"sms_sent"`
	Calls         int64   `json:"calls_placed"`
	Diagnostics
}

// JSON renders the report as deterministic, worker-count-independent
// indented JSON. perDevice includes the per-device result array.
func (r Report) JSON(perDevice bool) ([]byte, error) {
	return r.marshalJSON(perDevice, false)
}

// CanonicalJSON renders the report with every Diagnostics (executed
// instants, flow walks, settled batches, sweeps and charges) zeroed:
// the bytes that must be identical across engine and settlement modes —
// and across checkpointed, resumed, sharded and merged runs — which the
// invariance suites assert. Everything energy- or workload-shaped —
// consumption, lifetimes, utilization, polls, pages, SMS, calls —
// stays.
func (r Report) CanonicalJSON(perDevice bool) ([]byte, error) {
	return r.marshalJSON(perDevice, true)
}

func (r Report) marshalJSON(perDevice, canonical bool) ([]byte, error) {
	if canonical {
		r.TotalEngineSteps, r.TotalFlowWalks = 0, 0
		r.TotalSettledBatches, r.TotalSettledSweeps, r.TotalSettledCharges = 0, 0, 0
		r.Buckets = slices.Clone(r.Buckets)
		for i := range r.Buckets {
			r.Buckets[i].MeanDiagnostics = MeanDiagnostics{}
		}
	}
	out := struct {
		Report
		Results []deviceJSON `json:"results,omitempty"`
	}{Report: r}
	if perDevice {
		for _, d := range r.Results {
			out.Results = append(out.Results, deviceWire(d, canonical))
		}
	}
	return json.MarshalIndent(out, "", "  ")
}

// deviceWire converts one device result to its wire form; canonical
// zeroes its Diagnostics.
func deviceWire(d DeviceResult, canonical bool) deviceJSON {
	dj := deviceJSON{
		Index:         d.Index,
		Seed:          d.Seed,
		Scenario:      d.Scenario,
		ConsumedUJ:    int64(d.Consumed),
		BatteryLeftUJ: int64(d.BatteryLeft),
		RechargedUJ:   int64(d.Recharged),
		ReclaimedUJ:   int64(d.Reclaimed),
		Died:          d.Died,
		DiedAtMS:      int64(d.DiedAt),
		Utilization:   d.Utilization,
		Activations:   d.RadioActivations,
		Polls:         d.Polls,
		Pages:         d.Pages,
		PowerUps:      d.PowerUps,
		SMSSent:       d.SMSSent,
		Calls:         d.CallsPlaced,
	}
	if !canonical {
		dj.Diagnostics = d.Diagnostics
	}
	return dj
}

// NDJSON renders the result as one compact JSON line (no trailing
// newline), the per-device streaming form: the same schema as the
// report's results array, so a file of these lines is the results
// array unrolled. canonical zeroes the Diagnostics exactly as
// Report.CanonicalJSON does.
func (d DeviceResult) NDJSON(canonical bool) ([]byte, error) {
	return json.Marshal(deviceWire(d, canonical))
}
