package netd

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/kernel"
	"repro/internal/radio"
	"repro/internal/snap"
	"repro/internal/trace"
	"repro/internal/units"
)

// tracedRig builds the rig both sides of a round trip share: a
// cooperative netd over a radio traced or not, with one poller whose
// 1 W tap fills the pool in about 12 s. Its first session ends well
// before 50 s, so a save there finds no waiter.
func tracedRig(t *testing.T, traced bool) *rig {
	t.Helper()
	r := newRigMode(t, kernel.Config{Seed: 7, DecayHalfLife: -1}, radio.Config{Trace: traced}, Config{Cooperative: true})
	r.addPoller(t, "mail", units.Watts(1), 60*units.Second, units.Second,
		Request{ReqBytes: 200, RespBytes: 4000})
	return r
}

// codec runs the radio's and netd's sections in the order a fleet
// device's record does.
func (r *rig) codec(c *snap.Codec) {
	r.radio.Codec(c)
	r.netd.Codec(c)
}

func (r *rig) save(t *testing.T) []byte {
	t.Helper()
	b, err := snap.Save(r.codec)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func seriesBytes(t *testing.T, s *trace.Series) []byte {
	t.Helper()
	b, err := snap.Save(s.Codec)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// ranRig is tracedRig run to 50 s, checked to hold no waiter and, when
// traced, both series.
func ranRig(t *testing.T, traced bool) *rig {
	t.Helper()
	r := tracedRig(t, traced)
	r.k.Run(50 * units.Second)
	if n := len(r.netd.waiters); n != 0 {
		t.Fatalf("%d callers still waiting at the save instant", n)
	}
	if r.radio.Stats().Activations == 0 {
		t.Fatal("the radio never woke before the save")
	}
	if traced && (len(r.radio.StateSeries().Points()) < 2 || len(r.netd.PoolTrace().Points()) < 2) {
		t.Fatalf("traced rig recorded %d radio states and %d pool samples",
			len(r.radio.StateSeries().Points()), len(r.netd.PoolTrace().Points()))
	}
	return r
}

// TestTracedSnapshotRoundTrip: a traced radio and its netd save and
// load onto a fresh traced rebuild with both series byte-equal, and the
// rebuild saves the same bytes.
func TestTracedSnapshotRoundTrip(t *testing.T) {
	src := ranRig(t, true)
	b := src.save(t)

	dst := tracedRig(t, true)
	if err := snap.Load(b, dst.codec); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(seriesBytes(t, src.radio.StateSeries()), seriesBytes(t, dst.radio.StateSeries())) {
		t.Fatalf("radio states %v, restored %v", src.radio.StateSeries().Points(), dst.radio.StateSeries().Points())
	}
	if !bytes.Equal(seriesBytes(t, src.netd.PoolTrace()), seriesBytes(t, dst.netd.PoolTrace())) {
		t.Fatalf("pool samples %v, restored %v", src.netd.PoolTrace().Points(), dst.netd.PoolTrace().Points())
	}
	if !bytes.Equal(b, dst.save(t)) {
		t.Fatal("the restored rig saves different bytes")
	}
}

// TestSnapshotRefusesOtherTracing: a snapshot loads only onto a rebuild
// with the same radio.Config.Trace, in either direction, and the
// refusal names the tracing check.
func TestSnapshotRefusesOtherTracing(t *testing.T) {
	for _, traced := range []bool{true, false} {
		b := ranRig(t, traced).save(t)
		err := snap.Load(b, tracedRig(t, !traced).codec)
		if err == nil || !strings.Contains(err.Error(), "tracing (radio.Config.Trace)") {
			t.Fatalf("snapshot traced=%v loaded onto traced=%v: err %v, want the tracing check", traced, !traced, err)
		}
	}
}

// TestUntracedRadioRecordsNothing: without Config.Trace neither series
// exists, though the radio woke and netd swept.
func TestUntracedRadioRecordsNothing(t *testing.T) {
	r := ranRig(t, false)
	if r.radio.Traced() || r.radio.StateSeries() != nil || r.netd.PoolTrace() != nil {
		t.Fatalf("untraced rig has series: radio %v, pool %v", r.radio.StateSeries(), r.netd.PoolTrace())
	}
}
