package storage

import (
	"math"
	"testing"

	"leap/internal/rdma"
	"leap/internal/sim"
)

func meanRead(d Device, distance int64, n int, gap sim.Duration) float64 {
	var sum float64
	now := sim.Time(0)
	for i := 0; i < n; i++ {
		now = now.Add(gap)
		done := d.Read(i, now, distance)
		sum += float64(done.Sub(now))
	}
	return sum / float64(n)
}

func TestHDDSeekTiers(t *testing.T) {
	seq := meanRead(NewHDD(sim.NewRNG(1)), 1, 20000, 10*sim.Millisecond)
	near := meanRead(NewHDD(sim.NewRNG(2)), 10, 20000, 10*sim.Millisecond)
	far := meanRead(NewHDD(sim.NewRNG(3)), 100000, 20000, 100*sim.Millisecond)
	if !(seq < near && near < far) {
		t.Fatalf("seek tiers out of order: seq=%.0f near=%.0f far=%.0f", seq, near, far)
	}
	// Stride-scale distance ≈ the paper's 91.48µs figure (Fig. 1).
	if math.Abs(near-91480)/91480 > 0.08 {
		t.Fatalf("HDD near-seek mean = %.0fns, want ~91480ns", near)
	}
	// Streaming is an order of magnitude cheaper than seeking.
	if seq > near/4 {
		t.Fatalf("HDD streaming %.0fns not well below near seek %.0fns", seq, near)
	}
	if far < float64(250*sim.Microsecond) {
		t.Fatalf("HDD far seek = %.0fns, want >= 250µs", far)
	}
}

func TestHDDSerializesOnHead(t *testing.T) {
	d := NewHDD(sim.NewRNG(4))
	// Two overlapping requests: the second completes after the first.
	t1 := d.Read(0, 0, 10)
	t2 := d.Read(1, 0, 10)
	if t2 <= t1 {
		t.Fatalf("HDD head did not serialize: %v then %v", t1, t2)
	}
	if d.Reads != 2 {
		t.Fatalf("Reads = %d", d.Reads)
	}
	if d.Busy <= 0 {
		t.Fatal("busy time not accounted")
	}
}

func TestSSDLatencyFlat(t *testing.T) {
	// SSD latency must be distance-insensitive.
	near := meanRead(NewSSD(sim.NewRNG(5)), 1, 20000, sim.Millisecond)
	far := meanRead(NewSSD(sim.NewRNG(6)), 1<<30, 20000, sim.Millisecond)
	if math.Abs(near-far)/near > 0.05 {
		t.Fatalf("SSD latency distance-sensitive: %.0f vs %.0f", near, far)
	}
	if math.Abs(near-20000)/20000 > 0.08 {
		t.Fatalf("SSD mean read = %.0fns, want ~20µs", near)
	}
}

func TestSSDWritesSlower(t *testing.T) {
	d := NewSSD(sim.NewRNG(7))
	var rsum, wsum float64
	const n = 20000
	for i := 0; i < n; i++ {
		now := sim.Time(i) * sim.Time(sim.Millisecond)
		rsum += float64(d.Read(i, now, 1).Sub(now))
		wsum += float64(d.Write(i, now).Sub(now))
	}
	if wsum <= rsum {
		t.Fatal("SSD writes should be slower than reads")
	}
}

func TestSSDChannelsParallel(t *testing.T) {
	d := NewSSD(sim.NewRNG(8))
	// 8 simultaneous reads on distinct channels do not serialize fully.
	var maxDone sim.Time
	for core := 0; core < 8; core++ {
		done := d.Read(core, 0, 1)
		if done > maxDone {
			maxDone = done
		}
	}
	// Full serialization would take >= 8×8µs floor; parallel channels keep
	// the makespan near one op's latency.
	if maxDone > sim.Time(80*sim.Microsecond) {
		t.Fatalf("SSD channels appear serialized: makespan %v", sim.Duration(maxDone))
	}
}

func TestRemoteUsesFabric(t *testing.T) {
	fabric := rdma.New(rdma.Config{}, sim.NewRNG(9))
	d := NewRemote(fabric)
	got := meanRead(d, 1, 50000, 100*sim.Microsecond)
	if math.Abs(got-4300)/4300 > 0.05 {
		t.Fatalf("remote mean read = %.0fns, want ~4.3µs", got)
	}
	if fabric.Ops() != 50000 {
		t.Fatalf("fabric ops = %d", fabric.Ops())
	}
	if d.ReadLatency.Count() != 50000 {
		t.Fatal("read latency histogram not populated")
	}
}

func TestRemoteCongestionUnderBurst(t *testing.T) {
	fabric := rdma.New(rdma.Config{Queues: 1, ServiceTime: 2 * sim.Microsecond}, sim.NewRNG(10))
	d := NewRemote(fabric)
	var last sim.Time
	for i := 0; i < 64; i++ {
		last = d.Read(0, 0, 1)
	}
	if last < sim.Time(63*2*sim.Microsecond) {
		t.Fatalf("burst did not congest the single queue: %v", sim.Duration(last))
	}
}

func TestDeviceNamesAndMeans(t *testing.T) {
	fabric := rdma.New(rdma.Config{}, sim.NewRNG(11))
	devs := []Device{NewHDD(sim.NewRNG(11)), NewSSD(sim.NewRNG(12)), NewRemote(fabric)}
	wantNames := []string{"hdd", "ssd", "remote"}
	for i, d := range devs {
		if d.Name() != wantNames[i] {
			t.Errorf("device %d name = %q, want %q", i, d.Name(), wantNames[i])
		}
		if d.MeanReadLatency() <= 0 {
			t.Errorf("%s MeanReadLatency = %v", d.Name(), d.MeanReadLatency())
		}
	}
	// Speed ordering: remote < ssd < hdd (near seek).
	if !(devs[2].MeanReadLatency() < devs[1].MeanReadLatency() &&
		devs[1].MeanReadLatency() < devs[0].MeanReadLatency()) {
		t.Fatal("device speed ordering violated")
	}
}
