package load

import (
	"leap/internal/runtime"
	"leap/internal/sim"
)

// OpOverhead is the CPU cost charged per operation on top of the fault
// latency the runtime reports: the lean data path's entry cost (the §4.2
// figure the paper measures at ~0.27µs), paid by hits and misses alike.
// Without it a fully-resident run would model as infinitely fast.
const OpOverhead = 270 * sim.Nanosecond

// Measurement is a deterministic closed-loop profile of one load run: the
// serialized virtual time the operations cost, split into the CPU-serial
// share (work under the fault-path lock: data-path traversal, cache and
// predictor bookkeeping — one goroutine at a time no matter how many
// drive) and the waitable remainder (remote wire time that concurrent
// faults overlap). Makespan/Throughput project the profile onto g
// goroutines with the work-conserving bound
//
//	makespan(g) = max(Serial, Total/g)
//
// — Amdahl's law over the fault path. The projection is exact for a
// perfectly balanced closed loop and an upper bound otherwise; because it
// is computed from one deterministic run, every figure built on it is
// byte-identical across runs, which real-goroutine timing could never be.
type Measurement struct {
	// Ops is the operations executed; Faults of them paid a fault.
	Ops, Faults int64
	// Total is the serialized virtual time of the run: fault latencies
	// plus OpOverhead per op. Serial is the share that cannot overlap.
	Total, Serial sim.Duration
}

// Measure runs cfg's streams on the calling goroutine (the Sequential
// interleave), recording each operation's virtual-time cost and serial
// share via the acting handle's Client.LastFault. The Memory must not be
// driven by any other goroutine during the measurement.
func Measure(mem *runtime.Memory, cfg Config) (Measurement, error) {
	cfg = cfg.withDefaults()
	var ms Measurement
	_, ops, err := sequential(mem, cfg, func(c *runtime.Client) {
		total, serial := c.LastFault()
		ms.Total += total + OpOverhead
		ms.Serial += serial + OpOverhead
		if total > 0 {
			ms.Faults++
		}
	})
	ms.Ops = ops
	return ms, err
}

// Makespan models the run's completion time when g goroutines drive the
// closed loop: the waitable work spreads over g workers, the serial work
// does not. Monotonically non-increasing in g.
func (ms Measurement) Makespan(g int) sim.Duration {
	if g < 1 {
		g = 1
	}
	span := ms.Total / sim.Duration(g)
	if span < ms.Serial {
		span = ms.Serial
	}
	return span
}

// Throughput reports modeled operations per virtual second at g
// goroutines. Monotonically non-decreasing in g.
func (ms Measurement) Throughput(g int) float64 {
	span := ms.Makespan(g)
	if span <= 0 {
		return 0
	}
	return float64(ms.Ops) / span.Seconds()
}

// SerialFraction reports the Amdahl serial share of the run's virtual
// time — the scaling ceiling: throughput saturates at Total/Serial times
// the single-goroutine rate.
func (ms Measurement) SerialFraction() float64 {
	if ms.Total <= 0 {
		return 0
	}
	return float64(ms.Serial) / float64(ms.Total)
}
