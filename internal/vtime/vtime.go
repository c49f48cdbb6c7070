// Package vtime provides the virtual-time substrate used by the jungle
// simulator: per-actor virtual clocks and compute-device performance models.
//
// The paper's experiments ran on real hardware (DAS-4 clusters, the LGM GPU
// cluster, desktops, transatlantic lightpaths). This repository reproduces
// the experiments on a single machine by accounting time virtually: physics
// kernels run for real (bit-exact results across kernel variants), while the
// time each call *would* have taken on a given device is computed from a
// flop-count/throughput model and advances a virtual clock.
package vtime

import (
	"fmt"
	"sync"
	"time"
)

// Clock is a monotonic virtual clock. Each simulated actor (coupler, worker,
// daemon, hub) owns one. Clocks only move forward.
type Clock struct {
	mu  sync.Mutex
	now time.Duration
}

// NewClock returns a clock at virtual time zero.
func NewClock() *Clock { return &Clock{} }

// Now returns the current virtual time.
func (c *Clock) Now() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// Advance moves the clock forward by d. Negative d is ignored.
func (c *Clock) Advance(d time.Duration) time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	if d > 0 {
		c.now += d
	}
	return c.now
}

// AdvanceTo moves the clock forward to t if t is later than the current
// time; otherwise the clock is unchanged. It returns the resulting time.
// This is the synchronization rule for message receipt: a receiver's clock
// becomes max(local, arrival).
func (c *Clock) AdvanceTo(t time.Duration) time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	if t > c.now {
		c.now = t
	}
	return c.now
}

// DeviceKind distinguishes compute device classes.
type DeviceKind int

const (
	// CPU is a general-purpose multi-core processor.
	CPU DeviceKind = iota
	// GPU is an accelerator with high throughput and per-call launch latency.
	GPU
)

func (k DeviceKind) String() string {
	switch k {
	case CPU:
		return "cpu"
	case GPU:
		return "gpu"
	default:
		return fmt.Sprintf("DeviceKind(%d)", int(k))
	}
}

// Device models the performance of one compute device. Throughput is
// expressed in useful (not peak) Gflop/s for the irregular kernels used in
// the paper (tree walks, SPH, Hermite); LaunchLatency models per-call fixed
// overhead (GPU kernel launch + host/device transfer setup).
type Device struct {
	Name          string
	Kind          DeviceKind
	Gflops        float64 // sustained Gflop/s for one core (CPU) or the whole device (GPU)
	Cores         int     // CPU: cores on the device; GPU: 1
	LaunchLatency time.Duration
}

// Validate reports whether the device description is usable.
func (d *Device) Validate() error {
	if d.Gflops <= 0 {
		return fmt.Errorf("vtime: device %q has non-positive Gflops %v", d.Name, d.Gflops)
	}
	if d.Cores < 1 {
		return fmt.Errorf("vtime: device %q has %d cores", d.Name, d.Cores)
	}
	return nil
}

// Time returns the virtual duration of a computation of the given flop count
// using n parallel workers on the device (n is clamped to the core count;
// n<=0 means all cores). Parallel efficiency is assumed perfect within a
// device; cross-device efficiency is modeled by callers (e.g. mpisim).
func (d *Device) Time(flops float64, n int) time.Duration {
	if flops <= 0 {
		return d.LaunchLatency
	}
	cores := d.Cores
	if n > 0 && n < cores {
		cores = n
	}
	sec := flops / (d.Gflops * 1e9 * float64(cores))
	return d.LaunchLatency + time.Duration(sec*float64(time.Second))
}

// Seconds is a convenience converter from float seconds to time.Duration.
func Seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }
