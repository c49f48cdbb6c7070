package vtime

import (
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestClockStartsAtZero(t *testing.T) {
	c := NewClock()
	if got := c.Now(); got != 0 {
		t.Fatalf("new clock at %v, want 0", got)
	}
}

func TestClockAdvance(t *testing.T) {
	c := NewClock()
	c.Advance(3 * time.Second)
	c.Advance(2 * time.Second)
	if got := c.Now(); got != 5*time.Second {
		t.Fatalf("clock at %v, want 5s", got)
	}
}

func TestClockAdvanceNegativeIgnored(t *testing.T) {
	c := NewClock()
	c.Advance(time.Second)
	c.Advance(-10 * time.Second)
	if got := c.Now(); got != time.Second {
		t.Fatalf("clock at %v, want 1s", got)
	}
}

func TestClockAdvanceTo(t *testing.T) {
	c := NewClock()
	c.AdvanceTo(4 * time.Second)
	if got := c.Now(); got != 4*time.Second {
		t.Fatalf("clock at %v, want 4s", got)
	}
	// Moving backwards is a no-op.
	c.AdvanceTo(time.Second)
	if got := c.Now(); got != 4*time.Second {
		t.Fatalf("clock moved backwards to %v", got)
	}
}

func TestClockMonotonicProperty(t *testing.T) {
	// Property: for any sequence of Advance/AdvanceTo operations the clock
	// never decreases.
	f := func(steps []int16) bool {
		c := NewClock()
		prev := c.Now()
		for i, s := range steps {
			if i%2 == 0 {
				c.Advance(time.Duration(s) * time.Millisecond)
			} else {
				c.AdvanceTo(time.Duration(s) * time.Millisecond)
			}
			now := c.Now()
			if now < prev {
				return false
			}
			prev = now
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestClockConcurrentAdvance(t *testing.T) {
	c := NewClock()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Advance(time.Microsecond)
			}
		}()
	}
	wg.Wait()
	if got := c.Now(); got != 8*1000*time.Microsecond {
		t.Fatalf("clock at %v, want 8ms", got)
	}
}

func TestDeviceTime(t *testing.T) {
	cpu := &Device{Name: "core2", Kind: CPU, Gflops: 2, Cores: 4}
	// 8 Gflop on 4 cores at 2 Gflop/s/core = 1 s.
	if got := cpu.Time(8e9, 0); got != time.Second {
		t.Fatalf("cpu time %v, want 1s", got)
	}
	// Restricting to 2 cores doubles the time.
	if got := cpu.Time(8e9, 2); got != 2*time.Second {
		t.Fatalf("cpu time on 2 cores %v, want 2s", got)
	}
	// Asking for more cores than present clamps.
	if got := cpu.Time(8e9, 64); got != time.Second {
		t.Fatalf("cpu time on 64 cores %v, want 1s", got)
	}
}

func TestDeviceLaunchLatency(t *testing.T) {
	gpu := &Device{Name: "c2050", Kind: GPU, Gflops: 500, Cores: 1, LaunchLatency: time.Millisecond}
	if got := gpu.Time(0, 0); got != time.Millisecond {
		t.Fatalf("zero-flop call cost %v, want launch latency 1ms", got)
	}
	got := gpu.Time(500e9, 0)
	want := time.Second + time.Millisecond
	if got != want {
		t.Fatalf("gpu time %v, want %v", got, want)
	}
}

func TestDeviceValidate(t *testing.T) {
	bad := &Device{Name: "x", Gflops: 0, Cores: 1}
	if err := bad.Validate(); err == nil {
		t.Fatal("zero-Gflops device validated")
	}
	bad = &Device{Name: "x", Gflops: 1, Cores: 0}
	if err := bad.Validate(); err == nil {
		t.Fatal("zero-core device validated")
	}
	good := &Device{Name: "x", Gflops: 1, Cores: 1}
	if err := good.Validate(); err != nil {
		t.Fatalf("good device rejected: %v", err)
	}
}

func TestDeviceKindString(t *testing.T) {
	if CPU.String() != "cpu" || GPU.String() != "gpu" {
		t.Fatalf("kind strings: %q %q", CPU.String(), GPU.String())
	}
}

func TestSeconds(t *testing.T) {
	if got := Seconds(1.5); got != 1500*time.Millisecond {
		t.Fatalf("Seconds(1.5) = %v", got)
	}
}
