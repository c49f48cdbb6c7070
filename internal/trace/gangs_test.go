package trace

import (
	"strings"
	"testing"
	"time"
)

func TestGangTelemetry(t *testing.T) {
	r := New()
	if _, _, ok := r.GangSkew("gravity/site-mixed"); ok {
		t.Fatal("unsampled gang reported skew")
	}
	r.RecordGangSample("gravity/site-mixed", GangSample{
		At: 1 * time.Millisecond, Rows: []int{64, 64, 64, 64},
		Compute: []time.Duration{100, 100, 100, 400}, Skew: 4.0, Action: "reshard",
	})
	r.RecordGangSample("gravity/site-mixed", GangSample{
		At: 2 * time.Millisecond, Rows: []int{79, 79, 79, 19},
		Compute: []time.Duration{120, 120, 120, 118}, Skew: 1.02,
	})
	r.RecordGangSample("hydro/site-spare", GangSample{
		At: 3 * time.Millisecond, Skew: 1.5,
	})

	last, max, ok := r.GangSkew("gravity/site-mixed")
	if !ok || last != 1.02 || max != 4.0 {
		t.Fatalf("GangSkew = (%v, %v, %v)", last, max, ok)
	}
	rows := r.GangTable()
	if len(rows) != 2 || rows[0].Gang != "gravity/site-mixed" || rows[1].Gang != "hydro/site-spare" {
		t.Fatalf("GangTable order: %v", rows)
	}
	g := rows[0].Stats
	if g.Reshards != 1 || len(g.Samples) != 2 {
		t.Fatalf("gravity stats = %+v", g)
	}
	if rows[1].Stats.Reshards != 0 {
		t.Fatalf("hydro stats = %+v", rows[1].Stats)
	}

	// The table deep-copies samples: mutating a returned row must not
	// reach the recorder.
	rows[0].Stats.Samples[0].Rows[0] = -1
	if r.GangTable()[0].Stats.Samples[0].Rows[0] != 64 {
		t.Fatal("GangTable aliases recorder state")
	}

	out := r.RenderGangs()
	for _, want := range []string{"GANG", "SKEW", "RESHARDS", "gravity/site-mixed", "79/79/79/19"} {
		if !strings.Contains(out, want) {
			t.Fatalf("RenderGangs missing %q:\n%s", want, out)
		}
	}
}
