package main

import (
	"slices"
	"testing"
)

// TestCensus runs the census on a tiny module laid out like this one:
// a command, the root package's bench_test.go and a bench/ module each
// use one name, fmt.Stringer covers a String method, a test's use does not
// count and internal/wiretest is exempt, so the two names nothing else
// uses are the whole census.
func TestCensus(t *testing.T) {
	want := []string{"internal/a T.M", "internal/a Unused"}
	if got := census("testdata/mod"); !slices.Equal(got, want) {
		t.Fatalf("census %q, want %q", got, want)
	}
}
