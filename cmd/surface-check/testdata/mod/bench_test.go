package jungle

import "jungle/internal/a"

var _ = a.FromBenchTest
