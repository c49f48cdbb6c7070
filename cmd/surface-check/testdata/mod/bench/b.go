package bench

import "jungle/internal/a"

func Run() { a.FromBench() }
