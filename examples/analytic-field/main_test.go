package main

// Example runs the orbit and pins what it prints: the cluster's position
// and orbit angle after sixteen kick–drift–kick steps against the analytic
// expectation, and the virtual time of the run, all of which a fresh lab
// testbed repeats exactly.
func Example() {
	main()
	// Output:
	// 128-star cluster orbiting a Plummer galaxy (M=100, a=1) at R=3, v_circ=5.335
	// after t=0.250: cluster center at (2.740, 1.304, -0.003), orbit angle 0.444 rad (expect ~0.445)
	// galactocentric radius 3.035 (started at 3)
	// virtual wall time: 1.520154866s
}
