package main

// Example runs the quickstart and pins what it prints: the N-body time of
// one megayear through the cluster's converter, the energy drift of the
// evolve, and the virtual time the desktop worker took, all of which a
// fresh lab testbed repeats exactly.
func Example() {
	main()
	// Output:
	// evolved 128 stars to t = 1 Myr (2.1212 N-body times)
	// energy: E0 = -0.235239, E1 = -0.235240, |dE/E| = 6.68e-06
	// virtual wall time on the desktop worker: 5m2.317965308s
}
