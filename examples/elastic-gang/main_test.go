package main

// Example runs the gang and pins what it prints: the skew gauge before
// and after the gang reshards itself, the gang table with its rows per
// rank, and the energy after the migrate and the resize.
func Example() {
	main()
	// Output:
	// skew on site-mixed: peak 4.00, now 1.01 (trigger 1.15)
	// GANG                         EVOLVES     SKEW  MAXSKEW  RESHARDS  ROWS
	// gravity/site-mixed                 4     1.01     4.00         1  158/158/157/39
	// migrated gang to site-spare
	// finished on 2 ranks at t=0.0195, E=-0.235329
}
